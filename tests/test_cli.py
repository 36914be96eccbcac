import argparse
import gc
import io
import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2rep import assembly, cli
from su2rep.assembly import PairingMatrix
from su2rep.cli import main
from su2rep.graded import VARIABLE_NAMES
from su2rep.series import latex_rational, monomial_str

RUN = [sys.executable, "-m", "su2rep"]


def spawn(*args):
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=120
    )


def run_json(capsys, *args):
    code = main(list(args) + ["--format", "json"])
    out = capsys.readouterr().out
    return json.loads(out), out, code


# -- exit codes (spawned binary) ------------------------------------------------

def test_usage_errors_exit_2():
    for args in (
        ["betti", "--genus", "1"],
        ["ring", "--k", "-1"],
        ["eq-series", "--genus", "2", "--order", "4"],
        ["nonsense"],
        ["betti", "--genus", "x"],
        ["betti", "--genus", "2", "--route", "open"],
        ["pairing", "--genus", "2", "--bogus", "1"],
        ["verify", "--format", "json"],
    ):
        result = spawn(*args)
        assert result.returncode == 2, args
        assert "usage:" in result.stderr, args
        assert result.stdout == "", args


@pytest.mark.parametrize("args", [["--genus=2"], ["--gen", "2"]])
def test_argparse_only_forms_still_run(args):
    # --flag=value and abbreviations take the argparse path, with the same output
    result = spawn("betti", *args)
    assert result.returncode == 0
    assert result.stdout == spawn("betti", "--genus", "2").stdout


def test_corrupt_cache_exits_3(tmp_path):
    # a crash must be told apart from a failed check (exit 1)
    from su2rep.groebner import CACHE_ENV_VAR
    import os

    (tmp_path / "relation-ideal-2.txt").write_text("not a basis\n")
    env = dict(os.environ)
    env[CACHE_ENV_VAR] = str(tmp_path)
    for args in (["verify", "--genus", "2"], ["ring", "--k", "2"]):
        result = subprocess.run(
            RUN + args, capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 3, args
        assert result.stdout == ""
        assert "Traceback" in result.stderr
        assert "ValueError" in result.stderr


def test_stdout_closed_by_reader_exits_141_quietly():
    # `| head -1`: pairing at genus 16 writes about 276 KB, past any pipe buffer,
    # so the writer meets the closed pipe; it exits as SIGPIPE would, silently
    proc = subprocess.Popen(RUN + ["pairing", "--genus", "16"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"intersection pairing, genus 16\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert stderr == b""


def test_verify_passes_exit_0():
    result = spawn("verify", "--genus", "2")
    assert result.returncode == 0
    assert "overall: PASS" in result.stdout


def test_identical_invocations_identical_bytes():
    a = spawn("verify", "--genus", "2", "--format", "json")
    b = spawn("verify", "--genus", "2", "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


# -- process entry point ------------------------------------------------------------

def test_run_freezes_the_start_up_heap_before_the_command(monkeypatch):
    # frozen objects are left to the OS at exit instead of collected one by one
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.get_freeze_count()) or 0)
    before = gc.get_freeze_count()
    try:
        with pytest.raises(SystemExit) as exited:
            cli.run()
    finally:
        gc.unfreeze()
    assert exited.value.code == 0
    assert len(seen) == 1 and seen[0] > before


def test_main_leaves_the_heap_unfrozen(capsys):
    # tests and tracers call main() in-process: a freeze there would pin each
    # call's heap for the life of the process
    before = gc.get_freeze_count()
    assert main(["betti", "--genus", "2"]) == 0
    assert gc.get_freeze_count() == before


# -- betti ------------------------------------------------------------------------

def test_betti_g2_routes_agree(capsys):
    closed, _, code1 = run_json(capsys, "betti", "--genus", "2")
    structural, _, code2 = run_json(
        capsys, "betti", "--genus", "2", "--route", "structural"
    )
    assert code1 == code2 == 0
    assert closed["data"]["betti"] == [1, 0, 1, 0, 1, 0, 1]
    assert structural["data"]["betti"] == closed["data"]["betti"]
    assert closed["data"]["route"] == "closed-form"
    assert structural["data"]["route"] == "structural"
    assert closed["genus"] == 2
    assert closed["checks"][0]["name"] == "poincare-duality"
    assert closed["checks"][0]["status"] == "pass"


def test_betti_text_polynomial(capsys):
    code = main(["betti", "--genus", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "IP_t = 1 + t^2 + t^4 + t^6" in out


# -- ring -------------------------------------------------------------------------

def test_ring_k0(capsys):
    doc, _, code = run_json(capsys, "ring", "--k", "0")
    assert code == 0
    assert doc["data"]["basis"] == ["alpha", "gamma"]
    assert doc["data"]["hilbert_numerator"] == [1]
    assert doc["data"]["hilbert_denominator"] == [1, 0, 0, 0, -1]


def test_ring_k2_order6(capsys):
    doc, _, code = run_json(capsys, "ring", "--k", "2", "--order", "6")
    assert code == 0
    assert doc["data"]["expansion"][6] == 2
    assert "alpha^3 + 2*alpha*beta + 4*gamma" in doc["data"]["basis"]


# -- pairing ----------------------------------------------------------------------

def test_pairing_g2(capsys):
    doc, _, code = run_json(capsys, "pairing", "--genus", "2")
    assert code == 0
    entries = doc["data"]["entries"]
    assert len(entries) == 4
    assert all(e["value"] == {"num": "8", "den": "1"} for e in entries)
    assert all((e["m"], e["n"]) == (3, 0) for e in entries)


def test_pairing_g3_grouped(capsys):
    doc, _, code = run_json(capsys, "pairing", "--genus", "3")
    groups = {(e["m"], e["n"]) for e in doc["data"]["entries"]}
    assert groups == {(6, 0), (4, 1)}


@pytest.mark.parametrize("g", [2, 3, 8, 16])
def test_pairing_document_shares_one_value_dict_per_degree(g):
    # the document holds the view, whose g - 1 per-degree values every entry shares
    doc, _ = cli.cmd_pairing(argparse.Namespace(genus=g))
    view = doc["data"]["entries"]
    assert isinstance(view, PairingMatrix) and len(view.values) == g - 1
    assert len({id(e.value) for e in view}) == g - 1


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
def test_pairing_render_makes_no_entry(monkeypatch, capsys, fmt):
    made = []

    def counted(*fields):
        made.append(fields)
        return assembly.PairingEntry(*fields)

    monkeypatch.setattr(assembly, "PairingEntry", counted)
    assert main(["pairing", "--genus", "8", "--format", fmt]) == 0
    assert capsys.readouterr().out.count("\n") > len(assembly.pairing_matrix(8))
    assert made == []


# -- eq-series ----------------------------------------------------------------------

def test_eq_series_routes(capsys):
    closed, _, _ = run_json(
        capsys, "eq-series", "--genus", "2", "--order", "12"
    )
    structural, _, _ = run_json(
        capsys, "eq-series", "--genus", "2", "--order", "12", "--route", "structural"
    )
    assert closed["data"]["coefficients"][:7] == [1, 0, 1, 4, 2, 4, 7]
    assert closed["data"]["coefficients"] == structural["data"]["coefficients"]


# -- e-basis ----------------------------------------------------------------------

def test_e_basis_m2(capsys):
    doc, _, code = run_json(capsys, "e-basis", "--m", "2")
    assert code == 0
    assert doc["data"]["monomials"] == [
        [0, 0, 0],
        [1, 0, 0],
        [2, 0, 0],
        [0, 0, 1],
    ]
    assert doc["data"]["hilbert"] == [1, 0, 1, 0, 1, 0, 1]
    assert doc["checks"][0]["name"] == "e-basis-independence"
    assert doc["checks"][0]["status"] == "pass"


def test_e_basis_m0_empty(capsys):
    doc, _, code = run_json(capsys, "e-basis", "--m", "0")
    assert code == 0
    assert doc["data"]["size"] == 0
    assert doc["data"]["monomials"] == []


def test_e_basis_past_cap_reports_skipped_check(capsys):
    # the independence check is never dropped without a record
    m = cli.E_INDEPENDENCE_CAP + 1
    doc, _, code = run_json(capsys, "e-basis", "--m", str(m))
    assert code == 0
    assert doc["checks"] == [
        {
            "name": "e-basis-independence",
            "genus": None,
            "status": "skipped",
            "details": f"m {m} exceeds cap {cli.E_INDEPENDENCE_CAP}",
        }
    ]


# -- verify -----------------------------------------------------------------------

EXPECTED_CHECKS = [
    "intersection-route-agreement",
    "equivariant-route-agreement",
    "polynomiality",
    "poincare-duality",
    "e-basis-independence",
    "b-series-inverse",
    "lefschetz-dimension-identity",
    "prim-formula-vs-bruteforce",
    "restriction-vs-invariant",
    "top-identity",
]


def test_verify_g2_all_pass(capsys):
    doc, _, code = run_json(capsys, "verify", "--genus", "2")
    assert code == 0
    assert [c["name"] for c in doc["checks"]] == EXPECTED_CHECKS
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert doc["data"]["overall"] == "pass"


def test_verify_g6_guards_skip(capsys):
    doc, _, code = run_json(capsys, "verify", "--genus", "6")
    assert code == 0
    status = {c["name"]: c["status"] for c in doc["checks"]}
    assert status["intersection-route-agreement"] == "pass"
    assert status["polynomiality"] == "pass"
    assert status["poincare-duality"] == "pass"
    assert status["b-series-inverse"] == "pass"
    assert status["lefschetz-dimension-identity"] == "pass"
    assert status["equivariant-route-agreement"] == "skipped"
    assert status["prim-formula-vs-bruteforce"] == "skipped"
    assert status["restriction-vs-invariant"] == "skipped"
    assert status["top-identity"] == "skipped"
    assert doc["data"]["overall"] == "pass"


def test_verify_cap_override(capsys):
    doc, _, code = run_json(
        capsys, "verify", "--genus", "5", "--unsafe-genus-cap", "5"
    )
    assert code == 0
    status = {c["name"]: c["status"] for c in doc["checks"]}
    # brute-force prim allows g = 5; the Jacobian model and top identity do not
    assert status["prim-formula-vs-bruteforce"] == "pass"
    assert status["equivariant-route-agreement"] == "pass"
    assert status["restriction-vs-invariant"] == "skipped"
    assert status["top-identity"] == "skipped"


CAPPED_CHECKS = [
    (name, hard_cap)
    for name, hard_cap, _ in cli.CHECKS
    if hard_cap not in (None, math.inf)
]


@pytest.mark.parametrize(
    "name, hard_cap", CAPPED_CHECKS, ids=[n for n, _ in CAPPED_CHECKS]
)
def test_hard_cap_is_decided_by_the_verify_table_alone(name, hard_cap):
    # the library takes any genus, so the row runs up to its cap and is
    # skipped, with a record, one past it
    at_cap = {c.name: c for c in cli.run_verification(hard_cap, hard_cap).checks}
    assert at_cap[name].status == "pass"
    past = {c.name: c for c in cli.run_verification(hard_cap + 1, hard_cap + 1).checks}
    assert past[name].status == "skipped"
    assert past[name].details == f"genus {hard_cap + 1} exceeds cap {hard_cap}"


def test_verify_derives_closed_table_once(monkeypatch):
    calls = []
    original = cli.ip_series_closed

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(cli, "ip_series_closed", counted)
    report = cli.run_verification(3, 4)
    assert calls == [3]
    status = {c.name: c.status for c in report.checks}
    assert status["intersection-route-agreement"] == "pass"
    assert status["poincare-duality"] == "pass"


def test_verify_derives_closed_equivariant_series_once(monkeypatch):
    # one series for the route-agreement check; ip_series_closed divides the
    # numerators exactly and expands no series, and polynomiality reads its table
    calls = []
    original = cli.equivariant_series_closed

    def counted(g, N):
        calls.append((g, N))
        return original(g, N)

    monkeypatch.setattr(cli, "equivariant_series_closed", counted)
    report = cli.run_verification(3, 4)
    assert calls == [(3, 42)]
    status = {c.name: c.status for c in report.checks}
    assert status["equivariant-route-agreement"] == "pass"
    assert status["polynomiality"] == "pass"
    assert [c.details for c in report.checks[1:3]] == [
        "series agree to order 42",
        "degrees 13..42 all vanish",
    ]


def test_polynomiality_record_follows_the_vanishing_test(monkeypatch):
    # a correction numerator that adds t^{6g-5} to the correction series breaks
    # polynomiality; verify must raise or report a failure, never a pass
    from su2rep import assembly
    from su2rep.series import zpoly_add, zpoly_shift

    original = assembly._correction_numerator

    def perturbed(g):
        # the numerator is over 2(1-t^4)
        return zpoly_add(original(g), zpoly_shift((2, 0, 0, 0, -2), 6 * g - 5))

    monkeypatch.setattr(assembly, "_correction_numerator", perturbed)
    try:
        report = cli.run_verification(3, 4)
    except ArithmeticError:
        return
    status = {c.name: c.status for c in report.checks}
    assert status["polynomiality"] == "fail"


@pytest.mark.parametrize("argv, expected", [
    (["verify", "--genus", "3"], ["correction_series", "equivariant_series_closed"]),
    (["betti", "--genus", "3"], []),
])
def test_closed_series_are_expanded_at_most_once_per_command(monkeypatch, capsys, argv, expected):
    # both series are patched in every namespace that holds them, as the traced
    # benchmark run wraps them; the closed table itself expands neither
    from su2rep import assembly

    calls = []
    for name in ("equivariant_series_closed", "correction_series"):
        original = getattr(assembly, name)

        def counted(g, N, name=name, original=original):
            calls.append(name)
            return original(g, N)

        for module in (assembly, cli):
            if getattr(module, name) is original:
                monkeypatch.setattr(module, name, counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert sorted(calls) == expected


def test_restriction_check_never_passes_on_an_all_zero_window(monkeypatch):
    # at g=6 with U = g + 4, the old default truncation, every compared entry
    # is 0 on all three sides; agreement there compares nothing
    def zeros(g, U=None):
        return {d: 0 for d in range(9)}

    monkeypatch.setattr(cli, "restriction_image_dimensions", zeros)
    monkeypatch.setattr(cli, "invariant_truncated_dimensions", zeros)
    monkeypatch.setattr(cli, "correction_series", lambda g, N: (0,) * (N + 1))
    passed, details = cli._check_restriction(2, None)
    assert passed is False
    assert "all-zero window" in details
    report = cli.run_verification(2, 3)
    status = {c.name: c.status for c in report.checks}
    assert status["restriction-vs-invariant"] == "fail"


@pytest.mark.parametrize("g", range(4, 8))  # past verify's cap
def test_restriction_check_compares_nonzero_entries_past_the_cap(g):
    # the default window reaches degree 2(g - 1), where u^{g-1} starts
    passed, details = cli._check_restriction(g, None)
    assert passed, details
    window = 2 * g + 2
    assert details == f"restriction, invariant, and correction agree in degrees 0..{window}"


def test_b_series_check_passing_text():
    assert cli._check_b_series(2, None) == (
        True,
        "product with independent tanh expansion is 1 to order 24",
    )


def test_b_series_check_names_failing_product(monkeypatch):
    original = cli.tanh_over_t_series

    def corrupted(order):
        coeffs = list(original(order))
        coeffs[2] += 1
        return tuple(coeffs)

    monkeypatch.setattr(cli, "tanh_over_t_series", corrupted)
    passed, details = cli._check_b_series(2, None)
    assert passed is False
    assert details == "product with independent tanh expansion deviates from 1"


def test_b_series_check_names_failing_coefficients(monkeypatch):
    monkeypatch.setattr(
        cli, "b_coefficients", lambda K: [1, Fraction(1, 3), Fraction(1, 45)]
    )
    passed, details = cli._check_b_series(2, None)
    assert passed is False
    assert details == "b_0, b_1, b_2 are 1, 1/3, 1/45, expected 1, 1/3, -1/45"


def run_isolated(probe: str) -> str:
    """stdout of `python -S -c probe` with su2rep importable.

    Each CLI job is its own process, so import cost is paid on every run;
    -S keeps site's .pth hooks from loading modules on su2rep's behalf.
    """
    from pathlib import Path
    import os

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    # the Groebner cache works with os.path: pathlib would pull in urllib.parse,
    # ipaddress, fnmatch and ntpath on every job
    probe = (
        "import sys, su2rep.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json', 'pathlib'} & set(sys.modules)))"
    )
    assert run_isolated(probe) == "[]\n"


def test_well_formed_calls_load_no_argparse_gettext_locale_or_json():
    # argparse (with gettext and locale) is built only for help and usage
    # errors, and the JSON writer quotes with _json alone
    calls = [
        args + ["--format", fmt]
        for args in (
            ["betti", "--genus", "2", "--route", "structural"],
            ["ring", "--k", "1", "--order", "6"],
            ["pairing", "--genus", "2"],
            ["eq-series", "--genus", "2", "--order", "12", "--route", "structural"],
            ["e-basis", "--m", "2"],
            ["verify", "--genus", "2", "--unsafe-genus-cap", "2"],
        )
        for fmt in ("text", "json", "latex")
    ]
    probe = (
        "import io, sys, su2rep.cli\n"
        "sys.stdout = io.StringIO()\n"
        f"codes = [su2rep.cli.main(args) for args in {calls!r}]\n"
        "loaded = {'argparse', 'gettext', 'locale', 'json'} & set(sys.modules)\n"
        "print(codes, sorted(loaded), file=sys.__stdout__)\n"
    )
    assert run_isolated(probe) == f"{[0] * len(calls)} []\n"


FLAGS = sorted({f.name for _, flags in cli.OPTIONS.values() for f in flags})
CHOICES = sorted(
    {c for _, flags in cli.OPTIONS.values() for f in flags for c in f.choices or ()}
)
INTS = ["2", "3", "7", " 3", "+3", "1_0", "\u0663"]
any_flag = st.sampled_from(
    FLAGS + ["--gen", "--ord", "--unsafe", "--fo", "-h", "--help", "--"]
)
any_value = st.sampled_from(INTS + ["0", "-3", "x", "", "JSON", "closed "] + CHOICES)
# abbreviations, --flag=value, a flag without its value, bad values, and
# flags of other commands
noise = (
    st.tuples(any_flag, any_value)
    | st.tuples(any_flag, any_value).map(lambda fv: ("=".join(fv),))
    | any_flag.map(lambda f: (f,))
)


def command_lines(command):
    # the command's own flags (--genus for an unknown command) with good
    # values, some missing or repeated, shuffled with up to two noise tokens
    own = st.one_of([
        st.tuples(st.just(f.name), st.sampled_from(f.choices or INTS))
        for f in cli.OPTIONS.get(command, ("", (cli.GENUS,)))[1]
    ])
    args = st.tuples(
        st.lists(own, max_size=4, unique_by=lambda a: a[0]) | st.lists(own, max_size=4),
        st.just([]) | st.lists(noise, min_size=1, max_size=2),
    )
    return args.flatmap(lambda a: st.permutations(a[0] + a[1])).map(
        lambda args: [command] + [a for arg in args for a in arg]
    )


argvs = st.sampled_from(list(cli.COMMANDS) + ["nonsense", "-h"]).flatmap(command_lines)


@settings(max_examples=300, deadline=None)
@given(argvs)
def test_fast_parser_agrees_with_argparse(argv):
    # whatever the fast parser accepts, argparse parses to the same attributes
    fast = cli._parse_fast(argv)
    if fast is not None:
        assert vars(fast) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "--genus", "2", "--genus", "3"],
        ["betti", "--genus=2"],
        ["betti", "--gen", "2"],
        ["betti", "--genus", "-3"],
        ["betti", "--genus"],
        ["betti", "--route", "closed"],
        ["betti", "--genus", "2", "-h"],
        ["verify", "--genus", "2", "--format", "JSON"],
        ["ring", "--k", "x"],
        ["ring", "--genus", "2"],
        ["-h"],
        [],
    ],
)
def test_fast_parser_leaves_the_rest_to_argparse(argv):
    assert cli._parse_fast(argv) is None


# -- formats ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "args",
    [
        ["betti", "--genus", "3"],
        ["ring", "--k", "1"],
        ["pairing", "--genus", "2"],
        ["eq-series", "--genus", "2"],
        ["e-basis", "--m", "3"],
        ["verify", "--genus", "2"],
    ],
)
def test_json_round_trips_byte_identically(capsys, args):
    _, raw, code = run_json(capsys, *args)
    assert code == 0
    assert json.dumps(json.loads(raw), sort_keys=True, indent=2) + "\n" == raw


# every code point, control characters and lone surrogates included
any_text = st.text(st.characters(exclude_categories=()))
json_scalars = (
    any_text
    | st.integers(-(10**40), 10**40)
    | st.booleans()
    | st.none()
)
json_docs = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(any_text, inner, max_size=4),
    max_leaves=20,
)


def render_json_str(doc) -> str:
    out = io.StringIO()
    cli.render_json(doc, out.write)
    return out.getvalue()


@given(
    json_docs,
    st.dictionaries(any_text, st.lists(json_docs, max_size=3), max_size=3),
)
def test_render_json_matches_json_dumps(doc, fields):
    # json.dumps is the reference the writer reproduces byte for byte
    assert render_json_str(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    # list fields of data, as a command's document holds them
    nested = {"data": fields, "doc": doc}
    assert render_json_str(nested) == json.dumps(nested, sort_keys=True, indent=2) + "\n"


def test_render_json_empty_containers_at_depth():
    doc = {"a": [], "b": {}, "c": [[], {}, ()], "d": {"e": {"f": []}}}
    assert render_json_str(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert render_json_str([]) == "[]\n"
    assert render_json_str({}) == "{}\n"


@pytest.mark.parametrize(
    "doc",
    [1.5, {"x": [0.0]}, [Fraction(1, 2)], {1: "a"}, {None: 1}, {"a": {2: 3}},
     {"data": {"a": iter(())}}],
)
def test_render_json_rejects_other_types(doc):
    with pytest.raises(TypeError):
        render_json_str(doc)


def _listed(doc: dict) -> dict:
    """A command's document as `json.dumps` reads it.

    Pairing's view becomes the list of entry dicts the CLI once built, one value
    dict per degree shared by its entries; any other document is returned as is.
    """
    if doc["command"] != "pairing":
        return doc
    view = doc["data"]["entries"]
    values = [{"num": str(v.numerator), "den": str(v.denominator)} for v in view.values]
    entries = [
        {"left": e.left, "right": e.right, "m": e.m, "n": e.n, "value": values[e.n]}
        for e in view
    ]
    return {**doc, "data": {"entries": entries}}


def _reference_pairing_render(doc: dict, fmt: str) -> str:
    """A pairing document rendered entry by entry from its listed entry dicts.

    This is how the renderers wrote pairing before they read the view's degrees.
    """
    listed = _listed(doc)
    if fmt == "json":
        return json.dumps(listed, sort_keys=True, indent=2) + "\n"
    lines = []
    for e in listed["data"]["entries"]:
        (i, j), (k, l), v = e["left"], e["right"], e["value"]
        value = Fraction(int(v["num"]), int(v["den"]))
        if fmt == "text":
            left, right = (
                f"kappa({monomial_str(pair, VARIABLE_NAMES)})" for pair in ((i, j), (k, l))
            )
            lines.append(f"  <{left}, {right}> = {value}")
        else:
            lines.append(
                rf"$\kappa(\alpha^{{{i}}}\beta^{{{j}}})$ & "
                rf"$\kappa(\alpha^{{{k}}}\beta^{{{l}}})$ & "
                rf"${latex_rational(value)}$ \\"
            )
    if fmt == "text":
        lines.insert(0, f"intersection pairing, genus {doc['genus']}")
    else:
        lines[:0] = [r"\begin{tabular}{llr}", r"left & right & value \\", r"\hline"]
        lines.append(r"\end{tabular}")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("g", range(2, 17))
def test_pairing_json_matches_json_dumps_of_the_listed_document(capsys, g):
    # the pairing document has its own layout in render_json; json.dumps holds it
    _, raw, code = run_json(capsys, "pairing", "--genus", str(g))
    doc = _listed(cli.cmd_pairing(argparse.Namespace(genus=g))[0])
    assert code == 0
    assert raw == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("g", range(2, 17))
@pytest.mark.parametrize("fmt", ["text", "latex"])
def test_pairing_render_matches_the_entry_by_entry_reference(capsys, fmt, g):
    # the golden text and LaTeX digests reach only g = 5; this reaches g = 16
    code = main(["pairing", "--genus", str(g), "--format", fmt])
    doc, _ = cli.cmd_pairing(argparse.Namespace(genus=g))
    assert code == 0
    assert capsys.readouterr().out == _reference_pairing_render(doc, fmt)


def test_render_json_writes_a_pairing_document_with_no_entries():
    checks = [{"name": "x", "status": "pass"}]
    doc = {"checks": checks, "command": "pairing", "data": {"entries": PairingMatrix(2, ())},
           "genus": 2}
    listed = {**doc, "data": {"entries": []}}
    assert render_json_str(doc) == json.dumps(listed, sort_keys=True, indent=2) + "\n"


def _pairing_render_peak(fmt: str, g: int = 16) -> tuple[int, int]:
    """(bytes written, tracemalloc peak) while building and rendering pairing at g."""
    written = 0

    def count(s):
        nonlocal written
        written += len(s)

    def build_and_write():
        doc, _ = cli.cmd_pairing(argparse.Namespace(genus=g))
        cli.RENDERERS[fmt](doc, count)

    build_and_write()  # warm-up: imports and first-call allocations
    written = 0
    tracemalloc.start()
    try:
        build_and_write()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return written, peak


def test_render_json_streams_the_pairing_document():
    # building and writing hold one entry at a time, never the 872 KB document
    written, peak = _pairing_render_peak("json")
    reference = _listed(cli.cmd_pairing(argparse.Namespace(genus=16))[0])
    assert written == len(json.dumps(reference, sort_keys=True, indent=2)) + 1
    assert peak < written // 50


@pytest.mark.parametrize("fmt", ["text", "latex"])
def test_render_text_and_latex_stream_the_pairing_document(fmt):
    # a line at a time: the per-degree templates and the kappa strings, never the output
    written, peak = _pairing_render_peak(fmt)
    reference = _reference_pairing_render(cli.cmd_pairing(argparse.Namespace(genus=16))[0], fmt)
    assert written == len(reference)
    assert peak < written // 3


@pytest.mark.parametrize("fmt", ["text", "latex"])
def test_render_text_and_latex_write_one_pairing_entry_at_a_time(fmt):
    writes = []
    cli.RENDERERS[fmt](cli.cmd_pairing(argparse.Namespace(genus=6))[0], writes.append)
    reference = _reference_pairing_render(cli.cmd_pairing(argparse.Namespace(genus=6))[0], fmt)
    assert "".join(writes) == reference
    # each write is one line: an entry, a header or a footer
    assert all(w.endswith("\n") and w.count("\n") == 1 for w in writes)


@pytest.mark.parametrize("args", [["pairing", "--genus", "6"]])
def test_render_json_writes_at_most_one_entry_at_a_time(args):
    parsed = cli.build_parser().parse_args(args)
    writes = []
    cli.render_json(cli.COMMANDS[parsed.command](parsed)[0], writes.append)
    # a document may be read once: the reference is a second one, listed
    doc = _listed(cli.COMMANDS[parsed.command](parsed)[0])
    # list elements sit at most three levels deep: data's fields, then checks
    lists = [v for v in doc["data"].values() if isinstance(v, list)] + [doc["checks"]]
    longest = max(
        len(json.dumps(e, sort_keys=True, indent=2).replace("\n", "\n" + " " * 6))
        for elements in lists
        for e in elements
    )
    assert "".join(writes) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert max(map(len, writes)) <= len(",\n" + " " * 6) + longest


@pytest.mark.parametrize(
    "args",
    [
        ["betti", "--genus", "3"],
        ["ring", "--k", "4"],
        ["eq-series", "--genus", "3"],
        ["e-basis", "--m", "3"],
        ["verify", "--genus", "3"],
    ],
)
def test_every_other_json_document_is_one_write(args):
    # only pairing's document is written piece by piece; the rest are at most 7 KB
    parsed = cli.build_parser().parse_args(args)
    doc = cli.COMMANDS[parsed.command](parsed)[0]
    writes = []
    cli.render_json(doc, writes.append)
    assert writes == [json.dumps(doc, sort_keys=True, indent=2) + "\n"]


# Started with -S -I, this launcher stays below a job's own size.  Linux hands the
# resident-set high-water mark of the process that execs on to the job, so a job
# started from pytest itself would report at least pytest's size.
RSS_LAUNCHER = """
import os, sys
for job in sys.argv[1:]:
    argv = [sys.executable, "-m", "su2rep", *job.split()]
    out = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    _, status, usage = os.wait4(os.posix_spawn(argv[0], argv, os.environ, file_actions=out), 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_pairing_peak_rss_stays_at_the_start_up_floor():
    # e-basis --m 0 imports the same modules and computes next to nothing: its
    # peak is the floor.  A job that held the g = 16 entries would sit 1.3 MB above.
    floor = "e-basis --m 0"
    jobs = [floor] + [f"pairing --genus 16 --format {f}" for f in ("text", "json", "latex")]
    launched = subprocess.run(
        [sys.executable, "-S", "-I", "-c", RSS_LAUNCHER, *jobs],
        capture_output=True, text=True, timeout=120,
    )
    assert launched.returncode == 0, launched.stderr
    replies = [line.split() for line in launched.stdout.splitlines()]
    assert [code for code, _ in replies] == ["0"] * len(jobs)
    peak_kb = {job: int(kb) for job, (_, kb) in zip(jobs, replies)}
    for job in jobs[1:]:
        assert peak_kb[job] <= peak_kb[floor] + 512, peak_kb


def test_crash_while_rendering_json_exits_3_and_writes_nothing(capsys, monkeypatch):
    # a document other than pairing's is built whole before its one write
    doc = {"command": "betti", "genus": 2, "data": {"betti": [1, 0, {"x": 0.5}]}}
    monkeypatch.setitem(cli.COMMANDS, "betti", lambda args: (doc, 0))
    assert main(["betti", "--genus", "2", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert "TypeError" in captured.err


def test_crash_while_rendering_pairing_json_exits_3(capsys, monkeypatch):
    # pairing's entries are written as they are formatted, so its head comes first
    view = PairingMatrix(2, (object(),))
    doc = {"command": "pairing", "genus": 2, "data": {"entries": view}, "checks": []}
    monkeypatch.setitem(cli.COMMANDS, "pairing", lambda args: (doc, 0))
    assert main(["pairing", "--genus", "2", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith('{\n  "checks": [],\n  "command": "pairing"')
    assert "Traceback" in captured.err
    assert "AttributeError" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["betti", "--genus", "2"],
        ["ring", "--k", "1"],
        ["pairing", "--genus", "2"],
        ["eq-series", "--genus", "2"],
        ["e-basis", "--m", "2"],
        ["verify", "--genus", "2"],
    ],
)
def test_latex_renders_nonempty(capsys, args):
    code = main(args + ["--format", "latex"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip()


def test_latex_betti_and_ring_content(capsys):
    main(["betti", "--genus", "2", "--format", "latex"])
    out = capsys.readouterr().out
    assert "$IP_t(X(SU(2))) = 1 + t^{2} + t^{4} + t^{6}$" in out
    main(["ring", "--k", "1", "--format", "latex"])
    out = capsys.readouterr().out
    assert r"\alpha\beta + 2\gamma" in out
    assert r"\frac{1}{1 - t^{2}}" in out


def test_groebner_cache_env_var_round_trip(tmp_path):
    from su2rep.groebner import CACHE_ENV_VAR
    import os

    env = dict(os.environ)
    env[CACHE_ENV_VAR] = str(tmp_path)
    first = subprocess.run(
        RUN + ["ring", "--k", "1", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (tmp_path / "relation-ideal-1.txt").exists()
    second = subprocess.run(
        RUN + ["ring", "--k", "1", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    bare = spawn("ring", "--k", "1", "--format", "json")
    assert first.stdout == second.stdout == bare.stdout
