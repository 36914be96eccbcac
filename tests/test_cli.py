import argparse
import atexit
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2rep import assembly, cli
from su2rep.assembly import PairingMatrix
from su2rep.cli import main
from su2rep.graded import VARIABLE_NAMES, render_poly
from su2rep.series import latex_rational, monomial_str, zpoly_add

from test_assembly import CLOSED_ROUTE_FAILURES

RUN = [sys.executable, "-m", "su2rep"]


def spawn(*args):
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=120
    )


def run_json(capsys, *args):
    code = main(list(args) + ["--format", "json"])
    out = capsys.readouterr().out
    return json.loads(out), out, code


def document(*argv: str) -> dict:
    """The document `main` frames for a command line, taken at its text renderer."""
    docs = []
    with mock.patch.dict(cli.RENDERERS, text=lambda doc, write: docs.append(doc)):
        main(list(argv))
    (doc,) = docs
    return doc


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


# (command line, the message of its usage error); the last two tokens are the flag at fault
USAGE_ERRORS = [
    (["betti", "--genus", "1"], "--genus must be at least 2"),
    (["ring", "--k", "-1"], "--k must be nonnegative"),
    (["ring", "--k", "2", "--order", "-1"], "--order must be nonnegative"),
    (["e-basis", "--m", "-1"], "--m must be nonnegative"),
    (
        ["verify", "--genus", "2", "--unsafe-genus-cap", "1"],
        "--unsafe-genus-cap must be at least 2",
    ),
    (["eq-series", "--genus", "2", "--order", "4"], "--order must be at least 6g-6 = 6"),
    (["eq-series", "--genus", "2", "--order", "-1"], "--order must be at least 6g-6 = 6"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
@pytest.mark.parametrize("joined", [False, True], ids=["flag-value", "flag=value"])
def test_usage_error_messages(capsys, argv, message, joined):
    if joined:
        argv = argv[:-2] + ["=".join(argv[-2:])]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    out, err = capsys.readouterr()
    assert (exited.value.code, out) == (2, "")
    assert err.splitlines()[-1] == f"su2rep: error: {message}"


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered, code", [(False, 3), (True, 120)])
def test_stdout_that_cannot_be_written_keeps_the_interpreters_exit(buffered, code):
    # unbuffered, the first write fails inside main (exit 3); buffered, main's flush
    # fails (a crash, 3) and so does the final one, which the interpreter's own exit
    # reports as 120, as it did before run() left by os._exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            RUN + ["betti", "--genus", "2"], stdout=full, stderr=subprocess.PIPE, env=env,
            timeout=120,
        )
    assert result.returncode == code
    # main's one traceback; the final flush's failure is reported, not raised
    assert result.stderr.count(b"Traceback") == 1
    assert result.stderr.count(b"No space left on device") == 1 + buffered


def test_closed_stdout_exits_3():
    # with fd 1 closed there is no sys.stdout to write to or flush
    result = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", *RUN, "betti", "--genus", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 3
    assert "AttributeError" in result.stderr


def test_failed_check_exits_1(tmp_path):
    # a cached basis cut short still parses: the wrong ideal fails a check, it is no crash
    env = dict(os.environ, SU2REP_GROEBNER_CACHE=str(tmp_path))
    subprocess.run(RUN + ["ring", "--k", "2"], capture_output=True, env=env, timeout=120, check=True)
    path = tmp_path / "relation-ideal-2.txt"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + lines[3:]))
    result = subprocess.run(
        RUN + ["verify", "--genus", "2"], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 1
    assert "[   fail] equivariant-route-agreement" in result.stdout
    assert result.stdout.endswith("overall: FAIL\n")
    assert result.stderr == ""


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
    # frozen objects are left to the OS at exit instead of collected one by one;
    # the exit itself is patched, with pytest's own atexit handlers, so the test
    # process goes on (with no tracer, as under coverage, run() takes os._exit)
    seen, ended = [], []
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.get_freeze_count()) or 0)
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: ended.append("atexit"))
    monkeypatch.setattr(os, "_exit", ended.append)
    before = gc.get_freeze_count()
    try:
        cli.run()
    finally:
        gc.unfreeze()
    assert ended == ["atexit", 0]
    assert len(seen) == 1 and seen[0] > before


def test_run_under_a_tracer_exits_through_the_interpreter(monkeypatch):
    # coverage and profilers report from the normal exit, which os._exit would skip
    monkeypatch.setattr(cli, "main", lambda: 1)
    monkeypatch.setattr(sys, "gettrace", lambda: print)
    monkeypatch.setattr(os, "_exit", lambda code: pytest.fail("os._exit under a tracer"))
    try:
        with pytest.raises(SystemExit) as exited:
            cli.run()
    finally:
        gc.unfreeze()
    assert exited.value.code == 1


# `python -S -c` runs this with a marker path and a command line: run() must call the
# atexit handler (which writes after the command's output) and keep main's exit status
ATEXIT_PROBE = """
import atexit, sys
import su2rep.cli
marker = sys.argv.pop(1)
atexit.register(lambda: (open(marker, "w").close(), print("atexit handler ran")))
su2rep.cli.run()
"""


@pytest.mark.parametrize("args, code", [
    (["betti", "--genus", "2"], 0),
    (["betti", "--genus", "1"], 2),  # argparse's usage error: its SystemExit, not os._exit
])
def test_run_calls_the_atexit_handlers_and_keeps_the_exit_status(tmp_path, args, code):
    marker = tmp_path / "marker"
    result = spawn_isolated(ATEXIT_PROBE, str(marker), *args)
    assert result.returncode == code, result.stderr
    assert marker.exists()
    assert result.stdout.endswith("atexit handler ran\n")
    if code == 0:
        assert result.stdout.startswith("IH Betti numbers, genus 2")


def test_profiled_run_still_prints_its_stats():
    # cProfile reports after the command returns, so run() must exit normally under it
    result = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "su2rep", "betti", "--genus", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("IH Betti numbers, genus 2")
    assert "function calls" in result.stdout
    assert "Ordered by:" in result.stdout


def test_main_leaves_the_heap_unfrozen(capsys):
    # tests and tracers call main() in-process: a freeze there would pin each
    # call's heap for the life of the process
    before = gc.get_freeze_count()
    assert main(["betti", "--genus", "2"]) == 0
    assert gc.get_freeze_count() == before


# -- the document frame ------------------------------------------------------------

# a short command line for each subcommand
SHORT = {
    "betti": ["--genus", "2"],
    "ring": ["--k", "1"],
    "pairing": ["--genus", "2"],
    "eq-series": ["--genus", "2"],
    "e-basis": ["--m", "1"],
    "verify": ["--genus", "2"],
}


@pytest.mark.parametrize("statuses, code", [
    ((), 0),
    (("pass",), 0),
    (("pass", "skipped"), 0),
    (("skipped", "fail"), 1),
    (("fail", "pass", "fail"), 1),
])
def test_main_frames_each_command_and_exits_1_only_on_a_failed_record(
    monkeypatch, capsys, statuses, code
):
    # a command returns its data and records; main writes the envelope and the exit status
    assert set(SHORT) == set(cli.OPTIONS)
    records = [
        {"name": f"check-{i}", "genus": None, "status": status, "details": ""}
        for i, status in enumerate(statuses)
    ]
    for command, row in list(cli.OPTIONS.items()):
        monkeypatch.setitem(cli.OPTIONS, command, row._replace(
            run=lambda args, row=row: (row.run(args)[0], records)
        ))
        doc, _, exit_code = run_json(capsys, command, *SHORT[command])
        assert exit_code == code, command
        assert (doc["command"], doc["checks"]) == (command, records)
        assert doc["genus"] == (None if command in ("ring", "e-basis") else 2)


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


@pytest.mark.parametrize("coefficients, details", [
    ((1, 0, -1, 0, -1, 0, 1), "negative Betti number"),
    ((0, 1, 1, 1, 1, 1, 0), "degree-0 coefficient must be 1"),
])
def test_betti_duality_record_validates_the_table(monkeypatch, capsys, coefficients, details):
    # palindromic, but no Poincare polynomial: the record fails as verify's check does
    table = assembly.BettiTable(2, coefficients, "structural")
    monkeypatch.setattr(cli, "ih_series_structural", lambda g: table)
    doc, _, code = run_json(capsys, "betti", "--genus", "2", "--route", "structural")
    assert code == 1
    assert doc["checks"] == [
        {"name": "poincare-duality", "genus": 2, "status": "fail", "details": details}
    ]
    assert doc["data"]["betti"] == list(coefficients)


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


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
def test_ring_renders_its_basis_without_parsing_it(monkeypatch, capsys, fmt):
    # the document carries the basis Polys, and no renderer reads its own text back
    from su2rep import graded, groebner

    monkeypatch.delenv(groebner.CACHE_ENV_VAR, raising=False)
    data, _ = cli.cmd_ring(argparse.Namespace(k=2, order=24))
    assert data["basis"] == groebner.relation_ideal_basis(2).generators
    original = graded.parse_poly
    for module in (graded, groebner, cli):
        if getattr(module, "parse_poly", None) is original:
            monkeypatch.setattr(module, "parse_poly", lambda text: pytest.fail("parsed"))
    assert main(["ring", "--k", "2", "--format", fmt]) == 0
    assert render_poly(data["basis"][0], latex=fmt == "latex") in capsys.readouterr().out


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
    data, _ = cli.cmd_pairing(argparse.Namespace(genus=g))
    view = data["entries"]
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


def test_e_basis_latex_shows_a_failed_check(monkeypatch, capsys):
    verdict = assembly.IndependenceVerdict(2, 4, 3, False, 6)
    monkeypatch.setattr(cli, "e_basis_independence", lambda m: verdict)
    assert main(["e-basis", "--m", "2", "--format", "latex"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        r"\textbf{fail} e-basis-independence: rank 3 of 4 normal forms modulo I\_2;"
        " dependency in degree 6"
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
        "divides exactly in Z[t], degree 12",
    ]


@pytest.mark.parametrize("side", ["count", "hilbert"])
def test_top_identity_fails_when_the_dimension_counts_differ(monkeypatch, capsys, side):
    # the standard-monomial count is checked against the Hilbert series expansion
    from su2rep.series import RationalFunction

    top = 6 * 2 - 6
    if side == "count":
        original = assembly.standard_monomial_dimensions
        monkeypatch.setattr(assembly, "standard_monomial_dimensions", lambda ideal, d: [
            c + (i == top) for i, c in enumerate(original(ideal, d))
        ])
    else:
        original = assembly.hilbert_series_quotient
        # t^top over a denominator with constant term 1 adds 1 in degree top
        monkeypatch.setattr(assembly, "hilbert_series_quotient", lambda ideal: RationalFunction(
            zpoly_add(original(ideal).num, (0,) * top + (1,)), original(ideal).den
        ))
    verdict = assembly.top_identity_check(2)
    counted, hilbert = verdict.top_degree_dimension, verdict.hilbert_dimension
    assert counted - hilbert == (1 if side == "count" else -1)
    doc, _, code = run_json(capsys, "verify", "--genus", "2")
    assert code == 1
    assert doc["checks"][-1] == {
        "name": "top-identity", "genus": 2, "status": "fail",
        "details": f"top-degree dimension {counted} by count, {hilbert} by Hilbert series",
    }


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


# the check each failure kind of test_assembly's CLOSED_ROUTE_FAILURES fails
FAILED_CHECK = {
    "inexact": "polynomiality",
    "above-top": "polynomiality",
    "below-top": "polynomiality",
    "negative": "poincare-duality",
}


@pytest.mark.parametrize("kind", CLOSED_ROUTE_FAILURES)
@pytest.mark.parametrize("g", [2, 3])
def test_closed_route_failure_is_a_failed_check(monkeypatch, capsys, kind, g):
    name, perturb, _ = CLOSED_ROUTE_FAILURES[kind]
    check = FAILED_CHECK[kind]
    original = getattr(assembly, name)
    monkeypatch.setattr(assembly, name, lambda g: zpoly_add(original(g), perturb(g)))
    with pytest.raises(ArithmeticError) as raised:
        assembly.ip_series_closed(g)
    error = str(raised.value)

    doc, _, code = run_json(capsys, "verify", "--genus", str(g))
    assert code == 1
    records = {c["name"]: c for c in doc["checks"]}
    assert (records[check]["status"], records[check]["details"]) == ("fail", error)
    assert records["intersection-route-agreement"]["details"] == f"no closed table: {error}"
    if check == "polynomiality":
        assert records["poincare-duality"]["details"] == f"no closed table: {error}"
    else:
        assert records["polynomiality"]["status"] == "pass"

    betti, _, code = run_json(capsys, "betti", "--genus", str(g))
    assert code == 1
    assert betti["checks"] == [{"name": check, "genus": g, "status": "fail", "details": error}]
    assert betti["data"]["betti"] is None and betti["data"]["total_dimension"] is None
    assert main(["betti", "--genus", str(g)]) == 1
    assert capsys.readouterr().out == (
        f"IH Betti numbers, genus {g} (closed-form route)\n[   fail] {check}: {error}\n"
    )
    assert main(["betti", "--genus", str(g), "--format", "latex"]) == 1
    latex = rf"\textbf{{fail}} {check}: {error}".replace("_", r"\_")
    assert capsys.readouterr().out == latex + "\n"


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


def spawn_isolated(probe: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """`python -S -c probe args...` with su2rep importable and env added.

    Each CLI job is its own process, so import cost is paid on every run;
    -S keeps site's .pth hooks from loading modules on su2rep's behalf.
    """
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), **env)
    return subprocess.run(
        [sys.executable, "-S", "-c", probe, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def run_isolated(probe: str, **env: str) -> str:
    """stdout of `python -S -c probe`, which must exit 0."""
    result = spawn_isolated(probe, **env)
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


def test_cli_import_loads_no_heapq_and_binds_no_re():
    # heapq serves only Buchberger, which imports it; `re` comes with fractions
    # (which compiles its pattern at import), and no su2rep module holds it
    probe = (
        "import sys, su2rep.cli\n"
        "holders = [n for n, m in sys.modules.items() if n.startswith('su2rep') and 're' in vars(m)]\n"
        "print('heapq' in sys.modules, holders)\n"
    )
    assert run_isolated(probe) == "False []\n"


def test_warm_ring_loads_no_heapq(tmp_path):
    # after one cold fill, the bases come from the cache and Buchberger never runs
    probe = (
        "import io, sys, su2rep.cli\n"
        "sys.stdout = io.StringIO()\n"
        "code = su2rep.cli.main(['ring', '--k', '2'])\n"
        "print(code, 'heapq' in sys.modules, file=sys.__stdout__)\n"
    )
    cache = {"SU2REP_GROEBNER_CACHE": str(tmp_path)}
    assert run_isolated(probe, **cache) == "0 True\n"  # the cold fill builds the basis
    assert run_isolated(probe, **cache) == "0 False\n"


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


FLAGS = sorted({f.name for command in cli.OPTIONS.values() for f in command.flags})
CHOICES = sorted(
    {c for command in cli.OPTIONS.values() for f in command.flags for c in f.choices or ()}
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
        for f in (cli.OPTIONS[command].flags if command in cli.OPTIONS else (cli.GENUS,))
    ])
    args = st.tuples(
        st.lists(own, max_size=4, unique_by=lambda a: a[0]) | st.lists(own, max_size=4),
        st.just([]) | st.lists(noise, min_size=1, max_size=2),
    )
    return args.flatmap(lambda a: st.permutations(a[0] + a[1])).map(
        lambda args: [command] + [a for arg in args for a in arg]
    )


argvs = st.sampled_from(list(cli.OPTIONS) + ["nonsense", "-h"]).flatmap(command_lines)


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
    dict per degree shared by its entries; ring's basis `Poly`s become the strings
    of `render_poly`; any other document is returned as is.
    """
    if doc["command"] == "ring":
        basis = [render_poly(g) for g in doc["data"]["basis"]]
        return {**doc, "data": {**doc["data"], "basis": basis}}
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
    doc = _listed(document("pairing", "--genus", str(g)))
    assert code == 0
    assert raw == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("g", range(2, 17))
@pytest.mark.parametrize("fmt", ["text", "latex"])
def test_pairing_render_matches_the_entry_by_entry_reference(capsys, fmt, g):
    # the golden text and LaTeX digests reach only g = 5; this reaches g = 16
    code = main(["pairing", "--genus", str(g), "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out == _reference_pairing_render(document("pairing", "--genus", str(g)), fmt)


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
        cli.RENDERERS[fmt](document("pairing", "--genus", str(g)), count)

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
    reference = _listed(document("pairing", "--genus", "16"))
    assert written == len(json.dumps(reference, sort_keys=True, indent=2)) + 1
    assert peak < written // 50


@pytest.mark.parametrize("fmt", ["text", "latex"])
def test_render_text_and_latex_stream_the_pairing_document(fmt):
    # a line at a time: the per-degree templates and the kappa strings, never the output
    written, peak = _pairing_render_peak(fmt)
    reference = _reference_pairing_render(document("pairing", "--genus", "16"), fmt)
    assert written == len(reference)
    assert peak < written // 3


@pytest.mark.parametrize("fmt", ["text", "latex"])
def test_render_text_and_latex_write_one_pairing_entry_at_a_time(fmt):
    writes = []
    cli.RENDERERS[fmt](document("pairing", "--genus", "6"), writes.append)
    reference = _reference_pairing_render(document("pairing", "--genus", "6"), fmt)
    assert "".join(writes) == reference
    # each write is one line: an entry, a header or a footer
    assert all(w.endswith("\n") and w.count("\n") == 1 for w in writes)


@pytest.mark.parametrize("args", [["pairing", "--genus", "6"]])
def test_render_json_writes_at_most_one_entry_at_a_time(args):
    writes = []
    cli.render_json(document(*args), writes.append)
    # a document may be read once: the reference is a second one, listed
    doc = _listed(document(*args))
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
    doc = document(*args)
    writes = []
    cli.render_json(doc, writes.append)
    assert writes == [json.dumps(_listed(doc), sort_keys=True, indent=2) + "\n"]


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
    data = {"betti": [1, 0, {"x": 0.5}]}
    command = cli.OPTIONS["betti"]._replace(run=lambda args: (data, []))
    monkeypatch.setitem(cli.OPTIONS, "betti", command)
    assert main(["betti", "--genus", "2", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert "TypeError" in captured.err


def test_crash_while_rendering_pairing_json_exits_3(capsys, monkeypatch):
    # pairing's entries are written as they are formatted, so its head comes first
    view = PairingMatrix(2, (object(),))
    command = cli.OPTIONS["pairing"]._replace(run=lambda args: ({"entries": view}, []))
    monkeypatch.setitem(cli.OPTIONS, "pairing", command)
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
