import json
import subprocess
import sys

import pytest

from su2rep import cli
from su2rep.cli import main

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
    assert spawn("betti", "--genus", "1").returncode == 2
    assert spawn("ring", "--k", "-1").returncode == 2
    assert spawn("eq-series", "--genus", "2", "--order", "4").returncode == 2
    assert spawn("nonsense").returncode == 2


def test_verify_passes_exit_0():
    result = spawn("verify", "--genus", "2")
    assert result.returncode == 0
    assert "overall: PASS" in result.stdout


def test_identical_invocations_identical_bytes():
    a = spawn("verify", "--genus", "2", "--format", "json")
    b = spawn("verify", "--genus", "2", "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


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
    # one series for both the route-agreement and the polynomiality check;
    # ip_series_closed derives its own copy inside assembly
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


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    # each CLI job is its own process, so import cost is paid on every run;
    # -S keeps site's .pth hooks from loading modules on su2rep's behalf
    from pathlib import Path
    import os

    probe = (
        "import sys, su2rep.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


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
