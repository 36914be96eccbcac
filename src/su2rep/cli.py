"""Command-line front end: computations, cross-checks, machine-readable reports.

Subcommands: betti, ring, pairing, eq-series, e-basis, verify.  Every
command renders one document in text, json, or latex form; the json form
is canonical (sorted keys, fixed indentation) so that identical invocations
produce identical bytes and parsing plus re-rendering round-trips.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import NamedTuple, Sequence

from .assembly import (
    E_INDEPENDENCE_CAP,
    IP_EXTRA_ORDER,
    TOP_IDENTITY_CAP,
    BettiTable,
    b_coefficients,
    correction_series,
    e_basis,
    e_basis_independence,
    e_hilbert,
    equivariant_series_closed,
    equivariant_series_structural,
    ih_series_structural,
    ip_series_closed,
    pairing_matrix,
    t_over_tanh_series,
    tanh_over_t_series,
    top_identity_check,
)
from .exterior import (
    BRUTEFORCE_PRIM_CAP,
    RESTRICTION_CAP,
    invariant_truncated_dimensions,
    prim_dimension_bruteforce,
    prim_dimension_formula,
    restriction_image_dimensions,
)
from .graded import VARIABLE_NAMES, parse_poly, render_poly
from .groebner import (
    hilbert_series_quotient,
    leading_term_ideal,
    relation_ideal_basis,
)
from .series import TruncatedSeries, latex_rational, monomial_str, zpoly_str

DEFAULT_GENUS_CAP = 4


class RunConfig(NamedTuple):
    command: str
    format: str
    genus: int | None = None
    k: int | None = None
    order: int | None = None
    route: str = "closed"
    m: int | None = None
    unsafe_genus_cap: int = DEFAULT_GENUS_CAP


class CheckRecord(NamedTuple):
    name: str
    genus: int | None
    status: str  # pass | fail | skipped
    details: str

    def to_json(self) -> dict:
        return self._asdict()


class VerificationReport(NamedTuple):
    genus: int
    checks: tuple[CheckRecord, ...]

    @property
    def overall(self) -> str:
        bad = any(c.status == "fail" for c in self.checks)
        return "fail" if bad else "pass"


def _rational_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


# ---------------------------------------------------------------------------
# command implementations: each returns (document, exit_code)
# ---------------------------------------------------------------------------

def cmd_betti(config: RunConfig) -> tuple[dict, int]:
    g = config.genus
    table = (
        ip_series_closed(g)
        if config.route == "closed"
        else ih_series_structural(g)
    )
    palindromic = table.is_palindromic()
    doc = {
        "command": "betti",
        "genus": g,
        "data": {
            "route": table.provenance,
            "betti": list(table.coefficients),
            "top_degree": 6 * g - 6,
            "total_dimension": sum(table.coefficients),
        },
        "checks": [
            CheckRecord(
                name="poincare-duality",
                genus=g,
                status="pass" if palindromic else "fail",
                details=f"table is palindromic about degree {3 * g - 3}"
                if palindromic
                else "table fails palindromy",
            ).to_json()
        ],
    }
    return doc, 0 if palindromic else 1


def cmd_ring(config: RunConfig) -> tuple[dict, int]:
    k = config.k
    order = config.order if config.order is not None else 24
    basis = relation_ideal_basis(k)
    h = hilbert_series_quotient(leading_term_ideal(basis))
    num, den = h.reduced_pair()
    expansion = h.expand(order)
    doc = {
        "command": "ring",
        "genus": None,
        "data": {
            "k": k,
            "basis": [render_poly(g) for g in basis.generators],
            "leading_monomials": [
                monomial_str(m, VARIABLE_NAMES) for m in basis.leading_monomials()
            ],
            "hilbert_numerator": list(num),
            "hilbert_denominator": list(den),
            "order": order,
            "expansion": [int(c) for c in expansion.coeffs],
        },
        "checks": [],
    }
    return doc, 0


def cmd_pairing(config: RunConfig) -> tuple[dict, int]:
    g = config.genus
    entries = pairing_matrix(g)
    doc = {
        "command": "pairing",
        "genus": g,
        "data": {
            "entries": [
                {
                    "left": list(e.left),
                    "right": list(e.right),
                    "m": e.m,
                    "n": e.n,
                    "value": _rational_json(e.value),
                }
                for e in entries
            ],
        },
        "checks": [],
    }
    return doc, 0


def cmd_eq_series(config: RunConfig) -> tuple[dict, int]:
    g = config.genus
    order = config.order if config.order is not None else 6 * g + IP_EXTRA_ORDER
    series = (
        equivariant_series_closed(g, order)
        if config.route == "closed"
        else equivariant_series_structural(g, order)
    )
    doc = {
        "command": "eq-series",
        "genus": g,
        "data": {
            "route": config.route,
            "order": order,
            "coefficients": [int(c) for c in series.coeffs],
        },
        "checks": [],
    }
    return doc, 0


def cmd_e_basis(config: RunConfig) -> tuple[dict, int]:
    m = config.m
    basis = e_basis(m)
    hilbert = e_hilbert(m)
    checks = []
    exit_code = 0
    if m <= E_INDEPENDENCE_CAP:
        verdict = e_basis_independence(m)
        status = "pass" if verdict.passed else "fail"
        details = (
            f"rank {verdict.rank} of {verdict.basis_size} normal forms modulo I_{m}"
        )
        if not verdict.passed:
            details += f"; dependency in degree {verdict.failing_degree}"
            exit_code = 1
        checks.append(
            CheckRecord(
                name="e-basis-independence", genus=None, status=status, details=details
            ).to_json()
        )
    doc = {
        "command": "e-basis",
        "genus": None,
        "data": {
            "m": m,
            "size": len(basis),
            "monomials": [[e.i, e.j, e.k] for e in basis],
            "hilbert": [int(c) for c in hilbert.coeffs],
        },
        "checks": checks,
    }
    return doc, exit_code


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_intersection_routes(g: int, closed: BettiTable) -> CheckRecord:
    structural = ih_series_structural(g)
    for d, (a, b) in enumerate(zip(closed.coefficients, structural.coefficients)):
        if a != b:
            return CheckRecord(
                "intersection-route-agreement",
                g,
                "fail",
                f"first mismatch at degree {d}: closed {a}, structural {b}",
            )
    return CheckRecord(
        "intersection-route-agreement",
        g,
        "pass",
        f"tables agree in all degrees 0..{6 * g - 6}",
    )


def _check_equivariant_routes(g: int, closed: TruncatedSeries) -> CheckRecord:
    N = 6 * g + IP_EXTRA_ORDER
    structural = equivariant_series_structural(g, N)
    for d in range(N + 1):
        if closed.coefficient(d) != structural.coefficient(d):
            return CheckRecord(
                "equivariant-route-agreement",
                g,
                "fail",
                f"first mismatch at degree {d}: closed {closed.coefficient(d)}, "
                f"structural {structural.coefficient(d)}",
            )
    return CheckRecord(
        "equivariant-route-agreement", g, "pass", f"series agree to order {N}"
    )


def _check_polynomiality(g: int, equivariant: TruncatedSeries) -> CheckRecord:
    N = 6 * g + IP_EXTRA_ORDER
    diff = equivariant - correction_series(g, N)
    for d in range(6 * g - 5, N + 1):
        if diff.coefficient(d) != 0:
            return CheckRecord(
                "polynomiality",
                g,
                "fail",
                f"degree {d} coefficient {diff.coefficient(d)} does not vanish",
            )
    return CheckRecord(
        "polynomiality", g, "pass", f"degrees {6 * g - 5}..{N} all vanish"
    )


def _check_duality(g: int, closed: BettiTable) -> CheckRecord:
    try:
        closed.validate()
    except ArithmeticError as exc:
        return CheckRecord("poincare-duality", g, "fail", str(exc))
    return CheckRecord(
        "poincare-duality",
        g,
        "pass",
        "palindromic, nonnegative, degree-0 entry 1",
    )


def _check_e_independence(g: int) -> CheckRecord:
    for m in range(min(g, E_INDEPENDENCE_CAP) + 1):
        verdict = e_basis_independence(m)
        if not verdict.passed:
            return CheckRecord(
                "e-basis-independence",
                g,
                "fail",
                f"E_{m} normal forms dependent in degree {verdict.failing_degree}",
            )
    return CheckRecord(
        "e-basis-independence",
        g,
        "pass",
        f"full rank for m = 0..{min(g, E_INDEPENDENCE_CAP)}",
    )


def _check_b_series(g: int) -> CheckRecord:
    prod = t_over_tanh_series(24) * tanh_over_t_series(24)
    ok = prod.coefficient(0) == 1 and all(
        prod.coefficient(d) == 0 for d in range(1, 25)
    )
    b = b_coefficients(2)
    ok = ok and b == [1, Fraction(1, 3), Fraction(-1, 45)]
    return CheckRecord(
        "b-series-inverse",
        None,
        "pass" if ok else "fail",
        "product with independent tanh expansion is 1 to order 24"
        if ok
        else "series product deviates from 1",
    )


def _check_lefschetz(g: int) -> CheckRecord:
    total = sum(
        prim_dimension_formula(g, l) * (g - l + 1) for l in range(g + 1)
    )
    ok = total == 4 ** g
    return CheckRecord(
        "lefschetz-dimension-identity",
        g,
        "pass" if ok else "fail",
        f"sum of prim(g,l)(g-l+1) = {total}, expected {4 ** g}",
    )


def _check_prim_bruteforce(g: int) -> CheckRecord:
    for l in range(g + 1):
        formula = prim_dimension_formula(g, l)
        brute = prim_dimension_bruteforce(g, l)
        if formula != brute:
            return CheckRecord(
                "prim-formula-vs-bruteforce",
                g,
                "fail",
                f"l = {l}: formula {formula}, brute force {brute}",
            )
    return CheckRecord(
        "prim-formula-vs-bruteforce", g, "pass", f"agree for l = 0..{g}"
    )


def _check_restriction(g: int) -> CheckRecord:
    restricted = restriction_image_dimensions(g)
    invariant = invariant_truncated_dimensions(g)
    window = max(invariant)
    correction = correction_series(g, window)
    for d in range(window + 1):
        values = (restricted[d], invariant[d], int(correction.coefficient(d)))
        if len(set(values)) != 1:
            return CheckRecord(
                "restriction-vs-invariant",
                g,
                "fail",
                f"degree {d}: restriction {values[0]}, invariant {values[1]}, "
                f"correction {values[2]}",
            )
    return CheckRecord(
        "restriction-vs-invariant",
        g,
        "pass",
        f"restriction, invariant, and correction agree in degrees 0..{window}",
    )


def _check_top_identity(g: int) -> CheckRecord:
    verdict = top_identity_check(g)
    if not verdict.passed:
        failing = [(e.m, e.n) for e in verdict.entries if not e.passed]
        return CheckRecord(
            "top-identity", g, "fail", f"nonzero normal form at (m, n) in {failing}"
        )
    pairs = ", ".join(f"({e.m},{e.n})" for e in verdict.entries)
    return CheckRecord(
        "top-identity",
        g,
        "pass",
        f"normal forms vanish for {pairs}; top-degree quotient dimension "
        f"{verdict.top_degree_dimension}",
    )


def _skipped(name: str, g: int, cap: int) -> CheckRecord:
    return CheckRecord(name, g, "skipped", f"genus {g} exceeds cap {cap}")


def run_verification(g: int, cap: int) -> VerificationReport:
    closed = ip_series_closed(g)
    equivariant = equivariant_series_closed(g, 6 * g + IP_EXTRA_ORDER)
    checks: list[CheckRecord] = [
        _check_intersection_routes(g, closed),
        _check_equivariant_routes(g, equivariant)
        if g <= cap
        else _skipped("equivariant-route-agreement", g, cap),
        _check_polynomiality(g, equivariant),
        _check_duality(g, closed),
        _check_e_independence(g)
        if g <= min(cap, E_INDEPENDENCE_CAP)
        else _skipped("e-basis-independence", g, min(cap, E_INDEPENDENCE_CAP)),
        _check_b_series(g),
        _check_lefschetz(g),
        _check_prim_bruteforce(g)
        if g <= min(cap, BRUTEFORCE_PRIM_CAP)
        else _skipped("prim-formula-vs-bruteforce", g, min(cap, BRUTEFORCE_PRIM_CAP)),
        _check_restriction(g)
        if g <= min(cap, RESTRICTION_CAP)
        else _skipped("restriction-vs-invariant", g, min(cap, RESTRICTION_CAP)),
        _check_top_identity(g)
        if g <= min(cap, TOP_IDENTITY_CAP)
        else _skipped("top-identity", g, min(cap, TOP_IDENTITY_CAP)),
    ]
    return VerificationReport(genus=g, checks=tuple(checks))


def cmd_verify(config: RunConfig) -> tuple[dict, int]:
    report = run_verification(config.genus, config.unsafe_genus_cap)
    doc = {
        "command": "verify",
        "genus": config.genus,
        "data": {
            "genus_cap": config.unsafe_genus_cap,
            "overall": report.overall,
        },
        "checks": [c.to_json() for c in report.checks],
    }
    return doc, 0 if report.overall == "pass" else 1


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_json(doc: dict) -> str:
    import json  # only --format json needs it; keeps start-up of the other formats lean

    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _render_checks_text(doc: dict) -> list[str]:
    lines = []
    for c in doc["checks"]:
        lines.append(f"[{c['status']:>7}] {c['name']}: {c['details']}")
    return lines


def render_text(doc: dict) -> str:
    cmd = doc["command"]
    data = doc["data"]
    lines: list[str] = []
    if cmd == "betti":
        lines.append(
            f"IH Betti numbers, genus {doc['genus']} ({data['route']} route)"
        )
        lines.append(f"IP_t = {zpoly_str(data['betti'])}")
        lines.append(f"total dimension: {data['total_dimension']}")
    elif cmd == "ring":
        lines.append(f"reduced Groebner basis of I_{data['k']}:")
        for g in data["basis"]:
            lines.append(f"  {g}")
        lines.append(
            f"Hilbert series: ({zpoly_str(data['hilbert_numerator'])})"
            f" / ({zpoly_str(data['hilbert_denominator'])})"
        )
        lines.append(
            f"expansion to order {data['order']}: {zpoly_str(data['expansion'])}"
        )
    elif cmd == "pairing":
        lines.append(f"intersection pairing, genus {doc['genus']}")
        for e in data["entries"]:
            i, j = e["left"]
            k, l = e["right"]
            value = Fraction(int(e["value"]["num"]), int(e["value"]["den"]))
            lines.append(
                f"  <kappa({monomial_str((i, j), VARIABLE_NAMES)}), "
                f"kappa({monomial_str((k, l), VARIABLE_NAMES)})> = {value}"
            )
    elif cmd == "eq-series":
        lines.append(
            f"equivariant Poincare series, genus {doc['genus']} "
            f"({data['route']} route), to order {data['order']}"
        )
        lines.append(f"P_t = {zpoly_str(data['coefficients'])} + ...")
    elif cmd == "e-basis":
        lines.append(f"E_{data['m']} spanning set ({data['size']} monomials)")
        for e in data["monomials"]:
            lines.append(f"  {monomial_str(e, ('alpha', 'beta', 'xi'))}")
        lines.append(f"degree generating polynomial: {zpoly_str(data['hilbert'])}")
    elif cmd == "verify":
        lines.append(
            f"verification report, genus {doc['genus']} "
            f"(genus cap {data['genus_cap']})"
        )
        lines.extend(_render_checks_text(doc))
        lines.append(f"overall: {data['overall'].upper()}")
        return "\n".join(lines) + "\n"
    if doc["checks"]:
        lines.extend(_render_checks_text(doc))
    return "\n".join(lines) + "\n"


def render_latex(doc: dict) -> str:
    cmd = doc["command"]
    data = doc["data"]
    lines: list[str] = []
    if cmd == "betti":
        lines.append(
            rf"$IP_t(X(SU(2))) = {zpoly_str(data['betti'], latex=True)}$ "
            rf"\quad (g = {doc['genus']})"
        )
    elif cmd == "ring":
        lines.append(rf"Reduced Gr\"obner basis of $I_{{{data['k']}}}$:")
        lines.append(r"\begin{align*}")
        rendered = [render_poly(parse_poly(g), latex=True) for g in data["basis"]]
        lines.append(" \\\\\n".join(f"& {r}" for r in rendered))
        lines.append(r"\end{align*}")
        lines.append(
            rf"Hilbert series: $\frac{{{zpoly_str(data['hilbert_numerator'], latex=True)}}}"
            rf"{{{zpoly_str(data['hilbert_denominator'], latex=True)}}}$"
        )
    elif cmd == "pairing":
        lines.append(r"\begin{tabular}{llr}")
        lines.append(r"left & right & value \\")
        lines.append(r"\hline")
        for e in data["entries"]:
            i, j = e["left"]
            k, l = e["right"]
            value = Fraction(int(e["value"]["num"]), int(e["value"]["den"]))
            lines.append(
                rf"$\kappa(\alpha^{{{i}}}\beta^{{{j}}})$ & "
                rf"$\kappa(\alpha^{{{k}}}\beta^{{{l}}})$ & "
                rf"${latex_rational(value)}$ \\"
            )
        lines.append(r"\end{tabular}")
    elif cmd == "eq-series":
        lines.append(
            rf"$P_t^{{SU(2)}} = {zpoly_str(data['coefficients'], latex=True)} + \cdots$"
        )
    elif cmd == "e-basis":
        monos = [
            monomial_str(e, (r"\alpha", r"\beta", r"\xi"), latex=True)
            for e in data["monomials"]
        ]
        lines.append(
            rf"$E_{{{data['m']}}} = \{{{', '.join(monos)}\}}$"
        )
    elif cmd == "verify":
        lines.append(r"\begin{tabular}{llp{8cm}}")
        lines.append(r"check & status & details \\")
        lines.append(r"\hline")
        for c in doc["checks"]:
            detail = c["details"].replace("_", r"\_")
            lines.append(rf"{c['name']} & {c['status']} & {detail} \\")
        lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


RENDERERS = {"text": render_text, "json": render_json, "latex": render_latex}


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su2rep",
        description=(
            "Exact cohomology computations for the SU(2) representation "
            "space of a genus-g surface group"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("text", "json", "latex"),
            default="text",
            help="output format (default text)",
        )

    p_betti = sub.add_parser("betti", help="intersection cohomology Betti numbers")
    p_betti.add_argument("--genus", type=int, required=True)
    p_betti.add_argument(
        "--route",
        choices=("closed", "structural"),
        default="closed",
        help="closed form or primitive-part assembly (default closed)",
    )
    add_format(p_betti)

    p_ring = sub.add_parser(
        "ring", help="Groebner basis and Hilbert series of a relation ideal I_k"
    )
    p_ring.add_argument("--k", type=int, required=True)
    p_ring.add_argument("--order", type=int, default=None)
    add_format(p_ring)

    p_pairing = sub.add_parser("pairing", help="intersection pairing matrix")
    p_pairing.add_argument("--genus", type=int, required=True)
    add_format(p_pairing)

    p_eq = sub.add_parser("eq-series", help="equivariant Poincare series")
    p_eq.add_argument("--genus", type=int, required=True)
    p_eq.add_argument("--order", type=int, default=None)
    p_eq.add_argument(
        "--route", choices=("closed", "structural"), default="closed"
    )
    add_format(p_eq)

    p_eb = sub.add_parser("e-basis", help="E_m spanning set and its degrees")
    p_eb.add_argument("--m", type=int, required=True)
    add_format(p_eb)

    p_verify = sub.add_parser("verify", help="run all cross-checks and report")
    p_verify.add_argument("--genus", type=int, required=True)
    p_verify.add_argument(
        "--unsafe-genus-cap",
        type=int,
        default=DEFAULT_GENUS_CAP,
        help=(
            "raise the genus guard for Groebner-bound checks; checks with "
            "hard model limits still cap below it (default 4)"
        ),
    )
    add_format(p_verify)

    return parser


COMMANDS = {
    "betti": cmd_betti,
    "ring": cmd_ring,
    "pairing": cmd_pairing,
    "eq-series": cmd_eq_series,
    "e-basis": cmd_e_basis,
    "verify": cmd_verify,
}


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    genus = getattr(args, "genus", None)
    if genus is not None and genus < 2:
        parser.error("--genus must be at least 2")
    k = getattr(args, "k", None)
    if k is not None and k < 0:
        parser.error("--k must be nonnegative")
    order = getattr(args, "order", None)
    if order is not None:
        if args.command == "eq-series" and order < 6 * genus - 6:
            parser.error(f"--order must be at least 6g-6 = {6 * genus - 6}")
        if order < 0:
            parser.error("--order must be nonnegative")
    m = getattr(args, "m", None)
    if m is not None and m < 0:
        parser.error("--m must be nonnegative")
    cap = getattr(args, "unsafe_genus_cap", DEFAULT_GENUS_CAP)
    if cap < 2:
        parser.error("--unsafe-genus-cap must be at least 2")
    return RunConfig(
        command=args.command,
        format=args.format,
        genus=genus,
        k=k,
        order=order,
        route=getattr(args, "route", "closed"),
        m=m,
        unsafe_genus_cap=cap,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _validate(parser, args)
    doc, exit_code = COMMANDS[config.command](config)
    sys.stdout.write(RENDERERS[config.format](doc))
    return exit_code


def run() -> None:
    sys.exit(main())
