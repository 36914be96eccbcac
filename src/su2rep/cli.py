"""Command-line front end: computations, cross-checks, machine-readable reports.

Subcommands: betti, ring, pairing, eq-series, e-basis, verify.  Every
command returns its data and its check records, and `main` frames them as one
document, `{"command", "genus", "data", "checks"}` (genus null for ring and
e-basis), which it renders in text, json, or latex form; the json form
is canonical (sorted keys, fixed indentation): its bytes equal those of
`json.dumps(doc, sort_keys=True, indent=2)` (pairing's `PairingMatrix` view
listed as entry dicts, ring's basis `Poly`s as their `render_poly` strings):
each pairing entry is one format string and one write,
and every other document one string from one generic writer and one write, so
identical invocations produce identical bytes and parsing plus re-rendering
round-trips.

Exit codes: 0 success / no check failed, 1 a check record with status fail
(`main` alone maps the records to this status), 2 usage,
3 internal error (any exception, such as a corrupt cache file; the traceback
goes to stderr), 141 stdout closed by its reader (128 + SIGPIPE; nothing goes
to stderr).
"""

from __future__ import annotations

import gc
import os
import sys
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import inf
from types import SimpleNamespace

from .assembly import (
    BettiTable,
    DualityError,
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
    invariant_truncated_dimensions,
    prim_dimension_bruteforce,
    prim_dimension_formula,
    restriction_image_dimensions,
)
from .graded import VARIABLE_NAMES, Poly, render_poly
from .groebner import (
    hilbert_series_quotient,
    leading_term_ideal,
    relation_ideal_basis,
)
from .series import latex_rational, monomial_str, series_mul, zpoly_str

DEFAULT_GENUS_CAP = 4
# run-time budgets of the verify table (and of e-basis's independence check);
# the library functions they guard accept any genus
E_INDEPENDENCE_CAP = 4
BRUTEFORCE_PRIM_CAP = 5
RESTRICTION_CAP = 3
TOP_IDENTITY_CAP = 4
# 6g + this is eq-series' default order and the order of verify's equivariant record
IP_EXTRA_ORDER = 24


class CheckRecord(namedtuple("CheckRecord", "name genus status details")):
    """status is pass, fail or skipped; genus is None for a genus-free check."""

    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", "genus checks")):
    """checks is a tuple of CheckRecord."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# command implementations: each takes the parsed arguments and returns its data and
# its check records; main frames them as the document and exits 1 if a check fails
# ---------------------------------------------------------------------------

def _record(name: str, genus: int | None, status: str, details: str) -> list[dict]:
    """A command's one check record, listed as its document holds it."""
    return [CheckRecord(name, genus, status, details)._asdict()]


def cmd_betti(args: SimpleNamespace) -> tuple[dict, list]:
    g = args.genus
    if args.route == "structural":
        table = ih_series_structural(g)
    else:
        try:
            table = ip_series_closed(g)
        except ArithmeticError as exc:
            # the closed route failed its own test: no table and a failed check, not a crash
            name = "poincare-duality" if isinstance(exc, DualityError) else "polynomiality"
            data = {"route": "closed-form", "betti": None, "top_degree": 6 * g - 6,
                    "total_dimension": None}
            return data, _record(name, g, "fail", str(exc))
    try:
        table.validate()
        status, details = "pass", f"table is palindromic about degree {3 * g - 3}"
    except DualityError as exc:
        status, details = "fail", str(exc)
    data = {
        "route": table.provenance,
        "betti": list(table.coefficients),
        "top_degree": 6 * g - 6,
        "total_dimension": sum(table.coefficients),
    }
    return data, _record("poincare-duality", g, status, details)


def cmd_ring(args: SimpleNamespace) -> tuple[dict, list]:
    k, order = args.k, args.order
    basis = relation_ideal_basis(k)
    h = hilbert_series_quotient(leading_term_ideal(basis))
    num, den = h.reduced_pair()
    data = {
        "k": k,
        # the Polys themselves: each renderer writes them in its own form
        "basis": basis.generators,
        "leading_monomials": [monomial_str(m, VARIABLE_NAMES) for m in basis.leading_monomials()],
        "hilbert_numerator": list(num),
        "hilbert_denominator": list(den),
        "order": order,
        "expansion": [int(c) for c in h.expand(order)],
    }
    return data, []


# render_json's bytes for one entry of cmd_pairing's document, listed (keys sorted, at
# the depth of data.entries), in two formats: a degree's m, n and quoted den and num,
# then each entry's preceding "[" or "," and its four exponents
PAIRING_ENTRY_JSON = (
    '%%s\n      {\n        "left": [\n          %%d,\n          %%d\n        ],'
    '\n        "m": %d,\n        "n": %d,'
    '\n        "right": [\n          %%d,\n          %%d\n        ],'
    '\n        "value": {\n          "den": %s,\n          "num": %s\n        }\n      }'
)


def cmd_pairing(args: SimpleNamespace) -> tuple[dict, list]:
    # the view itself: the renderers read its per-degree values and make no entry
    return {"entries": pairing_matrix(args.genus)}, []


def cmd_eq_series(args: SimpleNamespace) -> tuple[dict, list]:
    g = args.genus
    order = args.order if args.order is not None else 6 * g + IP_EXTRA_ORDER
    series = (
        equivariant_series_closed(g, order)
        if args.route == "closed"
        else equivariant_series_structural(g, order)
    )
    return {"route": args.route, "order": order, "coefficients": [int(c) for c in series]}, []


def cmd_e_basis(args: SimpleNamespace) -> tuple[dict, list]:
    m = args.m
    basis = e_basis(m)
    if m > E_INDEPENDENCE_CAP:
        status, details = "skipped", f"m {m} exceeds cap {E_INDEPENDENCE_CAP}"
    else:
        verdict = e_basis_independence(m)
        status = "pass" if verdict.passed else "fail"
        details = f"rank {verdict.rank} of {verdict.basis_size} normal forms modulo I_{m}"
        if not verdict.passed:
            details += f"; dependency in degree {verdict.failing_degree}"
    data = {
        "m": m,
        "size": len(basis),
        "monomials": [[e.i, e.j, e.k] for e in basis],
        "hilbert": list(e_hilbert(m)),
    }
    return data, _record("e-basis-independence", None, status, details)


# ---------------------------------------------------------------------------
# verify: each check returns (passed, details) from the genus and the closed table,
# or the ArithmeticError that ip_series_closed raised in its place
# ---------------------------------------------------------------------------

def _first_mismatch(*columns) -> tuple[int, tuple] | None:
    """First (index, values) at which the columns disagree, or None."""
    for d, values in enumerate(zip(*columns)):
        if len(set(values)) != 1:
            return d, values
    return None


def _compare_routes(closed, structural, agreement: str) -> tuple[bool, str]:
    """The first degree at which the closed and structural columns differ, or `agreement`."""
    bad = _first_mismatch(closed, structural)
    if bad:
        d, (a, b) = bad
        return False, f"first mismatch at degree {d}: closed {a}, structural {b}"
    return True, agreement


def _check_intersection_routes(
    g: int, closed: BettiTable | ArithmeticError
) -> tuple[bool, str]:
    if isinstance(closed, ArithmeticError):
        return False, f"no closed table: {closed}"
    return _compare_routes(
        closed.coefficients, ih_series_structural(g).coefficients,
        f"tables agree in all degrees 0..{6 * g - 6}",
    )


def _check_equivariant_routes(g: int, closed: BettiTable) -> tuple[bool, str]:
    N = 6 * g + IP_EXTRA_ORDER
    return _compare_routes(
        equivariant_series_closed(g, N), equivariant_series_structural(g, N),
        f"series agree to order {N}",
    )


def _check_polynomiality(g: int, closed: BettiTable | ArithmeticError) -> tuple[bool, str]:
    # ip_series_closed raises ArithmeticError, before any DualityError, unless
    # equivariant minus correction divides exactly in Z[t] to a polynomial of degree 6g-6
    if isinstance(closed, ArithmeticError) and not isinstance(closed, DualityError):
        return False, str(closed)
    return True, f"divides exactly in Z[t], degree {6 * g - 6}"


def _check_duality(g: int, closed: BettiTable | ArithmeticError) -> tuple[bool, str]:
    # a negative coefficient is this check's failure; any other failure left no table
    if isinstance(closed, DualityError):
        return False, str(closed)
    if isinstance(closed, ArithmeticError):
        return False, f"no closed table: {closed}"
    try:
        closed.validate()
    except DualityError as exc:
        return False, str(exc)
    return True, "palindromic, nonnegative, degree-0 entry 1"


def _check_e_independence(g: int, closed: BettiTable) -> tuple[bool, str]:
    for m in range(g + 1):
        verdict = e_basis_independence(m)
        if not verdict.passed:
            return False, f"E_{m} normal forms dependent in degree {verdict.failing_degree}"
    return True, f"full rank for m = 0..{g}"


def _check_b_series(g: int, closed: BettiTable) -> tuple[bool, str]:
    if series_mul(t_over_tanh_series(24), tanh_over_t_series(24)) != (1,) + (0,) * 24:
        return False, "product with independent tanh expansion deviates from 1"
    b = b_coefficients(2)
    if b != [1, Fraction(1, 3), Fraction(-1, 45)]:
        shown = ", ".join(map(str, b))
        return False, f"b_0, b_1, b_2 are {shown}, expected 1, 1/3, -1/45"
    return True, "product with independent tanh expansion is 1 to order 24"


def _check_lefschetz(g: int, closed: BettiTable) -> tuple[bool, str]:
    total = sum(
        prim_dimension_formula(g, l) * (g - l + 1) for l in range(g + 1)
    )
    return total == 4 ** g, f"sum of prim(g,l)(g-l+1) = {total}, expected {4 ** g}"


def _check_prim_bruteforce(g: int, closed: BettiTable) -> tuple[bool, str]:
    bad = _first_mismatch(
        (prim_dimension_formula(g, l) for l in range(g + 1)),
        (prim_dimension_bruteforce(g, l) for l in range(g + 1)),
    )
    if bad:
        l, (formula, brute) = bad
        return False, f"l = {l}: formula {formula}, brute force {brute}"
    return True, f"agree for l = 0..{g}"


def _check_restriction(g: int, closed: BettiTable) -> tuple[bool, str]:
    restricted = restriction_image_dimensions(g)
    invariant = invariant_truncated_dimensions(g)
    window = max(invariant)
    try:
        correction = correction_series(g, window)
    except ArithmeticError as exc:
        # the closed route's correction term is not a dimension series
        return False, str(exc)
    # both dimension dicts are keyed 0..window in ascending order
    bad = _first_mismatch(
        restricted.values(), invariant.values(), map(int, correction)
    )
    if bad:
        d, (r, i, c) = bad
        return False, f"degree {d}: restriction {r}, invariant {i}, correction {c}"
    # the three sides agree, so one all-zero side means nothing was compared
    if not any(invariant.values()):
        return False, f"vacuous: all-zero window, every side is 0 in degrees 0..{window}"
    return True, f"restriction, invariant, and correction agree in degrees 0..{window}"


def _check_top_identity(g: int, closed: BettiTable) -> tuple[bool, str]:
    verdict = top_identity_check(g)
    if not verdict.passed:
        failing = [(e.m, e.n) for e in verdict.entries if not e.passed]
        return False, f"nonzero normal form at (m, n) in {failing}"
    counted, hilbert = verdict.top_degree_dimension, verdict.hilbert_dimension
    if counted != hilbert:
        return False, f"top-degree dimension {counted} by count, {hilbert} by Hilbert series"
    pairs = ", ".join(f"({e.m},{e.n})" for e in verdict.entries)
    return True, f"normal forms vanish for {pairs}; top-degree quotient dimension {counted}"


# (name, hard cap, check), in report order.  A capped check runs while
# g <= min(--unsafe-genus-cap, hard cap); inf means only the user's cap
# applies, None means the check always runs.
CHECKS = (
    ("intersection-route-agreement", None, _check_intersection_routes),
    ("equivariant-route-agreement", inf, _check_equivariant_routes),
    ("polynomiality", None, _check_polynomiality),
    ("poincare-duality", None, _check_duality),
    ("e-basis-independence", E_INDEPENDENCE_CAP, _check_e_independence),
    ("b-series-inverse", None, _check_b_series),
    ("lefschetz-dimension-identity", None, _check_lefschetz),
    ("prim-formula-vs-bruteforce", BRUTEFORCE_PRIM_CAP, _check_prim_bruteforce),
    ("restriction-vs-invariant", RESTRICTION_CAP, _check_restriction),
    ("top-identity", TOP_IDENTITY_CAP, _check_top_identity),
)


def run_verification(g: int, cap: int) -> VerificationReport:
    try:
        closed = ip_series_closed(g)
    except ArithmeticError as exc:
        # the closed route failed its own test: the checks that read its table report
        # it, so verify exits 1, not 3
        closed = exc
    records = []
    for name, hard_cap, check in CHECKS:
        # t/tanh t does not depend on g, so its record carries no genus
        genus = None if check is _check_b_series else g
        if hard_cap is not None and g > min(cap, hard_cap):
            status, details = "skipped", f"genus {g} exceeds cap {min(cap, hard_cap)}"
        else:
            passed, details = check(g, closed)
            status = "pass" if passed else "fail"
        records.append(CheckRecord(name, genus, status, details))
    return VerificationReport(genus=g, checks=tuple(records))


def cmd_verify(args: SimpleNamespace) -> tuple[dict, list]:
    checks = [c._asdict() for c in run_verification(args.genus, args.unsafe_genus_cap).checks]
    overall = "fail" if any(c["status"] == "fail" for c in checks) else "pass"
    return {"genus_cap": args.unsafe_genus_cap, "overall": overall}, checks


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_json(doc: dict, write) -> None:
    """Write the bytes of `json.dumps(doc, sort_keys=True, indent=2)` plus a newline.

    A pairing document, shaped as `cmd_pairing` builds it, is written in its fixed
    layout: each degree of the view fills its m, n and value into `PAIRING_ENTRY_JSON`
    once, and each entry formats that with its separator and four exponents, one
    write per entry.  Any other document is built whole by `dump` and written once,
    so a crash while building it writes nothing.  Only str, int, bool, None, dict
    (str keys), list, tuple and `Poly` (as its `render_poly` string) are written;
    anything else raises TypeError.
    """
    # the C quoting function alone: the json package would load json.decoder and
    # json.scanner and compile their regexes, a few ms of a short job
    try:
        from _json import encode_basestring_ascii as quote
    except ImportError:
        from json.encoder import encode_basestring_ascii as quote

    def dump(o, nl: str) -> str:
        if isinstance(o, str):
            return quote(o)
        if o is None or o is True or o is False:
            return "null" if o is None else "true" if o else "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, Poly):
            return quote(render_poly(o))
        inner = nl + "  "
        if isinstance(o, dict):
            parts = [quote(k) + ": " + dump(v, inner) for k, v in sorted(o.items())]
            brackets = "{}"
        elif isinstance(o, (list, tuple)):
            parts = [dump(v, inner) for v in o]
            brackets = "[]"
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        if not parts:
            return brackets
        return brackets[0] + inner + ("," + inner).join(parts) + nl + brackets[1]

    if type(doc) is not dict or doc.get("command") != "pairing":
        write(dump(doc, "\n") + "\n")
        return
    write('{\n  "checks": %s,\n  "command": "pairing",\n  "data": {\n    "entries": '
          % dump(doc["checks"], "\n  "))
    sep = "["
    for n, m, v in doc["data"]["entries"].degrees():
        entry = PAIRING_ENTRY_JSON % (m, n, quote(str(v.denominator)), quote(str(v.numerator)))
        for i in range(m + 1):
            for j in range(n + 1):
                write(entry % (sep, i, j, m - i, n - j))
                sep = ","
    write('%s\n  },\n  "genus": %d\n}\n' % ("[]" if sep == "[" else "\n    ]", doc["genus"]))


def render_text(doc: dict, write) -> None:
    cmd = doc["command"]
    data = doc["data"]

    def line(text: str) -> None:
        write(text + "\n")

    if cmd == "betti":
        line(f"IH Betti numbers, genus {doc['genus']} ({data['route']} route)")
        if data["betti"] is not None:
            line(f"IP_t = {zpoly_str(data['betti'])}")
            line(f"total dimension: {data['total_dimension']}")
    elif cmd == "ring":
        line(f"reduced Groebner basis of I_{data['k']}:")
        for g in data["basis"]:
            line(f"  {render_poly(g)}")
        line(
            f"Hilbert series: ({zpoly_str(data['hilbert_numerator'])})"
            f" / ({zpoly_str(data['hilbert_denominator'])})"
        )
        line(f"expansion to order {data['order']}: {zpoly_str(data['expansion'])}")
    elif cmd == "pairing":
        line(f"intersection pairing, genus {doc['genus']}")
        # exponent pairs and per-degree values repeat across entries: format each once
        g = data["entries"].genus
        kappa = [
            [f"kappa({monomial_str((i, j), VARIABLE_NAMES)})" for j in range(g - 1)]
            for i in range(3 * g - 2)
        ]
        for n, m, v in data["entries"].degrees():
            entry = f"  <%s, %s> = {v}\n"
            for i in range(m + 1):
                for j in range(n + 1):
                    write(entry % (kappa[i][j], kappa[m - i][n - j]))
    elif cmd == "eq-series":
        line(
            f"equivariant Poincare series, genus {doc['genus']} "
            f"({data['route']} route), to order {data['order']}"
        )
        line(f"P_t = {zpoly_str(data['coefficients'])} + ...")
    elif cmd == "e-basis":
        line(f"E_{data['m']} spanning set ({data['size']} monomials)")
        for e in data["monomials"]:
            line(f"  {monomial_str(e, ('alpha', 'beta', 'xi'))}")
        line(f"degree generating polynomial: {zpoly_str(data['hilbert'])}")
    elif cmd == "verify":
        line(
            f"verification report, genus {doc['genus']} "
            f"(genus cap {data['genus_cap']})"
        )
    for c in doc["checks"]:
        line(f"[{c['status']:>7}] {c['name']}: {c['details']}")
    if cmd == "verify":
        line(f"overall: {data['overall'].upper()}")


def render_latex(doc: dict, write) -> None:
    cmd = doc["command"]
    data = doc["data"]

    def line(text: str) -> None:
        write(text + "\n")

    if cmd == "betti":
        if data["betti"] is not None:
            line(
                rf"$IP_t(X(SU(2))) = {zpoly_str(data['betti'], latex=True)}$ "
                rf"\quad (g = {doc['genus']})"
            )
    elif cmd == "ring":
        line(rf"Reduced Gr\"obner basis of $I_{{{data['k']}}}$:")
        line(r"\begin{align*}")
        rendered = [render_poly(g, latex=True) for g in data["basis"]]
        line(" \\\\\n".join(f"& {r}" for r in rendered))
        line(r"\end{align*}")
        line(
            rf"Hilbert series: $\frac{{{zpoly_str(data['hilbert_numerator'], latex=True)}}}"
            rf"{{{zpoly_str(data['hilbert_denominator'], latex=True)}}}$"
        )
    elif cmd == "pairing":
        line(r"\begin{tabular}{llr}")
        line(r"left & right & value \\")
        line(r"\hline")
        # the value depends only on the degree: format each one once
        for n, m, v in data["entries"].degrees():
            entry = r"$\kappa(\alpha^{%d}\beta^{%d})$ & $\kappa(\alpha^{%d}\beta^{%d})$ & $"
            entry += latex_rational(v) + "$ \\\\\n"
            for i in range(m + 1):
                for j in range(n + 1):
                    write(entry % (i, j, m - i, n - j))
        line(r"\end{tabular}")
    elif cmd == "eq-series":
        line(rf"$P_t^{{SU(2)}} = {zpoly_str(data['coefficients'], latex=True)} + \cdots$")
    elif cmd == "e-basis":
        monos = [
            monomial_str(e, (r"\alpha", r"\beta", r"\xi"), latex=True)
            for e in data["monomials"]
        ]
        line(rf"$E_{{{data['m']}}} = \{{{', '.join(monos)}\}}$")
    elif cmd == "verify":
        line(r"\begin{tabular}{llp{8cm}}")
        line(r"check & status & details \\")
        line(r"\hline")
    # verify's table lists every check; any other command shows only a failed one
    for c in doc["checks"]:
        detail = c["details"].replace("_", r"\_")
        if cmd == "verify":
            line(rf"{c['name']} & {c['status']} & {detail} \\")
        elif c["status"] == "fail":
            line(rf"\textbf{{fail}} {c['name']}: {detail}")
    if cmd == "verify":
        line(r"\end{tabular}")


RENDERERS = {"text": render_text, "json": render_json, "latex": render_latex}


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of a flag that must be given
# least: the smallest value _validate accepts, None for no bound
Flag = namedtuple("Flag", "name type default choices help least", defaults=(None, None, None))
Command = namedtuple("Command", "run help flags")
GENUS = Flag("--genus", int, REQUIRED, least=2)
FORMAT = Flag("--format", str, "text", tuple(RENDERERS), "output format (default text)")
ROUTES = ("closed", "structural")

# each subcommand's function, help and flags in usage order, read by _parse_fast,
# build_parser, _validate and main
OPTIONS = {
    "betti": Command(cmd_betti, "intersection cohomology Betti numbers", (
        GENUS,
        Flag("--route", str, "closed", ROUTES,
             "closed form or primitive-part assembly (default closed)"),
        FORMAT,
    )),
    "ring": Command(cmd_ring, "Groebner basis and Hilbert series of a relation ideal I_k", (
        Flag("--k", int, REQUIRED, least=0), Flag("--order", int, 24, least=0), FORMAT,
    )),
    "pairing": Command(cmd_pairing, "intersection pairing matrix", (GENUS, FORMAT)),
    # --order's bound, 6g-6, depends on --genus: _validate checks it once --genus passes
    "eq-series": Command(cmd_eq_series, "equivariant Poincare series", (
        GENUS, Flag("--order", int, None), Flag("--route", str, "closed", ROUTES), FORMAT,
    )),
    "e-basis": Command(cmd_e_basis, "E_m spanning set and its degrees", (
        Flag("--m", int, REQUIRED, least=0), FORMAT,
    )),
    "verify": Command(cmd_verify, "run all cross-checks and report", (
        GENUS,
        Flag("--unsafe-genus-cap", int, DEFAULT_GENUS_CAP, None,
             "raise the genus guard for Groebner-bound checks; checks with "
             f"hard run-time caps still cap below it (default {DEFAULT_GENUS_CAP})", least=2),
        FORMAT,
    )),
}


def _parse_fast(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for `<command> --flag value ...`, or None.

    Only exact flags of the command, each at most once, with values that do not
    start with "-" and that convert; anything else (help, `--flag=value`,
    abbreviations, usage errors) is left to argparse.
    """
    if len(argv) % 2 == 0 or argv[0] not in OPTIONS:
        return None
    flags = {f.name: f for f in OPTIONS[argv[0]].flags}
    given = {}
    for name, value in zip(argv[1::2], argv[2::2]):
        flag = flags.get(name)
        if flag is None or name in given or value.startswith("-"):
            return None
        try:
            given[name] = flag.type(value)
        except ValueError:
            return None
        if flag.choices and given[name] not in flag.choices:
            return None
    if any(f.default is REQUIRED and f.name not in given for f in flags.values()):
        return None
    return SimpleNamespace(command=argv[0], **{
        f.name[2:].replace("-", "_"): given.get(f.name, f.default) for f in flags.values()
    })


def build_parser():
    """The argparse parser of the OPTIONS table, for help and usage errors."""
    # imported here: with the build, it costs more than a warm command takes
    import argparse

    parser = argparse.ArgumentParser(
        prog="su2rep",
        description=(
            "Exact cohomology computations for the SU(2) representation "
            "space of a genus-g surface group"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in OPTIONS.items():
        p = sub.add_parser(name, help=command.help)
        for f in command.flags:
            required = f.default is REQUIRED
            p.add_argument(
                f.name, type=f.type, default=None if required else f.default,
                choices=f.choices, required=required, help=f.help,
            )
    return parser


def _validate(args: SimpleNamespace) -> str | None:
    """The usage error in parsed arguments, or None."""
    for f in OPTIONS[args.command].flags:
        if f.least is not None and getattr(args, f.name[2:].replace("-", "_")) < f.least:
            return f"{f.name} must be " + (f"at least {f.least}" if f.least else "nonnegative")
    if args.command == "eq-series" and args.order is not None and args.order < 6 * args.genus - 6:
        return f"--order must be at least 6g-6 = {6 * args.genus - 6}"
    return None


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_fast(argv)
    if args is None or _validate(args):
        # help, other spellings and usage errors: argparse parses them or exits 2
        parser = build_parser()
        args = parser.parse_args(argv)
        error = _validate(args)
        if error:
            parser.error(error)
    try:
        data, checks = OPTIONS[args.command].run(args)
        # ring and e-basis take no --genus: their documents carry a null genus
        doc = {"command": args.command, "genus": getattr(args, "genus", None), "data": data,
               "checks": checks}
        # sys.stdout is looked up here, so redirect_stdout and capsys see the output
        RENDERERS[args.format](doc, sys.stdout.write)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`); on devnull the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception:
        # a crash, such as a corrupt cache file, must not read as a failed check
        import traceback

        traceback.print_exc()
        return 3
    # a failed check record is the one mathematical failure
    return int(any(c["status"] == "fail" for c in checks))


def run() -> None:
    # frozen, the start-up heap goes with the process, not object by object at shutdown;
    # not in main(), which tests call in-process: there it would pin each call's heap
    gc.freeze()
    code = main()
    if sys.gettrace() is not None or sys.getprofile() is not None:
        sys.exit(code)  # a tracer or profiler (coverage, cProfile) reports at this exit
    # skip the interpreter's teardown, after what of it can be seen: the atexit
    # handlers, then the flushes
    import atexit

    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        sys.exit(code)  # a missing, full or closed stream: reported as the normal exit does
    os._exit(code)
