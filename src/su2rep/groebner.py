"""Buchberger's algorithm and weighted Hilbert series for the relation ideals.

The ideal I_k in Q[alpha, beta, gamma] is generated by the three relation
classes c_{k+1}, c_{k+2}, c_{k+3}.  Everything uses the fixed monomial
order from `graded.monomial_key` (weighted degree, then lex with
alpha > beta > gamma); a graded order is required so that the leading-term
ideal has the same Hilbert series as the ideal itself.

Reduced bases serialize to a plain text form (one generator per line in
canonical rendering), which backs an optional on-disk cache keyed by k.
The cache is purely an optimization: parsing a cached file reproduces the
exact basis that Buchberger computes.
"""

from __future__ import annotations

import heapq
import os
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .graded import (
    Monomial,
    Poly,
    monomial_degree,
    monomial_divides,
    monomial_key,
    monomial_lcm,
    monomial_mul,
    monomial_quotient,
    mumford_c,
    parse_poly,
    render_poly,
)
from .series import RationalFunction, zpoly_mul

CACHE_ENV_VAR = "SU2REP_GROEBNER_CACHE"


class GroebnerBasis(NamedTuple):
    """Reduced monic basis, generators sorted by ascending leading monomial."""

    generators: tuple[Poly, ...]
    source_k: int | None = None

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial() for g in self.generators)

    def is_reduced(self) -> bool:
        lms = self.leading_monomials()
        for i, g in enumerate(self.generators):
            if g.leading_coefficient() != 1:
                return False
            for m in g.terms:
                for j, lm in enumerate(lms):
                    if i != j and monomial_divides(lm, m):
                        return False
        return True


def ideal_generators(k: int) -> list[Poly]:
    """The three generators c_{k+1}, c_{k+2}, c_{k+3} of I_k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return [mumford_c(k + 1), mumford_c(k + 2), mumford_c(k + 3)]


def s_polynomial(f: Poly, g: Poly) -> Poly:
    lf, lg = f.leading_monomial(), g.leading_monomial()
    l = monomial_lcm(lf, lg)
    return f.term_scaled(
        monomial_quotient(l, lf), 1 / f.leading_coefficient()
    ) - g.term_scaled(monomial_quotient(l, lg), 1 / g.leading_coefficient())


def _reduce(p: Poly, reducers: Sequence[tuple[Monomial, Fraction, Poly]]) -> Poly:
    """Full multivariate division remainder of p by the given reducers.

    Each reducer is (leading monomial, leading coefficient, polynomial).
    No monomial of the result is divisible by any reducer's leading monomial.
    """
    work = dict(p.terms)
    remainder: dict[Monomial, Fraction] = {}
    while work:
        m = max(work, key=monomial_key)
        c = work.pop(m)
        for lm, lc, g in reducers:
            if monomial_divides(lm, m):
                q = monomial_quotient(m, lm)
                factor = c / lc
                for mg, cg in g.terms.items():
                    if mg == lm:
                        continue
                    mm = monomial_mul(mg, q)
                    s = work.get(mm, Fraction(0)) - factor * cg
                    if s:
                        work[mm] = s
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
    return Poly(remainder)


def _reducers(gens: Iterable[Poly]) -> list[tuple[Monomial, Fraction, Poly]]:
    return [
        (g.leading_monomial(), g.leading_coefficient(), g)
        for g in gens
        if not g.is_zero()
    ]


def normal_form(p: Poly, basis: GroebnerBasis | Sequence[Poly]) -> Poly:
    """Unique remainder of p modulo the ideal presented by a reduced basis."""
    gens = basis.generators if isinstance(basis, GroebnerBasis) else basis
    return _reduce(p, _reducers(gens))


def buchberger(gens: Sequence[Poly], source_k: int | None = None) -> GroebnerBasis:
    """Unique reduced monic Groebner basis of the ideal generated by gens.

    Normal pair-selection strategy: a heap hands out the pending pair with
    the smallest lcm of leading monomials, ties broken by index.  Two
    criteria skip pairs whose S-polynomial needs no reduction:
    - coprime leading monomials (Buchberger's first criterion);
    - the chain criterion (Buchberger's second criterion, as in
      Gebauer-Moeller 1988): skip (i, j) when some other generator k has
      lm_k | lcm(lm_i, lm_j) and neither (i, k) nor (j, k) is pending.
    """
    basis = [g.monic() for g in gens if not g.is_zero()]
    if not basis:
        raise ValueError("need at least one nonzero generator")
    reducers = _reducers(basis)
    lms = [lm for lm, _, _ in reducers]
    heap: list[tuple[tuple[int, int, int, int], tuple[int, int]]] = []
    pending: set[tuple[int, int]] = set()

    def push_pairs(j: int) -> None:
        for i in range(j):
            heapq.heappush(heap, (monomial_key(monomial_lcm(lms[i], lms[j])), (i, j)))
            pending.add((i, j))

    for j in range(1, len(basis)):
        push_pairs(j)
    while heap:
        _, (i, j) = heapq.heappop(heap)
        pending.remove((i, j))
        lmi, lmj = lms[i], lms[j]
        lcm = monomial_lcm(lmi, lmj)
        if lcm == monomial_mul(lmi, lmj):
            continue
        if any(
            k != i
            and k != j
            and monomial_divides(lmk, lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, lmk in enumerate(lms)
        ):
            continue
        s = _reduce(s_polynomial(basis[i], basis[j]), reducers)
        if s.is_zero():
            continue
        s = s.monic()
        lm = s.leading_monomial()
        basis.append(s)
        lms.append(lm)
        reducers.append((lm, s.terms[lm], s))
        push_pairs(len(basis) - 1)

    # minimalize: ascending leading monomials, drop any divisible by a kept one
    basis.sort(key=lambda g: monomial_key(g.leading_monomial()))
    kept: list[Poly] = []
    kept_lms: list[Monomial] = []
    for g in basis:
        lm = g.leading_monomial()
        if not any(monomial_divides(k, lm) for k in kept_lms):
            kept.append(g)
            kept_lms.append(lm)

    # interreduce to the unique reduced basis; reducing a minimal basis never
    # changes a leading monomial, so only the changed reducer is replaced
    reducers = _reducers(kept)
    changed = True
    while changed:
        changed = False
        for idx in range(len(kept)):
            h = _reduce(kept[idx], reducers[:idx] + reducers[idx + 1 :]).monic()
            if h != kept[idx]:
                kept[idx] = h
                lm = reducers[idx][0]
                reducers[idx] = (lm, h.terms[lm], h)
                changed = True
    kept.sort(key=lambda g: monomial_key(g.leading_monomial()))
    return GroebnerBasis(generators=tuple(kept), source_k=source_k)


# ---------------------------------------------------------------------------
# monomial ideals and Hilbert series
# ---------------------------------------------------------------------------

class MonomialIdeal:
    """Monomial ideal given by its antichain of minimal generators."""

    __slots__ = ("generators",)

    def __init__(self, generators: tuple[Monomial, ...]):
        for i, a in enumerate(generators):
            for j, b in enumerate(generators):
                if i != j and monomial_divides(a, b):
                    raise ValueError("generators must form an antichain")
        self.generators = generators

    @classmethod
    def from_monomials(cls, monomials: Iterable[Monomial]) -> MonomialIdeal:
        ms = sorted(set(monomials), key=monomial_key)
        minimal: list[Monomial] = []
        for m in ms:
            if not any(monomial_divides(k, m) for k in minimal):
                minimal.append(m)
        return cls(generators=tuple(minimal))

    def contains(self, m: Monomial) -> bool:
        return any(monomial_divides(g, m) for g in self.generators)


def leading_term_ideal(basis: GroebnerBasis) -> MonomialIdeal:
    return MonomialIdeal.from_monomials(basis.leading_monomials())


RING_DENOMINATOR = zpoly_mul(
    zpoly_mul((1, 0, -1), (1, 0, 0, 0, -1)), (1, 0, 0, 0, 0, 0, -1)
)


def _subset_numerator(gens: Sequence[Monomial]) -> dict[int, int]:
    """Numerator coefficients from the literal subset sum; exponential in len(gens)."""
    coeffs: dict[int, int] = {}

    def visit(idx: int, lcm: Monomial, sign: int) -> None:
        if idx == len(gens):
            d = monomial_degree(lcm)
            coeffs[d] = coeffs.get(d, 0) + sign
            return
        visit(idx + 1, lcm, sign)
        visit(idx + 1, monomial_lcm(lcm, gens[idx]), -sign)

    visit(0, (0, 0, 0), 1)
    return {d: c for d, c in coeffs.items() if c}


def _pivot_numerator(gens: tuple[Monomial, ...]) -> dict[int, int]:
    """Same sum as `_subset_numerator`, grouped by a pivot generator.

    Splitting the subsets by membership of the last generator p gives
    K(G) = K(G without p) - t^(deg p) * K({lcm(m, p)/p : m in G without p}),
    and the colon family may be minimalized because inclusion-exclusion over
    any generating family of one monomial ideal counts the same union of
    principal ideals.  This makes large antichains tractable.
    """
    if not gens:
        return {0: 1}
    if len(gens) == 1:
        d = monomial_degree(gens[0])
        out = {0: 1}
        out[d] = out.get(d, 0) - 1
        return {k: v for k, v in out.items() if v}
    p = gens[-1]
    rest = gens[:-1]
    out = dict(_pivot_numerator(rest))
    colon = MonomialIdeal.from_monomials(
        monomial_quotient(monomial_lcm(m, p), p) for m in rest
    ).generators
    dp = monomial_degree(p)
    for d, c in _pivot_numerator(colon).items():
        out[d + dp] = out.get(d + dp, 0) - c
    return {d: c for d, c in out.items() if c}


def hilbert_series_quotient(ideal: MonomialIdeal) -> RationalFunction:
    """Hilbert series of Q[alpha,beta,gamma]/ideal, weights (2, 4, 6).

    The numerator over the fixed denominator (1-t^2)(1-t^4)(1-t^6) is the
    inclusion-exclusion sum over generator subsets S of
    (-1)^|S| t^(deg lcm S), evaluated by the pivot recursion above.
    """
    coeffs = _pivot_numerator(ideal.generators)
    top = max(coeffs) if coeffs else 0
    num = [0] * (top + 1)
    for d, c in coeffs.items():
        num[d] = c
    if not any(num):
        num = [0]
    return RationalFunction(num, RING_DENOMINATOR)


def standard_monomial_dimensions(ideal: MonomialIdeal, max_degree: int) -> list[int]:
    """Count monomials outside the ideal, degree by degree up to max_degree.

    Direct enumeration; an independent check of the Hilbert series expansion.
    """
    counts = [0] * (max_degree + 1)
    for i in range(max_degree // 2 + 1):
        for j in range((max_degree - 2 * i) // 4 + 1):
            for k in range((max_degree - 2 * i - 4 * j) // 6 + 1):
                d = 2 * i + 4 * j + 6 * k
                if not ideal.contains((i, j, k)):
                    counts[d] += 1
    return counts


# ---------------------------------------------------------------------------
# serialization and cache
# ---------------------------------------------------------------------------

def render_basis(basis: GroebnerBasis) -> str:
    head = "groebner-basis"
    if basis.source_k is not None:
        head += f" k={basis.source_k}"
    return "\n".join([head] + [render_poly(g) for g in basis.generators]) + "\n"


def parse_basis(text: str) -> GroebnerBasis:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("groebner-basis"):
        raise ValueError("not a serialized basis")
    source_k: int | None = None
    for token in lines[0].split()[1:]:
        if token.startswith("k="):
            source_k = int(token[2:])
    gens = tuple(parse_poly(ln) for ln in lines[1:])
    return GroebnerBasis(generators=gens, source_k=source_k)


@lru_cache(maxsize=None)
def _relation_basis_computed(k: int) -> GroebnerBasis:
    return buchberger(ideal_generators(k), source_k=k)


def relation_ideal_basis(k: int) -> GroebnerBasis:
    """Reduced basis of I_k, read from the cache directory when configured.

    The directory comes from the environment variable named by
    `CACHE_ENV_VAR`; with no cache the basis is computed (and memoized)
    in-process.  Cached and computed results are identical.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    cache_dir = os.environ.get(CACHE_ENV_VAR)
    if not cache_dir:
        return _relation_basis_computed(k)
    path = Path(cache_dir) / f"relation-ideal-{k}.txt"
    if path.exists():
        basis = parse_basis(path.read_text())
        if basis.source_k != k:
            raise ValueError(f"cache file {path} is tagged k={basis.source_k}")
        return basis
    basis = _relation_basis_computed(k)
    path.parent.mkdir(parents=True, exist_ok=True)
    # write then rename, so a killed process never leaves a truncated file
    # (which would still parse, as a smaller basis) under the final name
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(render_basis(basis))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return basis
