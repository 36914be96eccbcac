"""Buchberger's algorithm and weighted Hilbert series for the relation ideals.

The ideal I_k in Q[alpha, beta, gamma] is generated by the three relation
classes c_{k+1}, c_{k+2}, c_{k+3}.  Everything uses the fixed monomial
order from `graded.monomial_key` (weighted degree, then lex with
alpha > beta > gamma); a graded order is required so that the leading-term
ideal has the same Hilbert series as the ideal itself.

`buchberger` and `normal_form` reduce fraction-free over Z, as Bareiss
eliminates: a polynomial is a dict from keys (2i + 4j + 6k, i, j, k), whose
tuple order is the monomial order, to ints.  Rationals appear only where a
`Poly` enters (denominators cleared) and leaves (monic, or the exact remainder).

Reduced bases serialize to a plain text form (one generator per line in
canonical rendering), which backs an optional on-disk cache keyed by k.
A cached file is trusted as read: nothing certifies it, so a file edited or
cut short after Buchberger wrote it changes results if it still parses.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .graded import (
    Monomial,
    Poly,
    monomial_degree,
    monomial_divides,
    monomial_key,
    mumford_c,
    parse_poly,
    render_poly,
)
from .series import RationalFunction, zpoly_mul

CACHE_ENV_VAR = "SU2REP_GROEBNER_CACHE"

Key = tuple[int, int, int, int]
# (leading key, leading coefficient, all terms) of a primitive polynomial over Z
Reducer = tuple[Key, int, list[tuple[Key, int]]]


class GroebnerBasis(namedtuple("GroebnerBasis", "generators source_k", defaults=(None,))):
    """Reduced monic basis, generators sorted by ascending leading monomial."""

    __slots__ = ()

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial() for g in self.generators)


def ideal_generators(k: int) -> list[Poly]:
    """The three generators c_{k+1}, c_{k+2}, c_{k+3} of I_k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return [mumford_c(k + 1), mumford_c(k + 2), mumford_c(k + 3)]


def _to_z(p: Poly) -> tuple[dict[Key, int], int]:
    """p times the lcm of its denominators, on degree-first keys, and that lcm."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    return {
        (2 * i + 4 * j + 6 * k, i, j, k): c.numerator * (den // c.denominator)
        for (i, j, k), c in p.terms.items()
    }, den


def _to_poly(f: dict[Key, int], den: int) -> Poly:
    return Poly.from_valid({m[1:]: Fraction(c, den) for m, c in f.items()})


def _reducer(f: dict[Key, int]) -> Reducer:
    g = gcd(*f.values())
    lm = max(f)
    return lm, f[lm] // g, [(m, c // g) for m, c in f.items()]


def _add_multiple(f: dict[Key, int], a: int, l: Key, lm: Key, terms) -> None:
    """f += a * (l/lm) * terms in place, dropping the keys that cancel."""
    q0, q1, q2, q3 = l[0] - lm[0], l[1] - lm[1], l[2] - lm[2], l[3] - lm[3]
    for (e0, e1, e2, e3), x in terms:
        n = (e0 + q0, e1 + q1, e2 + q2, e3 + q3)
        v = f.get(n, 0) + a * x
        if v:
            f[n] = v
        else:
            del f[n]


def _reduce(work: dict[Key, int], reducers: Sequence[Reducer]) -> tuple[dict[Key, int], int]:
    """Fraction-free full division remainder (r, scale) of work by the reducers.

    scale * work - r lies in the reducers' ideal, and no key of r is divisible
    by a leading key.  The first reducer g = lc*lm + ... with lm | m, for the
    leading term c*m, sets work <- a*work - b*(m/lm)*g, where a = lc/h, b = c/h,
    h = gcd(c, lc); the remainder so far is multiplied by a too.  Consumes work.
    """
    remainder: dict[Key, int] = {}
    scale = 1
    while work:
        m = max(work)
        c = work[m]
        for lm, lc, terms in reducers:
            if lm[1] <= m[1] and lm[2] <= m[2] and lm[3] <= m[3]:
                h = gcd(c, lc)
                a = lc // h
                if a != 1:
                    scale *= a
                    work = {n: a * x for n, x in work.items()}
                    remainder = {n: a * x for n, x in remainder.items()}
                _add_multiple(work, -(c // h), m, lm, terms)
                break
        else:
            remainder[m] = work.pop(m)
    return remainder, scale


# the generators normal_form last converted, and their reducers: one basis serves many p
_converted: tuple[tuple[Poly, ...], list[Reducer]] = ((), [])


def normal_form(p: Poly, basis: GroebnerBasis) -> Poly:
    """Unique remainder of p modulo the ideal presented by a reduced basis."""
    global _converted
    gens = basis.generators
    cached, reducers = _converted
    if cached is not gens:
        reducers = [_reducer(_to_z(g)[0]) for g in gens if not g.is_zero()]
        _converted = gens, reducers
    work, den = _to_z(p)
    r, scale = _reduce(work, reducers)
    return _to_poly(r, den * scale)


def buchberger(gens: Sequence[Poly], source_k: int | None = None) -> GroebnerBasis:
    """Unique reduced monic Groebner basis of the ideal generated by gens.

    Works over Z on primitive generators and converts to monic `Poly`s only
    at the end.  Normal pair-selection strategy: a heap hands out the queued
    pair with the smallest lcm of leading monomials, ties broken by index.
    When a generator h joins, the Gebauer-Moeller update (1988) prunes pairs:
    - a queued pair (i, j) goes when lm_h divides its lcm L and L differs
      from both lcm(lm_i, lm_h) and lcm(lm_j, lm_h);
    - of the new pairs (i, h), one is queued per minimal lcm, and none for
      an lcm that a coprime pair (i, h) attains.
    """
    # imported here: a job that reads every basis from the cache never builds one
    import heapq

    basis: list[Reducer] = []
    heap: list[tuple[Key, int, int]] = []

    def add(f: dict[Key, int]) -> None:
        h = len(basis)
        basis.append(_reducer(f))
        d, a, b, c = basis[h][0]
        lcms = []
        for (_, x, y, z), _, _ in basis[:h]:
            x, y, z = x if x > a else a, y if y > b else b, z if z > c else c
            lcms.append((2 * x + 4 * y + 6 * z, x, y, z))
        heap[:] = [
            e for e in heap
            if not (a <= e[0][1] and b <= e[0][2] and c <= e[0][3])
            or e[0] == lcms[e[1]] or e[0] == lcms[e[2]]
        ]
        heapq.heapify(heap)
        # one pair per lcm; a pair is coprime exactly when the degrees add
        pairs = {l: i for i, l in enumerate(lcms)}
        coprime = {l for l, (lm, _, _) in zip(lcms, basis) if l[0] == lm[0] + d}
        minimal: list[Key] = []
        for l in sorted(pairs):
            if not any(m[1] <= l[1] and m[2] <= l[2] and m[3] <= l[3] for m in minimal):
                minimal.append(l)
                if l not in coprime:
                    heapq.heappush(heap, (l, pairs[l], h))

    for g in gens:
        if not g.is_zero():
            add(_to_z(g)[0])
    if not basis:
        raise ValueError("need at least one nonzero generator")
    while heap:
        l, i, j = heapq.heappop(heap)
        (lmf, lcf, f), (lmg, lcg, g) = basis[i], basis[j]
        # (lc_g/h) (l/lm_f) f - (lc_f/h) (l/lm_g) g, with h = gcd(lc_f, lc_g)
        h = gcd(lcf, lcg)
        s: dict[Key, int] = {}
        _add_multiple(s, lcg // h, l, lmf, f)
        _add_multiple(s, -(lcf // h), l, lmg, g)
        r, _ = _reduce(s, basis)
        if r:
            add(r)

    # minimalize: one generator per minimal leading monomial, the first inserted
    first: dict[Monomial, Reducer] = {}
    for f in basis:
        first.setdefault(f[0][1:], f)
    kept = [first[m] for m in _minimal(first)]

    # interreduce in one pass: reduction keeps a minimal basis's leading monomials,
    # and a full remainder has no term another leading monomial divides
    out = []
    for idx, (lm, _, terms) in enumerate(kept):
        r, _ = _reduce(dict(terms), kept[:idx] + kept[idx + 1 :])
        out.append(_to_poly(r, r[lm]))
    return GroebnerBasis(generators=tuple(out), source_k=source_k)


# ---------------------------------------------------------------------------
# monomial ideals and Hilbert series
# ---------------------------------------------------------------------------

def _minimal(monomials: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """The minimal monomials of a family (an antichain), in ascending monomial order."""
    kept: list[Monomial] = []
    for m in sorted(set(monomials), key=monomial_key):
        a, b, c = m
        if not any(x <= a and y <= b and z <= c for x, y, z in kept):
            kept.append(m)
    return tuple(kept)


def leading_term_ideal(basis: GroebnerBasis) -> tuple[Monomial, ...]:
    """The leading-term ideal of basis, as its minimal monomials in ascending order."""
    return _minimal(basis.leading_monomials())


RING_DENOMINATOR = zpoly_mul(
    zpoly_mul((1, 0, -1), (1, 0, 0, 0, -1)), (1, 0, 0, 0, 0, 0, -1)
)


def _pivot_numerator(gens: tuple[Monomial, ...]) -> dict[int, int]:
    """The inclusion-exclusion numerator sum_S (-1)^|S| t^(deg lcm S), by pivots.

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
    pa, pb, pc = p  # lcm(m, p) / p, written out
    colon = _minimal(
        (x - pa if x > pa else 0, y - pb if y > pb else 0, z - pc if z > pc else 0)
        for x, y, z in rest
    )
    dp = monomial_degree(p)
    for d, c in _pivot_numerator(colon).items():
        out[d + dp] = out.get(d + dp, 0) - c
    return {d: c for d, c in out.items() if c}


def hilbert_series_quotient(ideal: tuple[Monomial, ...]) -> RationalFunction:
    """Hilbert series of Q[alpha,beta,gamma]/ideal, weights (2, 4, 6).

    The ideal is given by generating monomials, such as the tuple that
    `leading_term_ideal` returns; they need not be minimal.  The numerator over
    the fixed denominator (1-t^2)(1-t^4)(1-t^6) is the inclusion-exclusion sum
    over generator subsets S of (-1)^|S| t^(deg lcm S), by the pivot recursion.
    """
    coeffs = _pivot_numerator(ideal)
    num = [coeffs.get(d, 0) for d in range(max(coeffs, default=0) + 1)]
    return RationalFunction(num, RING_DENOMINATOR)


def standard_monomial_dimensions(ideal: tuple[Monomial, ...], max_degree: int) -> list[int]:
    """Count monomials that no monomial of ideal divides, degree by degree to max_degree.

    Direct enumeration; an independent check of the Hilbert series expansion.
    """
    counts = [0] * (max_degree + 1)
    for i in range(max_degree // 2 + 1):
        for j in range((max_degree - 2 * i) // 4 + 1):
            for k in range((max_degree - 2 * i - 4 * j) // 6 + 1):
                d = 2 * i + 4 * j + 6 * k
                if not any(monomial_divides(m, (i, j, k)) for m in ideal):
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
    name = f"relation-ideal-{k}.txt"
    path = os.path.join(cache_dir, name)
    if os.path.exists(path):
        with open(path) as f:
            basis = parse_basis(f.read())
        if basis.source_k != k:
            raise ValueError(f"cache file {path} is tagged k={basis.source_k}")
        return basis
    basis = _relation_basis_computed(k)
    os.makedirs(cache_dir, exist_ok=True)
    # write then rename, so a killed process never leaves a truncated file
    # (which would still parse, as a smaller basis) under the final name
    tmp = os.path.join(cache_dir, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            f.write(render_basis(basis))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return basis
