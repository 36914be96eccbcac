"""Poincaré series assembly and cross-validation for X(SU(2)) at genus g.

Two independent routes are computed for each main quantity and compared:

* Equivariant series: the closed form
  ((1+t^3)^{2g} - t^{2g+2}(1+t)^{2g}) / ((1-t^2)(1-t^4))
  against the structural sum over l of
  prim(g,l) t^{3l} Hilbert(Q[alpha,beta,gamma]/I_{g-l}).

* Intersection Betti numbers: the closed form (equivariant series minus the
  S^1 correction, a polynomial of degree 6g-6) against the structural sum
  over l of prim(g,l) t^{3l} times the degree generating function of the
  spanning set E_{g-l}.

The intersection pairing on kappa-classes is
  <kappa(alpha^i beta^j), kappa(alpha^k beta^l)> = -(-4)^{g-1} m! b_{g-n-1}
for m = i+k, n = j+l with m + 2n = 3g-3 and n < g-1, where t/tanh t
= sum b_k t^{2k}; the same coefficients appear in the top-degree identity
  alpha^m beta^n + m! b_{g-n-1} alpha^{g-2} beta^{g-2} xi / (g-2)! in I_g,
which is re-verified by Groebner normal forms at small genus.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .exterior import prim_dimension_formula
from .graded import Monomial, Poly, expand_abxi_monomial, monomial_key, render_poly
from .groebner import (
    hilbert_series_quotient,
    leading_term_ideal,
    normal_form,
    relation_ideal_basis,
    standard_monomial_dimensions,
)
from .linalg import dependency_vector, exact_rank
from .series import (
    RationalFunction,
    TruncatedSeries,
    series_div,
    series_linear_combination,
    zpoly_mul,
    zpoly_pow,
    zpoly_scale,
    zpoly_shift,
    zpoly_sub,
)


def _require_genus(g: int) -> None:
    if g < 2:
        raise ValueError("genus must be at least 2")


# ---------------------------------------------------------------------------
# closed-form generating functions
# ---------------------------------------------------------------------------

def equivariant_series_closed(g: int, N: int) -> TruncatedSeries:
    """((1+t^3)^{2g} - t^{2g+2}(1+t)^{2g}) / ((1-t^2)(1-t^4)) to order N."""
    _require_genus(g)
    num = zpoly_sub(
        zpoly_pow((1, 0, 0, 1), 2 * g),
        zpoly_shift(zpoly_pow((1, 1), 2 * g), 2 * g + 2),
    )
    den = zpoly_mul((1, 0, -1), (1, 0, 0, 0, -1))
    return RationalFunction(num, den).expand(N)


def correction_series(g: int, N: int) -> TruncatedSeries:
    """The S^1 correction term, expanded to order N.

    (1/2) { (1+t)^{2g} t^{2(g-1)} / (1-t^2)  +  (1-t)^{2g} (-t^2)^{g-1} / (1+t^2) }.
    This is a dimension series, so any negative or fractional coefficient is
    raised as an error instead of being returned.
    """
    _require_genus(g)
    shift = 2 * (g - 1)
    plus = RationalFunction(
        zpoly_shift(zpoly_pow((1, 1), 2 * g), shift), (1, 0, -1)
    )
    minus = RationalFunction(
        zpoly_scale((-1) ** (g - 1), zpoly_shift(zpoly_pow((1, -1), 2 * g), shift)),
        (1, 0, 1),
    )
    half = Fraction(1, 2)
    out = series_linear_combination(
        [(half, plus.expand(N)), (half, minus.expand(N))]
    )
    for d, c in enumerate(out.coeffs):
        if c < 0 or c.denominator != 1:
            raise ArithmeticError(
                f"correction series coefficient at degree {d} is {c}, "
                "not a nonnegative integer"
            )
    return out


class BettiTable:
    """Intersection Betti numbers for degrees 0..6g-6, tagged by route."""

    __slots__ = ("genus", "coefficients", "provenance")

    def __init__(self, genus: int, coefficients: tuple[int, ...], provenance: str):
        if len(coefficients) != 6 * genus - 5:
            raise ValueError("table must cover degrees 0..6g-6")
        self.genus = genus
        self.coefficients = coefficients
        self.provenance = provenance

    def is_palindromic(self) -> bool:
        return self.coefficients == self.coefficients[::-1]

    def validate(self) -> None:
        """Poincaré-duality shape: leading 1, nonnegative, palindromic."""
        if self.coefficients[0] != 1:
            raise ArithmeticError("degree-0 coefficient must be 1")
        if any(c < 0 for c in self.coefficients):
            raise ArithmeticError("negative Betti number")
        if not self.is_palindromic():
            raise ArithmeticError("table is not palindromic")


IP_EXTRA_ORDER = 24


def ip_series_closed(g: int) -> BettiTable:
    """Intersection Poincaré polynomial: equivariant series minus correction.

    Expanded to order 6g + 24; every coefficient above degree 6g-6 must
    vanish and the surviving ones must be nonnegative integers, otherwise
    this raises (such a failure would be an implementation bug, not data).
    """
    _require_genus(g)
    N = 6 * g + IP_EXTRA_ORDER
    diff = equivariant_series_closed(g, N) - correction_series(g, N)
    top = 6 * g - 6
    for d in range(top + 1, N + 1):
        if diff.coefficient(d) != 0:
            raise ArithmeticError(
                f"difference fails to be a polynomial: t^{d} coefficient "
                f"{diff.coefficient(d)}"
            )
    coeffs = []
    for d in range(top + 1):
        c = diff.coefficient(d)
        if c < 0 or c.denominator != 1:
            raise ArithmeticError(f"degree {d} coefficient {c} is not admissible")
        coeffs.append(int(c))
    return BettiTable(genus=g, coefficients=tuple(coeffs), provenance="closed-form")


# ---------------------------------------------------------------------------
# t/tanh t
# ---------------------------------------------------------------------------

def t_over_tanh_series(order: int) -> TruncatedSeries:
    """Truncated series of t/tanh t = cosh t / (sinh t / t)."""
    cosh = TruncatedSeries(
        [Fraction(1, factorial(d)) if d % 2 == 0 else Fraction(0) for d in range(order + 1)]
    )
    sinh_over_t = TruncatedSeries(
        [Fraction(1, factorial(d + 1)) if d % 2 == 0 else Fraction(0) for d in range(order + 1)]
    )
    return series_div(cosh, sinh_over_t)


def tanh_over_t_series(order: int) -> TruncatedSeries:
    """Truncated series of tanh t / t via the recurrence y' = 1 - y^2.

    Independent of `t_over_tanh_series`: the Taylor coefficients a_n of
    tanh t satisfy (n+1) a_{n+1} = [n = 0] - sum_{p+q=n} a_p a_q.
    """
    a = [Fraction(0)] * (order + 2)
    for n in range(order + 1):
        conv = sum((a[p] * a[n - p] for p in range(n + 1)), Fraction(0))
        a[n + 1] = ((1 if n == 0 else 0) - conv) / (n + 1)
    return TruncatedSeries(a[1 : order + 2], order)


def b_coefficients(K: int) -> list[Fraction]:
    """b_0..b_K where t/tanh t = sum b_k t^{2k}."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    s = t_over_tanh_series(2 * K)
    for d in range(1, 2 * K + 1, 2):
        if s.coefficient(d) != 0:
            raise ArithmeticError(
                f"t/tanh t has nonzero odd coefficient {s.coefficient(d)} at degree {d}"
            )
    return [s.coefficient(2 * k) for k in range(K + 1)]


# ---------------------------------------------------------------------------
# E_m spanning sets
# ---------------------------------------------------------------------------

class EMonomial(NamedTuple):
    """alpha^i beta^j xi^k subject to the E_m admissibility conditions."""

    i: int
    j: int
    k: int

    @property
    def degree(self) -> int:
        return 2 * self.i + 4 * self.j + 6 * self.k

    def expand(self) -> Poly:
        return expand_abxi_monomial(self.i, self.j, self.k)


def e_basis(m: int) -> list[EMonomial]:
    """All (i,j,k) with i+2k <= m, j+2k <= m, and j < floor(m/2) when k = 0.

    Sorted by (degree, i, j, k).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = []
    for k in range(m // 2 + 1):
        for i in range(m - 2 * k + 1):
            for j in range(m - 2 * k + 1):
                if k == 0 and j >= m // 2:
                    continue
                out.append(EMonomial(i, j, k))
    out.sort(key=lambda e: (e.degree, e.i, e.j, e.k))
    return out


def e_hilbert(m: int) -> TruncatedSeries:
    """Degree generating function of e_basis(m); the zero series for m <= 1."""
    basis = e_basis(m)
    order = max((e.degree for e in basis), default=0)
    coeffs = [Fraction(0)] * (order + 1)
    for e in basis:
        coeffs[e.degree] += 1
    return TruncatedSeries(coeffs, order)


# ---------------------------------------------------------------------------
# structural routes
# ---------------------------------------------------------------------------

def ih_series_structural(g: int) -> BettiTable:
    """sum_l prim(g,l) t^{3l} e_hilbert(g-l), degrees 0..6g-6."""
    _require_genus(g)
    top = 6 * g - 6
    coeffs = [0] * (top + 1)
    for l in range(g + 1):
        prim = prim_dimension_formula(g, l)
        for e in e_basis(g - l):
            d = 3 * l + e.degree
            if d > top:
                raise ArithmeticError(
                    f"structural term at degree {d} exceeds 6g-6 = {top}"
                )
            coeffs[d] += prim
    return BettiTable(genus=g, coefficients=tuple(coeffs), provenance="structural")


def equivariant_series_structural(g: int, N: int) -> TruncatedSeries:
    """sum_l prim(g,l) t^{3l} Hilbert(Q[alpha,beta,gamma]/I_{g-l}) to order N."""
    _require_genus(g)
    coeffs = [Fraction(0)] * (N + 1)
    for l in range(g + 1):
        prim = prim_dimension_formula(g, l)
        if 3 * l > N:
            continue
        h = hilbert_series_quotient(
            leading_term_ideal(relation_ideal_basis(g - l))
        ).expand(N - 3 * l)
        for d, c in enumerate(h.coeffs):
            coeffs[3 * l + d] += prim * c
    return TruncatedSeries(coeffs, N)


# ---------------------------------------------------------------------------
# E-basis independence in the quotient ring
# ---------------------------------------------------------------------------

class IndependenceVerdict(NamedTuple):
    m: int
    basis_size: int
    rank: int
    passed: bool
    failing_degree: int | None = None
    dependency: tuple[Fraction, ...] | None = None


E_INDEPENDENCE_CAP = 4


def e_basis_independence(m: int) -> IndependenceVerdict:
    """Check the E_m monomials stay independent in Q[alpha,beta,gamma]/I_m.

    Each monomial is expanded, reduced to its normal form modulo the
    Groebner basis of I_m, and exact ranks are taken degree by degree
    (normal forms of distinct weighted degrees cannot interact).
    """
    if not 0 <= m <= E_INDEPENDENCE_CAP:
        raise ValueError(f"independence check restricted to 0 <= m <= {E_INDEPENDENCE_CAP}")
    basis = e_basis(m)
    if not basis:
        return IndependenceVerdict(m=m, basis_size=0, rank=0, passed=True)
    gb = relation_ideal_basis(m)
    by_degree: dict[int, list[Poly]] = {}
    for e in basis:
        by_degree.setdefault(e.degree, []).append(normal_form(e.expand(), gb))
    total_rank = 0
    for degree in sorted(by_degree):
        forms = by_degree[degree]
        monomials = sorted(
            {mono for p in forms for mono in p.terms}, key=monomial_key
        )
        index = {mono: idx for idx, mono in enumerate(monomials)}
        rows = []
        for p in forms:
            row = [Fraction(0)] * len(monomials)
            for mono, c in p.terms.items():
                row[index[mono]] = c
            rows.append(row)
        rank = exact_rank(rows)
        total_rank += rank
        if rank < len(forms):
            return IndependenceVerdict(
                m=m,
                basis_size=len(basis),
                rank=total_rank,
                passed=False,
                failing_degree=degree,
                dependency=dependency_vector(rows),
            )
    return IndependenceVerdict(
        m=m, basis_size=len(basis), rank=total_rank, passed=True
    )


# ---------------------------------------------------------------------------
# fundamental class, top identity, pairing
# ---------------------------------------------------------------------------

def fundamental_class(g: int) -> Poly:
    """alpha^{g-2} beta^{g-2} xi / ((g-2)! (-4)^{g-1}), degree 6g-6."""
    _require_genus(g)
    scale = Fraction(1, factorial(g - 2) * (-4) ** (g - 1))
    return scale * expand_abxi_monomial(g - 2, g - 2, 1)


class TopIdentityEntry(NamedTuple):
    m: int
    n: int
    coefficient: Fraction
    passed: bool
    residual: str


class TopIdentityVerdict(NamedTuple):
    genus: int
    entries: tuple[TopIdentityEntry, ...]
    top_degree_dimension: int

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


TOP_IDENTITY_CAP = 4


def top_identity_check(g: int) -> TopIdentityVerdict:
    """Reduce alpha^m beta^n + m! b_{g-n-1} alpha^{g-2} beta^{g-2} xi/(g-2)! mod I_g.

    One entry per admissible (m, n): m + 2n = 3g - 3, 0 <= n < g - 1.  The
    verdict also records the dimension of the degree-(6g-6) graded piece of
    the quotient, which is reported rather than asserted.
    """
    if not 2 <= g <= TOP_IDENTITY_CAP:
        raise ValueError(f"top identity check restricted to 2 <= g <= {TOP_IDENTITY_CAP}")
    gb = relation_ideal_basis(g)
    b = b_coefficients(g)
    entries = []
    for n in range(g - 1):
        m = 3 * g - 3 - 2 * n
        coeff = Fraction(factorial(m)) * b[g - n - 1] / factorial(g - 2)
        candidate = expand_abxi_monomial(m, n, 0) + coeff * expand_abxi_monomial(
            g - 2, g - 2, 1
        )
        residual = normal_form(candidate, gb)
        entries.append(
            TopIdentityEntry(
                m=m,
                n=n,
                coefficient=coeff,
                passed=residual.is_zero(),
                residual=render_poly(residual),
            )
        )
    top_dim = standard_monomial_dimensions(leading_term_ideal(gb), 6 * g - 6)[
        6 * g - 6
    ]
    return TopIdentityVerdict(
        genus=g, entries=tuple(entries), top_degree_dimension=top_dim
    )


class PairingEntry(NamedTuple):
    left: tuple[int, int]
    right: tuple[int, int]
    m: int
    n: int
    value: Fraction


def pairing_value(g: int, left: tuple[int, int], right: tuple[int, int]) -> Fraction:
    """<kappa(alpha^i beta^j), kappa(alpha^k beta^l)> = -(-4)^{g-1} m! b_{g-n-1}.

    Defined only on the complementary-degree window m + 2n = 3g - 3 with
    n < g - 1 (m = i + k, n = j + l); anything else is rejected.
    """
    _require_genus(g)
    i, j = left
    k, l = right
    if min(i, j, k, l) < 0:
        raise ValueError("exponents must be nonnegative")
    m, n = i + k, j + l
    if m + 2 * n != 3 * g - 3 or n >= g - 1:
        raise ValueError(
            f"(m, n) = ({m}, {n}) is outside the stated range "
            f"m + 2n = {3 * g - 3}, n < {g - 1}"
        )
    return _pairing_from_b(g, m, n, b_coefficients(g - n - 1))


def _pairing_from_b(g: int, m: int, n: int, b: list[Fraction]) -> Fraction:
    """-(-4)^{g-1} m! b_{g-n-1}, reading b_{g-n-1} from the list b."""
    return -((-4) ** (g - 1)) * factorial(m) * b[g - n - 1]


def pairing_matrix(g: int) -> list[PairingEntry]:
    """All admissible kappa-class pairings, ordered by (n, m, i, j)."""
    _require_genus(g)
    b = b_coefficients(g - 1)
    entries = []
    for n in range(g - 1):
        m = 3 * g - 3 - 2 * n
        for i in range(m + 1):
            for j in range(n + 1):
                left = (i, j)
                right = (m - i, n - j)
                entries.append(
                    PairingEntry(
                        left=left,
                        right=right,
                        m=m,
                        n=n,
                        value=_pairing_from_b(g, m, n, b),
                    )
                )
    return entries
