"""Poincaré series assembly and cross-validation for X(SU(2)) at genus g.

Two independent routes are computed for each main quantity and compared:

* Equivariant series: the closed form
  ((1+t^3)^{2g} - t^{2g+2}(1+t)^{2g}) / ((1-t^2)(1-t^4))
  against the structural sum over l of
  prim(g,l) t^{3l} Hilbert(Q[alpha,beta,gamma]/I_{g-l}).

* Intersection Betti numbers: the closed form (equivariant series minus the
  S^1 correction, divided exactly in Z[t] to a polynomial of degree 6g-6)
  against the structural sum over l of prim(g,l) t^{3l} times the degree
  generating function of the spanning set E_{g-l}.

The intersection pairing on kappa-classes is
  <kappa(alpha^i beta^j), kappa(alpha^k beta^l)> = -(-4)^{g-1} m! b_{g-n-1}
for m = i+k, n = j+l with m + 2n = 3g-3 and n < g-1, where t/tanh t
= sum b_k t^{2k}; the same coefficients appear in the top-degree identity
  alpha^m beta^n + m! b_{g-n-1} alpha^{g-2} beta^{g-2} xi / (g-2)! in I_g,
which is re-verified by Groebner normal forms at small genus.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, lcm

from .exterior import prim_dimension_formula
from .graded import Poly, expand_abxi_monomial, render_poly
from .groebner import (
    RING_DENOMINATOR,
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
    zpoly_add,
    zpoly_divexact,
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

def _equivariant_numerator(g: int) -> tuple[int, ...]:
    """(1+t^3)^{2g} - t^{2g+2}(1+t)^{2g}, over (1-t^2)(1-t^4)."""
    return zpoly_sub(
        zpoly_pow((1, 0, 0, 1), 2 * g),
        zpoly_shift(zpoly_pow((1, 1), 2 * g), 2 * g + 2),
    )


def _correction_numerator(g: int) -> tuple[int, ...]:
    """(1+t)^{2g} t^{2(g-1)} (1+t^2) + (1-t)^{2g} (-t^2)^{g-1} (1-t^2), over 2(1-t^4)."""
    plus = zpoly_mul(zpoly_pow((1, 1), 2 * g), (1, 0, 1))
    minus = zpoly_mul(zpoly_pow((1, -1), 2 * g), (1, 0, -1))
    return zpoly_shift(zpoly_add(plus, zpoly_scale((-1) ** (g - 1), minus)), 2 * (g - 1))


def equivariant_series_closed(g: int, N: int) -> TruncatedSeries:
    """((1+t^3)^{2g} - t^{2g+2}(1+t)^{2g}) / ((1-t^2)(1-t^4)) to order N."""
    _require_genus(g)
    return RationalFunction(_equivariant_numerator(g), (1, 0, -1, 0, -1, 0, 1)).expand(N)


def correction_series(g: int, N: int) -> TruncatedSeries:
    """The S^1 correction term to order N, expanded as one quotient over 2(1-t^4).

    (1/2) { (1+t)^{2g} t^{2(g-1)} / (1-t^2)  +  (1-t)^{2g} (-t^2)^{g-1} / (1+t^2) }
    is a dimension series, so a negative or fractional coefficient raises.
    """
    _require_genus(g)
    out = RationalFunction(_correction_numerator(g), (2, 0, 0, 0, -2)).expand(N)
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


def ip_series_closed(g: int) -> BettiTable:
    """Intersection Poincaré polynomial: equivariant series minus correction.

    Over 2(1-t^2)(1-t^4) the difference has numerator 2E - (1-t^2)C, for E and C
    the numerators above; the quotient is taken by exact division in Z[t], and no
    series is expanded.  ArithmeticError unless the division is exact and the
    quotient has degree 6g-6 and nonnegative coefficients (a bug, not data).
    """
    _require_genus(g)
    num = zpoly_sub(
        zpoly_scale(2, _equivariant_numerator(g)),
        zpoly_mul((1, 0, -1), _correction_numerator(g)),
    )
    coeffs = zpoly_divexact(num, (2, 0, -2, 0, -2, 0, 2))
    if len(coeffs) != 6 * g - 5:
        raise ArithmeticError(f"difference has degree {len(coeffs) - 1}, not {6 * g - 6}")
    for d, c in enumerate(coeffs):
        if c < 0:
            raise ArithmeticError(f"degree {d} coefficient {c} is not admissible")
    return BettiTable(genus=g, coefficients=coeffs, provenance="closed-form")


# ---------------------------------------------------------------------------
# t/tanh t
# ---------------------------------------------------------------------------

def t_over_tanh_series(order: int) -> TruncatedSeries:
    """Truncated series of t/tanh t, by a recurrence over Z.

    With t/tanh t = sum T_n t^n/n!, the t^{n+1}/(n+1)! coefficient of
    (t/tanh t) sinh t = t cosh t gives
      (n+1) T_n = (n+1) [n even] - sum_{p < n, n - p even} C(n+1, p) T_p.
    T_{2k} = 4^k B_{2k}, so by von Staudt-Clausen D T_n is an integer for
    D = lcm(1..order+1), and the recurrence runs on D T_n by exact division.
    """
    D = lcm(*range(1, order + 2))
    u = [0] * (order + 1)
    for n in range(order + 1):
        s = sum(comb(n + 1, p) * u[p] for p in range(n % 2, n, 2))
        u[n] = (0 if n % 2 else D) - s // (n + 1)
    return TruncatedSeries([Fraction(x, D * factorial(n)) for n, x in enumerate(u)], order)


def tanh_over_t_series(order: int) -> TruncatedSeries:
    """Truncated series of tanh t / t via the recurrence y' = 1 - y^2.

    Independent of `t_over_tanh_series`: with tanh t = sum A_n t^n/n!, the
    integers A_n satisfy A_{n+1} = [n = 0] - sum_p C(n, p) A_p A_{n-p}.
    """
    a = [0] * (order + 2)
    for n in range(order + 1):
        a[n + 1] = (n == 0) - sum(comb(n, p) * a[p] * a[n - p] for p in range(n + 1))
    return TruncatedSeries([Fraction(x, factorial(d + 1)) for d, x in enumerate(a[1:])], order)


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

class EMonomial(namedtuple("EMonomial", "i j k")):
    """alpha^i beta^j xi^k subject to the E_m admissibility conditions."""

    __slots__ = ()

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
    """sum_l prim(g,l) t^{3l} Hilbert(Q[alpha,beta,gamma]/I_{g-l}) to order N.

    The Hilbert numerators over RING_DENOMINATOR are summed, then expanded once.
    """
    _require_genus(g)
    num: tuple[int, ...] = (0,)
    for l in range(min(g, N // 3) + 1):  # t^{3l} with 3l > N adds nothing
        h = hilbert_series_quotient(leading_term_ideal(relation_ideal_basis(g - l)))
        prim = prim_dimension_formula(g, l)
        num = zpoly_add(num, zpoly_shift(zpoly_scale(prim, h.num), 3 * l))
    return RationalFunction(num, RING_DENOMINATOR).expand(N)


# ---------------------------------------------------------------------------
# E-basis independence in the quotient ring
# ---------------------------------------------------------------------------

class IndependenceVerdict(
    namedtuple(
        "IndependenceVerdict",
        "m basis_size rank passed failing_degree dependency",
        defaults=(None, None),
    )
):
    """failing_degree (int) and dependency (tuple of ints) are None on a pass."""

    __slots__ = ()


def e_basis_independence(m: int) -> IndependenceVerdict:
    """Check the E_m monomials stay independent in Q[alpha,beta,gamma]/I_m.

    Each monomial is expanded, reduced to its normal form modulo the
    Groebner basis of I_m, and exact ranks are taken degree by degree
    (normal forms of distinct weighted degrees cannot interact).
    """
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
        rows = [p.terms for p in forms]
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
# top identity, pairing
# ---------------------------------------------------------------------------

class TopIdentityEntry(
    namedtuple("TopIdentityEntry", "m n coefficient passed residual")
):
    """The (m, n) identity: its Fraction coefficient and rendered residual."""

    __slots__ = ()


class TopIdentityVerdict(
    namedtuple("TopIdentityVerdict", "genus entries top_degree_dimension")
):
    """entries is a tuple of TopIdentityEntry."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def top_identity_check(g: int) -> TopIdentityVerdict:
    """Reduce alpha^m beta^n + m! b_{g-n-1} alpha^{g-2} beta^{g-2} xi/(g-2)! mod I_g.

    One entry per admissible (m, n): m + 2n = 3g - 3, 0 <= n < g - 1.  The
    verdict also records the dimension of the degree-(6g-6) graded piece of
    the quotient, which is reported rather than asserted.
    """
    _require_genus(g)
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


class PairingEntry(namedtuple("PairingEntry", "left right m n value")):
    """<kappa(alpha^i beta^j), kappa(alpha^k beta^l)>: left (i, j), right (k, l)."""

    __slots__ = ()


class PairingMatrix:
    """The pairings of one genus as a sized view, made one at a time on iteration.

    values[n] is the Fraction shared by every entry of degree n, so the view
    holds g - 1 Fractions and no entry.
    """

    __slots__ = ("genus", "values")

    def __init__(self, genus: int, values: tuple[Fraction, ...]) -> None:
        self.genus = genus
        self.values = values

    def __len__(self) -> int:
        g = self.genus
        return sum((3 * g - 2 - 2 * n) * (n + 1) for n in range(g - 1))

    def __iter__(self):
        for n, value in enumerate(self.values):
            m = 3 * self.genus - 3 - 2 * n
            for i in range(m + 1):
                for j in range(n + 1):
                    yield PairingEntry((i, j), (m - i, n - j), m, n, value)


def pairing_matrix(g: int) -> PairingMatrix:
    """All admissible kappa-class pairings, ordered by (n, m, i, j).

    The value -(-4)^{g-1} m! b_{g-n-1} depends only on n, since m = 3g-3-2n,
    so the entries of one degree share one Fraction.  The values are computed
    here, so a failure raises before any entry is made.
    """
    _require_genus(g)
    b = b_coefficients(g - 1)
    return PairingMatrix(g, tuple(
        -((-4) ** (g - 1)) * factorial(3 * g - 3 - 2 * n) * b[g - n - 1]
        for n in range(g - 1)
    ))
