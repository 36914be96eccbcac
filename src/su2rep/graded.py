"""Weighted-graded polynomial ring Q[alpha, beta, gamma] with deg = (2, 4, 6).

Monomials are exponent triples (i, j, k) meaning alpha^i beta^j gamma^k.
The monomial order used everywhere downstream is weighted degree first,
ties broken lexicographically with alpha > beta > gamma; `monomial_key`
is the sort key realizing it.

The `mumford_c` sequence is the family of relation classes
    c_0 = 1,  c_1 = alpha,  c_2 = alpha^2 / 2,
    n c_n = alpha c_{n-1} + (n-2) beta c_{n-2} + 2 gamma c_{n-3}   (n >= 3),
each homogeneous of weighted degree 2n.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from .series import monomial_str, signed_sum

Monomial = tuple[int, int, int]

VARIABLE_NAMES = ("alpha", "beta", "gamma")
LATEX_NAMES = (r"\alpha", r"\beta", r"\gamma")


def monomial_degree(m: Monomial) -> int:
    return 2 * m[0] + 4 * m[1] + 6 * m[2]


def monomial_key(m: Monomial) -> tuple[int, int, int, int]:
    """Sort key: weighted degree, then lex with alpha > beta > gamma."""
    return (monomial_degree(m), m[0], m[1], m[2])


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


class Poly:
    """Sparse polynomial in alpha, beta, gamma over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Fraction] | Iterable = ()):
        items = terms.items() if isinstance(terms, dict) else terms
        clean: dict[Monomial, Fraction] = {}
        for m, c in items:
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                m = (int(m[0]), int(m[1]), int(m[2]))
                if min(m) < 0:
                    raise ValueError(f"negative exponent in monomial {m}")
                c = clean[m] + c if m in clean else c
                if c:
                    clean[m] = c
                else:
                    del clean[m]
        object.__setattr__(self, "terms", clean)

    @classmethod
    def from_valid(cls, terms: dict[Monomial, Fraction]) -> Poly:
        """A Poly owning terms, known to map valid monomials to nonzero Fractions."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def constant(cls, c) -> Poly:
        return cls({(0, 0, 0): Fraction(c)})

    @classmethod
    def variable(cls, index: int) -> Poly:
        m = [0, 0, 0]
        m[index] = 1
        return cls({tuple(m): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=monomial_key)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def degree(self) -> int | float:
        """Weighted degree; -inf for the zero polynomial."""
        if not self.terms:
            return float("-inf")
        return max(monomial_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {monomial_degree(m) for m in self.terms}
        return len(degs) <= 1

    def __add__(self, other: Poly) -> Poly:
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly.from_valid(out)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        return Poly.from_valid({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: Poly) -> Poly:
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Poly.from_valid(out)

    def __rmul__(self, c) -> Poly:
        if isinstance(c, Poly):
            return NotImplemented
        c = c if type(c) is Fraction else Fraction(c)
        return Poly.from_valid({m: c * x for m, x in self.terms.items()} if c else {})

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative power")
        result = Poly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda mc: monomial_key(mc[0]), reverse=True)

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"Poly({dict(self.sorted_terms())!r})"


ALPHA = Poly.variable(0)
BETA = Poly.variable(1)
GAMMA = Poly.variable(2)

ZERO = Poly()
ONE = Poly.constant(1)


def render_poly(p: Poly, latex: bool = False) -> str:
    """Canonical text form, terms in descending monomial order.

    Examples: "alpha^3 + 2*alpha*beta + 4*gamma", "1/2*alpha^2", "-beta + 1", "0".
    `parse_poly` inverts the text form exactly; `latex=True` writes the same
    terms as "\\alpha^{3} + 2\\alpha\\beta + 4\\gamma".
    """
    names = LATEX_NAMES if latex else VARIABLE_NAMES
    return signed_sum(
        ((c, monomial_str(m, names, latex)) for m, c in p.sorted_terms()), latex
    )


_TERM_FACTOR = re.compile(
    r"^(?:(?P<coeff>\d+(?:/\d+)?)|(?P<name>alpha|beta|gamma)(?:\^(?P<exp>\d+))?)$"
)


def parse_poly(text: str) -> Poly:
    """Inverse of `render_poly`; also accepts unnormalized whitespace."""
    s = text.strip()
    if s == "0":
        return ZERO
    s = s.replace("-", "+-")
    terms: list[tuple[Monomial, Fraction]] = []
    for raw in s.split("+"):
        raw = raw.strip()
        if not raw:
            continue
        sign = 1
        if raw.startswith("-"):
            sign = -1
            raw = raw[1:].strip()
        coeff = Fraction(1)
        expo = [0, 0, 0]
        for factor in raw.split("*"):
            factor = factor.strip()
            m = _TERM_FACTOR.match(factor)
            if not m:
                raise ValueError(f"cannot parse term factor {factor!r} in {text!r}")
            if m.group("coeff"):
                coeff *= Fraction(m.group("coeff"))
            else:
                idx = VARIABLE_NAMES.index(m.group("name"))
                expo[idx] += int(m.group("exp") or 1)
        terms.append(((expo[0], expo[1], expo[2]), sign * coeff))
    return Poly(terms)


@lru_cache(maxsize=None)
def mumford_c(n: int) -> Poly:
    """n-th relation class; homogeneous of weighted degree 2n."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return ONE
    if n == 1:
        return ALPHA
    if n == 2:
        return Fraction(1, 2) * (ALPHA * ALPHA)
    p = (
        ALPHA * mumford_c(n - 1)
        + Fraction(n - 2) * (BETA * mumford_c(n - 2))
        + Fraction(2) * (GAMMA * mumford_c(n - 3))
    )
    p = Fraction(1, n) * p
    if not (p.is_homogeneous() and p.degree() == 2 * n):
        raise ArithmeticError(f"c_{n} is not homogeneous of degree {2 * n}")
    return p


def xi() -> Poly:
    """alpha*beta + 2*gamma, the distinguished degree-6 class."""
    return ALPHA * BETA + Fraction(2) * GAMMA


def expand_abxi_monomial(i: int, j: int, k: int) -> Poly:
    """alpha^i * beta^j * xi^k expanded in the monomial basis."""
    if min(i, j, k) < 0:
        raise ValueError("exponents must be nonnegative")
    return (ALPHA ** i) * (BETA ** j) * (xi() ** k)
