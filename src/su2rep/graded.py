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

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from math import comb

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

    def is_zero(self) -> bool:
        return not self.terms

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=monomial_key)

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
        result = ONE
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

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda mc: monomial_key(mc[0]), reverse=True)

    def __repr__(self) -> str:
        return f"Poly({dict(self.sorted_terms())!r})"


ALPHA = Poly({(1, 0, 0): 1})
BETA = Poly({(0, 1, 0): 1})
GAMMA = Poly({(0, 0, 1): 1})

ZERO = Poly()
ONE = Poly({(0, 0, 0): 1})


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


def parse_poly(text: str) -> Poly:
    """Inverse of `render_poly`; also accepts unnormalized whitespace.

    Split on signs and `*`, with no regex: a factor is a variable name, with an
    optional `^` and decimal exponent, or a decimal integer with an optional `/`
    and decimal denominator, so each coefficient is one `Fraction` of two ints.
    """
    s = text.strip()
    if s == "0":
        return ZERO
    terms: list[tuple[Monomial, Fraction]] = []
    for raw in s.replace("-", "+-").split("+"):
        raw = raw.strip()
        if not raw:
            continue
        sign = 1
        if raw.startswith("-"):
            sign, raw = -1, raw[1:]
        num = den = 1
        expo = [0, 0, 0]
        for factor in raw.split("*"):
            factor = factor.strip()
            name, caret, exp = factor.partition("^")
            if name in VARIABLE_NAMES and (exp.isdecimal() or not caret):
                expo[VARIABLE_NAMES.index(name)] += int(exp) if caret else 1
                continue
            top, slash, bottom = factor.partition("/")
            if not (top.isdecimal() and (bottom.isdecimal() or not slash)):
                raise ValueError(f"cannot parse term factor {factor!r} in {text!r}")
            num *= int(top)
            if slash:
                den *= int(bottom)
        if not den:
            raise ValueError(f"zero denominator in {text!r}")
        terms.append(((expo[0], expo[1], expo[2]), Fraction(sign * num, den)))
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


def expand_abxi_monomial(i: int, j: int, k: int) -> Poly:
    """alpha^i * beta^j * xi^k with xi = alpha*beta + 2*gamma, by the binomial theorem.

    (alpha*beta + 2*gamma)^k = sum_r C(k, r) 2^r (alpha*beta)^(k-r) gamma^r, and
    its k + 1 terms lie on distinct monomials, so no product is taken.
    """
    if min(i, j, k) < 0:
        raise ValueError("exponents must be nonnegative")
    return Poly.from_valid(
        {(i + k - r, j + k - r, r): Fraction(comb(k, r) * 2**r) for r in range(k + 1)}
    )
