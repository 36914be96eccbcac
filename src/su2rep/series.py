"""Exact power series in t and rational functions with series expansion.

Nothing here ever rounds.  Polynomials in t are tuples of ``int``
coefficients, ascending, and the ``zpoly_*`` functions are their one
arithmetic, over Z[t].  A series truncated at t^n is a tuple of n + 1
``Fraction`` coefficients, index d holding that of t^d; the product of two
truncates to the shorter.  A ``RationalFunction`` is a quotient of integer
polynomials in t whose denominator has nonzero constant term, so its
expansion at t = 0 is well defined.  It is expanded by a recurrence over Z
on the coefficients scaled by powers of that constant term, then one
division per coefficient.  The text and LaTeX renderers for signed sums of
monomials live here too, since every other module writes polynomials
through them.

Values are immutable after construction; every operation returns a fresh
object, so they are safe to share between concurrent callers.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd


# ---------------------------------------------------------------------------
# dense integer polynomials in t, as tuples of coefficients
# ---------------------------------------------------------------------------

def zpoly_trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    """Drop trailing zeros; the zero polynomial becomes (0,)."""
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n]) if n else (0,)


def zpoly_add(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return zpoly_trim(out)


def zpoly_scale(c: int, a: Sequence[int]) -> tuple[int, ...]:
    return zpoly_trim([c * x for x in a])


def zpoly_sub(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return zpoly_add(a, zpoly_scale(-1, b))


def zpoly_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return zpoly_trim(out)


def zpoly_pow(a: Sequence[int], n: int) -> tuple[int, ...]:
    if n < 0:
        raise ValueError("negative power of a polynomial")
    result: tuple[int, ...] = (1,)
    base = zpoly_trim(a)
    while n:
        if n & 1:
            result = zpoly_mul(result, base)
        n >>= 1
        if n:
            base = zpoly_mul(base, base)
    return result


def zpoly_shift(a: Sequence[int], k: int) -> tuple[int, ...]:
    """Multiply by t^k."""
    if k < 0:
        raise ValueError("negative shift")
    return zpoly_trim([0] * k + list(a))


def zpoly_divexact(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The quotient a / b in Z[t]; ArithmeticError unless b divides a there."""
    r, b = list(zpoly_trim(a)), zpoly_trim(b)
    db, lb = len(b) - 1, b[-1]
    out = [0] * max(len(r) - db, 1)
    for k in range(len(r) - 1 - db, -1, -1):
        q = out[k] = r[k + db] // lb
        for i, c in enumerate(b):
            r[k + i] -= q * c
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return zpoly_trim(out)


def _zpoly_primitive(a: Sequence[int]) -> tuple[int, ...]:
    a = zpoly_trim(a)
    c = gcd(*a)
    return a if c <= 1 else tuple(x // c for x in a)


def zpoly_gcd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Primitive gcd in Z[t] with positive leading coefficient; gcd(0, 0) = (0,).

    Euclid on primitive parts of pseudo-remainders lc(b)^e a mod b, which stay
    in Z[t]; by Gauss's lemma the result divides a and b exactly there.
    """
    a, b = _zpoly_primitive(a), _zpoly_primitive(b)
    while b != (0,):
        r, lb, db = list(a), b[-1], len(b) - 1
        while len(r) > db:
            c = r.pop()
            if c:
                r = [lb * x for x in r]
                for i, y in enumerate(b[:-1], len(r) - db):
                    r[i] -= c * y
        a, b = b, _zpoly_primitive(r)
    return a if a[-1] >= 0 else zpoly_scale(-1, a)


# ---------------------------------------------------------------------------
# rendering: every polynomial in the package is written by these helpers
# ---------------------------------------------------------------------------

def latex_rational(c) -> str:
    """An integer as itself, any other rational as a signed \\frac."""
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return rf"{sign}\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def monomial_str(exponents: Sequence[int], names: Sequence[str], latex: bool = False) -> str:
    """Product of the named variables raised to the exponents; "1" when empty.

    Text: "alpha^2*beta".  LaTeX: names joined bare, exponents above 1 braced.
    """
    factors = []
    for name, e in zip(names, exponents):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{{{e}}}" if latex else f"{name}^{e}")
    return ("" if latex else "*").join(factors) or "1"


def signed_sum(terms: Iterable[tuple], latex: bool = False) -> str:
    """Join (coefficient, monomial) pairs as "a + b - c"; "0" when all vanish.

    The monomial "1" marks a constant term.  The first term carries a bare
    minus sign, later ones "+ " or "- ".  A coefficient of magnitude one is
    left off a nonconstant monomial; any other is written before it, with
    "*" in text and nothing in LaTeX.
    """
    coeff = latex_rational if latex else str
    parts: list[str] = []
    for c, mono in terms:
        if c == 0:
            continue
        mag = abs(c)
        if mono == "1":
            body = coeff(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{coeff(mag)}{'' if latex else '*'}{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def zpoly_str(a: Sequence[int], latex: bool = False) -> str:
    """Canonical human-readable form in t, ascending powers."""
    return signed_sum(
        [(c, monomial_str((d,), ("t",), latex)) for d, c in enumerate(a)], latex
    )


# ---------------------------------------------------------------------------
# truncated series, as tuples of coefficients
# ---------------------------------------------------------------------------

def series_mul(a: Sequence, b: Sequence) -> tuple[Fraction, ...]:
    """Product of two series, truncated to the shorter of their lengths."""
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if x == 0:
            continue
        for j in range(n - i):
            y = b[j]
            if y:
                out[i + j] += x * y
    return tuple(out)


def series_div(a: Sequence, b: Sequence) -> tuple[Fraction, ...]:
    """Formal quotient a/b to the shorter length, where b has nonzero constant term."""
    if b[0] == 0:
        raise ValueError("division by a series with zero constant term")
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for d in range(n):
        acc = Fraction(a[d])
        for m in range(1, d + 1):
            if b[m]:
                acc -= b[m] * out[d - m]
        out[d] = acc / b[0]
    return tuple(out)


# ---------------------------------------------------------------------------
# rational functions in t
# ---------------------------------------------------------------------------

class RationalFunction(namedtuple("RationalFunction", "num den")):
    """Quotient of integer polynomials in t, expandable as a series at t = 0.

    A record of the trimmed numerator and denominator, compared as tuples: the
    same quotient over another denominator is not equal; `reduced_pair` is.
    """

    __slots__ = ()

    def __new__(cls, num: Sequence[int], den: Sequence[int] = (1,)) -> RationalFunction:
        num = zpoly_trim([int(c) for c in num])
        den = zpoly_trim([int(c) for c in den])
        if den[0] == 0:
            raise ValueError("denominator must have nonzero constant term")
        return super().__new__(cls, num, den)

    def expand(self, order: int) -> tuple[Fraction, ...]:
        """Coefficients of t^0..t^order in the expansion at t = 0, by a recurrence over Z.

        For the t^d coefficient c_d and d0 = den[0], u_d = c_d d0^(d+1) is the
        integer num[d] d0^d - sum_{m=1..min(d, deg den)} den[m] d0^(m-1) u_{d-m};
        the one division per coefficient, c_d = u_d / d0^(d+1), comes last.
        """
        if order < 0:
            raise ValueError("expansion order must be nonnegative")
        num, den = self.num, self.den
        d0, k = den[0], len(den) - 1
        tail = [(k - m, c * d0 ** (m - 1)) for m, c in enumerate(den) if m and c]
        u = [0] * k  # u_d sits at index k + d; the k zeros stand for d < 0
        for d in range(order + 1):
            acc = num[d] * d0**d if d < len(num) else 0
            for j, c in tail:
                acc -= c * u[d + j]
            u.append(acc)
        return tuple(Fraction(x, d0 ** (d + 1)) for d, x in enumerate(u[k:]))

    def reduced_pair(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Numerator and denominator with common polynomial and integer factors removed.

        Normalized so the joint coefficient content is 1 and the denominator's
        constant term is positive.  Scaling both parts by the same rational
        leaves the quotient unchanged, which is all this relies on.
        """
        g = zpoly_gcd(self.num, self.den)
        num, den = zpoly_divexact(self.num, g), zpoly_divexact(self.den, g)
        c = gcd(*num, *den)
        if den[0] < 0:
            c = -c
        return tuple(x // c for x in num), tuple(x // c for x in den)
