"""reduced_pair, zpoly_gcd and zpoly_divexact against an independent oracle:
sympy's gcd and exact quotient of polynomials over ZZ.

The oracle puts a quotient in the same normal form as `reduced_pair`: joint
coefficient content 1 and a positive constant term in the denominator.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from su2rep.groebner import (
    hilbert_series_quotient,
    leading_term_ideal,
    relation_ideal_basis,
)
from su2rep.series import RationalFunction, zpoly_divexact, zpoly_gcd, zpoly_mul, zpoly_trim

sympy = pytest.importorskip("sympy")
from sympy.polys.polyerrors import ExactQuotientFailed  # noqa: E402

T = sympy.Symbol("t")


def zz(a):
    """An ascending coefficient tuple as a sympy polynomial over ZZ."""
    return sympy.Poly(list(reversed(a)), T, domain="ZZ")


def ascending(p):
    return tuple(int(c) for c in reversed(p.all_coeffs()))


def sympy_reduced_pair(num, den):
    n, d = zz(num), zz(den)
    g = sympy.gcd(n, d)
    n, d = ascending(n.exquo(g, auto=False)), ascending(d.exquo(g, auto=False))
    c = sympy.igcd(*n, *d)
    if d[0] < 0:
        c = -c
    return tuple(x // c for x in n), tuple(x // c for x in d)


zpolys = st.lists(st.integers(-9, 9), min_size=1, max_size=7)
nonzero_constant = zpolys.filter(lambda a: a[0] != 0)


@given(zpolys, nonzero_constant, nonzero_constant)
def test_reduced_pair_matches_sympy_with_common_factor(num, den, factor):
    num, den = zpoly_mul(num, factor), zpoly_mul(den, factor)
    assert RationalFunction(num, den).reduced_pair() == sympy_reduced_pair(num, den)


@pytest.mark.parametrize("k", range(11))
def test_hilbert_series_reduced_pair_matches_sympy(k):
    h = hilbert_series_quotient(leading_term_ideal(relation_ideal_basis(k)))
    num, den = h.reduced_pair()
    assert (num, den) == sympy_reduced_pair(h.num, h.den)
    # the denominator (1-t^2)(1-t^4)(1-t^6) shares a factor with every numerator
    assert len(den) < len(h.den)


@given(zpolys, zpolys)
def test_zpoly_gcd_matches_sympy(a, b):
    g = sympy.gcd(zz(a), zz(b))
    expected = (0,) if g.is_zero else ascending(g.primitive()[1])
    if expected[-1] < 0:
        expected = tuple(-c for c in expected)
    assert zpoly_gcd(a, b) == expected


@given(zpolys, zpolys.filter(any))
def test_zpoly_divexact_matches_sympy(a, b):
    try:
        expected = ascending(zz(a).exquo(zz(b), auto=False))
    except ExactQuotientFailed:
        with pytest.raises(ArithmeticError):
            zpoly_divexact(a, b)
    else:
        assert zpoly_divexact(a, b) == zpoly_trim(expected)
    assert zpoly_divexact(zpoly_mul(a, b), b) == zpoly_trim(a)
