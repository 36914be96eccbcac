from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from su2rep.series import (
    RationalFunction,
    series_div,
    series_mul,
    zpoly_add,
    zpoly_divexact,
    zpoly_gcd,
    zpoly_mul,
    zpoly_pow,
    zpoly_scale,
    zpoly_shift,
    zpoly_str,
    zpoly_sub,
    zpoly_trim,
)


# -- integer polynomial helpers ---------------------------------------------

def test_zpoly_trim():
    assert zpoly_trim([0, 0, 0]) == (0,)
    assert zpoly_trim([1, 2, 0]) == (1, 2)
    assert zpoly_trim([]) == (0,)
    assert zpoly_trim(()) == (0,)


def test_zpoly_mul_binomial():
    # (1+t)^2 = 1 + 2t + t^2
    assert zpoly_mul((1, 1), (1, 1)) == (1, 2, 1)
    assert zpoly_pow((1, 1), 4) == (1, 4, 6, 4, 1)


def test_zpoly_shift_and_str():
    assert zpoly_shift((1, 1), 2) == (0, 0, 1, 1)
    assert zpoly_str((1, 0, -3, 1)) == "1 - 3*t^2 + t^3"
    assert zpoly_str((0,)) == "0"


def test_zpoly_divexact():
    assert zpoly_divexact((1, 2, 1), (1, 1)) == (1, 1)
    assert zpoly_divexact((-6, 0, 6), (2, -2)) == (-3, -3)
    assert zpoly_divexact((0,), (1, 1)) == (0,)
    assert zpoly_divexact((4, 6), (2,)) == (2, 3)


@pytest.mark.parametrize(
    "a, b",
    [
        ((1, 0, 1), (1, 1)),  # remainder 2
        ((1, 1), (1, 2)),  # divisible over Q only by a non-integer quotient
        ((3,), (2,)),
        ((1,), (1, 1)),  # numerator of lower degree
        ((1, 1), (0,)),  # division by zero
    ],
)
def test_zpoly_divexact_rejects_inexact(a, b):
    with pytest.raises(ArithmeticError):
        zpoly_divexact(a, b)


def test_zpoly_gcd():
    # gcd((1-t)(1+t)^2, 2(1+t)(1+t^2)) = 1+t, primitive with positive lead
    assert zpoly_gcd(zpoly_mul((1, -1), (1, 2, 1)), (2, 2, 2, 2)) == (1, 1)
    assert zpoly_gcd((4, -4), (-6, 6)) == (-1, 1)
    assert zpoly_gcd((3,), (1, 1)) == (1,)
    assert zpoly_gcd((0,), (2, 4)) == (1, 2)
    assert zpoly_gcd((0,), (0,)) == (0,)


def _is_normal_zpoly(p):
    return (
        type(p) is tuple
        and len(p) > 0
        and all(type(c) is int for c in p)
        and (p == (0,) or p[-1] != 0)
    )


small_zpolys = st.lists(st.integers(-9, 9), max_size=6)


@given(small_zpolys, small_zpolys, st.integers(-3, 3), st.integers(0, 3))
def test_zpoly_results_are_trimmed_nonempty_tuples(a, b, c, n):
    results = [
        zpoly_trim(a),
        zpoly_add(a, b),
        zpoly_sub(a, b),
        zpoly_scale(c, a),
        zpoly_mul(a, b),
        zpoly_pow(a, n),
        zpoly_shift(a, n),
        zpoly_gcd(a, b),
    ]
    if any(b):
        results.append(zpoly_divexact(zpoly_mul(a, b), b))
    for p in results:
        assert _is_normal_zpoly(p), p


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
)
def test_zpoly_ring_axioms(a, b, c):
    assert zpoly_mul(a, b) == zpoly_mul(b, a)
    assert zpoly_mul(zpoly_mul(a, b), c) == zpoly_mul(a, zpoly_mul(b, c))
    assert zpoly_mul(a, zpoly_add(b, c)) == zpoly_add(
        zpoly_mul(a, b), zpoly_mul(a, c)
    )


# -- truncated series ----------------------------------------------------------

def test_series_mul_truncates_to_common_order():
    a = (1, 1, 1, 1)
    b = (1, -1, 0, 0, 0, 0)
    assert series_mul(a, b) == (1, 0, 0, 0)
    assert series_mul(b, a) == (1, 0, 0, 0)


def test_series_arithmetic_is_exact_on_int_coefficients():
    q = series_div((1, 0, 0), (3, 1, 0))
    assert q == (Fraction(1, 3), Fraction(-1, 9), Fraction(1, 27))
    assert all(type(c) is Fraction for c in q + series_mul((2, True), (1, 0, 3)))


def test_series_geometric_times_complement():
    n = 10
    geo = (1,) * (n + 1)
    one_minus_t = (1, -1) + (0,) * (n - 1)
    assert series_mul(geo, one_minus_t) == (1,) + (0,) * n


def test_series_div_inverts_mul():
    a = (1, 3, Fraction(1, 2), 7)
    b = (2, -1, 5, 0)
    assert series_div(series_mul(a, b), b) == a


def test_series_div_rejects_zero_constant_term():
    a = (1, 0, 0, 0)
    b = (0, 1, 0, 0)
    with pytest.raises(ValueError):
        series_div(a, b)


fracs = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


@st.composite
def series3(draw):
    cs = draw(st.lists(fracs, min_size=1, max_size=7))
    return tuple(cs) + (Fraction(0),) * (7 - len(cs))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


@given(series3(), series3(), series3())
def test_series_ring_axioms(a, b, c):
    assert series_mul(a, b) == series_mul(b, a)
    assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))
    assert series_mul(a, _add(b, c)) == _add(series_mul(a, b), series_mul(a, c))


@given(series3(), series3())
def test_series_div_roundtrip(a, b):
    if b[0] == 0:
        return
    assert series_mul(series_div(a, b), b) == a


# -- rational functions ------------------------------------------------------

def test_expand_geometric():
    f = RationalFunction((1,), (1, -1))
    assert f.expand(5) == (1, 1, 1, 1, 1, 1)


def test_expand_two_even_denominators():
    # 1/((1-t^2)(1-t^4)): partitions into parts of size 2 and 4
    f = RationalFunction((1,), zpoly_mul((1, 0, -1), (1, 0, 0, 0, -1)))
    assert f.expand(8) == (1, 0, 1, 0, 2, 0, 2, 0, 3)


def test_expand_with_polynomial_numerator():
    # (1+t)^3/(1-t) has expansion 1 + 4t + 7t^2 + 8t^3 + 8t^4 + ...
    f = RationalFunction(zpoly_pow((1, 1), 3), (1, -1))
    assert f.expand(4) == (1, 4, 7, 8, 8)


def test_rational_equality_across_scaling():
    geo = RationalFunction((1,), (1, -1))
    scaled = RationalFunction((2,), (2, -2))
    assert scaled.reduced_pair() == geo.reduced_pair()
    assert scaled.reduced_pair() == ((1,), (1, -1))


def test_reduced_cancels_common_factor():
    # (1-t^2)/(1-t) == 1+t
    f = RationalFunction((1, 0, -1), (1, -1))
    assert f.reduced_pair() == ((1, 1), (1,))
    assert f.reduced_pair() == RationalFunction((1, 1)).reduced_pair()


def test_zero_constant_denominator_rejected():
    with pytest.raises(ValueError):
        RationalFunction((1,), (0, 1))
    with pytest.raises(ValueError):
        RationalFunction((1,), ())


def test_zero_function_reduces_to_zero_over_one():
    assert RationalFunction((0,), (1, 0, -1)).reduced_pair() == ((0,), (1,))
    assert RationalFunction((), (-3, 6)).reduced_pair() == ((0,), (1,))


zpolys = st.lists(st.integers(-6, 6), min_size=1, max_size=5)


@given(zpolys, zpolys.filter(lambda a: zpoly_trim(a)[0] != 0))
def test_expand_times_denominator_recovers_numerator(num, den):
    f = RationalFunction(num, den)
    order = 12
    s = f.expand(order)
    back = series_mul(s, tuple(den) + (0,) * order)
    expected = tuple(num[:order + 1]) + (0,) * (order + 1 - len(num))
    assert back == expected


def _long_division(num, den, order):
    """Reference expansion: long division in Fraction, one coefficient at a time."""
    out = []
    for d in range(order + 1):
        acc = Fraction(num[d]) if d < len(num) else Fraction(0)
        for m in range(1, min(d, len(den) - 1) + 1):
            acc -= den[m] * out[d - m]
        out.append(acc / den[0])
    return out


big_ints = st.integers(-(10**6), 10**6)


@given(
    st.lists(big_ints, min_size=1, max_size=8),
    st.sampled_from([1, -1, 2, -2, 3, -3, 6]),
    st.lists(big_ints, max_size=7),
)
def test_expand_matches_fraction_long_division(num, d0, den_tail):
    den = [d0] + den_tail
    f = RationalFunction(num, den)
    order = 80
    expected = _long_division(f.num, f.den, order)
    assert f.expand(order) == tuple(expected)
    assert all(type(c) is Fraction for c in f.expand(order))


def test_expand_negative_constant_term():
    # 1/(-1 + t) = -1 - t - t^2 - ...
    assert RationalFunction((1,), (-1, 1)).expand(6) == (-1,) * 7


@given(zpolys, zpolys.filter(lambda a: zpoly_trim(a)[0] != 0))
def test_reduced_preserves_value(num, den):
    f = RationalFunction(num, den)
    reduced = RationalFunction(*f.reduced_pair())
    # the same quotient, by cross-multiplication rather than reduced_pair itself
    assert zpoly_mul(reduced.num, f.den) == zpoly_mul(f.num, reduced.den)
    assert reduced.expand(10) == f.expand(10)
