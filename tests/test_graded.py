import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from su2rep.graded import (
    ALPHA,
    BETA,
    GAMMA,
    ONE,
    VARIABLE_NAMES,
    ZERO,
    Monomial,
    Poly,
    expand_abxi_monomial,
    monomial_degree,
    monomial_divides,
    monomial_key,
    mumford_c,
    parse_poly,
    render_poly,
)
from su2rep.groebner import relation_ideal_basis

from reduced_basis import leading_coefficient


def test_monomial_degree_weights():
    assert monomial_degree((1, 0, 0)) == 2
    assert monomial_degree((0, 1, 0)) == 4
    assert monomial_degree((0, 0, 1)) == 6
    assert monomial_degree((2, 1, 3)) == 2 * 2 + 4 + 18


def test_monomial_order_degree_then_alpha_heavy():
    # alpha^3 and gamma have the same weighted degree 6; alpha^3 is larger
    assert monomial_key((3, 0, 0)) > monomial_key((0, 0, 1))
    # alpha*beta also has degree 6 and sits between them
    assert monomial_key((3, 0, 0)) > monomial_key((1, 1, 0)) > monomial_key((0, 0, 1))
    # degree dominates everything
    assert monomial_key((0, 0, 1)) > monomial_key((2, 0, 0))


def test_monomial_divisibility():
    assert monomial_divides((1, 0, 1), (2, 0, 1))
    assert not monomial_divides((1, 1, 0), (2, 0, 1))


def test_poly_basic_arithmetic():
    p = ALPHA + BETA
    q = ALPHA + (-1) * BETA
    assert p * q == ALPHA * ALPHA + (-1) * (BETA * BETA)
    assert (p + q) == 2 * ALPHA
    assert p + (-1) * p == Poly()
    assert (ALPHA + ONE) ** 2 == ALPHA * ALPHA + 2 * ALPHA + ONE


def test_leading_data():
    p = GAMMA + ALPHA ** 3  # same degree, alpha^3 leads
    assert p.leading_monomial() == (3, 0, 0)
    p2 = 3 * GAMMA + ALPHA
    assert p2.leading_monomial() == (0, 0, 1)
    assert leading_coefficient(p2) == 3
    assert (1 / leading_coefficient(p2)) * p2 == GAMMA + Fraction(1, 3) * ALPHA


def test_degree_and_homogeneity():
    assert (ALPHA * BETA).degree() == 6
    assert Poly().degree() == float("-inf")
    assert (ALPHA * BETA + 2 * GAMMA).is_homogeneous()
    assert not (ALPHA + BETA).is_homogeneous()


def test_poly_keeps_fraction_coefficients_and_converts_ints():
    c = Fraction(3, 7)
    p = Poly({(1, 0, 0): c, (0, 1, 0): 2})
    assert p.terms[1, 0, 0] is c
    assert type(p.terms[0, 1, 0]) is Fraction
    # repeated monomials still combine, and cancel to nothing
    assert Poly([((1, 0, 0), c), ((1, 0, 0), 1)]).terms == {(1, 0, 0): Fraction(10, 7)}
    assert Poly([((1, 0, 0), c), ((1, 0, 0), -c)]).is_zero()


def test_render_and_parse_roundtrip_examples():
    p = ALPHA ** 3 + 2 * (ALPHA * BETA) + 4 * GAMMA
    assert render_poly(p) == "alpha^3 + 2*alpha*beta + 4*gamma"
    assert parse_poly(render_poly(p)) == p
    q = Fraction(-1, 2) * BETA + ONE
    assert render_poly(q) == "-1/2*beta + 1"
    assert parse_poly(render_poly(q)) == q
    assert parse_poly("0") == Poly()
    assert render_poly(Poly()) == "0"


monomials = st.tuples(
    st.integers(0, 4), st.integers(0, 3), st.integers(0, 3)
)
coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=6).filter(bool)
polys = st.dictionaries(monomials, coeffs, min_size=0, max_size=6).map(Poly)


@given(polys, polys, polys)
def test_poly_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys)
def test_parse_render_roundtrip(p):
    assert parse_poly(render_poly(p)) == p


# -- the regex parser that parse_poly replaced, kept as its reference ------------

_TERM_FACTOR = None  # compiled by the first parse_poly call: most jobs parse none


def regex_parse_poly(text: str) -> Poly:
    """Inverse of `render_poly`; also accepts unnormalized whitespace."""
    global _TERM_FACTOR
    if _TERM_FACTOR is None:
        _TERM_FACTOR = re.compile(
            r"^(?:(?P<coeff>\d+(?:/\d+)?)|(?P<name>alpha|beta|gamma)(?:\^(?P<exp>\d+))?)$"
        )
    match = _TERM_FACTOR.match
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
            m = match(factor)
            if not m:
                raise ValueError(f"cannot parse term factor {factor!r} in {text!r}")
            if m.group("coeff"):
                coeff *= Fraction(m.group("coeff"))
            else:
                idx = VARIABLE_NAMES.index(m.group("name"))
                expo[idx] += int(m.group("exp") or 1)
        terms.append(((expo[0], expo[1], expo[2]), sign * coeff))
    return Poly(terms)


def parsed(parse, text: str):
    """parse(text), or "raises" for the errors a malformed text may raise."""
    try:
        return parse(text)
    except (ValueError, ArithmeticError):
        return "raises"


@pytest.mark.parametrize("k", range(9))
def test_parsers_agree_on_the_relation_bases(k):
    for g in relation_ideal_basis(k).generators:
        text = render_poly(g)
        assert parse_poly(text) == regex_parse_poly(text) == g


@given(polys)
def test_parsers_agree_on_rendered_polys(p):
    assert parse_poly(render_poly(p)) == regex_parse_poly(render_poly(p)) == p


# every character the grammar gives a meaning, whitespace of several kinds, and
# digits the `str` regex class \d also takes (Arabic-Indic three and zero)
PARSER_CHARACTERS = "0123456789/+-*^ \t\nalphbetgm\u00a0\u2028\u0663\u0660\u00b2_."
rendered = polys.map(render_poly) | st.integers(0, 4).flatmap(
    lambda k: st.sampled_from(relation_ideal_basis(k).generators).map(render_poly)
)


@st.composite
def mutated(draw, texts=rendered):
    """A rendered text with one character deleted, inserted or duplicated."""
    text = draw(texts)
    kind = draw(st.sampled_from(["delete", "insert", "duplicate"]))
    if kind == "insert":
        i = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(PARSER_CHARACTERS) | st.characters())
        return text[:i] + char + text[i:]
    i = draw(st.integers(0, len(text) - 1))
    return text[:i] + text[i + 1:] if kind == "delete" else text[:i] + text[i] + text[i:]


@given(mutated())
def test_parsers_agree_on_mutated_texts(text):
    # both return the same Poly or both raise
    assert parsed(parse_poly, text) == parsed(regex_parse_poly, text)


@pytest.mark.parametrize("text", [
    "", "  0 ", "alpha + + beta", "-alpha^0", "\u0663/\u0664*gamma^\u0662", "2*3*alpha*alpha",
])
def test_parsers_agree_on_edge_cases(text):
    assert parsed(parse_poly, text) == parsed(regex_parse_poly, text) != "raises"


@pytest.mark.parametrize("text", [
    "1/0*alpha", "alpha^", "alpha ^2", "2*-alpha", "-", "1/", "/2", "alpha^2^3", "1/2/3",
    "\u00b2*alpha", "1_0*beta", "delta", "alpha\u0301",
])
def test_malformed_factor_raises_value_error(text):
    with pytest.raises(ValueError):
        parse_poly(text)
    assert parsed(regex_parse_poly, text) == "raises"


@given(polys, polys)
def test_leading_monomial_multiplicative(a, b):
    if a.is_zero() or b.is_zero():
        return
    lm = (a * b).leading_monomial()
    assert lm == tuple(
        x + y for x, y in zip(a.leading_monomial(), b.leading_monomial())
    )


def test_mumford_c_low_cases():
    assert mumford_c(0) == ONE
    assert mumford_c(1) == ALPHA
    assert mumford_c(2) == Fraction(1, 2) * ALPHA ** 2
    expected3 = (
        Fraction(1, 6) * ALPHA ** 3
        + Fraction(1, 3) * (ALPHA * BETA)
        + Fraction(2, 3) * GAMMA
    )
    assert mumford_c(3) == expected3
    expected4 = (
        Fraction(1, 24) * ALPHA ** 4
        + Fraction(1, 3) * (ALPHA ** 2 * BETA)
        + Fraction(2, 3) * (ALPHA * GAMMA)
    )
    assert mumford_c(4) == expected4
    expected5 = (
        Fraction(1, 120) * ALPHA ** 5
        + Fraction(1, 6) * (ALPHA ** 3 * BETA)
        + Fraction(1, 3) * (ALPHA ** 2 * GAMMA)
        + Fraction(1, 5) * (ALPHA * BETA ** 2)
        + Fraction(2, 5) * (BETA * GAMMA)
    )
    assert mumford_c(5) == expected5


@given(st.integers(0, 30))
def test_mumford_c_homogeneous_of_right_degree(n):
    p = mumford_c(n)
    assert p.is_homogeneous()
    assert p.degree() == 2 * n
    # leading term is alpha^n / n!
    import math

    assert p.terms[n, 0, 0] == Fraction(1, math.factorial(n))


@given(st.integers(3, 30))
def test_mumford_recursion_holds(n):
    lhs = Fraction(n) * mumford_c(n)
    rhs = (
        ALPHA * mumford_c(n - 1)
        + Fraction(n - 2) * (BETA * mumford_c(n - 2))
        + 2 * (GAMMA * mumford_c(n - 3))
    )
    assert lhs == rhs


def test_xi_and_abxi_expansion():
    assert expand_abxi_monomial(0, 0, 1) == ALPHA * BETA + 2 * GAMMA
    assert expand_abxi_monomial(0, 0, 0) == ONE
    assert expand_abxi_monomial(1, 1, 0) == ALPHA * BETA
    assert expand_abxi_monomial(1, 1, 1) == (
        ALPHA ** 2 * BETA ** 2 + 2 * (ALPHA * BETA * GAMMA)
    )
    # xi^2 = alpha^2 beta^2 + 4 alpha beta gamma + 4 gamma^2
    assert expand_abxi_monomial(0, 0, 2) == (
        ALPHA ** 2 * BETA ** 2
        + 4 * (ALPHA * BETA * GAMMA)
        + 4 * GAMMA ** 2
    )
    with pytest.raises(ValueError):
        expand_abxi_monomial(-1, 0, 0)


def test_abxi_expansion_equals_product():
    # the binomial expansion against the product route it replaced
    for i, j, k in product(range(5), range(5), range(7)):
        expected = ALPHA ** i * BETA ** j * (ALPHA * BETA + 2 * GAMMA) ** k
        assert expand_abxi_monomial(i, j, k) == expected, (i, j, k)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 6))
def test_abxi_expansion_term_count(i, j, k):
    # binomial expansion of (alpha*beta + 2*gamma)^k against a monomial prefix:
    # every cross term lands on a distinct monomial, so exactly k+1 survive
    assert len(expand_abxi_monomial(i, j, k).terms) == k + 1
