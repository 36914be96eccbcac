from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2rep import assembly
from su2rep.assembly import (
    BettiTable,
    EMonomial,
    PairingEntry,
    b_coefficients,
    correction_series,
    e_basis,
    e_basis_independence,
    e_hilbert,
    equivariant_series_closed,
    equivariant_series_structural,
    ih_series_structural,
    ip_series_closed,
    pairing_matrix,
    t_over_tanh_series,
    tanh_over_t_series,
    top_identity_check,
)
from su2rep.cli import main
from su2rep.exterior import invariant_truncated_dimensions
from su2rep.graded import ALPHA, BETA, GAMMA, expand_abxi_monomial, monomial_degree
from su2rep.groebner import normal_form, relation_ideal_basis
from su2rep.series import (
    RationalFunction,
    series_div,
    series_mul,
    zpoly_add,
    zpoly_pow,
    zpoly_scale,
    zpoly_shift,
)


# -- closed-form series -------------------------------------------------------

def test_equivariant_closed_g2_initial_segment():
    s = equivariant_series_closed(2, 6)
    assert [int(c) for c in s] == [1, 0, 1, 4, 2, 4, 7]


@pytest.mark.parametrize("g", range(2, 10))
def test_equivariant_closed_low_degrees(g):
    s = equivariant_series_closed(g, 2)
    assert s[0] == 1
    assert s[1] == 0


def test_correction_series_g2():
    s = correction_series(2, 6)
    assert [int(c) for c in s] == [0, 0, 0, 4, 1, 4, 6]


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_correction_series_vanishes_below_u_floor(g):
    s = correction_series(g, 2 * (g - 1) - 1)
    assert not any(s)


@pytest.mark.parametrize("g", [2, 3])
def test_correction_matches_invariant_dimensions(g):
    dims = invariant_truncated_dimensions(g)
    window = max(dims)
    s = correction_series(g, window)
    assert [int(c) for c in s] == [dims[d] for d in range(window + 1)]


def test_ip_closed_g2():
    table = ip_series_closed(2)
    assert table.coefficients == (1, 0, 1, 0, 1, 0, 1)
    assert table.provenance == "closed-form"


@pytest.mark.parametrize("g", range(2, 9))
def test_ip_closed_duality_shape(g):
    table = ip_series_closed(g)
    table.validate()
    assert table.coefficients[0] == 1
    assert table.is_palindromic()
    assert len(table.coefficients) == 6 * g - 5


def windowed_correction(g, N):
    """The correction as two Fraction series, halved and summed: the old route."""
    shift = 2 * (g - 1)
    plus = RationalFunction(zpoly_shift(zpoly_pow((1, 1), 2 * g), shift), (1, 0, -1))
    minus = RationalFunction(
        zpoly_scale((-1) ** (g - 1), zpoly_shift(zpoly_pow((1, -1), 2 * g), shift)),
        (1, 0, 1),
    )
    return tuple(Fraction(1, 2) * (x + y) for x, y in zip(plus.expand(N), minus.expand(N)))


def windowed_ip(g):
    """Equivariant minus correction to order 6g+24, vanishing above 6g-6: the old route."""
    N = 6 * g + 24
    closed, correction = equivariant_series_closed(g, N), windowed_correction(g, N)
    diff = [x - y for x, y in zip(closed, correction)]
    assert all(diff[d] == 0 for d in range(6 * g - 5, N + 1))
    return tuple(int(c) for c in diff[: 6 * g - 5])


@pytest.mark.parametrize("g", range(2, 17))
def test_exact_division_matches_windowed_route(g):
    assert ip_series_closed(g).coefficients == windowed_ip(g)
    N = 6 * g + 24
    assert correction_series(g, N) == windowed_correction(g, N)


D = (1, 0, -1, 0, -1, 0, 1)  # (1-t^2)(1-t^4)


# each way the closed route can fail, by id: (numerator, added polynomial, message)
CLOSED_ROUTE_FAILURES = {
    # (1-t^2)C grows by 1-t^2, which 2(1-t^2)(1-t^4) does not divide
    "inexact": ("_correction_numerator", lambda g: (1,), "inexact"),
    # IP_t grows by t^{6g-4}, or loses its top term t^{6g-6}
    "above-top": ("_equivariant_numerator", lambda g: zpoly_shift(D, 6 * g - 4), "has degree"),
    "below-top": (
        "_equivariant_numerator", lambda g: zpoly_shift(zpoly_scale(-1, D), 6 * g - 6), "has degree"
    ),
    # IP_t loses t, whose coefficient is 0
    "negative": (
        "_equivariant_numerator", lambda g: zpoly_shift(zpoly_scale(-1, D), 1), "coefficient -1"
    ),
}


@pytest.mark.parametrize(
    "name, perturb, message", CLOSED_ROUTE_FAILURES.values(), ids=CLOSED_ROUTE_FAILURES
)
def test_ip_closed_rejects_a_perturbed_numerator(monkeypatch, name, perturb, message):
    original = getattr(assembly, name)
    monkeypatch.setattr(assembly, name, lambda g: zpoly_add(original(g), perturb(g)))
    with pytest.raises(ArithmeticError, match=message):
        ip_series_closed(3)


def test_betti_table_shape_enforced():
    with pytest.raises(ValueError):
        BettiTable(genus=2, coefficients=(1, 2), provenance="closed-form")
    lopsided = BettiTable(
        genus=2, coefficients=(1, 0, 0, 0, 0, 0, 2), provenance="structural"
    )
    assert not lopsided.is_palindromic()
    with pytest.raises(ArithmeticError):
        lopsided.validate()


# -- t / tanh t ---------------------------------------------------------------

def test_b_coefficient_values():
    b = b_coefficients(3)
    assert b == [1, Fraction(1, 3), Fraction(-1, 45), Fraction(2, 945)]


def _t_over_tanh_with_odd_term(order):
    coeffs = list(t_over_tanh_series(order))
    coeffs[3] += 1
    return tuple(coeffs)


def test_b_coefficients_rejects_nonzero_odd_coefficient(monkeypatch):
    # the check must raise, not assert: it has to survive python -O
    monkeypatch.setattr(assembly, "t_over_tanh_series", _t_over_tanh_with_odd_term)
    with pytest.raises(ArithmeticError):
        b_coefficients(3)


def test_tanh_oracle_initial_terms():
    s = tanh_over_t_series(6)
    assert s[0] == 1
    assert s[2] == Fraction(-1, 3)
    assert s[4] == Fraction(2, 15)
    assert all(s[d] == 0 for d in (1, 3, 5))


def t_over_tanh_by_division(order):
    """Reference for `t_over_tanh_series`: cosh t / (sinh t / t) by series division over Q."""
    cosh = tuple(
        Fraction(1, factorial(d)) if d % 2 == 0 else Fraction(0) for d in range(order + 1)
    )
    sinh_over_t = tuple(
        Fraction(1, factorial(d + 1)) if d % 2 == 0 else Fraction(0) for d in range(order + 1)
    )
    return series_div(cosh, sinh_over_t)


def tanh_over_t_by_convolution(order):
    """Reference for `tanh_over_t_series`: the Taylor coefficients a_n of tanh t
    satisfy (n+1) a_{n+1} = [n = 0] - sum_{p+q=n} a_p a_q, over Q."""
    a = [Fraction(0)] * (order + 2)
    for n in range(order + 1):
        conv = sum((a[p] * a[n - p] for p in range(n + 1)), Fraction(0))
        a[n + 1] = ((1 if n == 0 else 0) - conv) / (n + 1)
    return tuple(a[1 : order + 2])


def test_integer_recurrences_match_fraction_references():
    for order in range(41):
        assert t_over_tanh_series(order) == t_over_tanh_by_division(order)
        assert tanh_over_t_series(order) == tanh_over_t_by_convolution(order)


def test_b_coefficients_are_scaled_bernoulli_numbers():
    # t/tanh t = sum 4^k B_{2k} t^{2k} / (2k)!
    sympy = pytest.importorskip("sympy")
    for k, b in enumerate(b_coefficients(20)):
        B = sympy.bernoulli(2 * k)
        assert b == Fraction(4 ** k * int(B.p), int(B.q) * factorial(2 * k))


def test_series_product_is_one_to_order_24():
    prod = series_mul(t_over_tanh_series(24), tanh_over_t_series(24))
    assert len(prod) == 25 and prod[0] == 1
    assert all(prod[d] == 0 for d in range(1, 25))


# -- E_m spanning sets ----------------------------------------------------------

def test_e_basis_small_cases():
    assert e_basis(0) == []
    assert e_basis(1) == []
    assert [(e.i, e.j, e.k) for e in e_basis(2)] == [
        (0, 0, 0),
        (1, 0, 0),
        (2, 0, 0),
        (0, 0, 1),
    ]


@given(st.integers(0, 8))
def test_e_basis_characterization(m):
    basis = e_basis(m)
    members = {(e.i, e.j, e.k) for e in basis}
    assert len(members) == len(basis)
    for e in basis:
        assert e.i + 2 * e.k <= m
        assert e.j + 2 * e.k <= m
        if e.k == 0:
            assert e.j < m // 2
    for i in range(m + 1):
        for j in range(m + 1):
            for k in range(m // 2 + 1):
                admissible = (
                    i + 2 * k <= m
                    and j + 2 * k <= m
                    and (k != 0 or j < m // 2)
                )
                assert ((i, j, k) in members) == admissible
    degrees = [monomial_degree(e) for e in basis]
    assert degrees == sorted(degrees)


def test_e_hilbert_values():
    assert e_hilbert(2) == (1, 0, 1, 0, 1, 0, 1)
    assert e_hilbert(0) == e_hilbert(1) == (0,)
    h3 = e_hilbert(3)
    assert all(type(c) is int for c in h3)
    assert h3[0] == 1
    assert len(h3) == 13 and h3[12] >= 1


def test_e_monomial_degree():
    assert monomial_degree(EMonomial(1, 1, 1)) == 12
    assert monomial_degree(EMonomial(0, 0, 0)) == 0


# -- structural routes ----------------------------------------------------------

def test_ih_structural_g2():
    table = ih_series_structural(2)
    assert table.coefficients == (1, 0, 1, 0, 1, 0, 1)
    assert table.provenance == "structural"


@pytest.mark.parametrize("g", range(2, 7))
def test_intersection_routes_agree(g):
    assert ih_series_structural(g).coefficients == ip_series_closed(g).coefficients


@pytest.mark.parametrize("g", range(2, 9))
def test_ih_structural_degree_zero(g):
    assert ih_series_structural(g).coefficients[0] == 1


def test_equivariant_structural_g2_t6():
    s = equivariant_series_structural(2, 6)
    assert s[6] == 7
    assert s[0] == 1


@pytest.mark.parametrize("g", [2, 3, 4])
def test_equivariant_routes_agree(g):
    # N below 3g leaves out the terms t^{3l} with 3l > N
    for N in [*range(3 * g + 3), 6 * g + 24]:
        assert equivariant_series_structural(g, N) == equivariant_series_closed(g, N)


@pytest.mark.parametrize("g, N", [(2, 0), (2, 5), (3, 30), (4, 48)])
def test_equivariant_structural_expands_once(monkeypatch, g, N):
    calls = []
    expand = RationalFunction.expand

    def counting(self, order):
        calls.append(order)
        return expand(self, order)

    monkeypatch.setattr(RationalFunction, "expand", counting)
    equivariant_series_structural(g, N)
    assert calls == [N]


# -- independence ---------------------------------------------------------------

@pytest.mark.parametrize("m", range(6))  # 5 is past verify's cap
def test_e_basis_independence_passes(m):
    verdict = e_basis_independence(m)
    assert verdict.passed
    assert verdict.rank == verdict.basis_size == len(e_basis(m))
    assert verdict.failing_degree is None


def test_e_basis_independence_reports_a_dependency(monkeypatch):
    # give the second of two E_3 monomials of one degree a normal form
    # proportional to the first one's
    basis = e_basis(3)
    degree = next(
        d for d in sorted({monomial_degree(e) for e in basis})
        if sum(monomial_degree(e) == d for e in basis) >= 2
    )
    first, second = [expand_abxi_monomial(*e) for e in basis if monomial_degree(e) == degree][:2]
    original = assembly.normal_form

    def collapsing(p, gb):
        if p == second:
            return Fraction(-3) * original(first, gb)
        return original(p, gb)

    monkeypatch.setattr(assembly, "normal_form", collapsing)
    verdict = e_basis_independence(3)
    assert verdict.passed is False
    assert verdict.failing_degree == degree
    # full rank below the failing degree, one short in it, and no degree after it
    assert verdict.rank == sum(monomial_degree(e) <= degree for e in basis) - 1
    assert verdict.basis_size == len(basis)


@pytest.mark.parametrize("m", range(9))
def test_e_basis_normal_forms_equal_product_route(m):
    # each E_m normal form, against the expansion by Poly products it replaced
    gb = relation_ideal_basis(m)
    for i, j, k in e_basis(m):
        product = ALPHA ** i * BETA ** j * (ALPHA * BETA + 2 * GAMMA) ** k
        assert normal_form(expand_abxi_monomial(i, j, k), gb) == normal_form(product, gb)


def test_e_basis_independence_guard():
    with pytest.raises(ValueError):
        e_basis_independence(-1)


# -- fundamental class, top identity, pairing -------------------------------------

def fundamental_class(g):
    """alpha^{g-2} beta^{g-2} xi / ((g-2)! (-4)^{g-1}), degree 6g-6."""
    assembly._require_genus(g)
    scale = Fraction(1, factorial(g - 2) * (-4) ** (g - 1))
    return scale * expand_abxi_monomial(g - 2, g - 2, 1)


def test_fundamental_class_values():
    assert fundamental_class(2) == (
        Fraction(-1, 4) * (ALPHA * BETA) + Fraction(-1, 2) * GAMMA
    )
    assert fundamental_class(3) == Fraction(1, 16) * (
        ALPHA * BETA * (ALPHA * BETA + 2 * GAMMA)
    )
    for g in range(2, 7):
        p = fundamental_class(g)
        assert p.is_homogeneous() and p.degree() == 6 * g - 6
    with pytest.raises(ValueError):
        fundamental_class(1)


@pytest.mark.parametrize("g", [2, 3, 4, 5])  # 5 is past verify's cap
def test_top_identity_passes(g):
    verdict = top_identity_check(g)
    assert verdict.passed
    assert [(e.m, e.n) for e in verdict.entries] == [
        (3 * g - 3 - 2 * n, n) for n in range(g - 1)
    ]
    assert verdict.top_degree_dimension == verdict.hilbert_dimension >= 1


def test_top_identity_g2_coefficient():
    verdict = top_identity_check(2)
    (entry,) = verdict.entries
    assert (entry.m, entry.n) == (3, 0)
    # alpha^3 = -2 xi in the quotient: relation coefficient -m! b_1 / 0! = -2
    assert -entry.coefficient == -2
    assert entry.residual == "0"


def test_top_identity_guard():
    with pytest.raises(ValueError):
        top_identity_check(1)


def pairing_value(g, left, right):
    """The paper's formula for one entry, <kappa(alpha^i beta^j), kappa(alpha^k beta^l)>.

    -(-4)^{g-1} m! b_{g-n-1} with m = i+k, n = j+l, reading b_K off
    1 / (tanh t / t), the expansion `b_coefficients` does not use.
    """
    (i, j), (k, l) = left, right
    m, n = i + k, j + l
    assert min(i, j, k, l) >= 0 and m + 2 * n == 3 * g - 3 and n < g - 1
    K = g - n - 1
    b = series_div((1,) + (0,) * (2 * K), tanh_over_t_series(2 * K))
    return -((-4) ** (g - 1)) * factorial(m) * b[2 * K]


def _pairing_entry(g, left, right):
    (entry,) = [e for e in pairing_matrix(g) if (e.left, e.right) == (left, right)]
    return entry.value


def test_pairing_values():
    for g, left, right, value in [
        (2, (1, 0), (2, 0), 8),
        (2, (0, 0), (3, 0), 8),
        (3, (2, 1), (2, 0), -128),
    ]:
        assert pairing_value(g, left, right) == value
        assert _pairing_entry(g, left, right) == value


def test_pairing_matrix_g2():
    entries = pairing_matrix(2)
    assert len(entries) == 4
    assert all(e.value == 8 and (e.m, e.n) == (3, 0) for e in entries)
    assert [(e.left, e.right) for e in entries] == [
        ((0, 0), (3, 0)),
        ((1, 0), (2, 0)),
        ((2, 0), (1, 0)),
        ((3, 0), (0, 0)),
    ]


@pytest.mark.parametrize("g", [2, 3, 4])
def test_pairing_matrix_structure(g):
    entries = pairing_matrix(g)
    expected = sum(
        (3 * g - 3 - 2 * n + 1) * (n + 1) for n in range(g - 1)
    )
    assert len(entries) == expected
    keys = [(e.n, e.m, e.left[0], e.left[1]) for e in entries]
    assert keys == sorted(keys)
    for e in entries:
        assert e.value != 0
        assert e.m == e.left[0] + e.right[0]
        assert e.n == e.left[1] + e.right[1]
        assert pairing_value(g, e.right, e.left) == e.value


@pytest.mark.parametrize("g", [2, 3, 8, 16])
def test_pairing_matrix_shares_one_value_per_degree(g):
    entries = pairing_matrix(g)
    assert len({id(e.value) for e in entries}) == g - 1
    assert len({e.n for e in entries}) == g - 1


def test_pairing_matrix_expands_b_series_once(monkeypatch):
    calls = []

    def counted(K):
        calls.append(K)
        return b_coefficients(K)

    monkeypatch.setattr(assembly, "b_coefficients", counted)
    entries = pairing_matrix(8)
    assert calls == [7]
    assert len(entries) > 1


@pytest.mark.parametrize("g", range(2, 17))
def test_pairing_matrix_len_counts_its_entries(g):
    view = pairing_matrix(g)
    assert len(view) == sum(1 for _ in view)


def test_pairing_matrix_iterates_again():
    view = pairing_matrix(7)
    first = list(view)
    assert list(view) == first
    assert len(first) == len(view)


def test_pairing_matrix_makes_entries_only_while_iterated(monkeypatch):
    made = []

    def counted(*fields):
        made.append(fields)
        return PairingEntry(*fields)

    monkeypatch.setattr(assembly, "PairingEntry", counted)
    view = pairing_matrix(8)
    assert made == []
    assert sum(1 for _ in view) == len(made) == len(view)


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
def test_pairing_with_an_odd_b_term_fails_before_any_output(monkeypatch, capsys, fmt):
    # the per-degree values are computed when the view is built, so the failure
    # comes before the renderer writes a byte
    monkeypatch.setattr(assembly, "t_over_tanh_series", _t_over_tanh_with_odd_term)
    assert main(["pairing", "--genus", "3", "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ArithmeticError" in captured.err


@pytest.mark.parametrize("g", [2, 3, 4])
def test_pairing_consistent_with_top_identity(g):
    scale = factorial(g - 2) * (-4) ** (g - 1)
    for entry in top_identity_check(g).entries:
        expected = -entry.coefficient * scale
        assert _pairing_entry(g, (entry.m, entry.n), (0, 0)) == expected
