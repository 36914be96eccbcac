"""End-to-end checks for the headline quantities, one timed line per criterion.

Every comparison here is exact: rational arithmetic throughout, zero
tolerance.  Each test also enforces a wall-clock budget so that a
performance regression fails loudly instead of silently degrading.
"""

import time
from fractions import Fraction
from math import factorial

from su2rep.assembly import (
    b_coefficients,
    correction_series,
    e_basis_independence,
    equivariant_series_closed,
    equivariant_series_structural,
    ih_series_structural,
    ip_series_closed,
    pairing_matrix,
    t_over_tanh_series,
    tanh_over_t_series,
    top_identity_check,
)
from su2rep.exterior import (
    invariant_truncated_dimensions,
    prim_dimension_bruteforce,
    prim_dimension_formula,
    restriction_image_dimensions,
)
from su2rep.graded import ALPHA, expand_abxi_monomial
from su2rep.groebner import (
    CACHE_ENV_VAR,
    _relation_basis_computed,
    normal_form,
    relation_ideal_basis,
)
from su2rep.series import series_mul

from reduced_basis import is_reduced


def _timed(capsys, number, description, budget, body):
    start = time.perf_counter()
    ok = False
    try:
        body()
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        in_budget = elapsed < budget
        verdict = "PASS" if ok and in_budget else "FAIL"
        with capsys.disabled():
            print(f"[{verdict}] criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds budget {budget}s"


def test_criterion_1_genus2_intersection_table(capsys):
    def body():
        expected = (1, 0, 1, 0, 1, 0, 1)
        assert ip_series_closed(2).coefficients == expected
        assert ih_series_structural(2).coefficients == expected

    _timed(capsys, 1, "genus-2 intersection Betti table, both routes", 1.0, body)


def test_criterion_2_intersection_route_agreement(capsys):
    def body():
        for g in range(2, 7):
            closed = ip_series_closed(g)
            structural = ih_series_structural(g)
            assert closed.coefficients == structural.coefficients

    _timed(
        capsys, 2, "closed-form and structural intersection series, g=2..6", 1.0, body
    )


def test_criterion_3_equivariant_route_agreement(capsys):
    def body():
        for g in range(2, 5):
            order = 6 * g + 24
            closed = equivariant_series_closed(g, order)
            structural = equivariant_series_structural(g, order)
            assert closed == structural

    _timed(
        capsys,
        3,
        "equivariant series via Groebner bases matches closed form, g=2..4",
        1.0,
        body,
    )


def test_criterion_4_polynomiality_and_duality(capsys):
    def body():
        for g in range(2, 9):
            order = 6 * g + 24
            closed = equivariant_series_closed(g, order)
            correction = correction_series(g, order)
            for d in range(6 * g - 5, order + 1):
                assert closed[d] == correction[d]
            table = ip_series_closed(g)
            table.validate()
            assert table.coefficients[0] == 1
            assert all(c >= 0 for c in table.coefficients)
            assert table.is_palindromic()

    _timed(
        capsys,
        4,
        "series difference is a palindromic polynomial of degree 6g-6, g=2..8",
        1.0,
        body,
    )


def test_criterion_5_lefschetz_dimension_identity(capsys):
    def body():
        for g in range(2, 13):
            total = sum(
                prim_dimension_formula(g, l) * (g - l + 1) for l in range(g + 1)
            )
            assert total == 4 ** g
        for g in range(2, 5):
            for l in range(g + 1):
                assert prim_dimension_formula(g, l) == prim_dimension_bruteforce(g, l)

    _timed(
        capsys,
        5,
        "primitive dimensions sum to 4^g and match brute-force kernels",
        1.0,
        body,
    )


def test_criterion_6_truncation_intersection(capsys):
    def body():
        for g in (2, 3, 8, 12):
            restricted = restriction_image_dimensions(g)
            invariant = invariant_truncated_dimensions(g)
            window = max(restricted)
            correction = correction_series(g, window)
            assert set(restricted) == set(invariant) == set(range(window + 1))
            for d in range(window + 1):
                assert restricted[d] == invariant[d]
                assert correction[d] == restricted[d]

    _timed(
        capsys,
        6,
        "restriction-image, invariant, and correction dimensions agree, g=2,3,8,12",
        1.0,
        body,
    )


def test_criterion_7_top_identity_and_pairing(capsys):
    def body():
        for g in range(2, 5):
            verdict = top_identity_check(g)
            failing = [(e.m, e.n) for e in verdict.entries if not e.passed]
            assert verdict.passed, f"failing (m, n) pairs at genus {g}: {failing}"
            # the pairing matrix is a second route to the same coefficients
            pairing = {(e.left, e.right): e.value for e in pairing_matrix(g)}
            scale = factorial(g - 2) * (-4) ** (g - 1)
            for e in verdict.entries:
                assert pairing[(e.m, e.n), (0, 0)] == -e.coefficient * scale
        gb = relation_ideal_basis(2)
        assert normal_form(ALPHA ** 3, gb) == -2 * expand_abxi_monomial(0, 0, 1)
        values = {(e.left, e.right): e.value for e in pairing_matrix(2)}
        assert values[(1, 0), (2, 0)] == 8

    _timed(
        capsys,
        7,
        "top-degree relation and pairing normalization, g=2..4",
        1.0,
        body,
    )


def test_criterion_8_b_series(capsys):
    def body():
        order = 24
        product = series_mul(t_over_tanh_series(order), tanh_over_t_series(order))
        assert product == (1,) + (0,) * order
        b = b_coefficients(2)
        assert b[0] == 1
        assert b[1] == Fraction(1, 3)
        assert b[2] == Fraction(-1, 45)

    _timed(
        capsys,
        8,
        "t/tanh t series inverts its reciprocal and has the stated coefficients",
        0.1,
        body,
    )


def test_criterion_9_e_basis_independence(capsys):
    def body():
        for m in range(13):
            verdict = e_basis_independence(m)
            assert verdict.passed
            assert verdict.rank == verdict.basis_size

    _timed(
        capsys,
        9,
        "monomial spanning sets stay independent in the quotient, m=0..12",
        1.0,
        body,
    )


def test_criterion_10_relation_basis_k12_uncached(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    _relation_basis_computed.cache_clear()

    def body():
        basis = relation_ideal_basis(12)
        assert is_reduced(basis)
        assert len(basis.generators) == 92

    _timed(
        capsys,
        10,
        "reduced basis of I_12 computed with no cache or memo",
        0.25,
        body,
    )


def test_prim_bruteforce_g7_uncapped(capsys):
    def body():
        for g in (7, 9):
            for l in range(g + 1):
                assert prim_dimension_bruteforce(g, l) == prim_dimension_formula(g, l)

    _timed(
        capsys,
        11,
        "brute-force primitive kernels match the formula at g=7,9, past verify's cap",
        1.0,
        body,
    )
