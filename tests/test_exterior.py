from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2rep.exterior import (
    ExtElement,
    gamma_element,
    invariant_truncated_dimensions,
    mask,
    prim_dimension_bruteforce,
    prim_dimension_formula,
    reliable_degree_window,
    restriction_image_dimensions,
)
from su2rep.linalg import dependency_vector, exact_rank


# -- exact rank ---------------------------------------------------------------

def sparse(rows):
    return [dict(enumerate(r)) for r in rows]


def test_exact_rank_small_cases():
    F = Fraction
    assert exact_rank([]) == 0
    assert exact_rank(sparse([[F(0), F(0)]])) == 0
    assert exact_rank(sparse([[F(1), F(2)], [F(2), F(4)]])) == 1
    assert exact_rank(sparse([[F(1), F(2)], [F(3), F(4)]])) == 2
    assert exact_rank(sparse([[F(0), F(1)], [F(1), F(0)], [F(1), F(1)]])) == 2


def test_dependency_vector_finds_relation():
    F = Fraction
    assert dependency_vector(sparse([[F(1), F(0)], [F(0), F(1)]])) is None
    dep = dependency_vector(sparse([[F(1), F(2)], [F(2), F(4)]]))
    assert dep is not None and any(dep)
    a, b = dep
    assert a * 1 + b * 2 == 0 and a * 2 + b * 4 == 0


@given(
    st.lists(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_dependency_vector_is_consistent_with_rank(rows):
    dep = dependency_vector(sparse(rows))
    if exact_rank(sparse(rows)) == len(rows):
        assert dep is None
    else:
        assert dep is not None and any(dep)
        combo = [
            sum((dep[r] * rows[r][c] for r in range(len(rows))), Fraction(0))
            for c in range(3)
        ]
        assert all(v == 0 for v in combo)


@given(
    st.lists(
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_rank_bounded_and_duplication_invariant(rows):
    r = exact_rank(sparse(rows))
    assert 0 <= r <= min(len(rows), 3)
    assert exact_rank(sparse(rows + rows)) == r


@given(
    st.lists(
        st.lists(
            st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=4,
    ),
    st.randoms(use_true_random=False),
)
def test_rank_of_shuffled_block_diagonal_is_sum_of_block_ranks(blocks, rnd):
    rows = [
        {("block", b, c): v for c, v in enumerate(r) if v}
        for b, block in enumerate(blocks)
        for r in block
    ]
    rnd.shuffle(rows)
    before = [dict(r) for r in rows]
    assert exact_rank(rows) == sum(exact_rank(sparse(block)) for block in blocks)
    assert rows == before


# -- exterior algebra ---------------------------------------------------------

def psi(i):
    return ExtElement.generator(i)


def test_generators_anticommute_and_square_to_zero():
    a, b = psi(1), psi(2)
    assert a * b == -(b * a)
    assert (a * a).is_zero()
    assert (a * b).terms == {(mask((1, 2)), 0): 1}
    assert (b * a).terms == {(mask((1, 2)), 0): -1}


def build(idxs):
    e = ExtElement.scalar(1)
    for i in idxs:
        e = e * psi(i)
    return e


@given(st.lists(st.integers(1, 6), max_size=6))
def test_merge_sign_matches_transposition_count(idxs):
    # the oracle counts the inversions of the index list directly
    p = build(idxs)
    if len(set(idxs)) < len(idxs):
        assert p.is_zero()
    else:
        inversions = sum(
            1 for x in range(len(idxs)) for y in range(x + 1, len(idxs)) if idxs[x] > idxs[y]
        )
        assert p.terms == {(mask(idxs), 0): (-1) ** inversions}


@given(
    st.lists(st.integers(1, 6), min_size=0, max_size=4),
    st.lists(st.integers(1, 6), min_size=0, max_size=4),
)
def test_product_of_generator_strings_associates(idx1, idx2):
    assert build(idx1) * build(idx2) == build(idx1 + idx2)


def test_gamma_element_values():
    g2 = gamma_element(2)
    assert g2.terms == {(mask((1, 3)), 0): -2, (mask((2, 4)), 0): -2}
    # expanding the square picks up one transposition per cross term
    assert (g2 ** 2).terms == {(mask((1, 2, 3, 4)), 0): -8}
    assert (g2 ** 3).is_zero()
    assert (gamma_element(3) ** 4).is_zero()
    with pytest.raises(ValueError):
        gamma_element(1)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_gamma_powers_keep_int_coefficients(g):
    for p in range(g + 1):
        assert all(type(c) is int for c in (gamma_element(g) ** p).terms.values())


ext_elements = st.dictionaries(
    st.tuples(st.integers(0, 2 ** 5 - 1), st.just(0)), st.integers(-5, 5), max_size=4
).map(ExtElement)


@given(ext_elements, ext_elements, ext_elements, st.integers(-3, 3), st.integers(0, 3))
def test_int_coefficients_satisfy_ring_laws(x, y, z, c, n):
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert c * (x * y) == (c * x) * y == x * (c * y)
    assert c * (x + y) == c * x + c * y
    assert x ** (n + 1) == x * x ** n
    assert all(type(v) is int for v in (x * y + c * x ** n - z).terms.values())


def test_prim_dimensions_bruteforce_small_genus():
    assert [prim_dimension_bruteforce(2, l) for l in range(3)] == [1, 4, 5]
    assert all(prim_dimension_bruteforce(g, 0) == 1 for g in (2, 3, 4, 5))
    total = sum(prim_dimension_bruteforce(3, l) * (3 - l + 1) for l in range(4))
    assert total == 64
    with pytest.raises(ValueError):
        prim_dimension_bruteforce(1, 0)
    with pytest.raises(ValueError):
        prim_dimension_bruteforce(3, 4)
    with pytest.raises(ValueError):
        prim_dimension_bruteforce(3, -1)


def test_prim_dimension_formula_values():
    assert [prim_dimension_formula(2, l) for l in range(3)] == [1, 4, 5]
    assert all(prim_dimension_formula(g, 0) == 1 for g in range(2, 10))
    assert prim_dimension_formula(6, 6) == 924 - 495


@pytest.mark.parametrize("g", [2, 3, 4, 6])  # 6 is past verify's cap
def test_formula_matches_bruteforce(g):
    for l in range(g + 1):
        assert prim_dimension_formula(g, l) == prim_dimension_bruteforce(g, l)


@pytest.mark.parametrize("g", range(2, 13))
def test_lefschetz_dimension_identity(g):
    total = sum(prim_dimension_formula(g, l) * (g - l + 1) for l in range(g + 1))
    assert total == 4 ** g


# -- truncated Jacobian model ---------------------------------------------------

def test_jac_u_is_central_and_truncation_drops_overflow():
    u = ExtElement({(0, 1): 1}, truncation=3)
    d1 = ExtElement({(mask((1,)), 0): 1}, truncation=3)
    assert u * d1 == d1 * u
    assert (u ** 4).is_zero()
    assert not (u ** 3).is_zero()


def test_jac_model_mixing_rejected():
    a = ExtElement({(0, 0): 1}, truncation=3)
    b = ExtElement({(0, 0): 1}, truncation=4)
    with pytest.raises(ValueError):
        a * b


def test_ext_element_rejects_malformed_terms():
    with pytest.raises(ValueError):
        ExtElement({(mask((1,)), -1): 1}, truncation=3)
    # the u-free exterior algebra and a u-truncated model do not mix
    with pytest.raises(ValueError):
        ExtElement.generator(1) * ExtElement({(mask((1,)), 0): 1}, truncation=3)


def test_restriction_dimensions_g2():
    dims = restriction_image_dimensions(2)
    assert dims[0] == 0
    assert dims[3] == 4
    assert {d: dims[d] for d in range(7)} == {
        0: 0, 1: 0, 2: 0, 3: 4, 4: 1, 5: 4, 6: 6,
    }


def test_invariant_dimensions_g2():
    dims = invariant_truncated_dimensions(2)
    assert {d: dims[d] for d in range(7)} == {
        0: 0, 1: 0, 2: 0, 3: 4, 4: 1, 5: 4, 6: 6,
    }


@pytest.mark.parametrize("g", [2, 3, 4, 5])  # 4, 5 are past verify's cap
def test_restriction_equals_invariant_in_window(g):
    # the default truncation is U = max(g + 4, 2g + 1), and its window has content
    U = max(g + 4, 2 * g + 1)
    dims = restriction_image_dimensions(g)
    assert dims == invariant_truncated_dimensions(g, U)
    assert max(dims) == reliable_degree_window(g, U) == max(8, 2 * g + 2)
    assert any(dims.values())


def test_model_range_validation():
    with pytest.raises(ValueError):
        restriction_image_dimensions(1)
    with pytest.raises(ValueError):
        restriction_image_dimensions(2, U=3)
    with pytest.raises(ValueError):
        invariant_truncated_dimensions(1)
    with pytest.raises(ValueError):
        invariant_truncated_dimensions(3, U=5)


def test_low_degrees_vanish_below_u_power_floor():
    for g in (2, 3):
        dims = invariant_truncated_dimensions(g)
        for d in range(2 * (g - 1)):
            assert dims[d] == 0
