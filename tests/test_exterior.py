from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2rep.assembly import correction_series
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
    return ExtElement({(mask((i,)), 0): 1})


def plus(x, y):
    """x + y, summed term by term on the test side; a sum is not needed in `src/`."""
    out = dict(x.terms)
    for k, c in y.terms.items():
        out[k] = out.get(k, 0) + c
    return ExtElement(out, x.truncation)


def times(c, x):
    """The scalar multiple c x, on the test side."""
    return ExtElement({k: c * v for k, v in x.terms.items()}, x.truncation)


def test_generators_anticommute_and_square_to_zero():
    a, b = psi(1), psi(2)
    assert (a * b).terms == times(-1, b * a).terms
    assert (a * a).terms == {}
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
        assert p.terms == {}
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
    assert (build(idx1) * build(idx2)).terms == build(idx1 + idx2).terms


def test_gamma_element_values():
    g2 = gamma_element(2)
    assert g2.terms == {(mask((1, 3)), 0): -2, (mask((2, 4)), 0): -2}
    # expanding the square picks up one transposition per cross term
    assert (g2 ** 2).terms == {(mask((1, 2, 3, 4)), 0): -8}
    assert (g2 ** 3).terms == {}
    assert (gamma_element(3) ** 4).terms == {}
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
    assert (x * plus(y, z)).terms == plus(x * y, x * z).terms
    assert (plus(x, y) * z).terms == plus(x * z, y * z).terms
    assert ((x * y) * z).terms == (x * (y * z)).terms
    assert times(c, x * y).terms == (times(c, x) * y).terms == (x * times(c, y)).terms
    assert (x ** (n + 1)).terms == (x * x ** n).terms
    assert all(type(v) is int for v in (x * y).terms.values())
    assert all(type(v) is int for v in (x ** n).terms.values())


def reference_prim_dimension(g, l):
    """Reference for `prim_dimension_bruteforce`: one elimination over every
    l-subset, with no pair blocks."""
    gamma_pow = gamma_element(g) ** (g - l + 1)
    domain = list(combinations(range(1, 2 * g + 1), l))
    rows = [(ExtElement({(mask(s), 0): 1}) * gamma_pow).terms for s in domain]
    return len(domain) - exact_rank(rows)


@pytest.mark.parametrize("g", range(2, 7))
def test_prim_blocks_match_all_subsets_reference(g):
    for l in range(g + 1):
        assert prim_dimension_bruteforce(g, l) == reference_prim_dimension(g, l)


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


@pytest.mark.parametrize("g", range(2, 12))  # past verify's cap from 6
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
    assert (u * d1).terms == (d1 * u).terms == {(mask((1,)), 1): 1}
    assert (u ** 4).terms == {}
    assert (u ** 3).terms == {(0, 3): 1}


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
        psi(1) * ExtElement({(mask((1,)), 0): 1}, truncation=3)


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


def reference_restriction_dimensions(g, U):
    """Reference for `restriction_image_dimensions`: every product of the images
    in each degree, ranked once whole and once with its part in u^{g-1} cut off."""
    w = ExtElement(gamma_element(g).terms, U)
    four_u2 = ExtElement({(0, 2): 4}, U)
    result = {}
    for degree in range(reliable_degree_window(g, U) + 1):
        rows = []
        for a in range(0, min(g, degree // 2) + 1):
            for b in range(0, (degree - 2 * a) // 4 + 1):
                rem = degree - 2 * a - 4 * b
                if rem % 3 == 0 and rem // 3 <= 2 * g:
                    size = rem // 3
                    base = (w ** a) * (four_u2 ** b)
                    for s in combinations(range(1, 2 * g + 1), size):
                        d_s = ExtElement({(mask(s), size): (-2) ** size}, U)
                        rows.append((base * d_s).terms)
        projected = [{k: c for k, c in r.items() if k[1] < g - 1} for r in rows]
        result[degree] = exact_rank(rows) - exact_rank(projected)
    return result


@pytest.mark.parametrize(
    "g, U",
    [(g, U) for g in range(2, 7) for U in (g + 3, g + 4, 2 * g + 1, 2 * g + 3)]
    + [(7, 15)],  # the default U at g = 7
)
def test_restriction_matches_two_rank_reference(g, U):
    assert restriction_image_dimensions(g, U) == reference_restriction_dimensions(g, U)


@pytest.mark.parametrize("g", range(2, 13))  # past verify's cap from 4
def test_restriction_equals_invariant_in_window(g):
    # the default truncation is U = max(g + 4, 2g + 1), and its window has content;
    # the correction series is a third route to the same dimensions
    U = max(g + 4, 2 * g + 1)
    dims = restriction_image_dimensions(g)
    assert dims == invariant_truncated_dimensions(g, U)
    assert max(dims) == reliable_degree_window(g, U) == max(8, 2 * g + 2)
    assert any(dims.values())
    correction = correction_series(g, max(dims))
    assert {d: correction[d] for d in dims} == dims


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
