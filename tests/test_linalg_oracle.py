"""exact_rank against an independent oracle: sympy's DomainMatrix over QQ.

Every matrix the brute-force checks eliminate is captured on its way into
`exact_rank` and ranked again by sympy.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from su2rep import exterior
from su2rep.linalg import exact_rank

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402


def sympy_rank(rows):
    columns, entries = {}, {}
    for i, r in enumerate(rows):
        for c, v in r.items():
            if v:
                q = Fraction(v)
                j = columns.setdefault(c, len(columns))
                entries.setdefault(i, {})[j] = sympy.QQ(q.numerator, q.denominator)
    return DomainMatrix(entries, (len(rows), len(columns)), sympy.QQ).rank()


@pytest.fixture
def checked_ranks(monkeypatch):
    """Route exterior's exact_rank through a sympy comparison; return the ranks seen."""
    seen = []

    def checked(rows):
        rank = exact_rank(rows)
        assert rank == sympy_rank(rows)
        seen.append(rank)
        return rank

    monkeypatch.setattr(exterior, "exact_rank", checked)
    return seen


@pytest.mark.parametrize("g", [2, 3, 4])
def test_prim_bruteforce_ranks_match_sympy(checked_ranks, g):
    # one block per count h of half-filled pairs, h = l, l - 2, ..., l % 2
    for l in range(g + 1):
        exterior.prim_dimension_bruteforce(g, l)
    assert len(checked_ranks) == sum(l // 2 + 1 for l in range(g + 1))
    assert any(checked_ranks)


@pytest.mark.parametrize("g", [2, 3])
def test_restriction_ranks_match_sympy(checked_ranks, g):
    # one matrix per degree 0..max(8, 2g + 2): the products lying in u^{g-1}
    exterior.restriction_image_dimensions(g)
    assert len(checked_ranks) == max(8, 2 * g + 2) + 1 and any(checked_ranks)


@given(
    st.lists(
        st.dictionaries(
            st.integers(0, 6),
            # small fractions, small ints, and ints past 2^40 whose gcds and
            # products the integer elimination must carry exactly
            st.fractions(min_value=-4, max_value=4, max_denominator=3)
            | st.integers(-4, 4)
            | st.integers(2**40, 2**64)
            | st.integers(-(2**64), -(2**40)),
            max_size=4,
        ),
        max_size=6,
    ),
    st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool),
)
def test_random_sparse_ranks_match_sympy(rows, scale):
    # scaled copies of the first rows give dependencies the integer
    # scaling of each row must keep
    rows += [{c: scale * v for c, v in r.items()} for r in rows[:2]]
    assert exact_rank(rows) == sympy_rank(rows)
