"""Exact rank computation over the rationals, on sparse rows, by integer elimination.

A row is a mapping from column to value; absent columns are zero and the
columns only need to be mutually comparable.  One incremental elimination
serves both entry points: each row is reduced against the pivot rows found
so far, each pivot row keyed by its smallest column, and a row that does not
reduce to zero becomes a new pivot row.  A row only meets pivot rows whose
leading column it holds, so fill-in stays inside the row/column blocks of a
block-diagonal matrix.  Values are `int` or `Fraction`; each row is scaled
once to integers, and reduced fraction-free over Z as Bareiss eliminates
(the step `groebner._reduce` takes): no pivoting subtleties, no tolerances.
The input mappings are never mutated.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from math import gcd, lcm


def _insert(row: Mapping, pivots: dict[Hashable, dict]) -> Hashable | None:
    """Reduce a multiple of `row` against `pivots`; store and return its leading column.

    Returns None, storing nothing, when the row reduces to zero.  Pivot rows
    are primitive integer rows.  For a leading value w over pivot value p,
    with h = gcd(w, p), the row becomes (p/h)·row - (w/h)·pivot.
    """
    den = lcm(*(v.denominator for v in row.values()))
    work = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
    while work:
        lead = min(work)
        pivot = pivots.get(lead)
        if pivot is None:
            content = gcd(*work.values())
            pivots[lead] = {c: v // content for c, v in work.items()}
            return lead
        p, w = pivot[lead], work[lead]
        h = gcd(p, w)
        a, b = p // h, w // h
        if a != 1:
            work = {c: a * v for c, v in work.items()}
        for c, v in pivot.items():
            x = work.get(c, 0) - b * v
            if x:
                work[c] = x
            else:
                del work[c]
    return None


def dependency_vector(rows: Iterable[Mapping]) -> tuple[int, ...] | None:
    """A nontrivial integer combination of the rows summing to zero, if one exists.

    Returns None when the rows are linearly independent.  Row i carries a
    marker column (1, i) after its own columns, keyed (0, c); the first row
    whose own columns cancel holds the combination in its markers.
    """
    rows = list(rows)
    pivots: dict = {}
    for i, row in enumerate(rows):
        marked = {(0, c): v for c, v in row.items()}
        marked[1, i] = 1
        # no pivot row holds column (1, i), so every marked row leaves a pivot
        lead = _insert(marked, pivots)
        if lead[0] == 1:
            combo = pivots[lead]
            return tuple(combo.get((1, j), 0) for j in range(len(rows)))
    return None


def exact_rank(rows: Iterable[Mapping]) -> int:
    """Rank of the matrix whose rows are the given sparse rational vectors."""
    pivots: dict = {}
    for row in rows:
        _insert(row, pivots)
    return len(pivots)
