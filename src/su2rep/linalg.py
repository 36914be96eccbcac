"""Exact rank computation over the rationals.

Gaussian elimination with fractions: no pivoting subtleties, no tolerances.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _fraction_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    work = [list(map(Fraction, r)) for r in rows]
    if any(len(r) != len(work[0]) for r in work):
        raise ValueError("rows must have equal length")
    return work


def _echelon(work: list[list[Fraction]]) -> list[int]:
    """Bring `work` to row echelon form in place; return the pivot columns.

    Row p of the result has its first nonzero entry in column pivots[p];
    rows from len(pivots) on are zero.
    """
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(work):
            break
        pivot_row = next(
            (r for r in range(rank, len(work)) if work[r][col] != 0), None
        )
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        top = work[rank]
        pivot = top[col]
        for r in range(rank + 1, len(work)):
            row = work[r]
            if row[col] != 0:
                factor = row[col] / pivot
                for c in range(col, ncols):
                    row[c] -= factor * top[c]
        pivots.append(col)
    return pivots


def dependency_vector(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[Fraction, ...] | None:
    """A nontrivial rational combination of the rows summing to zero, if one exists.

    Returns None when the rows are linearly independent.  The combinations
    summing to zero are the kernel of the transposed matrix, so its echelon
    form hands back one by setting the first free variable to 1 and solving
    for the pivot variables by back substitution.
    """
    n = len(rows)
    if n == 0:
        return None
    transposed = [list(col) for col in zip(*_fraction_rows(rows))]
    pivots = _echelon(transposed)
    free = next((i for i in range(n) if i not in pivots), None)
    if free is None:
        return None
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for p in reversed(range(len(pivots))):
        row, col = transposed[p], pivots[p]
        x[col] = -sum(row[i] * x[i] for i in range(col + 1, n)) / row[col]
    return tuple(x)


def exact_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the matrix whose rows are the given rational vectors."""
    return len(_echelon(_fraction_rows([r for r in rows if any(r)])))
