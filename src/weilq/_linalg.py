"""Tiny exact linear solver over the rationals.

Gauss-Jordan elimination on Fraction matrices with no pivot-size strategy:
what matters is exactness and precise failure reporting.  The systems solved
in this package have a dozen or so columns and up to a few thousand rows, and
their rows are sparse (a theta-basis row is mostly zeros), so each pivot row
is normalised and subtracted through its nonzero entries only.
"""

from __future__ import annotations

from fractions import Fraction


class SingularSystem(ValueError):
    """The coefficient matrix does not determine a unique solution."""


class InconsistentSystem(ValueError):
    """No solution: row ``row`` contradicts the rows before it."""

    def __init__(self, row: int):
        super().__init__(f"inconsistent linear system (first bad row {row})")
        self.row = row


def _eliminate(rows, rhs):
    """Gauss-Jordan on a copy of [rows | rhs]; returns (aug, pivot columns).

    Pivot row i of the result holds pivot column where[i]; every row past
    len(where) has zero coefficients, so its last entry is 0 or a
    contradiction.
    """
    m, ncols = len(rows), len(rows[0])
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    where = []
    prow = 0
    for col in range(ncols):
        pivot = next((r for r in range(prow, m) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[prow], aug[pivot] = aug[pivot], aug[prow]
        # Columns before col are zero in the pivot row: earlier pivot columns
        # were eliminated, and a skipped column had no nonzero entry from
        # row prow down.  So only the nonzero tail (columns >= col) moves.
        head = aug[prow]
        inv = 1 / head[col]
        tail = []
        for j in range(col, ncols + 1):
            if head[j]:
                head[j] *= inv
                tail.append((j, head[j]))
        for row in aug:
            factor = row[col]
            if factor and row is not head:
                for j, v in tail:
                    row[j] -= factor * v
        where.append(col)
        prow += 1
        if prow == m:
            break
    return aug, where


def _contradicts(aug, where) -> bool:
    return any(row[-1] for row in aug[len(where):])


def solve_exact(rows, rhs):
    """Solve M x = b exactly; requires a unique solution.

    ``rows`` is a list of equal-length coefficient lists, ``rhs`` the right
    hand sides.  Raises InconsistentSystem when the equations contradict one
    another, naming the first row r such that rows[:r + 1] have no common
    solution (so the name does not depend on the elimination order), and
    SingularSystem when the solution is not unique.
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if m == 0:
        raise SingularSystem("empty system")
    aug, where = _eliminate(rows, rhs)
    if _contradicts(aug, where):
        lo, hi = 0, m - 1  # rows[:hi + 1] contradict, rows[:lo] do not
        while lo < hi:
            mid = (lo + hi) // 2
            if _contradicts(*_eliminate(rows[:mid + 1], rhs[:mid + 1])):
                hi = mid
            else:
                lo = mid + 1
        raise InconsistentSystem(lo)
    if len(where) < len(rows[0]):
        raise SingularSystem("underdetermined system")
    sol = [Fraction(0)] * len(rows[0])
    for r, col in enumerate(where):
        sol[col] = aug[r][-1]
    return sol
