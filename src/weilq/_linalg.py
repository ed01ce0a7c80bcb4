"""Tiny exact linear solver over the rationals.

Fraction-free Gauss-Jordan in Python ints with no pivot-size strategy: what
matters is exactness and precise failure reporting.  Each equation is scaled
to coprime integers and exact repeats are dropped, since the systems solved
here have a dozen or so columns and up to a few thousand sparse rows, most of
them repeats; each pivot row is subtracted through its nonzero entries only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class SingularSystem(ValueError):
    """The coefficient matrix does not determine a unique solution."""


class InconsistentSystem(ValueError):
    """No solution: row ``row`` contradicts the rows before it."""

    def __init__(self, row: int):
        super().__init__(f"inconsistent linear system (first bad row {row})")
        self.row = row


def _eliminate(eqs, ncols):
    """Integer Gauss-Jordan on a copy of the equations; returns (aug, pivots).

    Pivot row i of the result holds pivot column where[i], whose entry is
    the only nonzero coefficient of that column; every row past len(where)
    has zero coefficients, so its last entry is 0 or a contradiction.
    """
    aug = [list(eq) for eq in eqs]
    m = len(aug)
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
        p = head[col]
        tail = [(j, head[j]) for j in range(col, ncols + 1) if head[j]]
        for r, row in enumerate(aug):
            factor = row[col]
            if factor and row is not head:
                row = [p * v for v in row]
                for j, v in tail:
                    row[j] -= factor * v
                g = gcd(*row)
                aug[r] = [v // g for v in row] if g > 1 else row
        where.append(col)
        prow += 1
    return aug, where


def _contradicts(aug, where) -> bool:
    return any(row[-1] for row in aug[len(where):])


def solve_exact(rows, rhs):
    """Solve M x = b exactly; requires a unique solution.

    ``rows`` is a list of equal-length coefficient lists, ``rhs`` the right
    hand sides; the solution is a list of Fractions.  Raises
    InconsistentSystem when the equations contradict one another, naming the
    first row r such that rows[:r + 1] have no common solution (so the name
    does not depend on the elimination order), and SingularSystem when the
    solution is not unique.
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if m == 0:
        raise SingularSystem("empty system")
    ncols, first = len(rows[0]), {}
    for i, (row, b) in enumerate(zip(rows, rhs)):
        # scaled to coprime ints; first maps each to its first row index
        ratios = [(v if type(v) is Fraction else Fraction(v)).as_integer_ratio()
                  for v in (*row, b)]
        den = lcm(*[d for _, d in ratios])
        ints = [n * (den // d) for n, d in ratios]
        g = gcd(*ints)
        first.setdefault(tuple([v // g for v in ints]) if g > 1 else tuple(ints), i)
    eqs = list(first)
    aug, where = _eliminate(eqs, ncols)
    if _contradicts(aug, where):
        # a dropped repeat adds nothing to a prefix: bisect the distinct ones
        lo, hi = 0, len(eqs) - 1  # eqs[:hi + 1] contradict, eqs[:lo] do not
        while lo < hi:
            mid = (lo + hi) // 2
            if _contradicts(*_eliminate(eqs[:mid + 1], ncols)):
                hi = mid
            else:
                lo = mid + 1
        raise InconsistentSystem(first[eqs[lo]])
    if len(where) < ncols:
        raise SingularSystem("underdetermined system")
    # every column is a pivot, so where == range(ncols)
    return [Fraction(row[-1], row[col]) for col, row in enumerate(aug[:ncols])]
