"""Tiny exact linear solver over the rationals.

Fraction-free Gauss-Jordan in Python ints with no pivot-size strategy: what
matters is exactness and precise failure reporting.  The equations are read
in order, so the first one that contradicts those before it is known the
moment it is read.  Each is scaled to coprime integers and an exact repeat is
skipped, since the systems solved here have a dozen or so columns and up to
a few thousand sparse rows, most of them repeats; each pivot row is
subtracted through its nonzero entries only.
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


def _clear(row: list, col: int, pivot: list) -> list:
    """pivot[col] * row - row[col] * pivot, divided by its content.

    Column col of the result is 0, and so is every column that is 0 in both
    rows; dividing by the content keeps the integers small.
    """
    p, factor = pivot[col], row[col]
    out = [p * v for v in row]
    for j, v in enumerate(pivot):
        if v:
            out[j] -= factor * v
    g = gcd(*out)
    return [v // g for v in out] if g > 1 else out


def solve_exact(rows, rhs):
    """Solve M x = b exactly; requires a unique solution.

    ``rows`` is a list of equal-length coefficient lists, ``rhs`` the right
    hand sides; the solution is a list of Fractions.  Raises
    InconsistentSystem when the equations contradict one another, naming the
    first row r such that rows[:r + 1] have no common solution, and
    SingularSystem when the solution is not unique.
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if m == 0:
        raise SingularSystem("empty system")
    ncols = len(rows[0])
    seen = set()
    pivots = {}  # column -> pivot row, zero in every other pivot column
    for i, (row, b) in enumerate(zip(rows, rhs)):
        ratios = [(v if type(v) is Fraction else Fraction(v)).as_integer_ratio()
                  for v in (*row, b)]
        den = lcm(*[d for _, d in ratios])
        ints = [n * (den // d) for n, d in ratios]
        g = gcd(*ints)
        eq = tuple([v // g for v in ints]) if g > 1 else tuple(ints)
        if eq in seen:
            continue
        seen.add(eq)
        eq = list(eq)
        for col, pivot in pivots.items():
            if eq[col]:
                eq = _clear(eq, col, pivot)
        col = next((j for j in range(ncols) if eq[j]), None)
        if col is None:
            if eq[-1]:
                raise InconsistentSystem(i)
            continue
        for c, pivot in pivots.items():
            if pivot[col]:
                pivots[c] = _clear(pivot, col, eq)
        pivots[col] = eq
    if len(pivots) < ncols:
        raise SingularSystem("underdetermined system")
    return [Fraction(pivots[c][-1], pivots[c][c]) for c in range(ncols)]
