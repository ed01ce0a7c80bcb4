"""Tiny exact linear algebra over the rationals.

One fraction-free Gauss-Jordan sweep in Python ints with no pivot-size
strategy: what matters is exactness and precise failure reporting.  The
sweep reads augmented equations in order, so the first one that contradicts
those before it is known the moment it is read.  Each is scaled to coprime
integers and an exact repeat is skipped, since the systems solved here have
a dozen or so columns and up to a few thousand sparse rows, most of them
repeats; each pivot row is subtracted through its nonzero entries only.

``solve_exact`` sweeps [M | b] for one right-hand side.  ``inverse_exact``
sweeps [M | I] once, so a square system that recurs with many right-hand
sides (the cusp-matching matrix of a level) is eliminated only once.
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


def _sweep(eqs, ncols: int) -> dict:
    """Gauss-Jordan over augmented equations, read in order.

    Each equation holds ncols coefficients followed by its right-hand sides,
    as ints or Fractions.  Returns {column: pivot row} of integer rows, each
    zero in every other pivot column.  Raises InconsistentSystem(i) for the
    first equation i whose coefficients reduce to zero while a right-hand
    side does not.
    """
    seen = set()
    pivots = {}
    for i, eq in enumerate(eqs):
        ratios = [(v if type(v) is Fraction else Fraction(v)).as_integer_ratio()
                  for v in eq]
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
            if any(eq[ncols:]):
                raise InconsistentSystem(i)
            continue
        for c, pivot in pivots.items():
            if pivot[col]:
                pivots[c] = _clear(pivot, col, eq)
        pivots[col] = eq
    return pivots


def solve_exact(rows, rhs):
    """Solve M x = b exactly; requires a unique solution.

    ``rows`` is a list of equal-length coefficient lists, ``rhs`` the right
    hand sides; the solution is a list of Fractions.  Raises
    InconsistentSystem when the equations contradict one another, naming the
    first row r such that rows[:r + 1] have no common solution, and
    SingularSystem when the solution is not unique.
    """
    if len(rows) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if not rows:
        raise SingularSystem("empty system")
    ncols = len(rows[0])
    pivots = _sweep(((*row, b) for row, b in zip(rows, rhs)), ncols)
    if len(pivots) < ncols:
        raise SingularSystem("underdetermined system")
    return [Fraction(pivots[c][-1], pivots[c][c]) for c in range(ncols)]


def inverse_exact(rows):
    """Inverse of a square matrix as (integer rows, common denominator).

    ``rows`` is a list of n coefficient lists of length n, as ints or
    Fractions; the result (inv, den) has inv[i][j] / den equal to the (i, j)
    entry of the inverse, den > 0 and no factor common to den and every
    entry.  Raises SingularSystem when the matrix is not invertible.
    """
    n = len(rows)
    if n == 0:
        raise SingularSystem("empty system")
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    try:
        pivots = _sweep(((*row, *[int(i == j) for j in range(n)])
                         for i, row in enumerate(rows)), n)
    except InconsistentSystem:  # a row of M reduced to zero
        raise SingularSystem("underdetermined system") from None
    # row c of the inverse is pivots[c][n:] / pivots[c][c]
    den = lcm(*[pivots[c][c] for c in range(n)])
    inv = [[v * (den // pivots[c][c]) for v in pivots[c][n:]] for c in range(n)]
    g = gcd(den, *[v for row in inv for v in row])
    return [[v // g for v in row] for row in inv], den // g
