"""Tiny exact linear algebra over the rationals.

One fraction-free Gauss-Jordan sweep in Python ints with no pivot-size
strategy: what matters is exactness and precise failure reporting.  The
sweep reads augmented equations in order, so the first one that contradicts
those before it is known the moment it is read.  An equation whose entries,
read as (numerator, denominator) pairs, repeat an earlier one is skipped
before any scaling, since the systems solved here have a dozen or so columns
and up to a few thousand sparse rows, most of them exact repeats; every other
one is scaled to coprime integers, so a proportional copy reduces to zero,
and each pivot row is subtracted through its nonzero entries only.

``solve_exact`` is the one solve: it sweeps [M | B] once for all k columns
of B, so a coefficient matrix that recurs with many right-hand sides is
eliminated only once.  The cusp-matching matrix of a level is solved
against the identity, and a theta basis against every target at once.
"""

from __future__ import annotations

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
    as ints or Fractions, each read as its (numerator, denominator) pair.
    An equation whose pairs repeat an earlier one's is skipped before it is
    scaled to coprime integers.  Returns {column: pivot row} of integer
    rows, each zero in every other pivot column.  Raises
    InconsistentSystem(i) for the first equation i whose coefficients
    reduce to zero while a right-hand side does not.
    """
    seen = set()
    pivots = {}
    for i, eq in enumerate(eqs):
        ratios = tuple([v.as_integer_ratio() for v in eq])
        if ratios in seen:
            continue
        seen.add(ratios)
        den = lcm(*[d for _, d in ratios])
        eq = [n * (den // d) for n, d in ratios]
        g = gcd(*eq)
        if g > 1:
            eq = [v // g for v in eq]
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
    """Solve M X = B exactly, every column of B in one sweep.

    ``rows`` holds the m rows of M and ``rhs`` the m rows of B, as
    equal-length lists of ints or Fractions.  Returns (X, den): X[i][j] / den
    is unknown i for right-hand side j, with X of ints, den > 0 and no factor
    common to den and every entry of X; solving against the identity gives
    the inverse.  Raises InconsistentSystem when some column has no
    solution, naming the first row r such that rows[:r + 1] have none, and
    SingularSystem when the solution is not unique.
    """
    if len(rows) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if not rows:
        raise SingularSystem("empty system")
    ncols, k = len(rows[0]), len(rhs[0])
    if any(len(row) != ncols for row in rows) or any(len(b) != k for b in rhs):
        raise ValueError("ragged rows or right-hand sides")
    pivots = _sweep(((*row, *b) for row, b in zip(rows, rhs)), ncols)
    if len(pivots) < ncols:
        raise SingularSystem("underdetermined system")
    # row i of the solution is pivots[i][ncols:] / pivots[i][i]; a pivot
    # row is primitive and zero in every other pivot column, so no prime
    # divides den and every entry
    den = lcm(*[pivots[i][i] for i in range(ncols)])
    return [[v * (den // pivots[i][i]) for v in pivots[i][ncols:]]
            for i in range(ncols)], den
