"""Exact solver: the sparse-tail elimination against dense Gauss-Jordan."""

import random
from fractions import Fraction as F

import pytest

from weilq._linalg import InconsistentSystem, SingularSystem, solve_exact


def dense_solve(rows, rhs):
    """Slow reference: Gauss-Jordan over every entry of every row."""
    m = len(rows)
    if m == 0:
        raise SingularSystem("empty system")
    ncols = len(rows[0])
    aug = [[F(v) for v in row] + [F(b)] for row, b in zip(rows, rhs)]
    where = []
    prow = 0
    for col in range(ncols):
        pivot = next((r for r in range(prow, m) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[prow], aug[pivot] = aug[pivot], aug[prow]
        inv = 1 / aug[prow][col]
        aug[prow] = [v * inv for v in aug[prow]]
        for r in range(m):
            if r != prow and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[prow])]
        where.append(col)
        prow += 1
        if prow == m:
            break
    if any(aug[r][ncols] for r in range(prow, m)):
        raise InconsistentSystem(-1)
    if len(where) < ncols:
        raise SingularSystem("underdetermined system")
    sol = [F(0)] * ncols
    for r, col in enumerate(where):
        sol[col] = aug[r][ncols]
    return sol


def outcome(solver, rows, rhs):
    try:
        return solver(rows, rhs)
    except (InconsistentSystem, SingularSystem) as exc:
        return type(exc)


def entry(rng, density):
    """A small rational, zero with probability 1 - density."""
    if rng.random() >= density:
        return F(0)
    return F(rng.randint(-9, 9), rng.randint(1, 5))


def combine(rng, rows):
    """A random rational combination of the given rows."""
    out = [F(0)] * len(rows[0])
    for row in rows:
        w = F(rng.randint(-4, 4), rng.randint(1, 3))
        out = [a + w * b for a, b in zip(out, row)]
    return out


def seeded_system(kind, seed):
    """(rows, rhs) of one seeded system of the named kind."""
    rng = random.Random(seed)
    ncols = rng.randint(1, 7)
    density = rng.choice((0.3, 0.6, 1.0))
    x = [entry(rng, 1.0) for _ in range(ncols)]
    if kind == "square":
        rows = [[entry(rng, density) for _ in range(ncols)] for _ in range(ncols)]
    elif kind in ("overdetermined", "inconsistent"):
        rows = [[entry(rng, density) for _ in range(ncols)]
                for _ in range(ncols + rng.randint(1, 12))]
        # repeat some rows' combinations so that eliminations cancel exactly
        rows += [combine(rng, rng.sample(rows, 2)) for _ in range(3)]
        rows += [[F(0)] * ncols for _ in range(2)]
        rng.shuffle(rows)
    else:  # rank-deficient: every row lies in a span of fewer columns
        rank = rng.randint(0, ncols - 1) if ncols > 1 else 0
        gens = [[entry(rng, density) for _ in range(ncols)] for _ in range(rank)]
        rows = [combine(rng, gens) if gens else [F(0)] * ncols
                for _ in range(ncols + rng.randint(0, 6))]
    rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in rows]
    if kind == "inconsistent":
        # a copy of some equation with another right-hand side
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows) + 1)
        rows.insert(j, list(rows[i]))
        rhs.insert(j, rhs[i] + F(rng.randint(1, 9), rng.randint(1, 4)))
    return rows, rhs


KINDS = ("square", "overdetermined", "inconsistent", "rank-deficient")


class TestAgainstDenseReference:
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_solution_or_exception(self, kind):
        seen = set()
        for seed in range(150):
            rows, rhs = seeded_system(kind, 1000 * KINDS.index(kind) + seed)
            want = outcome(dense_solve, rows, rhs)
            got = outcome(solve_exact, rows, rhs)
            assert got == want, (kind, seed)
            seen.add(want if isinstance(want, type) else "solved")
        # each kind reaches the outcome it is built for
        expected = {"square": "solved", "overdetermined": "solved",
                    "inconsistent": InconsistentSystem,
                    "rank-deficient": SingularSystem}[kind]
        assert expected in seen

    def test_overdetermined_recovers_planted_solution(self):
        for seed in range(60):
            rng = random.Random(seed)
            x = [entry(rng, 1.0) for _ in range(5)]
            rows = [[entry(rng, 0.5) for _ in range(5)] for _ in range(40)]
            rows += [[F(int(i == j)) for j in range(5)] for i in range(5)]
            rng.shuffle(rows)
            rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in rows]
            assert solve_exact(rows, rhs) == x

    def test_does_not_modify_its_input(self):
        rows, rhs = seeded_system("overdetermined", 5)
        before = ([list(r) for r in rows], list(rhs))
        solve_exact(rows, rhs)
        assert (rows, rhs) == before

    def test_integer_input(self):
        assert solve_exact([[2, 1], [1, -1]], [3, 0]) == [F(1), F(1)]
        assert all(type(v) is F for v in solve_exact([[1, 0], [0, 1]], [0, 2]))


class TestFailureReport:
    def test_first_inconsistent_row(self):
        # rows 0-3 agree on x = (1, 2); row 4 contradicts them, row 5 too
        rows = [[0, 1], [1, 0], [1, 1], [0, 0], [2, 0], [0, 3]]
        rhs = [2, 1, 3, 0, 5, 7]
        with pytest.raises(InconsistentSystem) as info:
            solve_exact(rows, rhs)
        assert info.value.row == 4
        assert "first bad row 4" in str(info.value)

    def test_row_is_first_contradicting_prefix(self):
        for seed in range(80):
            rows, rhs = seeded_system("inconsistent", 5000 + seed)
            with pytest.raises(InconsistentSystem) as info:
                solve_exact(rows, rhs)
            r = info.value.row
            assert outcome(dense_solve, rows[:r + 1], rhs[:r + 1]) is InconsistentSystem
            assert outcome(dense_solve, rows[:r], rhs[:r]) is not InconsistentSystem

    def test_zero_equation_with_nonzero_side(self):
        with pytest.raises(InconsistentSystem) as info:
            solve_exact([[1], [0]], [1, 1])
        assert info.value.row == 1

    def test_singular_and_empty(self):
        with pytest.raises(SingularSystem):
            solve_exact([[1, 1], [2, 2]], [1, 2])
        with pytest.raises(SingularSystem, match="empty"):
            solve_exact([], [])
        with pytest.raises(ValueError, match="sizes differ"):
            solve_exact([[1]], [1, 2])
