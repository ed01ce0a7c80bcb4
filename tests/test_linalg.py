"""Exact solver for one or many right-hand sides against dense Fraction Gauss-Jordan."""

import random
from fractions import Fraction as F
from math import comb, gcd, lcm

import pytest

import weilq._linalg as linalg_module
from weilq._linalg import (InconsistentSystem, SingularSystem, _clear, _sweep,
                           solve_exact)


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


def first_bad_row(rows, rhs):
    """Prefix reference: the first r such that rows[:r + 1] have no solution."""
    return next(r for r in range(len(rows)) if outcome(
        dense_solve, rows[:r + 1], rhs[:r + 1]) is InconsistentSystem)


def reference(rows, rhs):
    """dense_solve's outcome, with the first bad row of an inconsistent system."""
    want = outcome(dense_solve, rows, rhs)
    if want is InconsistentSystem:
        return InconsistentSystem, first_bad_row(rows, rhs)
    return want


def column(rhs):
    """A vector of right-hand sides as the one column of a solve."""
    return [[b] for b in rhs]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def solutions(rows, rhs):
    """solve_exact(rows, rhs) as one list of Fractions per right-hand side.

    Also checks the form of the result, integers over a positive
    denominator with no factor common to all, and that the inputs come
    back unchanged.
    """
    before = ([list(r) for r in rows], [list(b) for b in rhs])
    types = [[type(v) for v in r] for r in rows + rhs]
    try:
        x, den = solve_exact(rows, rhs)
    finally:
        assert (rows, rhs) == before
        assert [[type(v) for v in r] for r in rows + rhs] == types
    k = len(rhs[0])
    assert type(den) is int and den > 0
    assert len(x) == len(rows[0]) and all(len(r) == k for r in x)
    assert all(type(v) is int for r in x for v in r)
    assert gcd(den, *[v for r in x for v in r]) == 1
    return [[F(r[j], den) for r in x] for j in range(k)]


def reference_columns(rows, columns):
    """reference() of several columns solved at once.

    The sweep stops at the first row that contradicts the rows before it
    for some column, so an inconsistent solve names the least first bad row
    over the columns; otherwise all columns share the matrix's rank.
    """
    wants = [reference(rows, c) for c in columns]
    bad = [w[1] for w in wants if type(w) is tuple]
    if bad:
        return InconsistentSystem, min(bad)
    return SingularSystem if SingularSystem in wants else wants


def checked_columns(rows, columns):
    """The outcome of solving for every column at once, as reference_columns()."""
    try:
        return solutions(rows, [list(r) for r in zip(*columns)])
    except InconsistentSystem as exc:
        return InconsistentSystem, exc.row
    except SingularSystem:
        return SingularSystem


def checked(rows, rhs):
    """The outcome of solving for the one column rhs, in the form of reference()."""
    got = checked_columns(rows, [rhs])
    return got[0] if type(got) is list else got


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


def plant_repeats(rng, rows, rhs, count):
    """Insert copies (s*r, s*b) of random equations, s in {1, 2, -1, 1/3}."""
    rows, rhs = [list(r) for r in rows], list(rhs)
    for _ in range(count):
        i = rng.randrange(len(rows))
        s = rng.choice((1, 2, -1, F(1, 3)))
        j = rng.randrange(len(rows) + 1)
        rows.insert(j, [s * v for v in rows[i]])
        rhs.insert(j, s * rhs[i])
    return rows, rhs


class TestAgainstDenseReference:
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_solution_or_exception(self, kind):
        seen = set()
        for seed in range(150):
            rows, rhs = seeded_system(kind, 1000 * KINDS.index(kind) + seed)
            want = reference(rows, rhs)
            assert checked(rows, rhs) == want, (kind, seed)
            seen.add(want if want is SingularSystem
                     else want[0] if type(want) is tuple else "solved")
        # each kind reaches the outcome it is built for
        expected = {"square": "solved", "overdetermined": "solved",
                    "inconsistent": InconsistentSystem,
                    "rank-deficient": SingularSystem}[kind]
        assert expected in seen

    @pytest.mark.parametrize("kind", KINDS)
    def test_planted_repeats(self, kind):
        # exact and proportional copies leave every outcome, and the first
        # bad row of every prefix, as the reference finds them
        for seed in range(60):
            rng = random.Random(7000 + seed)
            rows, rhs = seeded_system(kind, 1000 * KINDS.index(kind) + seed)
            rows, rhs = plant_repeats(rng, rows, rhs, rng.randint(1, 8))
            assert checked(rows, rhs) == reference(rows, rhs), (kind, seed)

    def test_repeats_around_a_contradicting_row(self):
        # a contradiction of equation i at position j, with copies of both
        # equations (exact, doubled, negated) planted before and after it
        placed = set()
        for seed in range(100):
            rng = random.Random(seed)
            rows, rhs = seeded_system("overdetermined", 9000 + seed)
            i = rng.randrange(len(rows))
            good = (list(rows[i]), rhs[i])
            bad = (list(rows[i]), rhs[i] + rng.randint(1, 5))
            j = rng.randrange(i + 1, len(rows) + 1)
            rows.insert(j, bad[0])
            rhs.insert(j, bad[1])
            for s in (1, 2, -1):
                for r, b in (good, bad):
                    k = rng.randrange(len(rows) + 1)
                    placed.add(k <= j)
                    j += k <= j  # the contradicting row's position
                    rows.insert(k, [s * v for v in r])
                    rhs.insert(k, s * b)
            want = reference(rows, rhs)
            assert want[0] is InconsistentSystem
            assert checked(rows, rhs) == want, seed
        assert placed == {True, False}

    def test_hilbert_matrix(self):
        # entries 1/(i+j+1): the scaled rows and their updates grow large
        n = 8
        rows = [[F(1, i + j + 1) for j in range(n)] for i in range(n)]
        x = [F(j - 3, j + 1) for j in range(n)]
        rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in rows]
        assert checked(rows, rhs) == dense_solve(rows, rhs) == x
        rows.append([F(1, j + 1) for j in range(n)])
        rhs.append(rhs[0] + F(1, 10 ** 9))
        assert checked(rows, rhs) == (InconsistentSystem, n)

    def test_eliminated_rows_stay_primitive(self):
        # every reduction step divides by the content, which keeps the
        # integers of the scaled Hilbert system small: forward elimination
        # through _clear leaves each row primitive after each step
        n = 8
        eqs = [[lcm(*range(i + 1, i + n + 1)) // (i + j + 1) for j in range(n)] + [1]
               for i in range(n + 3)]
        pivots = []
        for eq in eqs:
            for col, pivot in enumerate(pivots):
                eq = _clear(eq, col, pivot)
                assert eq[col] == 0 and gcd(*eq) == 1
            if len(pivots) < n:
                assert eq[len(pivots)]
                pivots.append(eq)
        assert eq[:n] == [0] * n and eq[n]

    def test_large_denominators(self):
        for seed in range(40):
            rng = random.Random(seed)
            ncols = rng.randint(1, 6)
            rows = [[F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                     for _ in range(ncols)] for _ in range(ncols + rng.randint(1, 4))]
            rows += [combine(rng, rng.sample(rows, 2)) for _ in range(2)]
            x = [F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                 for _ in range(ncols)]
            rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in rows]
            assert checked(rows, rhs) == dense_solve(rows, rhs) == x, seed

    def test_mixed_int_and_fraction_input(self):
        for seed in range(60):
            rng = random.Random(seed)
            rows, rhs = seeded_system(KINDS[seed % 4], 3000 + seed)
            mix = lambda v: int(v) if v.denominator == 1 and rng.random() < 0.5 else v
            rows = [[mix(v) for v in row] for row in rows]
            rhs = [mix(v) for v in rhs]
            assert checked(rows, rhs) == reference(rows, rhs), seed

    def test_all_zero_rows(self):
        assert checked([[0, 0], [1, 0], [0, 0], [0, 1]], [0, 1, 0, 2]) == [1, 2]
        assert checked([[0, 0], [1, 0], [F(0), 0], [0, 1]],
                       [0, 1, F(3, 2), 2]) == (InconsistentSystem, 2)
        assert checked([[0, 0], [0, 0]], [0, 0]) is SingularSystem
        assert checked([[0, 0], [0, 0]], [0, -1]) == (InconsistentSystem, 1)

    def test_overdetermined_recovers_planted_solution(self):
        for seed in range(60):
            rng = random.Random(seed)
            x = [entry(rng, 1.0) for _ in range(5)]
            rows = [[entry(rng, 0.5) for _ in range(5)] for _ in range(40)]
            rows += [[F(int(i == j)) for j in range(5)] for i in range(5)]
            rng.shuffle(rows)
            rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in rows]
            assert solutions(rows, column(rhs)) == [x]

    def test_does_not_modify_its_input(self):
        for kind in KINDS:
            rows, rhs = seeded_system(kind, 5)
            checked(rows, rhs)
            checked([[int(v) for v in row] for row in rows], [int(v) for v in rhs])

    def test_integer_input(self):
        assert solve_exact([[2, 1], [1, -1]], [[3], [0]]) == ([[1], [1]], 1)
        assert solve_exact([[2, 0], [0, 4]], [[1, 0], [2, 6]]) == ([[1, 0], [1, 3]], 2)

    @pytest.mark.parametrize("kind", KINDS)
    def test_several_columns_at_once(self, kind):
        # k columns in one sweep against the reference, column by column;
        # a column made inconsistent at some row names the least bad row
        seen = set()
        for seed in range(100):
            rng = random.Random(8000 + seed)
            rows, rhs = seeded_system(kind, 1000 * KINDS.index(kind) + seed)
            columns = [rhs]
            for _ in range(rng.randint(1, 4)):
                x = [entry(rng, 0.7) for _ in rows[0]]
                columns.append([sum((a * b for a, b in zip(row, x)), F(0))
                                for row in rows])
            if rng.random() < 0.3:
                c = rng.choice(columns)
                c[rng.randrange(len(c))] += 1
            rng.shuffle(columns)
            want = reference_columns(rows, columns)
            assert checked_columns(rows, columns) == want, (kind, seed)
            seen.add(want if want is SingularSystem
                     else want[0] if type(want) is tuple else "solved")
        every = {"solved", SingularSystem, InconsistentSystem}
        assert seen == {"square": every, "overdetermined": every,
                        "inconsistent": {InconsistentSystem},
                        "rank-deficient": every - {"solved"}}[kind]


class TestFailureReport:
    def test_first_inconsistent_row(self):
        # rows 0-3 agree on x = (1, 2); row 4 contradicts them, row 5 too
        rows = [[0, 1], [1, 0], [1, 1], [0, 0], [2, 0], [0, 3]]
        rhs = [2, 1, 3, 0, 5, 7]
        with pytest.raises(InconsistentSystem) as info:
            solve_exact(rows, column(rhs))
        assert info.value.row == 4
        assert "first bad row 4" in str(info.value)

    def test_row_is_first_contradicting_prefix(self):
        for seed in range(80):
            rows, rhs = seeded_system("inconsistent", 5000 + seed)
            with pytest.raises(InconsistentSystem) as info:
                solve_exact(rows, column(rhs))
            r = info.value.row
            assert outcome(dense_solve, rows[:r + 1], rhs[:r + 1]) is InconsistentSystem
            assert outcome(dense_solve, rows[:r], rhs[:r]) is not InconsistentSystem

    def test_zero_equation_with_nonzero_side(self):
        with pytest.raises(InconsistentSystem) as info:
            solve_exact([[1], [0]], [[1], [1]])
        assert info.value.row == 1

    def test_singular_and_empty(self):
        with pytest.raises(SingularSystem):
            solve_exact([[1, 1], [2, 2]], [[1], [2]])
        with pytest.raises(SingularSystem, match="empty"):
            solve_exact([], [])
        with pytest.raises(ValueError, match="sizes differ"):
            solve_exact([[1]], [[1], [2]])


class TestRepeats:
    """An equation whose (numerator, denominator) pairs repeat is skipped."""

    @staticmethod
    def sweep_counting_clears(monkeypatch, eqs, ncols):
        """_sweep(eqs, ncols) and the number of eliminations it made."""
        calls = []

        def counting(row, col, pivot):
            calls.append(col)
            return _clear(row, col, pivot)

        monkeypatch.setattr(linalg_module, "_clear", counting)
        return _sweep(eqs, ncols), len(calls)

    def test_int_and_fraction_rows_are_one_repeat(self, monkeypatch):
        pivots, clears = self.sweep_counting_clears(
            monkeypatch, [(1, 2, 3), (F(1), F(2), F(3))], 2)
        assert pivots == {0: [1, 2, 3]} and clears == 0

    def test_proportional_rows_reduce_to_zero(self, monkeypatch):
        # not repeats as read, so each is eliminated, to nothing
        pivots, clears = self.sweep_counting_clears(
            monkeypatch, [(1, 2, 3), (2, 4, 6), (F(1, 2), 1, F(3, 2))], 2)
        assert pivots == {0: [1, 2, 3]} and clears == 2

    @pytest.mark.parametrize("doubled_rhs, bad", [(6, 3), (8, 2)])
    def test_doubled_copy_before_a_contradicting_row(self, doubled_rhs, bad):
        # x + 2y = 3 and 3x + 5y = 8, then a doubled copy of the first
        # equation (rhs 6) or of its contradiction x + 2y = 4 (rhs 8)
        rows = [[1, 2], [3, 5], [2, 4], [1, 2]]
        rhs = [3, 8, doubled_rhs, 4]
        want = reference(rows, rhs)
        assert want == (InconsistentSystem, bad)
        assert checked(rows, rhs) == want


def checked_inverse(rows):
    """solve_exact(rows, I), checked against M * inv = inv * M = den * I.

    solutions() checks the form of the result and that the input comes
    back unchanged.
    """
    n = len(rows)
    inv, den = solve_exact(rows, identity(n))
    assert [[F(v, den) for v in r] for r in inv] == [list(c) for c in zip(
        *solutions(rows, identity(n)))]
    for i in range(n):
        for j in range(n):
            want = den if i == j else 0
            assert sum((F(rows[i][k]) * inv[k][j] for k in range(n)), F(0)) == want
            assert sum((inv[i][k] * F(rows[k][j]) for k in range(n)), F(0)) == want
    return inv, den


def is_singular(rows):
    return outcome(dense_solve, rows, [0] * len(rows)) is SingularSystem


def dependent(rows):
    """Whether the given rows are linearly dependent."""
    return outcome(dense_solve, [list(c) for c in zip(*rows)],
                   [0] * len(rows[0])) is SingularSystem


def check_singular(rows):
    """A singular square matrix fails against I and against itself.

    Against I the first row that depends on the rows before it reduces to
    zero beside a nonzero row of I; M X = M is consistent (X = I) but has
    no unique solution.
    """
    with pytest.raises(InconsistentSystem) as info:
        solve_exact(rows, identity(len(rows)))
    r = info.value.row
    assert dependent(rows[:r + 1]) and (r == 0 or not dependent(rows[:r]))
    with pytest.raises(SingularSystem, match="underdetermined"):
        solve_exact(rows, rows)


class TestInverse:
    """solve_exact(M, I): the inverse of M over one common denominator."""

    def test_small_examples(self):
        assert checked_inverse([[2]]) == ([[1]], 2)
        assert checked_inverse([[F(1, 3)]]) == ([[3]], 1)
        assert checked_inverse([[0, 1], [1, 0]]) == ([[0, 1], [1, 0]], 1)
        assert checked_inverse([[2, 1], [1, 1]]) == ([[1, -1], [-1, 2]], 1)
        assert checked_inverse([[-2, 0], [0, 4]]) == ([[-2, 0], [0, 1]], 4)

    def test_hilbert_matrix(self):
        # the inverse of the Hilbert matrix has integer entries, given in
        # closed form by binomials (1-based indices i, j)
        n = 8
        rows = [[F(1, i + j + 1) for j in range(n)] for i in range(n)]
        inv, den = checked_inverse(rows)
        assert den == 1
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert inv[i - 1][j - 1] == ((-1) ** (i + j) * (i + j - 1)
                                             * comb(n + i - 1, n - j)
                                             * comb(n + j - 1, n - i)
                                             * comb(i + j - 2, i - 1) ** 2)

    def test_random_integer_matrices(self):
        solved = singular = 0
        for seed in range(120):
            rng = random.Random(seed)
            n = rng.randint(1, 8)
            density = rng.choice((0.3, 0.6, 1.0))
            rows = [[rng.randint(-9, 9) if rng.random() < density else 0
                     for _ in range(n)] for _ in range(n)]
            if is_singular(rows):
                check_singular(rows)
                singular += 1
            else:
                checked_inverse(rows)
                solved += 1
        assert solved > 60 and singular > 5

    def test_random_fraction_matrices(self):
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(1, 7)
            rows = [[F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                     for _ in range(n)] for _ in range(n)]
            checked_inverse(rows)

    def test_agrees_with_solve_exact(self):
        # the inverse times b against one solve for the column b
        for seed in range(60):
            rng = random.Random(seed)
            rows, _ = seeded_system("square", 4000 + seed)
            if is_singular(rows):
                continue
            inv, den = solve_exact(rows, identity(len(rows)))
            b = [entry(rng, 1.0) for _ in rows]
            x = [sum((v * bj for v, bj in zip(row, b)), F(0)) / den for row in inv]
            assert solutions(rows, column(b)) == [x], seed

    def test_rank_deficient(self):
        for rows in ([[0]], [[1, 2], [2, 4]], [[0, 0], [0, 0]],
                     [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
                     [[F(1, 2), F(1, 3)], [3, 2]]):
            check_singular(rows)
        count = 0
        for seed in range(60):
            rows, _ = seeded_system("rank-deficient", 6000 + seed)
            rows = rows[:len(rows[0])]
            if len(rows) == len(rows[0]):
                check_singular(rows)
                count += 1
        assert count > 30

    def test_shape_errors(self):
        with pytest.raises(SingularSystem, match="empty"):
            solve_exact([], [])
        with pytest.raises(ValueError, match="sizes differ"):
            solve_exact([[1, 2]], identity(2))
        with pytest.raises(ValueError, match="ragged"):
            solve_exact([[1, 0], [0]], identity(2))
        with pytest.raises(ValueError, match="ragged"):
            solve_exact([[1, 0], [0, 1]], [[1, 0], [1]])
