"""The integer q-series kernel, each function against a Fraction-series route."""

import random
from fractions import Fraction as F
from math import ceil

import pytest
from series_oracle import coefficient, euler_product, mul

from weilq.borcherds import eta_product
from weilq.fracq import eta_series
from weilq.jacobi import (_eta_pair, _euler_recurrence, euler_transform,
                          mul_trunc, pentagonal)


def factor_by_factor(table, size):
    """prod (1 - q^n)^table[n] below q^size as a list, from series_oracle."""
    prod = euler_product(table, size)
    return [coefficient(prod, m) for m in range(size)]


class TestEulerTransform:
    @pytest.mark.parametrize("table", [
        {1: 1, 2: 2, 3: 1, 5: 2, 8: 1},            # positive
        {1: -2, 3: -1, 4: -3},                      # negative
        {1: 2, 2: -1, 4: 3, 7: -2, 9: 1},           # mixed signs
        {1: F(1, 2), 2: F(-2, 3), 5: 3},            # rational
        {2: F(5, 3), 3: F(-7, 4), 6: F(1, 2)},      # rational only
    ])
    def test_against_factor_by_factor_product(self, table):
        size = 30
        got = euler_transform({n: F(c) for n, c in table.items()}, size)
        assert got == factor_by_factor(table, size)
        integral = all(F(c).denominator == 1 for c in table.values())
        assert all(type(x) is int for x in got) == integral

    def test_theta_table_stays_integral(self):
        # the exponents of the squared Euler product, eta(z)^2 / q^(1/12)
        size = 50
        got = euler_transform({n: F(2) for n in range(1, size)}, size)
        assert all(type(x) is int for x in got)
        assert got == factor_by_factor({n: 2 for n in range(1, size)}, size)

    def test_factors_past_the_window_are_ignored(self):
        assert euler_transform({3: F(4), 7: F(-5)}, 3) == [1, 0, 0]

    def test_rational_factor_past_the_window_keeps_ints(self):
        # (1 - q^50)^(1/2) cannot reach q^4, so the expansion is (1 - q)
        got = euler_transform({1: F(1), 50: F(1, 2)}, 5)
        assert got == [1, -1, 0, 0, 0]
        assert all(type(x) is int for x in got)

    def test_small_sizes(self):
        assert euler_transform({1: F(1)}, 0) == []
        assert euler_transform({1: F(1)}, 1) == [1]
        assert euler_transform({}, 4) == [1, 0, 0, 0]


class TestEulerTransformLattice:
    """Tables whose entering factors all sit on gZ: a series in q^g."""

    TABLES = [
        {1: 3, 2: 1, 4: 2, 7: 1},                   # integral
        {1: F(1, 2), 2: F(-2, 3), 5: F(7, 4)},      # rational
        {1: -2, 2: 3, 3: -1, 6: 1, 8: -4},          # mixed signs
    ]

    @pytest.mark.parametrize("g", [2, 3, 4, 6])
    @pytest.mark.parametrize("size", [41, 48])
    @pytest.mark.parametrize("base", TABLES)
    def test_against_factor_by_factor_product(self, g, size, base):
        table = {g * m: F(c) for m, c in base.items()}
        table[g + 1] = F(0)            # a zero value off the lattice
        table[g * size + 1] = F(5, 3)  # off the lattice, past the window
        got = euler_transform(table, size)
        assert got == factor_by_factor(table, size)
        assert all(x == 0 for i, x in enumerate(got) if i % g)
        integral = all(F(c).denominator == 1 for c in base.values())
        assert all(type(x) is int for x in got) == integral
        # neither extra entry lowers g: off gZ the entries stay int zeros
        assert all(type(x) is int for i, x in enumerate(got) if i % g)

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 6])
    def test_euler_pentagonal_theorem(self, g):
        size = 100
        got = euler_transform({g * n: F(1) for n in range(1, size)}, size)
        assert got == pentagonal(g, size)
        assert all(type(x) is int for x in got)


class TestMemos:
    """The per-process memos under euler_transform and eta_product."""

    def test_returned_list_is_a_copy(self):
        _euler_recurrence.cache_clear()
        table = {1: F(1), 3: F(-2)}
        got = euler_transform(table, 12)
        want = list(got)
        got[0] = 99
        got.append(7)
        assert euler_transform(table, 12) == want
        assert _euler_recurrence.cache_info().hits == 1

    def test_stride_is_not_part_of_the_key(self):
        # prod (1 - q^2) (1 - q^4)^3 below q^20 is F(q^2) for
        # F = (1 - q) (1 - q^2)^3 below q^10: one recurrence for both
        _euler_recurrence.cache_clear()
        spread = {2: F(1), 4: F(3)}
        assert euler_transform(spread, 20) == factor_by_factor(spread, 20)
        info = _euler_recurrence.cache_info()
        assert (info.hits, info.misses) == (0, 1)
        inner = {1: F(1), 2: F(3)}
        assert euler_transform(inner, 10) == factor_by_factor(inner, 10)
        info = _euler_recurrence.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_denominator_is_part_of_the_key(self):
        # the two tables differ only in the denominator of one exponent
        _euler_recurrence.cache_clear()
        integral, rational = {1: F(2), 3: F(1)}, {1: F(2), 3: F(1, 2)}
        for table in (integral, rational, integral):
            assert euler_transform(table, 20) == factor_by_factor(table, 20)
        info = _euler_recurrence.cache_info()
        assert (info.hits, info.misses) == (1, 2)

    def test_eta_product_of_d_and_its_complement_is_one_pair(self):
        _eta_pair.cache_clear()
        assert eta_product(12, 3, 5) == eta_product(12, 4, 5)
        info = _eta_pair.cache_info()
        assert (info.hits, info.misses) == (1, 1)


class TestPentagonal:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 24])
    def test_against_direct_product(self, d):
        size = 120
        direct = [1] + [0] * (size - 1)
        for n in range(1, size):
            if d * n < size:
                direct = [direct[k] - (direct[k - d * n] if k >= d * n else 0)
                          for k in range(size)]
        assert pentagonal(d, size) == direct

    def test_short_and_empty(self):
        assert pentagonal(1, 0) == []
        assert pentagonal(1, 1) == [1]
        assert pentagonal(1, 3) == [1, -1, -1]
        assert pentagonal(25, 24) == [1] + [0] * 23

    @pytest.mark.parametrize("d", [0, -1])
    def test_rejects_nonpositive_step(self, d):
        # at d = 0 every exponent is 0, so the walk would never end
        with pytest.raises(ValueError, match="positive"):
            pentagonal(d, 5)


class TestMulTrunc:
    def test_against_convolution(self):
        rng = random.Random(3)
        for _ in range(40):
            a = [rng.choice((0, 0, 1, -2, 5)) for _ in range(rng.randint(0, 15))]
            b = [rng.choice((0, 3, -1)) for _ in range(rng.randint(0, 15))]
            size = rng.randint(0, 25)
            full = [0] * (len(a) + len(b))
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    full[i + j] += x * y
            want = (full + [0] * size)[:size]
            assert mul_trunc(a, b, size) == want


class TestEtaProductOracle:
    """eta_product against the product of two pentagonal eta series."""

    GRID = [(1, 1), (2, 1), (6, 2), (6, 3), (12, 4), (25, 5), (30, 6),
            (48, 1), (60, 12), (625, 25), (625, 1), (2500, 50)]
    PRECS = [F(1, 24), F(1, 3), F(1), F(7, 6), F(5, 2), F(10), F(61, 4), F(40)]

    @pytest.mark.parametrize("N,d", GRID)
    def test_equals_eta_series_product(self, N, d):
        e = N // d
        for T in self.PRECS:
            want = mul(eta_series(d, T), eta_series(e, T))
            got = eta_product(N, d, T)
            assert got == want, (N, d, T)
            assert got.trunc == T + min(F(min(d, e), 24), T)

    def test_both_factors_empty(self):
        # eta(25z) and eta(25z) start at q^(25/24), past T = 1
        assert not eta_series(25, 1).terms
        got = eta_product(625, 25, 1)
        assert not got.terms and got.trunc == 2
        assert got == mul(eta_series(25, 1), eta_series(25, 1))

    @pytest.mark.parametrize("prec", [0, -5, F(-1, 3)])
    def test_nonpositive_prec_rejected(self, prec):
        with pytest.raises(ValueError, match="prec must be positive"):
            eta_product(6, 2, prec)

    def test_eta_series_window_is_sound(self):
        # eta_series(d, T) is exact below T: it is the same series known to
        # T + 30, truncated back to T
        for d in sorted({k for N, d in self.GRID for k in (d, N // d)}):
            for T in self.PRECS:
                assert eta_series(d, T) == eta_series(d, T + 30).truncate(T), (d, T)

    def test_window_is_sound(self):
        # every coefficient below the window is the true one: compare with
        # the same product known to a much larger precision
        for N, d in self.GRID:
            for T in self.PRECS:
                got = eta_product(N, d, T)
                wide = eta_product(N, d, ceil(got.trunc) + 30).truncate(got.trunc)
                assert got == wide, (N, d, T)
