"""Product expansions, Weyl exponents, eta products, the eta identity."""

import random
from fractions import Fraction as F

import pytest
from series_oracle import (add, coefficient, euler_product, monomial, mul,
                           scale, sub)

import weilq.verify as verify
from weilq.borcherds import (ProductResult, borcherds_product, eta_product,
                             exponent_table, weyl_vector)
from weilq.discform import divisor_classes
from weilq.fracq import FracSeries
from weilq.verify import _degree_cases, _eta_cases, _series_witness, run_suite
from weilq.vvforms import (DecompositionError, VVExpansion, apply_aut,
                           basis_m_half, random_supported, theta_series)


def one_factor(n, e, prec):
    """q^0 * (1 - q^n)^e through prec, from a level-one single-slot input."""
    f = VVExpansion(1, F(1, 2), 1, {(n * n, n % 2): F(e)}, {}, prec * prec)
    return borcherds_product(f, 0, prec).expansion


class TestExponentTable:
    def test_level_one_all_doubled(self):
        t = exponent_table(theta_series(1, 900), 30)
        assert t == {n: F(2) for n in range(1, 31)}

    def test_level_pattern(self):
        # slot (n^2, n) counts m = +-n with m = n mod 2N: 1 + [N | n]
        t = exponent_table(theta_series(6, 400), 20)
        for n in range(1, 21):
            assert t[n] == 1 + (n % 6 == 0)

    def test_twisted_pattern(self):
        tw = apply_aut(theta_series(6, 400), 2)
        t = exponent_table(tw, 20)
        for n in range(1, 21):
            assert t[n] == (n % 2 == 0) + (n % 3 == 0)

    def test_additive(self):
        a = theta_series(6, 400)
        b = apply_aut(a, 2)
        ta, tb = exponent_table(a, 20), exponent_table(b, 20)
        tsum = exponent_table(a + b, 20)
        assert tsum == {n: ta[n] + tb[n] for n in range(1, 21)}

    def test_truncation_precondition(self):
        with pytest.raises(ValueError, match="insufficient"):
            exponent_table(theta_series(1, 99), 10)
        with pytest.raises(ValueError):
            exponent_table(theta_series(1, 100), -1)
        assert exponent_table(theta_series(1, 0), 0) == {}


class TestWeylVector:
    def test_theta(self):
        for N in (1, 2, 6, 12):
            assert weyl_vector(theta_series(N, 4 * N)) == F(1 + N, 24)

    def test_twisted_theta(self):
        tw = apply_aut(theta_series(6, 24), 2)
        assert weyl_vector(tw) == F(2 + 3, 24)

    def test_linear(self):
        basis = basis_m_half(6, 24)
        f = basis[0].scaled(3) + basis[1].scaled(F(-1, 2))
        assert weyl_vector(f) == 3 * F(7, 24) + F(-1, 2) * F(5, 24)

    def test_rejects_nonholomorphic(self):
        f = random_supported(2, F(1, 2), 1, seed=2, trunc=8)
        assert f.nonholo
        with pytest.raises(ValueError, match="external input"):
            weyl_vector(f)

    def test_degree_suite_fails_every_class(self, monkeypatch):
        # a failed solve is one failure per divisor class, so the case
        # count of the suite does not move
        def fail(targets, basis):
            raise DecompositionError("forced")

        for N in (1, 6, 12, 36):
            count = len(list(_degree_cases(N)))
            monkeypatch.setattr(verify, "decompose", fail)
            cases = list(_degree_cases(N))
            monkeypatch.undo()
            assert len(cases) == count
            assert [c for c in cases if c is not None] == [
                {"N": N, "d": d, "check": "weyl", "error": "forced"}
                for d in divisor_classes(N)]


class TestBorcherdsProduct:
    def test_level_one_is_squared_euler(self):
        # oracle: (q^(1/24) prod (1 - q^n))^2 multiplied out directly
        prec = 60
        prod = euler_product({n: 1 for n in range(1, prec + 1)}, prec)
        oracle = mul(mul(monomial(F(1, 12), 1, F(1, 12) + prec), prod), prod)
        res = borcherds_product(theta_series(1, prec * prec), F(1, 12), prec)
        bound = min(res.expansion.trunc, oracle.trunc)
        assert res.expansion.truncate(bound) == oracle.truncate(bound)
        head = [coefficient(res.expansion, F(1, 12) + j) for j in range(7)]
        assert head == [1, -2, -1, 2, 1, 2, -2]

    def test_weight_is_constant_slot(self):
        res = borcherds_product(theta_series(6, 2500), F(7, 24), 50)
        assert res.weight == 1
        res.validate()

    def test_computes_weyl_when_omitted(self):
        res = borcherds_product(theta_series(2, 2500), prec=50)
        assert res.weyl == F(3, 24)

    def test_multiplicative_in_f(self):
        prec = 40
        a = theta_series(6, prec * prec)
        b = apply_aut(a, 2)
        ra = borcherds_product(a, F(7, 24), prec)
        rb = borcherds_product(b, F(5, 24), prec)
        rsum = borcherds_product(a + b, F(12, 24), prec)
        prod = mul(ra.expansion, rb.expansion)
        bound = min(prod.trunc, rsum.expansion.trunc)
        assert rsum.expansion.truncate(bound) == prod.truncate(bound)

    def test_explicit_weyl_for_harmonic_input(self):
        f = random_supported(1, F(1, 2), 1, seed=9, trunc=110)
        res = borcherds_product(f, weyl=F(0), prec=10)
        assert res.weyl == 0

    def test_rejects_precision_below_one(self):
        with pytest.raises(ValueError, match="prec must be at least 1"):
            borcherds_product(theta_series(1, 16), prec=0)

    def test_validate_rejects_wrong_weyl(self):
        res = borcherds_product(theta_series(1, 2500), F(1, 12), 50)
        bad = ProductResult(res.weight, F(1, 24), res.expansion, res.exponents)
        with pytest.raises(ValueError, match="leading exponent"):
            bad.validate()

    def test_json(self):
        res = borcherds_product(theta_series(1, 400), F(1, 12), 20)
        data = res.to_json()
        assert data["weight"] == "1"
        assert data["weyl"] == "1/12"
        assert data["exponents"][0] == [1, "2"]
        exp = data["expansion"]
        assert exp == res.expansion.to_json()
        assert exp["trunc"] == "241/12" and exp["denom"] == 12
        assert [(F(e, 12), F(c)) for e, c in exp["terms"]] == res.expansion.items()


class TestEulerTransform:
    """Single factors and rational exponents, each against another route."""

    def test_integer_power_terminates(self):
        # (1 - q^2)^3 = 1 - 3q^2 + 3q^4 - q^6
        assert one_factor(2, 3, 100).terms == {0: 1, 2: -3, 4: 3, 6: -1}

    def test_zero_power(self):
        assert one_factor(5, 0, 100) == FracSeries(1, {0: F(1)}, 100)

    def test_matches_repeated_multiplication(self):
        base = FracSeries(1, {0: F(1), 3: F(-1)}, 40)
        direct = FracSeries(1, {0: F(1)}, 40)
        for _ in range(5):
            direct = mul(direct, base)
        assert one_factor(3, 5, 40) == direct.truncate(40)

    def test_negative_power_is_inverse(self):
        # (1 - q^2)^-4 times (1 - q^2)^4 multiplied out factor by factor
        prod = one_factor(2, -4, 30)
        for _ in range(4):
            prod = mul(prod, FracSeries(1, {0: F(1), 2: F(-1)}, 30))
        assert prod.truncate(30) == FracSeries(1, {0: F(1)}, 30)

    def test_rational_power_squares_back(self):
        # exponents 0, 1/2 and 1 on the left, integers on the right
        prec = 40
        f = apply_aut(theta_series(6, prec * prec), 2).scaled(F(1, 2))
        half = borcherds_product(f, F(5, 48), prec)
        assert F(1, 2) in half.exponents.values()
        whole = borcherds_product(f.scaled(2), F(5, 24), prec)
        square = mul(half.expansion, half.expansion)
        assert square.truncate(whole.expansion.trunc) == whole.expansion

    def test_exp_log_oracle(self):
        # independent check: (1-q)^e == exp(e * log(1-q)) as formal series
        e = F(5, 3)
        prec = 20
        log_term = FracSeries(1, {k: F(-1, k) for k in range(1, prec)}, prec)
        scaled = scale(log_term, e)
        expo = FracSeries(1, {0: F(1)}, prec)
        power = FracSeries(1, {0: F(1)}, prec)
        fact = 1
        for j in range(1, prec):
            power = mul(power, scaled)
            fact *= j
            expo = add(expo, scale(power, F(1, fact)))
        assert one_factor(1, e, prec) == expo.truncate(prec)


class TestProductWindow:
    def test_unread_slots_do_not_matter(self):
        # garbage in every slot the window does not read: off the diagonal
        # (n^2, n), in the negative-index table, and on the diagonal at n >=
        # prec, where a fractional exponent also switches off the int path
        rng = random.Random(5)
        for N, prec in ((1, 12), (6, 15), (10, F(15, 2))):
            trunc = 20 * 20
            base = apply_aut(theta_series(N, trunc), N)
            weyl = F(1 + N, 24)
            noisy = {}
            for gamma in range(2 * N):
                for n in range(-trunc, trunc + 1):
                    if (n - gamma * gamma) % (4 * N) == 0:
                        noisy[(n, gamma)] = F(2 * rng.randint(-5, 5) + 1,
                                              rng.choice((2, 4, 6)))
            for n in range(1, 20):
                if n < prec:
                    noisy.pop((n * n, n % (2 * N)))
                    if base.get(n * n, n):
                        noisy[(n * n, n % (2 * N))] = base.get(n * n, n)
            nonholo = {k: c for k, c in noisy.items() if k[0] < 0}
            garbage = VVExpansion(N, base.weight, 1, noisy, nonholo, trunc)
            want = borcherds_product(base, weyl, prec)
            got = borcherds_product(garbage, weyl, prec)
            assert got.expansion == want.expansion
            assert got.expansion.trunc == weyl + prec

    def test_factor_at_prec_is_not_read(self):
        # (1 - q^P) starts at q^P, past the window, so trunc (P - 1)^2 will do
        for N, P in ((1, 1), (1, 2), (6, 12), (10, 30)):
            weyl = F(1 + N, 24)
            res = borcherds_product(theta_series(N, (P - 1) ** 2), weyl, P)
            assert sorted(res.exponents) == list(range(1, P))
            bound = weyl + P
            assert res.expansion == eta_product(N, 1, bound).truncate(bound)
        with pytest.raises(ValueError, match="insufficient"):
            borcherds_product(theta_series(6, 11 ** 2 - 1), F(7, 24), 12)
        res = borcherds_product(theta_series(6, 49), F(7, 24), F(15, 2))
        assert sorted(res.exponents) == list(range(1, 8))

    def test_half_integral_precision(self):
        # prec 15/2 still needs the factor at n = 7 and the term q^7
        assert one_factor(7, 1, F(15, 2)) == FracSeries(1, {0: 1, 7: -1},
                                                         F(15, 2))
        bound = F(7, 24) + F(15, 2)
        res = borcherds_product(theta_series(6, 64), F(7, 24), F(15, 2))
        assert res.expansion.trunc == bound
        assert res.expansion == eta_product(6, 1, bound).truncate(bound)
        assert coefficient(res.expansion, F(7, 24) + 7)


class TestEtaProduct:
    def test_squared_eta(self):
        from weilq.fracq import eta_series

        assert eta_product(1, 1, 30) == mul(eta_series(1, 30), eta_series(1, 30)
                                            ).truncate(F(30) + F(1, 24))

    def test_symmetric(self):
        assert eta_product(6, 2, 25) == eta_product(6, 3, 25)

    def test_leading_exponent(self):
        assert eta_product(12, 3, 10).leading_exponent == F(3 + 4, 24)

    def test_rejects_nondivisor(self):
        with pytest.raises(ValueError):
            eta_product(6, 4, 10)
        for d in (0, -2):
            with pytest.raises(ValueError, match="positive"):
                eta_product(6, d, 10)


class TestEtaIdentity:
    """Criterion 1 at single levels, through the eta suite's cases."""

    def test_level_one(self):
        assert list(_eta_cases(1, 40)) == [None]

    def test_level_six(self):
        # exact divisors 1, 2, 3, 6
        assert list(_eta_cases(6, 40)) == [None] * 4

    def test_report_json(self):
        res = run_suite("eta", n_max=6, prec=30)[0]
        assert res.to_json() == {"suite": "eta", "cases": 13, "ok": True,
                                 "failure_count": 0, "failures": []}

    def test_witness_on_mismatch(self):
        # the wrong eta target starts at q^(5/24), where the product is 0
        res = borcherds_product(theta_series(6, 900), F(7, 24), 30)
        wrong = eta_product(6, 2, F(7, 24) + 30)
        assert _series_witness(res.expansion, wrong) == {
            "exponent": "5/24", "expected": "1", "got": "0"}
        assert _series_witness(res.expansion,
                               eta_product(6, 1, F(7, 24) + 30)) is None


class TestSeriesWitness:
    """The window of _series_witness against the difference series."""

    @staticmethod
    def by_difference(got, expected):
        # the witness as read off got - expected, built in every case
        diff = sub(got, expected)
        if not diff.terms:
            return None
        e = diff.leading_exponent
        return {"exponent": str(e), "expected": str(coefficient(expected, e)),
                "got": str(coefficient(got, e))}

    def test_difference_beyond_the_window_is_none(self):
        a = FracSeries(24, {1: F(1), 25: F(-1), 49: F(2)}, F(2))
        # equal below 2; the wider side differs at 2 and past it
        b = FracSeries(24, {1: F(1), 25: F(-1), 48: F(7), 49: F(3)}, F(3))
        assert _series_witness(a, b) is None
        assert _series_witness(b, a) is None
        assert self.by_difference(a, b) is None

    def test_difference_at_the_window_edge_is_none(self):
        a = FracSeries(12, {1: F(1)}, F(1, 2))
        b = FracSeries(12, {1: F(1), 6: F(5)}, F(1))
        assert _series_witness(a, b) is None

    def test_difference_inside_the_window(self):
        a = FracSeries(24, {1: F(1), 25: F(-1), 49: F(2)}, F(5))
        b = FracSeries(24, {1: F(1), 25: F(-1, 3), 49: F(9)}, F(3))
        want = {"exponent": "25/24", "expected": "-1/3", "got": "-1"}
        assert _series_witness(a, b) == want == self.by_difference(a, b)
        c = FracSeries(24, {1: F(1), 25: F(-1), 37: F(4)}, F(3))
        assert _series_witness(a, c) == self.by_difference(a, c) == {
            "exponent": "37/24", "expected": "4", "got": "0"}

    def test_lattices_12_and_24(self):
        # same q-series, one on (1/12)Z and one on (1/24)Z by a term past T
        a = FracSeries(12, {1: F(1), 13: F(-2)}, F(2))
        b = FracSeries(24, {2: F(1), 26: F(-2), 49: F(5)}, F(3))
        assert (a.denom, b.denom) == (12, 24)
        assert _series_witness(a, b) is None
        assert _series_witness(b, a) is None
        c = FracSeries(24, {2: F(1), 26: F(-2), 27: F(5)}, F(3))
        assert _series_witness(a, c) == self.by_difference(a, c) == {
            "exponent": "9/8", "expected": "5", "got": "0"}

    def test_difference_stored_on_one_side_of_the_finer_lattice(self):
        # got stores q^(5/24), off (1/12)Z; expected, on (1/12)Z, stores
        # nothing there, and the two also differ later at q^(13/12)
        got = FracSeries(24, {2: F(1), 5: F(-3, 2), 26: F(-2)}, F(2))
        expected = FracSeries(12, {1: F(1), 13: F(-1)}, F(3))
        assert (got.denom, expected.denom) == (24, 12)
        assert _series_witness(got, expected) == self.by_difference(
            got, expected) == {"exponent": "5/24", "expected": "0", "got": "-3/2"}
        assert _series_witness(expected, got) == self.by_difference(
            expected, got) == {"exponent": "5/24", "expected": "-3/2", "got": "0"}

    def test_suite_witnesses_unchanged(self):
        # c = d passes and c != d fails, as in the eta suite's cases
        outcomes = []
        for N in (6, 10):
            for c in (1, 2):
                weyl = F(c + N // c, 24)
                res = borcherds_product(apply_aut(theta_series(N, 400), c),
                                        weyl, 21)
                for d in (1, 2):
                    other = eta_product(N, d, weyl + 21)
                    wit = _series_witness(res.expansion, other)
                    assert wit == self.by_difference(res.expansion, other)
                    outcomes.append(wit is None)
        assert outcomes == [True, False, False, True] * 2
