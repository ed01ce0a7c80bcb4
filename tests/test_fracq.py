"""Exact q-series results: canonical form, truncation, eta expansions, JSON.

The ring arithmetic the tests multiply series out with lives in
``series_oracle``; its tests stay here, beside the type they act on.
"""

import random
from fractions import Fraction as F
from math import ceil

import pytest
from series_oracle import (add, coefficient, euler_product, monomial, mul,
                           scale, vmin)

from weilq import fracq
from weilq.borcherds import borcherds_product, eta_product
from weilq.fracq import FracSeries, add_into, eta_series, parse_fraction
from weilq.vvforms import VVExpansion, apply_aut, theta_series


def series(denom, terms, trunc):
    return FracSeries(denom, terms, trunc)


class TestCanonicalization:
    def test_lattice_reduction(self):
        a = series(4, {2: F(1), 6: F(5)}, 10)
        assert a.denom == 2
        assert a.terms == {1: F(1), 3: F(5)}

    def test_zero_terms_dropped(self):
        a = series(3, {1: F(0), 2: F(7)}, 10)
        assert a.terms == {2: F(7)}

    def test_beyond_truncation_dropped(self):
        a = series(1, {1: F(1), 5: F(1)}, 5)
        assert a.terms == {1: F(1)}

    def test_boundary_exponent_dropped(self):
        # trunc means exponents >= T are unspecified
        a = series(1, {5: F(1)}, 5)
        assert a.terms == {}

    def test_rescaled_series_compare_equal(self):
        a = series(6, {2: F(1), 4: F(2)}, 7)
        b = series(3, {1: F(1), 2: F(2)}, 7)
        assert a == b

    def test_bad_denominator(self):
        with pytest.raises(ValueError):
            series(0, {}, 5)


class TestConstructorContract:
    """Every stored coefficient is an exact Fraction, whatever came in."""

    class Half(F):
        pass

    @pytest.mark.parametrize("value", [3, -2, True, F(5, 7), Half(1, 2), 2.0])
    def test_coefficient_stored_as_fraction(self, value):
        a = series(1, {0: value, 2: 1}, 5)
        assert type(a.terms[0]) is F
        assert a.terms[0] == value

    def test_all_zero_input_reduces_denominator(self):
        a = series(12, {3: 0, 6: F(0), 9: False}, 5)
        assert a.terms == {} and a.denom == 1

    def test_products_hold_fractions(self):
        # (1 - q^2)^(1/2) (1 - q^4)^-3: a rational table on 2Z
        f = VVExpansion(1, F(1, 2), 1, {(4, 0): F(1, 2), (16, 0): F(-3)}, {}, 100)
        for res in (borcherds_product(theta_series(6, 400), F(7, 24), 20),
                    borcherds_product(f, 0, 10)):
            assert res.expansion.terms
            assert all(type(c) is F for c in res.expansion.terms.values())
        eta = eta_product(6, 2, 20)
        assert eta.terms and all(type(c) is F for c in eta.terms.values())


class TestSharedSmallInts:
    """An int coefficient with 0 < |c| <= SHARED_BOUND is one shared Fraction."""

    def is_shared(self, c):
        return fracq._SHARED.get(c.numerator) is c

    def test_eta_identity_sides_share_objects(self):
        weyl, prec = F(5, 24), 80
        got = borcherds_product(apply_aut(theta_series(6, prec * prec), 2),
                                weyl, prec).expansion
        want = eta_product(6, 2, weyl + prec)
        common = got.terms.keys() & want.terms.keys()
        assert len(common) > 20 and got.denom == want.denom
        assert all(got.terms[e] is want.terms[e] for e in common)
        for c in [*got.terms.values(), *want.terms.values()]:
            assert type(c) is F and c.denominator == 1
            assert self.is_shared(c) == (abs(c) <= fracq.SHARED_BOUND)

    def test_theta_reuses_one_object_per_count(self):
        values = list(theta_series(5, 400).holo.values())
        ones = [c for c in values if c == 1]
        assert len(ones) > 1 and all(c is ones[0] for c in ones)
        assert all(self.is_shared(c) for c in values)

    def test_large_ints_stay_fresh(self):
        terms = {0: 257, 1: 10**40, 2: -257, 3: 256}
        a, b = series(1, terms, 5), series(1, terms, 5)
        for e in (0, 1, 2):
            assert type(a.terms[e]) is F and a.terms[e] == b.terms[e] == terms[e]
            assert a.terms[e] is not b.terms[e]
        assert a.terms[3] is b.terms[3]

    def test_map_holds_only_small_nonzero_ints(self):
        series(1, {e: e - 1000 for e in range(2001)}, 3000)
        for c in (0, 5, -600, 300, True, 2.0, F(3), TestConstructorContract.Half(4)):
            assert fracq.to_fraction(c) == c
        bound = fracq.SHARED_BOUND
        assert len(fracq._SHARED) <= 2 * bound == 512
        assert all(type(c) is int and 0 < abs(c) <= bound for c in fracq._SHARED)
        assert all(type(f) is F and f == c for c, f in fracq._SHARED.items())


class TestInspection:
    """Leading data and items of FracSeries; monomial, vmin, coefficient of
    series_oracle."""

    def test_constructors(self):
        assert FracSeries(1, {}, 5).terms == {}
        one = FracSeries(1, {0: F(1)}, 5)
        assert coefficient(one, 0) == 1
        m = monomial(F(7, 24), F(3), trunc=2)
        assert coefficient(m, F(7, 24)) == 3

    def test_monomial_needs_trunc(self):
        with pytest.raises(TypeError):
            monomial(F(1, 2), 1)

    def test_leading_data(self):
        a = series(2, {3: F(5), 7: F(1)}, 10)
        assert a.leading_exponent == F(3, 2)
        assert a.leading_coefficient == F(5)
        assert vmin(a) == F(3, 2)
        assert vmin(FracSeries(1, {}, 4)) == 4
        assert FracSeries(1, {}, 4).leading_exponent is None

    def test_coefficient_off_lattice_is_zero(self):
        a = series(2, {3: F(5)}, 10)
        assert coefficient(a, F(1, 3)) == 0

    def test_coefficient_beyond_trunc_raises(self):
        a = series(1, {0: F(1)}, 3)
        with pytest.raises(ValueError):
            coefficient(a, 3)

    def test_items_sorted(self):
        a = series(4, {6: F(1), 2: F(2)}, 10)
        assert a.items() == [(F(1, 2), F(2)), (F(3, 2), F(1))]


class TestArithmetic:
    """Sums, scalars and products of series_oracle, the reference route that
    euler_transform, eta_product and the CLI output are checked against;
    truncate and substitute of FracSeries."""

    def test_add_mixed_lattices(self):
        a = monomial(F(1, 2), 1, trunc=10)
        b = monomial(F(1, 3), 2, trunc=10)
        c = add(a, b)
        assert coefficient(c, F(1, 2)) == 1
        assert coefficient(c, F(1, 3)) == 2

    def test_add_cancellation(self):
        a = series(1, {1: F(2)}, 10)
        b = series(1, {1: F(-2), 2: F(1)}, 10)
        assert add(a, b).terms == {2: F(1)}

    def test_scalar_multiple(self):
        a = series(1, {1: F(2), 3: F(-1)}, 10)
        assert scale(a, 3).terms == {1: F(6), 3: F(-3)}
        assert scale(a, F(1, 2)).terms == {1: F(1), 3: F(-1, 2)}
        assert scale(a, 0).terms == {}

    def test_float_scalar_rejected(self):
        a = series(1, {1: F(2)}, 10)
        with pytest.raises(TypeError):
            scale(a, 0.5)

    def test_fractional_truncation_bound(self):
        # trunc 7/3 scales to a non-integer bound 7M/3 on the lattices
        # M = 1 and 2: the exponent just below is kept, the one at its
        # ceiling dropped, both on construction and in a product
        t = F(7, 3)
        for M in (1, 2, 3):
            at = ceil(t * M)
            below = at - 1
            built = series(M, {below: F(1), at: F(1)}, t)
            assert built.items() == [(F(below, M), F(1))]
            dense = series(M, {e: F(1) for e in range(at + 1)}, 10)
            prod = mul(dense, series(1, {0: F(1)}, t))
            assert prod.trunc == t
            assert prod.items()[-1] == (F(below, M), F(1))

    def test_product_truncation_is_sound(self):
        # (q^2 + O(q^5)) * (q^3 + O(q^4)): reliable below min(5+3, 4+2) = 6
        a = series(1, {2: F(1)}, 5)
        b = series(1, {3: F(1)}, 4)
        c = mul(a, b)
        assert c.trunc == 6
        assert coefficient(c, 5) == 1

    def test_zero_factor(self):
        a = series(1, {2: F(1)}, 5)
        z = FracSeries(1, {}, 100)
        assert mul(a, z).terms == {}

    def test_geometric_inverse(self):
        # (1 - q) * (1 + q + q^2 + ...) == 1
        one_minus_q = series(1, {0: F(1), 1: F(-1)}, 50)
        geo = series(1, {i: F(1) for i in range(50)}, 50)
        prod = mul(one_minus_q, geo)
        assert prod == FracSeries(1, {0: F(1)}, 50)

    def test_ring_axioms_random(self):
        rng = random.Random(7)
        for _ in range(25):
            def rand_series():
                denom = rng.choice((1, 2, 3, 4, 6))
                terms = {rng.randint(-4, 30): F(rng.randint(-5, 5))
                         for _ in range(rng.randint(0, 8))}
                return FracSeries(denom, terms, rng.randint(10, 25))
            a, b, c = rand_series(), rand_series(), rand_series()
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            assert add(add(a, b), c) == add(a, add(b, c))
            lhs = mul(a, add(b, c))
            rhs = add(mul(a, b), mul(a, c))
            t = min(lhs.trunc, rhs.trunc)
            assert lhs.truncate(t) == rhs.truncate(t)

    def test_truncate_only_shrinks(self):
        a = series(1, {1: F(1)}, 10)
        assert a.truncate(20).trunc == 10
        assert a.truncate(5).trunc == 5

    def test_substitute(self):
        a = series(2, {1: F(3)}, 5)  # 3 q^(1/2)
        b = a.substitute(3)
        assert b.terms == {3: F(3)} and b.denom == 2
        assert b.trunc == 15
        with pytest.raises(ValueError):
            a.substitute(0)

    def test_substitute_one_is_the_series_itself(self):
        a = series(2, {1: F(3)}, 5)
        assert a.substitute(1) is a


class TestWindowSoundness:
    """Garbage stored beyond a factor's truncation never reaches the
    series_oracle product."""

    @staticmethod
    def with_garbage(s, rng, reach):
        """s plus seeded garbage at every lattice exponent in [trunc, reach).

        The constructor drops such terms, so they are stored directly.
        """
        dirty = FracSeries(s.denom, s.terms, s.trunc)
        for e in range(ceil(s.trunc * s.denom), reach * s.denom):
            dirty.terms[e] = F(rng.randint(1, 99) * rng.choice((1, -1)),
                               rng.choice((1, 2, 3, 7)))
        return dirty

    def test_mul_ignores_terms_beyond_trunc(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(40):
            factors = []
            for _ in range(2):
                denom = rng.choice((1, 2, 3, 4, 6, 24))
                trunc = F(rng.randint(10, 40), rng.choice((1, 2, 3)))
                top = ceil(trunc * denom) - 1
                # one term below trunc fixes vmin; the rest fill at random
                terms = {rng.randint(-4 * denom, top): F(rng.randint(1, 9))}
                terms.update((rng.randint(-4 * denom, top),
                              F(rng.randint(1, 9) * rng.choice((1, -1)),
                                rng.choice((1, 2, 5))))
                             for _ in range(rng.randint(0, 12)))
                factors.append(FracSeries(denom, terms, trunc))
            a, b = factors
            clean = mul(a, b)
            for dirty in (mul(self.with_garbage(a, rng, 90), b),
                          mul(a, self.with_garbage(b, rng, 90)),
                          mul(self.with_garbage(a, rng, 90),
                              self.with_garbage(b, rng, 90))):
                assert dirty == clean, (a, b)
                checked += 1
        assert checked == 120


class TestEtaSeries:
    def test_pentagonal_support(self):
        eta = eta_series(1, 30)
        exps = {e for e, _ in eta.items()}
        expected = set()
        for k in range(-10, 11):
            g = k * (3 * k - 1) // 2
            e = F(1 + 24 * g, 24)
            if e < 30:
                expected.add(e)
        assert exps == expected
        assert all(c in (1, -1) for _, c in eta.items())

    def test_leading_term(self):
        assert eta_series(6, 10).leading_exponent == F(6, 24)

    def test_scaling_is_substitution(self):
        assert eta_series(5, 50) == eta_series(1, 10).substitute(5)

    def test_against_direct_product_oracle(self):
        # eta(z) = q^(1/24) * prod_{n>=1} (1 - q^n), multiplied out directly
        prec = F(30)
        prod = euler_product({n: 1 for n in range(1, 31)}, prec)
        direct = mul(monomial(F(1, 24), 1, prec), prod)
        t = min(direct.trunc, F(30))
        assert eta_series(1, t) == direct.truncate(t)

    def test_bad_argument(self):
        with pytest.raises(ValueError):
            eta_series(0, 10)


class TestSerialization:
    def test_canonical_content(self):
        a = series(24, {1: F(1), 25: F(-2, 3)}, F(99, 24))
        assert a.to_json() == {"denom": 24, "trunc": "33/8",
                               "terms": [[1, "1"], [25, "-2/3"]]}
        # the lattice is reduced: q^(1/2) + 3 q^(3/2) sits on (1/2)Z
        b = series(24, {12: F(1), 36: F(3)}, 2)
        assert b.to_json() == {"denom": 2, "trunc": "2",
                               "terms": [[1, "1"], [3, "3"]]}
        assert series(5, {}, F(1, 3)).to_json() == {"denom": 1, "trunc": "1/3",
                                                     "terms": []}

    def test_json_is_plain_data(self):
        import json

        a = eta_series(2, 5)
        data = a.to_json()
        assert json.loads(json.dumps(data)) == data
        assert [(F(e, data["denom"]), F(c)) for e, c in data["terms"]] == a.items()
        assert F(data["trunc"]) == a.trunc


class TestParseFraction:
    """parse_fraction against Fraction(value) as the reference."""

    @staticmethod
    def outcome(parse, value):
        try:
            x = parse(value)
        except (ValueError, TypeError) as exc:
            return type(exc)
        return type(x), x.numerator, x.denominator

    @staticmethod
    def reference(value):
        try:
            return F(value)
        except (ZeroDivisionError, OverflowError):
            raise ValueError(value) from None

    def check(self, value):
        assert self.outcome(parse_fraction, value) == \
            self.outcome(self.reference, value), repr(value)

    def test_seeded_strings(self):
        rng = random.Random(41)
        for _ in range(3000):
            scale = rng.choice((1, 1, 6, 10 ** 12))
            num = rng.randint(0, 10 ** rng.randint(0, 30)) * scale
            text = "-" * rng.randint(0, 1) + "0" * rng.randint(0, 2) + str(num)
            if rng.random() < 0.8:
                text += f"/{rng.randint(0, 10 ** rng.randint(0, 12)) * scale}"
            self.check(text)

    @pytest.mark.parametrize("text", [
        "-0/5", "007", " 3/4 ", "3 /4", "3/-4", "+3", "1_000/3", "1.5", "1e3",
        "\u00b2", "\u0663", "", "-", "/3", "3/", "1/2/3", "--1", "-/3", "1/0",
        "-6/4", "0/0", "2/04"])
    def test_edge_strings(self, text):
        self.check(text)

    @pytest.mark.parametrize("value", [
        1, 2 ** 63, 0, -7, 10 ** 40, 1.5, -0.0, 0.1, float("inf"),
        float("-inf"), float("nan"), F(-3, 4), None, [1]])
    def test_other_values(self, value):
        self.check(value)

    def test_bad_numbers_raise_value_error(self):
        for value in ("1/0", "-3/0", float("inf"), float("nan"), True, False):
            with pytest.raises(ValueError):
                parse_fraction(value)


class TestAddInto:
    def test_adds_and_drops_cancelled_keys(self):
        table = {}
        add_into(table, "a", F(1, 2))
        add_into(table, "b", F(3))
        add_into(table, "a", F(1, 3))
        assert table == {"a": F(5, 6), "b": F(3)}
        add_into(table, "a", F(-5, 6))
        assert table == {"b": F(3)}
        add_into(table, "a", F(2))  # a cancelled key starts again
        add_into(table, "b", -3)
        assert table == {"a": F(2)}
