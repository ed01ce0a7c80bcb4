"""Discriminant module: divisor helpers, quadratic form, involutions."""

from fractions import Fraction as F
from math import gcd

import pytest

from weilq.discform import (atkin_lehner, divisor_classes, divisors, euler_phi,
                            exact_divisors, index_gamma0, prime_factors)


class TestDivisors:
    def test_divisors(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]

    def test_divisors_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisors(0)

    def test_exact_divisors(self):
        assert exact_divisors(1) == [1]
        assert exact_divisors(12) == [1, 3, 4, 12]
        assert exact_divisors(36) == [1, 4, 9, 36]
        for N in range(1, 60):
            for c in exact_divisors(N):
                assert gcd(c, N // c) == 1

    def test_divisor_classes(self):
        assert divisor_classes(6) == [1, 2]
        assert divisor_classes(36) == [1, 2, 3, 4, 6]
        for N in range(1, 80):
            classes = divisor_classes(N)
            assert all(d * d <= N for d in classes)
            covered = sorted(set(classes) | {N // d for d in classes})
            assert covered == divisors(N)

    def test_multiplicative_counts(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == 4
        assert [index_gamma0(N) for N in (1, 2, 3, 4, 6, 12)] == [
            1, 3, 4, 6, 12, 24]
        for N in range(1, 60):
            brute = sum(1 for k in range(N) if gcd(k, N) == 1)
            assert euler_phi(N) == brute

    @pytest.mark.parametrize("fn, N", [
        (index_gamma0, -5), (index_gamma0, 0), (euler_phi, -7),
        (index_gamma0, 6.0), (prime_factors, True), (prime_factors, F(6))],
        ids=["index_gamma0(-5)", "index_gamma0(0)", "euler_phi(-7)",
             "index_gamma0(6.0)", "prime_factors(True)", "prime_factors(F(6))"])
    def test_counts_reject_non_positive_or_non_int_levels(self, fn, N):
        # each once returned a number: -5, 0, -7 and 12.0 for the first four
        with pytest.raises(ValueError, match="N must be a positive integer"):
            fn(N)


class TestInvolutions:
    def test_example(self):
        assert atkin_lehner(6, 2, 1) == 7

    def test_identity_component_maps(self):
        for N in (1, 4, 6, 15):
            for g in range(2 * N):
                assert atkin_lehner(N, 1, g) == g
                assert atkin_lehner(N, N, g) == (-g) % (2 * N)

    def test_requires_exact_divisor(self):
        with pytest.raises(ValueError):
            atkin_lehner(12, 2, 0)
        with pytest.raises(ValueError):
            atkin_lehner(12, 5, 0)

    def test_rejects_every_c_that_is_not_an_exact_divisor(self):
        for N in range(1, 61):
            exact = exact_divisors(N)
            for c in range(N + 2):
                if c in exact:
                    assert atkin_lehner(N, c, 0) == 0
                else:
                    with pytest.raises(ValueError, match="is not an exact divisor"):
                        atkin_lehner(N, c, 0)

    def test_range_check(self):
        with pytest.raises(ValueError):
            atkin_lehner(6, 2, 12)
        with pytest.raises(ValueError):
            atkin_lehner(6, 2, -1)

    def test_involution_and_form_preservation(self):
        for N in (2, 6, 12, 30, 45):
            for c in exact_divisors(N):
                for g in range(2 * N):
                    image = atkin_lehner(N, c, g)
                    assert atkin_lehner(N, c, image) == g
                    # the quadratic form gamma^2/(4N) mod 1 is preserved
                    assert (image * image - g * g) % (4 * N) == 0
                    assert atkin_lehner(N, c, (-g) % (2 * N)) == (-image) % (2 * N)

    def test_defining_congruences_unique(self):
        for N in range(1, 70):
            for c in exact_divisors(N):
                for g in range(2 * N):
                    sols = [x for x in range(2 * N)
                            if (x + g) % (2 * c) == 0
                            and (x - g) % (2 * N // c) == 0]
                    assert sols == [atkin_lehner(N, c, g)]

    def test_group_structure(self):
        # sigma_c sigma_d = sigma_(cd / gcd(c,d)^2) on every component
        for N in (6, 12, 30):
            for c in exact_divisors(N):
                for d in exact_divisors(N):
                    e = c * d // gcd(c, d) ** 2
                    for g in range(2 * N):
                        two_step = atkin_lehner(N, d, atkin_lehner(N, c, g))
                        assert two_step == atkin_lehner(N, e, g)
