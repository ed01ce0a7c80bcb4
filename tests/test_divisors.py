"""Cusp classes, eta-product divisors, matching solver, CM-point degrees."""

from fractions import Fraction as F
from math import gcd, isqrt

import pytest

from weilq.discform import divisor_classes, divisors, euler_phi, index_gamma0
from weilq.divisors import (Certificate, CuspDivisor, _coset_reps, _p1_reps,
                            _proj_automorph_order, converse_pipeline,
                            cusp_classes, cusp_count, cusp_space_dimension,
                            eta_divisor, eta_order, fricke_image, heegner_data,
                            heegner_degree, reduced_forms, solve_cusp_matching)
from weilq.heckeops import legendre


def hurwitz_oracle(D: int) -> F:
    """Class-number weighted count of reduced forms, written independently."""
    total = F(0)
    a = 1
    while 3 * a * a <= D:
        for b in range(-a + 1, a + 1):
            num = b * b + D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            if a == b == c:
                total += F(1, 3)
            elif b == 0 and a == c:
                total += F(1, 2)
            else:
                total += 1
        a += 1
    return total


class TestCuspClasses:
    def test_counts(self):
        assert cusp_count(1) == 1
        assert cusp_count(4) == 3
        assert cusp_count(9) == 4
        assert cusp_count(12) == 6

    def test_level_nine_orbits(self):
        sizes = {cl.c: cl.orbit_size for cl in cusp_classes(9)}
        assert sizes == {1: 1, 3: 2, 9: 1}

    def test_conductor_and_orbit(self):
        for N in range(1, 80):
            for cl in cusp_classes(N):
                assert cl.conductor == gcd(cl.c, N // cl.c)
                assert cl.orbit_size == euler_phi(cl.conductor)
                assert (cl.orbit_size == 1) == (cl.conductor <= 2)

    def test_width_sum_is_index(self):
        for N in range(1, 120):
            total = sum(cl.orbit_size * cl.width for cl in cusp_classes(N))
            assert total == index_gamma0(N)

    def test_infinity_class_width_one(self):
        for N in (1, 6, 16, 45):
            widths = {cl.c: cl.width for cl in cusp_classes(N)}
            assert widths[N] == 1
            assert widths[1] == N


class TestEtaOrders:
    def test_examples(self):
        assert eta_order(6, 1, 6) == F(7, 24)
        assert eta_order(1, 1, 1) == F(1, 12)
        assert eta_order(6, 1, 1) == F(7, 24)
        assert eta_order(6, 2, 6) == F(5, 24)

    def test_symmetry_in_d(self):
        for N in (6, 12, 36):
            for d in divisors(N):
                for c in divisors(N):
                    assert eta_order(N, d, c) == eta_order(N, N // d, c)

    def test_degree_law(self):
        for N in (1, 2, 6, 11, 16, 36, 60):
            mu = index_gamma0(N)
            for d in divisors(N):
                total = sum((cl.orbit_size * eta_order(N, d, cl.c)
                             for cl in cusp_classes(N)), F(0))
                assert total == F(mu, 12)

    def test_rejects_nondivisors(self):
        with pytest.raises(ValueError):
            eta_order(6, 4, 1)
        with pytest.raises(ValueError):
            eta_order(6, 2, 5)


class TestCuspDivisor:
    def test_degree(self):
        div = eta_divisor(9, 1)
        assert div.degree() == F(index_gamma0(9), 12)

    def test_add_scale_zero(self):
        a = eta_divisor(6, 1)
        b = eta_divisor(6, 2)
        s = a + b.scaled(-1)
        assert (s + b).orders == a.orders
        assert a.scaled(0).orders == {}
        assert CuspDivisor.zero(6).degree() == 0

    def test_add_level_mismatch(self):
        with pytest.raises(ValueError):
            eta_divisor(6, 1) + eta_divisor(12, 1)

    def test_json_round_trip(self):
        div = eta_divisor(12, 2)
        again = CuspDivisor.from_json(div.to_json())
        assert again.N == div.N and again.orders == div.orders

    def test_fricke_fixed_points_and_involution(self):
        for N in (2, 6, 12, 45):
            for d in divisors(N):
                div = eta_divisor(N, d)
                assert fricke_image(div).orders == div.orders
        skew = CuspDivisor(6, {1: F(2), 6: F(5)})
        assert fricke_image(skew).orders == {6: F(2), 1: F(5)}
        assert fricke_image(fricke_image(skew)).orders == skew.orders


class TestMatching:
    def test_dimension(self):
        assert [cusp_space_dimension(N) for N in (1, 4, 9, 12)] == [1, 2, 2, 3]
        for N in range(1, 150):
            assert cusp_space_dimension(N) == len(divisor_classes(N))

    def test_unit_round_trips(self):
        for N in (1, 6, 12, 36):
            classes = divisor_classes(N)
            for j, d in enumerate(classes):
                x = solve_cusp_matching(N, eta_divisor(N, d))
                assert x == [F(int(i == j)) for i in range(len(classes))]

    def test_zero_target(self):
        assert solve_cusp_matching(12, CuspDivisor.zero(12)) == [F(0)] * 3

    def test_rejects_non_fricke_invariant(self):
        target = CuspDivisor(6, {1: F(1)})
        with pytest.raises(ValueError, match="Fricke"):
            solve_cusp_matching(6, target)

    def test_rejects_wrong_level(self):
        with pytest.raises(ValueError, match="level"):
            solve_cusp_matching(6, CuspDivisor.zero(12))

    def test_reconstruction(self):
        N = 36
        target = (eta_divisor(N, 2).scaled(F(1, 3))
                  + eta_divisor(N, 6).scaled(-2))
        x = solve_cusp_matching(N, target)
        rebuilt = CuspDivisor.zero(N)
        for v, d in zip(x, divisor_classes(N)):
            rebuilt = rebuilt + eta_divisor(N, d).scaled(v)
        assert rebuilt.orders == target.orders


class TestReducedForms:
    def test_small_discriminants(self):
        assert reduced_forms(-3) == [(1, 1, 1)]
        assert reduced_forms(-4) == [(1, 0, 1)]
        assert sorted(reduced_forms(-23)) == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]

    def test_includes_imprimitive(self):
        assert (2, 2, 2) in reduced_forms(-12)

    def test_reduction_inequalities(self):
        for disc in range(-100, 0):
            if disc % 4 not in (0, 1):
                continue
            forms = reduced_forms(disc)
            assert len(set(forms)) == len(forms)
            for a, b, c in forms:
                assert -a < b <= a <= c
                assert b * b - 4 * a * c == disc
                if a == c:
                    assert b >= 0

    def test_rejects_bad_discriminants(self):
        with pytest.raises(ValueError):
            reduced_forms(5)
        with pytest.raises(ValueError):
            reduced_forms(-5)


class TestCosetReps:
    def test_projective_line_sizes(self):
        for N in (1, 2, 6, 12, 30):
            assert len(_p1_reps(N)) == index_gamma0(N)

    def test_determinants_and_distinctness(self):
        for N in (1, 4, 6, 15):
            reps = _coset_reps(N)
            assert len(reps) == index_gamma0(N)
            seen = set()
            for a, b, c, d in reps:
                assert a * d - b * c == 1
                # the coset is determined by the bottom-projective first column
                units = [u for u in range(1, N + 1) if gcd(u, N) == 1]
                key = min(((u * a) % N, (u * c) % N) for u in units)
                assert key not in seen
                seen.add(key)


class TestHeegnerDegree:
    def test_hurwitz_anchors(self):
        assert heegner_degree(1, -3, 1) == F(1, 3)
        assert heegner_degree(1, -4, 0) == F(1, 2)
        assert heegner_degree(1, -7, 1) == F(1)
        assert heegner_degree(1, -8, 0) == F(1)
        assert heegner_degree(1, -11, 1) == F(1)
        assert heegner_degree(1, -12, 0) == F(4, 3)

    def test_hurwitz_oracle_range(self):
        for D in range(3, 80):
            if -D % 4 in (0, 1):
                gamma = 0 if D % 4 == 0 else 1
                assert heegner_degree(1, -D, gamma) == hurwitz_oracle(D), D

    def test_prime_level_factorization(self):
        # independent oracle (Gross-Kohnen-Zagier): for an odd prime p not
        # dividing n, summing over the roots gamma multiplies the Hurwitz
        # class number H(|n|) by the number of isotropic lines mod p,
        # 1 + (n/p); this catches coset-list faults that are symmetric in gamma
        cases = 0
        for p in (3, 5, 7, 11, 13):
            for D in range(3, 160):
                n = -D
                if n % 4 not in (0, 1) or D % p == 0:
                    continue
                hurwitz = sum((F(1, _proj_automorph_order(*form))
                               for form in reduced_forms(n)), F(0))
                assert hurwitz == hurwitz_oracle(D), D
                gammas = [g for g in range(2 * p)
                          if (g * g - n) % (4 * p) == 0]
                total = sum((heegner_degree(p, n, g) for g in gammas), F(0))
                assert total == (1 + legendre(n, p)) * hurwitz, (p, n)
                cases += 1
        assert cases == 329

    def test_gamma_symmetry(self):
        for N in (2, 3, 4, 6, 10):
            for m in range(1, 60):
                for g in range(1, N):
                    if (g * g + m) % (4 * N) == 0:
                        assert (heegner_degree(N, -m, g)
                                == heegner_degree(N, -m, 2 * N - g))

    def test_validation(self):
        with pytest.raises(ValueError, match="negative"):
            heegner_degree(1, 3, 1)
        with pytest.raises(ValueError, match="canonical"):
            heegner_degree(2, -3, 5)
        with pytest.raises(ValueError, match="square"):
            heegner_degree(1, -5, 1)


class TestHeegnerData:
    def test_empty(self):
        report = heegner_data(4, {})
        assert report.degree == 0
        assert report.correction_mult == 0
        assert report.divisor.mult == {}

    def test_single_term(self):
        report = heegner_data(1, {(-3, 1): 1})
        assert report.degree == F(1, 3)
        assert report.correction_class == 1
        assert report.correction_mult == F(-1, 3)

    def test_linearity_and_normalization(self):
        a = heegner_data(1, {(-3, 1): 2})
        b = heegner_data(1, {(-3, 1): 1, (-4, 0): 3})
        assert a.degree == 2 * F(1, 3)
        assert b.degree == F(1, 3) + 3 * F(1, 2)
        # gamma indices are normalized into the canonical range
        c = heegner_data(1, {(-3, -1): 1})
        assert c.degree == F(1, 3)

    def test_json(self):
        data = heegner_data(1, {(-3, 1): 1}).to_json()
        assert data["degree"] == "1/3"
        assert data["cusp_correction"] == {"c": 1, "multiplicity": "-1/3"}


class TestConversePipeline:
    def test_unit_cusp_target(self):
        cert = converse_pipeline(6, {}, eta_divisor(6, 1))
        assert cert.theta_coefficients == [(1, F(1)), (2, F(0))]
        assert cert.weight == 1
        assert cert.weyl == F(7, 24)
        assert cert.heegner.degree == 0

    def test_zero_target(self):
        cert = converse_pipeline(6, {}, CuspDivisor.zero(6))
        assert cert.theta_coefficients == [(1, F(0)), (2, F(0))]
        assert cert.weight == 0
        assert cert.weyl == 0

    def test_sum_target(self):
        target = eta_divisor(6, 1) + eta_divisor(6, 2)
        cert = converse_pipeline(6, {}, target)
        assert cert.theta_coefficients == [(1, F(1)), (2, F(1))]
        assert cert.weight == 2
        assert cert.weyl == F(7, 24) + F(5, 24)

    def test_with_principal_part(self):
        cert = converse_pipeline(1, {(-4, 0): 2}, eta_divisor(1, 1))
        assert cert.heegner.degree == 1
        assert cert.heegner.correction_mult == -1
        assert cert.weight == 1

    def test_json_shape(self):
        cert = converse_pipeline(1, {(-3, 1): 1}, CuspDivisor.zero(1))
        data = cert.to_json()
        assert set(data) == {"N", "heegner", "theta_coefficients", "weight",
                             "weyl"}
        assert isinstance(cert, Certificate)
