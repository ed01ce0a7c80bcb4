"""Vector-valued expansions: theta series, symmetry, basis, decomposition."""

from fractions import Fraction as F
from math import gcd, isqrt

import pytest

from weilq.borcherds import borcherds_product
from weilq.discform import divisor_classes
from weilq.vvforms import (DecompositionError, VVExpansion, apply_aut,
                           basis_m_half, decompose, formal_xi, is_supported,
                           random_supported, symmetry_sign, theta_series)


class TestSymmetrySign:
    def test_values(self):
        assert symmetry_sign(F(1, 2), 1) == 1
        assert symmetry_sign(F(3, 2), 1) == -1
        assert symmetry_sign(F(5, 2), 1) == 1
        assert symmetry_sign(F(1, 2), -1) == -1
        assert symmetry_sign(F(3, 2), -1) == 1

    def test_rejects_integral_weight(self):
        with pytest.raises(ValueError):
            symmetry_sign(F(1), 1)

    def test_rejects_bad_flag(self):
        with pytest.raises(ValueError):
            symmetry_sign(F(1, 2), 0)


class TestThetaSeries:
    def test_constant_term(self):
        for N in (1, 3, 6):
            assert theta_series(N, 50).get(0, 0) == 1

    def test_level_one_doubling(self):
        th = theta_series(1, 100)
        assert th.get(4, 0) == 2
        assert th.get(1, 1) == 2
        assert th.get(9, 1) == 2
        assert th.get(2, 0) == 0

    def test_level_six_slots(self):
        th = theta_series(6, 200)
        assert th.get(1, 1) == 1
        assert th.get(1, 11) == 1
        assert th.get(121, 11) == 1
        assert th.get(1, 5) == 0

    def test_counts_lattice_points(self):
        # slot (m^2, m) counts integers with that square and residue
        for N in (2, 5):
            th = theta_series(N, 400)
            for m in range(-20, 20):
                if m * m <= 400:
                    expected = len({v for v in (m, -m)
                                    if v % (2 * N) == m % (2 * N)})
                    assert th.get(m * m, m) == expected

    def test_invariants(self):
        for N in list(range(1, 40)) + [60, 100]:
            theta_series(N, 4 * N + 30).validate()

    def test_negative_truncation(self):
        with pytest.raises(ValueError):
            theta_series(3, -1)


class TestExpansionBasics:
    def test_support_rule(self):
        assert is_supported(6, 1, 1, 11)
        assert not is_supported(6, 1, 2, 11)
        assert is_supported(6, -1, -1, 1)
        assert is_supported(6, -1, 23, 1)

    def test_get_normalizes_gamma(self):
        th = theta_series(6, 50)
        assert th.get(1, -1) == 1
        assert th.get(1, 13) == 1

    def test_validate_catches_violations(self):
        f = VVExpansion(2, F(1, 2), 1, {(1, 1): F(1), (1, 3): F(1)}, {}, 10)
        f.validate()
        broken = VVExpansion(2, F(1, 2), 1, {(1, 1): F(1)}, {}, 10)
        with pytest.raises(ValueError, match="symmetry"):
            broken.validate()
        bad_support = VVExpansion(2, F(1, 2), 1, {(2, 0): F(1)}, {}, 10)
        with pytest.raises(ValueError, match="support"):
            bad_support.validate()
        beyond = VVExpansion(2, F(1, 2), 1, {(16, 0): F(1)}, {}, 10)
        with pytest.raises(ValueError, match="truncation"):
            beyond.validate()
        wrong_part = VVExpansion(2, F(1, 2), 1, {}, {(8, 0): F(1)}, 10)
        with pytest.raises(ValueError, match="n >= 0"):
            wrong_part.validate()

    def test_add_and_scale(self):
        th = theta_series(6, 50)
        g = th + th.scaled(-1)
        assert not g.holo
        h = th.scaled(F(2, 3)) + th.scaled(F(1, 3))
        ok, wit = h.agrees_with(th)
        assert ok, wit

    def test_add_type_mismatch(self):
        with pytest.raises(ValueError):
            theta_series(2, 10) + theta_series(3, 10)

    def test_agrees_with_windowing(self):
        a = theta_series(1, 100)
        b = theta_series(1, 25)
        ok, _ = a.agrees_with(b)
        assert ok
        # gamma = 1 is self-paired mod 2, so a single entry is symmetric
        c = b + VVExpansion(1, F(1, 2), 1, {(25, 1): F(1)}, {}, 25)
        # difference sits exactly at the window edge slot (25, 1)
        ok, wit = a.agrees_with(c)
        assert not ok
        assert wit[1] == (25, 1)
        ok, _ = a.agrees_with(c, window=24)
        assert ok

    def test_json_round_trip(self):
        f = random_supported(6, F(3, 2), -1, seed=5, trunc=40)
        g = VVExpansion.from_json(f.to_json())
        assert g == f

    def test_from_json_canonicalizes(self):
        data = {"N": 2, "k": "1/2", "rep": "rho",
                "holo": [[1, -3, "1"], [1, 3, "1"]], "nonholo": [],
                "trunc": 10}
        f = VVExpansion.from_json(data)
        assert f.holo == {(1, 1): F(1), (1, 3): F(1)}
        f.validate()


class TestApplyAut:
    def test_identity_and_full(self):
        th = theta_series(6, 80)
        same = apply_aut(th, 1)
        assert same.holo == th.holo
        flipped = apply_aut(th, 6)
        assert flipped.holo == th.holo  # epsilon = +1 pairs the slots

    def test_twist_example(self):
        tw = apply_aut(theta_series(6, 80), 2)
        assert tw.get(1, 7) == 1
        assert tw.get(1, 5) == 1
        assert tw.get(1, 1) == 0
        tw.validate()

    def test_involution(self):
        th = theta_series(15, 80)
        for c in (3, 5, 15):
            ok, wit = apply_aut(apply_aut(th, c), c).agrees_with(th)
            assert ok, (c, wit)

    def test_keeps_invariants(self):
        f = random_supported(6, F(1, 2), 1, seed=11, trunc=60)
        apply_aut(f, 3).validate()
        x = formal_xi(random_supported(6, F(1, 2), 1, seed=12, trunc=60))
        apply_aut(x, 3).validate()


class TestBasis:
    def test_lengths(self):
        assert len(basis_m_half(1, 10)) == 1
        assert len(basis_m_half(4, 20)) == 2
        assert len(basis_m_half(6, 30)) == 2
        assert len(basis_m_half(12, 50)) == 3
        assert len(basis_m_half(36, 150)) == 5

    def test_elements_valid(self):
        for N in (1, 4, 6, 9, 12, 16, 30):
            for el in basis_m_half(N, 4 * N):
                assert el.N == N
                assert el.weight == F(1, 2)
                assert el.rep == 1
                el.validate()

    def test_first_element_is_theta(self):
        for N in (1, 5, 12):
            b = basis_m_half(N, 60)
            ok, wit = b[0].agrees_with(theta_series(N, 60))
            assert ok, wit

    def test_independence(self):
        # solving for each element against the others must give unit vectors
        for N in (1, 4, 6, 12, 16, 24, 36):
            basis = basis_m_half(N, 4 * N)
            for j, el in enumerate(basis):
                coords = decompose(el, basis)
                assert coords == [F(int(i == j)) for i in range(len(basis))]


class TestDecompose:
    def test_round_trip_combination(self):
        basis = basis_m_half(6, 24)
        f = basis[0].scaled(2) + basis[1].scaled(3)
        assert decompose(f, basis) == [F(2), F(3)]

    def test_rational_combination(self):
        basis = basis_m_half(12, 48)
        f = (basis[0].scaled(F(1, 2)) + basis[1].scaled(F(-2, 3))
             + basis[2].scaled(5))
        assert decompose(f, basis) == [F(1, 2), F(-2, 3), F(5)]

    def test_rejects_outside_span(self):
        # the alien slot is inside the reliable window but past the pivot
        # block, so it is caught by the full-window re-check
        basis = basis_m_half(6, 60)
        alien = VVExpansion(6, F(1, 2), 1, {(49, 1): F(1), (49, 11): F(1)},
                            {}, 60)
        with pytest.raises(DecompositionError, match="not in the span"):
            decompose(basis[0] + alien, basis)

    def test_rejects_inconsistent_pivot_rows(self):
        basis = basis_m_half(6, 24)
        lone = VVExpansion(6, F(1, 2), 1, {(0, 0): F(1)}, {}, 24)
        with pytest.raises(DecompositionError, match="not in the span"):
            decompose(lone, basis)

    def test_rejects_wrong_weight(self):
        f = random_supported(6, F(3, 2), 1, seed=3, trunc=24)
        with pytest.raises(DecompositionError):
            decompose(f, basis_m_half(6, 24))

    def test_rejects_nonholomorphic(self):
        f = random_supported(6, F(1, 2), 1, seed=3, trunc=24)
        if not f.nonholo:  # pragma: no cover - seed dependent guard
            f.nonholo[(-23, 1)] = F(1)
            f.nonholo[(-23, 11)] = F(1)
        with pytest.raises(DecompositionError):
            decompose(f, basis_m_half(6, 24))


class TestFormalXi:
    def test_tables(self):
        f = VVExpansion(1, F(1, 2), 1,
                        {(0, 0): F(1)}, {(-3, 1): F(2), (-3, 1 % 2): F(2)},
                        10)
        x = formal_xi(f)
        assert x.N == 1
        assert x.weight == F(3, 2)
        assert x.rep == -1
        assert x.get(3, 1) == 2
        x.validate()

    def test_empty_nonholo(self):
        x = formal_xi(theta_series(6, 20))
        assert x.radical
        assert not x.holo and not x.nonholo

    def test_json_layout(self):
        x = formal_xi(random_supported(3, F(1, 2), 1, seed=9, trunc=50))
        data = x.to_json()
        assert list(data) == ["N", "k", "rep", "r", "trunc"]
        assert data["r"] == [[m, g, str(c)] for (m, g), c in sorted(x.holo.items())]
        assert data["r"]

    def test_xi_image_validate(self):
        bad = VVExpansion(1, F(3, 2), -1, {(-3, 1): F(1)}, {}, 10, radical=True)
        with pytest.raises(ValueError, match="non-positive"):
            bad.validate()

    def test_validate_rejects_nonholo(self):
        bad = VVExpansion(1, F(3, 2), -1, {}, {(-3, 1): F(1)}, 10, radical=True)
        with pytest.raises(ValueError, match="nonholo"):
            bad.validate()

    def test_radical_table_is_not_a_product_input(self):
        x = formal_xi(random_supported(3, F(3, 2), -1, seed=11, trunc=50))
        assert (x.weight, x.rep) == (F(1, 2), 1)
        with pytest.raises(DecompositionError, match="radical"):
            decompose(x, basis_m_half(3, 50))
        with pytest.raises(ValueError, match="radical"):
            borcherds_product(x, 0, 5)

    def test_radical_and_plain_do_not_mix(self):
        x = formal_xi(random_supported(3, F(1, 2), 1, seed=10, trunc=50))
        plain = VVExpansion(x.N, x.weight, x.rep, dict(x.holo), {}, x.trunc)
        plain.validate()
        with pytest.raises(ValueError):
            x + plain
        with pytest.raises(ValueError):
            plain + x
        ok, wit = x.agrees_with(plain)
        assert not ok and wit[0] == "type"
        assert plain.agrees_with(x)[1][0] == "type"


class TestRandomSupported:
    def test_deterministic(self):
        a = random_supported(5, F(1, 2), 1, seed=4, trunc=80)
        b = random_supported(5, F(1, 2), 1, seed=4, trunc=80)
        assert a == b
        c = random_supported(5, F(1, 2), 1, seed=5, trunc=80)
        assert a != c

    def test_valid_and_nonempty(self):
        for rep in (1, -1):
            for w in (F(1, 2), F(3, 2)):
                f = random_supported(7, w, rep, seed=21, trunc=100)
                f.validate()
                assert f.holo
                assert f.nonholo
                assert all(n < 0 for (n, _) in f.nonholo)

    def test_zero_window(self):
        f = random_supported(3, F(1, 2), 1, seed=2, trunc=0)
        f.validate()
        assert all(n == 0 for (n, _) in f.holo)
        assert not f.nonholo
