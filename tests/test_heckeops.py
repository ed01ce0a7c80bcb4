"""Hecke, index-raising and index-spreading operators, also on shadow tables."""

from fractions import Fraction as F

import pytest

from weilq.heckeops import hecke_tp, legendre, level_u, level_v
from weilq.vvforms import (VVExpansion, apply_aut, formal_xi, random_supported,
                           theta_series)


class TestLegendre:
    def test_values(self):
        assert [legendre(a, 7) for a in range(7)] == [0, 1, 1, -1, 1, -1, -1]
        assert legendre(-1, 5) == 1
        assert legendre(-1, 7) == -1
        assert legendre(18, 3) == 0


class TestHeckeTp:
    def test_eigenvalue_slots(self):
        th = theta_series(1, 9 * 30)
        g = hecke_tp(th, 3)
        assert g.get(0, 0) == F(4, 3)
        assert g.get(1, 1) == F(8, 3)
        assert g.get(9, 1) == F(8, 3)
        assert g.get(2, 0) == 0

    def test_eigenform_property(self):
        for p in (3, 5):
            th = theta_series(1, p * p * 50)
            g = hecke_tp(th, p)
            ok, wit = g.agrees_with(th.scaled(1 + F(1, p)))
            assert ok, (p, wit)

    def test_truncation_shrinks(self):
        f = random_supported(2, F(1, 2), 1, seed=3, trunc=100)
        assert hecke_tp(f, 3).trunc == 11

    def test_preserves_invariants(self):
        for rep in (1, -1):
            for w in (F(1, 2), F(3, 2)):
                f = random_supported(3, w, rep, seed=8, trunc=360)
                hecke_tp(f, 5).validate()

    def test_acts_on_nonholo(self):
        f = random_supported(1, F(1, 2), 1, seed=14, trunc=200)
        g = hecke_tp(f, 3)
        assert g.nonholo  # the negative-index table transforms too
        g.validate()

    def test_bad_primes_rejected(self):
        f = theta_series(3, 100)
        with pytest.raises(ValueError, match="divides 2N"):
            hecke_tp(f, 2)
        with pytest.raises(ValueError, match="divides 2N"):
            hecke_tp(f, 3)
        with pytest.raises(ValueError, match="not prime"):
            hecke_tp(f, 9)

    def test_commutes_with_aut(self):
        f = random_supported(6, F(1, 2), 1, seed=5, trunc=250)
        a = apply_aut(hecke_tp(f, 5), 2)
        b = hecke_tp(apply_aut(f, 2), 5)
        ok, wit = a.agrees_with(b)
        assert ok, wit


class TestLevelU:
    def test_identity(self):
        f = theta_series(6, 30)
        assert level_u(f, 1) is f

    def test_scatter_slots(self):
        g = level_u(theta_series(6, 30), 2)
        assert g.N == 24
        assert g.trunc == 120
        assert g.get(4, 2) == 1
        assert g.get(4, 26) == 1
        assert g.get(4, 14) == 0
        assert g.get(0, 0) == 1
        g.validate()

    def test_matches_theta_of_scaled_lattice(self):
        # the level N theta raised by d collects m = d*gamma mod 2Nd with
        # m^2 = n; on the subset d | m it is the theta series of level N d^2
        th4 = theta_series(1, 64)
        up = level_u(theta_series(1, 16), 2)
        for m in range(-8, 9):
            expected = th4.get(m * m, m) if m % 2 == 0 else 0
            assert up.get(m * m, m) == expected

    def test_composition(self):
        f = random_supported(3, F(1, 2), 1, seed=4, trunc=20)
        a = level_u(level_u(f, 2), 3)
        b = level_u(f, 6)
        ok, wit = a.agrees_with(b)
        assert ok, wit

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            level_u(theta_series(2, 10), 0)


class TestLevelV:
    def test_identity(self):
        f = theta_series(6, 30)
        assert level_v(f, 1) is f

    def test_spreads_theta(self):
        v = level_v(theta_series(1, 400), 2)
        target = theta_series(2, 400).scaled(2)
        ok, wit = v.agrees_with(target)
        assert ok, wit
        assert v.get(4, 2) == 4  # doubled slot: both a = 1 and a = 2 feed it

    def test_spreads_theta_higher(self):
        v = level_v(theta_series(1, 400), 3)
        target = theta_series(3, 400).scaled(2)
        ok, wit = v.agrees_with(target)
        assert ok, wit

    def test_composite_index_multiplicity(self):
        # at the constant slot every divisor a of ell contributes once
        v = level_v(theta_series(1, 400), 4)
        assert v.get(0, 0) == 3
        v.validate()

    def test_preserves_truncation_and_invariants(self):
        for rep in (1, -1):
            f = random_supported(5, F(3, 2), rep, seed=6, trunc=60)
            v = level_v(f, 4)
            assert v.trunc == 60
            assert v.N == 20
            v.validate()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            level_v(theta_series(2, 10), -1)


class TestTransportedOperators:
    def test_xi_tp_single_entry(self):
        x = VVExpansion(1, F(3, 2), -1, {(3, 1): F(1)}, {}, 100, radical=True)
        y = hecke_tp(x, 5)
        assert y.get(3, 1) == -1
        assert y.trunc == 4
        y.validate()

    def test_xi_tp_hecke_transport(self):
        for p in (3, 7):
            f = random_supported(2, F(1, 2), 1, seed=31, trunc=4 * p * p)
            left = formal_xi(hecke_tp(f, p))
            right = hecke_tp(formal_xi(f), p).scaled(F(1, p))
            ok, wit = left.agrees_with(right)
            assert ok, (p, wit)

    def test_xi_sigma_transport(self):
        f = random_supported(6, F(1, 2), 1, seed=32, trunc=60)
        left = formal_xi(apply_aut(f, 3))
        right = apply_aut(formal_xi(f), 3)
        ok, wit = left.agrees_with(right)
        assert ok, wit

    def test_xi_u_transport(self):
        f = random_supported(2, F(1, 2), 1, seed=33, trunc=50)
        left = formal_xi(level_u(f, 3))
        right = level_u(formal_xi(f), 3)
        ok, wit = left.agrees_with(right)
        assert ok, wit

    def test_xi_v_transport(self):
        f = random_supported(2, F(1, 2), 1, seed=34, trunc=80)
        left = formal_xi(level_v(f, 6))
        right = level_v(formal_xi(f), 6)
        ok, wit = left.agrees_with(right)
        assert ok, wit

    def test_identity_cases(self):
        x = formal_xi(random_supported(2, F(1, 2), 1, seed=35, trunc=20))
        assert level_u(x, 1) is x
        assert level_v(x, 1) is x

    def test_bad_arguments(self):
        x = formal_xi(random_supported(2, F(1, 2), 1, seed=36, trunc=20))
        with pytest.raises(ValueError):
            hecke_tp(x, 2)
        with pytest.raises(ValueError):
            level_u(x, 0)
        with pytest.raises(ValueError):
            level_v(x, 0)


class TestCommutationInstances:
    def test_tu(self):
        f = random_supported(3, F(1, 2), 1, seed=41, trunc=300)
        a = level_u(hecke_tp(f, 5), 2)
        b = hecke_tp(level_u(f, 2), 5)
        ok, wit = a.agrees_with(b)
        assert ok, wit

    def test_tv(self):
        f = random_supported(3, F(3, 2), -1, seed=42, trunc=300)
        a = level_v(hecke_tp(f, 5), 4)
        b = hecke_tp(level_v(f, 4), 5)
        ok, wit = a.agrees_with(b)
        assert ok, wit

    def test_uv(self):
        f = random_supported(5, F(1, 2), 1, seed=43, trunc=100)
        a = level_v(level_u(f, 2), 6)
        b = level_u(level_v(f, 6), 2)
        ok, wit = a.agrees_with(b)
        assert ok, wit
