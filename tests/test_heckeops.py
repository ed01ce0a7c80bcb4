"""Hecke, index-raising and index-spreading operators, also on shadow tables."""

import random
from fractions import Fraction as F
from math import gcd

import pytest

from weilq import heckeops
from weilq.discform import divisors, exact_divisors
from weilq.heckeops import hecke_tp, legendre, level_u, level_v
from weilq.vvforms import (VVExpansion, apply_aut, formal_xi, random_supported,
                           theta_series)

WEIGHTS = (F(-1, 2), F(1, 2), F(3, 2), F(5, 2))


# ----- slow reference: the operators as gathers over the output window ---


def _window_slots(N, rep, lo, hi, gamma_step=1):
    """Every (n, gamma) with lo <= n <= hi on the support lattice, gamma a
    multiple of gamma_step."""
    for gamma in range(0, 2 * N, gamma_step):
        start = lo + (rep * gamma * gamma - lo) % (4 * N)
        for n in range(start, hi + 1, 4 * N):
            yield n, gamma


def _gather_tp(table, N, rep, p, weight, lo, hi):
    """Slot (n, g) collects a(p^2 n, p g) + p^(k-3/2) (rep n/p) a(n, g)
    + p^(2k-2) a(n/p^2, g/p)."""
    two_n, p2 = 2 * N, p * p
    w1 = F(p) ** int(weight - F(3, 2))
    w2 = F(p) ** int(2 * weight - 2)
    out = {}
    for n, g in _window_slots(N, rep, lo, hi):
        v = (F(table.get((p2 * n, p * g % two_n), 0))
             + legendre(rep * n, p) * w1 * table.get((n, g), 0))
        if n % p2 == 0:
            v += w2 * table.get((n // p2, pow(p, -1, two_n) * g % two_n), 0)
        if v:
            out[(n, g)] = v
    return out


def _gather_v(table, N, rep, ell, a_exp, lo, hi, prefactor=1):
    """Slot (n, g) at level N*ell collects a^a_exp a(n/a^2, g/a) over
    a | gcd((g^2 - rep n)/(4 N ell), g, ell)."""
    out = {}
    for n, g in _window_slots(N * ell, rep, lo, hi):
        x = (g * g - rep * n) // (4 * N * ell)
        tot = sum(F(a) ** a_exp * table.get((n // (a * a), g // a % (2 * N)), 0)
                  for a in divisors(gcd(x, g, ell)) if n % (a * a) == 0)
        if tot:
            out[(n, g)] = prefactor * tot
    return out


def _frame(f, w):
    """Gather weight and window starts: a radical table acts at weight k - 1
    on 1 <= m <= w only."""
    return (f.weight - 1, 1, 0) if f.radical else (f.weight, -w, -w)


def gather_hecke_tp(f, p):
    w = f.trunc // (p * p)
    weight, lo, lo_nonholo = _frame(f, w)
    holo = _gather_tp(f.holo, f.N, f.rep, p, weight, lo, w)
    if f.radical:
        holo = {k: p * v for k, v in holo.items()}
    nonholo = _gather_tp(f.nonholo, f.N, f.rep, p, weight, lo_nonholo, -1)
    return VVExpansion(f.N, f.weight, f.rep, holo, nonholo, w, f.radical)


def gather_level_v(f, ell):
    weight, lo, lo_nonholo = _frame(f, f.trunc)
    a_exp = int(weight - F(1, 2))
    pref = F(ell) ** int(F(3, 2) - f.weight) if f.radical else 1
    holo = _gather_v(f.holo, f.N, f.rep, ell, a_exp, lo, f.trunc, pref)
    nonholo = _gather_v(f.nonholo, f.N, f.rep, ell, a_exp, lo_nonholo, -1)
    return VVExpansion(f.N * ell, f.weight, f.rep, holo, nonholo, f.trunc,
                       f.radical)


def gather_level_u(f, d):
    """Slot (n, g) at level N d^2 reads a(n/d^2, g/d mod 2N) when d | g and
    d^2 | n, and is empty otherwise.  Only slots with d | g are visited; on
    the support lattice they have d^2 | n."""
    M, w, d2 = f.N * d * d, f.trunc * d * d, d * d
    parts = []
    for table, lo, hi in ((f.holo, -w, w), (f.nonholo, -w, -1)):
        out = {}
        for n, g in _window_slots(M, f.rep, lo, hi, gamma_step=d):
            assert n % d2 == 0
            v = table.get((n // d2, g // d % (2 * f.N)))
            if v:
                out[(n, g)] = v
        parts.append(out)
    return VVExpansion(M, f.weight, f.rep, *parts, w, f.radical)


def _inputs(levels, trunc, seed):
    """Seeded plain and shadow tables over every weight and both reps."""
    for N in levels:
        for k in WEIGHTS:
            for rep in (1, -1):
                tag = seed + 100 * N + 10 * int(2 * k + 1) + rep
                f = random_supported(N, k, rep, seed=tag, trunc=trunc)
                yield f
                yield formal_xi(f)


def _good_primes(N, primes=(3, 5, 7, 11)):
    return [p for p in primes if gcd(p, 2 * N) == 1]


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
        for p in (9, 1, 0, -5):
            with pytest.raises(ValueError, match="not prime"):
                hecke_tp(f, p)

    def test_rejects_a_prime_that_is_not_an_int(self):
        f = theta_series(2, 40)
        for p in (3.0, F(3), True):
            with pytest.raises(ValueError, match=f"^{p} is not prime"):
                hecke_tp(f, p)

    def test_level_check_is_not_cached_with_the_factors(self):
        # _tp_factors leaves N out of its key, so a cached p = 3 must not
        # let a level divisible by 3 through
        hecke_tp(theta_series(1, 100), 3)
        with pytest.raises(ValueError, match="divides 2N"):
            hecke_tp(theta_series(3, 100), 3)

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

    def test_rejects_bool_index(self):
        with pytest.raises(ValueError, match="requires a positive integer"):
            level_u(theta_series(2, 40), True)

    def test_rejects_float_index(self):
        with pytest.raises(ValueError, match="requires a positive integer"):
            level_u(theta_series(2, 40), 2.0)


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

    def test_rejects_bool_index(self):
        with pytest.raises(ValueError, match="requires a positive integer"):
            level_v(theta_series(2, 40), True)

    def test_rejects_float_index(self):
        with pytest.raises(ValueError, match="requires a positive integer"):
            level_v(theta_series(2, 40), 2.0)

    def test_rejects_weight_that_is_not_half_integral(self):
        f = VVExpansion(1, F(1), 1, {(1, 1): F(1)}, {}, 100)
        for call in (lambda: level_v(f, 2), lambda: hecke_tp(f, 3), f.validate):
            with pytest.raises(ValueError):
                call()


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


class TestGatherOracle:
    """The scatter kernels against the gathers over the output window."""

    def test_hecke_tp_and_level_v_match_gathers(self):
        results = nonempty = 0
        for f in _inputs(range(1, 21), 121, seed=50):
            pairs = ([(hecke_tp(f, p), gather_hecke_tp(f, p)) for p in _good_primes(f.N)]
                     + [(level_v(f, ell), gather_level_v(f, ell)) for ell in range(2, 8)])
            for got, expected in pairs:
                assert got.to_json() == expected.to_json()
                results += 1
                nonempty += bool(expected.holo or expected.nonholo)
        # 16 tables per level; 67 pairs (N, p) with p coprime to 2N
        assert results == 16 * (20 * 6 + 67)
        assert nonempty == 2647  # T_p at p = 11 keeps only 0 <= |n| <= 1

    def test_level_u_matches_gather(self):
        results = nonempty = 0
        for f in _inputs(range(1, 21), 121, seed=50):
            for d in range(2, 8):
                expected = gather_level_u(f, d)
                assert level_u(f, d) == expected
                results += 1
                nonempty += bool(expected.holo or expected.nonholo)
        assert results == 16 * 20 * 6
        assert nonempty == 1872

    def test_level_v_matches_gather_at_larger_index(self):
        for f in _inputs((1, 2, 3), 121, seed=52):
            for ell in (12, 18, 30, 210):
                assert level_v(f, ell).to_json() == gather_level_v(f, ell).to_json()

    def test_cancelling_contributions_store_no_zero(self):
        # weight 5/2 at N = 1: T_3 slot (1, 1) collects a(9, 1) + 3 a(1, 1),
        # V_2 slot (16, 0) collects a(16, 0) + 2^2 a(4, 0); both sum to 0
        holo = {(0, 0): F(1, 2), (1, 1): F(-1), (9, 1): F(3), (4, 0): F(-1),
                (16, 0): F(4), (5, 1): F(2, 3)}
        f = VVExpansion(1, F(5, 2), 1, holo, {}, 16)
        f.validate()
        cases = ((hecke_tp, gather_hecke_tp, 3, (1, 1), (1, 1), F(3)),
                 (level_v, gather_level_v, 2, (16, 0), (4, 0), F(4)))
        for op, gather, index, slot, dropped, rest in cases:
            got = op(f, index)
            got.validate()
            assert all(got.holo.values()) and slot not in got.holo
            assert got.to_json() == gather(f, index).to_json()
            # without one of the two contributions the slot keeps the other
            g = VVExpansion(1, f.weight, 1, dict(holo), {}, 16)
            del g.holo[dropped]
            assert op(g, index).holo[slot] == rest


class TestTablesDoNotMix:
    """Each operator maps holo to holo and nonholo to nonholo, reading only
    its own table: the xi suite runs its left sides on the nonholo table
    alone and relies on this."""

    def test_each_output_table_reads_only_its_own_input_table(self):
        checked = both = 0
        for N in (1, 2, 5, 6, 10):
            for k in (F(1, 2), F(3, 2), F(5, 2)):
                for rep in (1, -1):
                    f = random_supported(N, k, rep, seed=70 + 10 * N + rep,
                                         trunc=300)
                    only_holo = f._with(f.holo, {}, f.trunc)
                    only_nonholo = f._with({}, f.nonholo, f.trunc)
                    ops = ([lambda x, p=p: hecke_tp(x, p) for p in _good_primes(N, (3, 5))]
                           + [lambda x, d=d: level_u(x, d) for d in (2, 3)]
                           + [lambda x, ell=ell: level_v(x, ell) for ell in (2, 3, 4)]
                           + [lambda x, c=c: apply_aut(x, c) for c in exact_divisors(N)])
                    for op in ops:
                        g = op(f)
                        assert g.nonholo == op(only_nonholo).nonholo, (N, k, rep)
                        assert g.holo == op(only_holo).holo, (N, k, rep)
                        checked += 1
                        both += bool(g.holo and g.nonholo)
        assert (checked, both) == (270, 246)  # both tables compared in most


class TestKernelCaches:
    def test_cache_keys_do_not_depend_on_the_level(self):
        # a cache keyed on N would keep growing over the second half of the
        # sweep (and with it the memory a long run holds)
        caches = [c for c in vars(heckeops).values() if hasattr(c, "cache_info")]
        assert len(caches) == 2
        for c in caches:
            c.cache_clear()

        def sweep(levels):
            for N in levels:
                for f in _inputs([N], 12, seed=70):
                    if f.weight in (F(1, 2), F(3, 2)):
                        for p in _good_primes(N):
                            hecke_tp(f, p)
                        for ell in range(2, 8):
                            level_v(f, ell)
            return [c.cache_info().currsize for c in caches]

        sizes = sweep(range(1, 31))
        assert sweep(range(31, 61)) == sizes
        # T_p: 4 primes x 2 reps x 2 weights x plain/radical; V_l: N mod l
        # for each l in 2..7 x 2 weights x plain/radical
        assert sorted(sizes) == [4 * 2 * 2 * 2, sum(range(2, 8)) * 2 * 2]
        assert all(c.cache_info().currsize < c.cache_info().maxsize for c in caches)

    def test_outcome_does_not_depend_on_earlier_calls(self):
        # a float weight equal to a cached Fraction weight gets no factors
        # computed for the Fraction
        odd = VVExpansion(1, 1.5, 1, {(9, 1): F(1)}, {}, 100)

        def outcome():
            try:
                return hecke_tp(odd, 3)
            except Exception as exc:
                return type(exc)

        heckeops._tp_factors.cache_clear()
        fresh = outcome()
        hecke_tp(VVExpansion(1, F(3, 2), 1, {}, {}, 100), 3)
        assert outcome() == fresh


def with_garbage(f, seed, reach):
    """f plus seeded garbage in every supported slot with trunc < |n| <= reach.

    The holo table gets both signs, the nonholo table n < 0, and a radical
    table only n > 0, matching where each table may hold entries.
    """
    rng = random.Random(seed)
    four_n = 4 * f.N
    beyond = [(f.trunc + 1, reach)]
    if not f.radical:
        beyond.append((-reach, -f.trunc - 1))
    tables = {"holo": (dict(f.holo), beyond),
              "nonholo": (dict(f.nonholo), [] if f.radical else beyond[1:])}
    for table, ranges in tables.values():
        for lo, hi in ranges:
            for gamma in range(2 * f.N):
                start = lo + (f.rep * gamma * gamma - lo) % four_n
                for n in range(start, hi + 1, four_n):
                    table[(n, gamma)] = F(rng.randint(1, 99) * rng.choice((1, -1)),
                                          rng.choice((1, 2, 3, 7)))
    return VVExpansion(f.N, f.weight, f.rep, tables["holo"][0],
                       tables["nonholo"][0], f.trunc, f.radical)


class TestWindowSoundness:
    """Garbage beyond the declared truncation never reaches the output window."""

    def test_operators_ignore_slots_beyond_trunc(self):
        trunc = 30
        checked = 0
        for f in _inputs((1, 2, 5, 6, 10), trunc, seed=60):
            g = with_garbage(f, seed=61 + checked, reach=49 * trunc + 100)
            ops = ([lambda x, p=p: hecke_tp(x, p) for p in _good_primes(f.N, (3, 5, 7))]
                   + [lambda x, d=d: level_u(x, d) for d in (2, 3)]
                   + [lambda x, ell=ell: level_v(x, ell) for ell in range(2, 7)]
                   + [lambda x, c=c: apply_aut(x, c) for c in exact_divisors(f.N)])
            for op in ops:
                clean, dirty = op(f), op(g)
                assert clean.trunc == dirty.trunc
                ok, wit = clean.agrees_with(dirty)
                assert ok, (f.N, f.weight, f.rep, f.radical, wit)
                checked += 1
        assert checked == 960

    def test_formal_xi_ignores_slots_beyond_trunc(self):
        checked = 0
        for f in _inputs((1, 2, 5, 6, 10), 30, seed=64):
            if f.radical:
                continue
            clean = formal_xi(f)
            dirty = formal_xi(with_garbage(f, seed=65 + checked, reach=300))
            assert clean.trunc == dirty.trunc
            ok, wit = clean.agrees_with(dirty)
            assert ok, (f.N, f.weight, f.rep, wit)
            assert len(dirty.holo) > len(clean.holo)
            checked += 1
        assert checked == 40

    def test_garbage_fills_the_slots_beyond_trunc(self):
        f = random_supported(2, F(1, 2), 1, seed=62, trunc=30)
        for x in (f, formal_xi(f)):
            g = with_garbage(x, seed=63, reach=200)
            for part in ("holo", "nonholo"):
                extra = getattr(g, part).keys() - getattr(x, part).keys()
                signs = {n > 0 for n, _ in extra}
                if x.radical:
                    assert signs == ({True} if part == "holo" else set())
                else:
                    assert signs == ({True, False} if part == "holo" else {False})
                assert all(30 < abs(n) <= 200 and (n - g.rep * c * c) % 8 == 0
                           for n, c in extra)
