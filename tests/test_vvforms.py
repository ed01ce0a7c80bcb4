"""Vector-valued expansions: theta series, symmetry, basis, decomposition."""

import json
import random
import re
from fractions import Fraction as F

import pytest
from test_linalg import dense_solve, outcome

from weilq import vvforms
from weilq._linalg import InconsistentSystem
from weilq.borcherds import borcherds_product
from weilq.cli import _dump
from weilq.discform import atkin_lehner, exact_divisors
from weilq.heckeops import hecke_tp, level_u, level_v
from weilq.verify import run_suite
from weilq.vvforms import (DecompositionError, VVExpansion, apply_aut,
                           basis_m_half, decompose, formal_xi,
                           random_supported, symmetry_sign, theta_series)


def reference_json(f):
    """Expansion JSON in the documented layout, written without to_json."""
    tables = ({"r": f.holo} if f.radical
              else {"holo": f.holo, "nonholo": f.nonholo})
    return {"N": f.N, "k": str(f.weight), "rep": "rho" if f.rep == 1 else "dual",
            **{name: [[n, g, str(v)] for (n, g), v in sorted(t.items())]
               for name, t in tables.items()},
            "trunc": f.trunc}


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

    @pytest.mark.parametrize("N, trunc", [(2.0, 16), (True, 16), (2, 16.0),
                                          (2, False), (F(2), 16)])
    def test_rejects_a_level_or_truncation_that_is_not_an_int(self, N, trunc):
        # theta_series(2.0, 16).N was 2.0 and theta_series(True, 16).N was True
        with pytest.raises(ValueError, match="N >= 1 and trunc >= 0"):
            theta_series(N, trunc)
        with pytest.raises(ValueError, match="N >= 1 and trunc >= 0"):
            random_supported(N, F(1, 2), 1, seed=1, trunc=trunc)
        with pytest.raises(ValueError, match="N >= 1 and trunc >= 0"):
            VVExpansion(N, F(1, 2), 1, {}, {}, trunc).validate()


class TestExpansionBasics:
    def test_support_rule(self):
        # n = rep * gamma^2 mod 4N: (1, 11) and (1, 1) on rho, (-1, 1) and
        # (23, 11) on the dual, each with its partner slot
        for rep, rows in ((1, [(1, 1), (1, 11)]), (-1, [(-1, 1), (-1, 11)]),
                          (-1, [(23, 1), (23, 11)])):
            VVExpansion(6, F(1, 2) + (rep < 0), rep,
                        {k: F(1) for k in rows}, {}, 30).validate()
        off = VVExpansion(6, F(1, 2), 1, {(2, 1): F(1), (2, 11): F(1)}, {}, 30)
        with pytest.raises(ValueError, match="support rule"):
            off.validate()

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
        with pytest.raises(ValueError, match=re.escape("is outside [")):
            beyond.validate()
        wrong_part = VVExpansion(2, F(1, 2), 1, {}, {(8, 0): F(1)}, 10)
        with pytest.raises(ValueError, match=re.escape("is outside [")):
            wrong_part.validate()
        for N, trunc in ((0, 10), (-2, 10), (2, -4)):
            with pytest.raises(ValueError, match="N >= 1 and trunc >= 0"):
                VVExpansion(N, F(1, 2), 1, {}, {}, trunc).validate()

    @pytest.mark.parametrize("part", ["holo", "nonholo"])
    @pytest.mark.parametrize("table, match", [
        ({(-7, 1): F(0), (-7, 3): F(0)}, "stored zero at {}(-7, 1)"),
        ({(-7, 5): F(1)}, "non-canonical index at {}(-7, 5)"),
    ], ids=["zero", "non-canonical"])
    def test_validate_rejects_stored_zeros_and_non_canonical_indices(
            self, part, table, match):
        # level 2 on rho: (-7, 1) and (-7, 3) are supported partner slots;
        # (-7, 5) passes the support rule (25 = 1 mod 8), but 5 >= 2N
        tables = {"holo": {}, "nonholo": {}, part: table}
        f = VVExpansion(2, F(1, 2), 1, tables["holo"], tables["nonholo"], 10)
        with pytest.raises(ValueError, match=re.escape(match.format(part))):
            f.validate()

    def test_validate_rejects_non_fraction_values(self):
        keys = ((0, 0), (1, 1), (4, 0), (9, 1))
        exact = VVExpansion(1, F(1, 2), 1, {k: F(1) for k in keys}, {}, 9)
        exact.validate()
        for values in ((0.5, 1.0, 1.0, 1.0), (1, 1, 1, 1), (F(1), F(1), 1, F(1))):
            table = dict(zip(keys, values))
            with pytest.raises(ValueError, match=re.escape("at holo(")
                               + ".*not Fraction"):
                VVExpansion(1, F(1, 2), 1, table, {}, 9).validate()
        nonholo = VVExpansion(1, F(1, 2), 1, {}, {(-3, 1): 2}, 9)
        with pytest.raises(ValueError, match=re.escape("at nonholo(-3, 1) has type int")):
            nonholo.validate()
        # a partner of another type is reported at its own entry, even when
        # the pair is compared first from its gamma < N side
        paired = VVExpansion(2, F(1, 2), 1, {(1, 1): F(1), (1, 3): "1"}, {}, 9)
        with pytest.raises(ValueError, match=re.escape("at holo(1, 3) has type str")):
            paired.validate()

    def test_add_and_scale(self):
        th = theta_series(6, 50)
        g = th + th.scaled(-1)
        assert not g.holo
        h = th.scaled(F(2, 3)) + th.scaled(F(1, 3))
        ok, wit = h.agrees_with(th)
        assert ok, wit

    def test_scale_factor_must_be_exact(self):
        th = theta_series(1, 9)
        with pytest.raises(TypeError, match="int or a Fraction"):
            th.scaled(0.5)
        for factor in (3, -1, F(1, 2), F(-5, 7)):
            g = th.scaled(factor)
            g.validate()
            assert g.holo == {k: factor * c for k, c in th.holo.items()}
            assert all(type(c) is F for c in g.holo.values())
        assert th.scaled(0).holo == {} and th.scaled(F(0)).holo == {}

    def test_add_keeps_only_the_common_window(self):
        h = theta_series(1, 100) + theta_series(1, 25)
        assert h.trunc == 25 and (100, 0) not in h.holo
        h.validate()
        assert VVExpansion.from_json(h.to_json()) == h
        assert h.agrees_with(theta_series(1, 25).scaled(2)) == (True, None)
        assert h == theta_series(1, 25).scaled(2)

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
        # a narrower window, set by a smaller trunc, stops below the edge
        ok, _ = theta_series(1, 24).agrees_with(c)
        assert ok

    def test_agrees_with_first_of_several_differences(self):
        a = random_supported(3, F(1, 2), 1, seed=21, trunc=60)
        b = VVExpansion(3, a.weight, 1, dict(a.holo), dict(a.nonholo), 60)
        diffs = sorted(a.holo)[::7][:5]
        for key in reversed(diffs):
            b.holo[key] += 1
        ok, wit = a.agrees_with(b)
        assert not ok
        assert wit == ("holo", diffs[0], a.holo[diffs[0]], a.holo[diffs[0]] + 1)
        nkey = max(a.nonholo)
        b = VVExpansion(3, a.weight, 1, dict(a.holo), dict(a.nonholo), 60)
        b.nonholo[nkey] = F(1, 7)
        assert a.agrees_with(b)[1] == ("nonholo", nkey, a.nonholo[nkey], F(1, 7))
        narrow = VVExpansion(3, a.weight, 1, a.holo, a.nonholo, abs(nkey[0]) - 1)
        assert narrow.agrees_with(b) == (True, None)

    def test_agrees_with_stored_zero(self):
        th = theta_series(2, 30)
        holo = dict(th.holo)
        holo[(17, 1)] = F(0)  # a supported slot theta leaves empty
        holo[(16, 0)] = F(0)  # an entry of theta, now stored as zero
        z = VVExpansion(2, th.weight, 1, holo, {(-4, 2): F(0)}, 30)
        ok, wit = z.agrees_with(theta_series(2, 30))
        assert not ok and wit[1] == (16, 0) and wit[2] == 0
        del holo[(16, 0)]
        ref = theta_series(2, 30)
        del ref.holo[(16, 0)]
        assert z.agrees_with(ref) == (True, None)
        assert ref.agrees_with(z) == (True, None)

    def test_agrees_with_ignores_entries_beyond_window(self):
        a = random_supported(4, F(3, 2), -1, seed=22, trunc=40)
        b = VVExpansion(4, a.weight, -1, dict(a.holo), dict(a.nonholo), 40)
        b.holo[(47, 1)] = F(5)  # supported slots: n = -1 mod 16
        b.holo[(-49, 1)] = F(-3)
        b.nonholo[(-65, 1)] = F(2)
        assert a.agrees_with(b) == (True, None)
        assert b.agrees_with(a) == (True, None)

    def test_agrees_with_equal_tables_beyond_window(self):
        a = random_supported(4, F(1, 2), 1, seed=24, trunc=40)
        extra = {(52, 2): F(7), (52, 6): F(7), (-44, 2): F(-2), (-44, 6): F(-2),
                 (49, 1): F(3), (49, 7): F(3)}  # supported slots past trunc

        def with_trunc(trunc):  # the same raw tables on a narrower window
            return VVExpansion(4, a.weight, 1, {**a.holo, **extra},
                               dict(a.nonholo), trunc)

        b, c = with_trunc(40), with_trunc(40)
        for left in (b, with_trunc(3)):
            assert left.agrees_with(c) == (True, None)
        c.holo[(52, 2)] = c.holo[(52, 6)] = F(8)  # now they differ only beyond
        for left in (b, with_trunc(3)):
            assert left.agrees_with(c) == (True, None)
        c.holo[(36, 2)] = c.holo[(36, 6)] = a.holo.get((36, 2), 0) + 1
        assert b.agrees_with(c)[1][:2] == ("holo", (36, 2))
        assert with_trunc(35).agrees_with(c) == (True, None)

    def test_type_mismatch_witness(self):
        from weilq.verify import _expansion_witness

        assert _expansion_witness(theta_series(2, 10), theta_series(2, 10)) is None
        wit = _expansion_witness(theta_series(2, 10), theta_series(3, 10))
        assert wit == {"part": "type", "got": ["2", "1/2", "1", "False"],
                       "expected": ["3", "1/2", "1", "False"]}
        x = formal_xi(random_supported(2, F(3, 2), -1, seed=23, trunc=20))
        plain = VVExpansion(2, x.weight, x.rep, dict(x.holo), {}, x.trunc)
        assert _expansion_witness(x, plain)["got"][3] == "True"

    def test_json_round_trip(self):
        f = random_supported(6, F(3, 2), -1, seed=5, trunc=40)
        g = VVExpansion.from_json(f.to_json())
        assert g == f
        # every non-radical table an operator writes is one from_json accepts
        kinds = [(k, rep) for k in (F(-1, 2), F(1, 2), F(3, 2), F(5, 2))
                 for rep in (1, -1)]
        for N, p, c in ((1, 3, 1), (2, 5, 2), (3, 5, 3), (6, 5, 2), (10, 3, 5)):
            stored = [0, 0, 0, 0]  # entries written, per operator
            for seed, (k, rep) in enumerate(kinds):
                f = random_supported(N, k, rep, seed=seed, trunc=150)
                outputs = (hecke_tp(f, p), level_u(f, 2), level_v(f, 3), apply_aut(f, c))
                for i, g in enumerate(outputs):
                    stored[i] += len(g.holo) + len(g.nonholo)
                    assert VVExpansion.from_json(g.to_json()) == g, (N, k, rep, i)
            assert all(stored), N

    def test_to_json_matches_reference_layout(self):
        # operator and shadow outputs, whose values are shared objects
        payloads = []
        for N in range(1, 13):
            p = next(q for q in (3, 5, 7, 11, 13) if 2 * N % q)
            exact = exact_divisors(N)
            for i, k in enumerate((F(-1, 2), F(1, 2), F(3, 2), F(5, 2))):
                for rep in (1, -1):
                    f = random_supported(N, k, rep, seed=100 * N + 2 * i + rep, trunc=60)
                    c = exact[(i + rep) % len(exact)]
                    for g in (hecke_tp(f, p), level_u(f, 2), level_v(f, 3),
                              apply_aut(f, c), formal_xi(f)):
                        data = g.to_json()
                        assert json.dumps(data) == json.dumps(reference_json(g))
                        payloads.append(data)
        payloads.append({"ok": True, "results": [r.to_json()
                                                 for r in run_suite("fricke", n_max=3)]})
        for data in payloads:
            assert _dump(data) == json.dumps(data) + "\n"

    def test_to_json_shared_and_equal_values(self):
        # one Fraction object under many keys, next to equal values that are
        # distinct objects, and keys that sort differently from their values
        shared = F(-7, 3)
        holo, nonholo = {}, {}
        for i, n in enumerate(range(-63, 64, 8)):
            v = shared if i % 3 else F(-7, 3)
            holo[(n, 1)] = holo[(n, 3)] = v
            holo[(n - 1, 0)] = F(i - 8, 2) or shared
        for n in range(-60, 0, 8):
            nonholo[(n, 2)] = shared if n % 16 else F(-n, 5)
        f = VVExpansion(2, F(1, 2), 1, holo, nonholo, 64)
        f.validate()
        data = f.to_json()
        assert json.dumps(data) == json.dumps(reference_json(f))
        assert _dump(data) == json.dumps(data) + "\n"
        assert VVExpansion.from_json(data) == f

    def test_from_json_canonicalizes(self):
        data = {"N": 2, "k": "1/2", "rep": "rho",
                "holo": [[1, -3, "1"], [1, 3, "1"]], "nonholo": [],
                "trunc": 10}
        f = VVExpansion.from_json(data)
        assert f.holo == {(1, 1): F(1), (1, 3): F(1)}
        f.validate()


class TestFromJsonStrict:
    """from_json rejects exactly the tables that validate() rejects."""

    @staticmethod
    def data(N, k, rep, holo, nonholo=(), trunc=20):
        return {"N": N, "k": k, "rep": rep, "holo": [list(r) for r in holo],
                "nonholo": [list(r) for r in nonholo], "trunc": trunc}

    @pytest.mark.parametrize("holo, match", [
        ([[1, 1, "1"], [1, 3, "5"]], "symmetry with gamma = 1"),
        ([[1, 1, "1"]], "gamma = 3 is missing"),
        ([[1, 1, "1"], [1, 3, "1"], [1, -1, "1"]], "given twice"),
        ([[1, 1, "1"], [1, 3, "0"]], "gamma = 3 is missing"),
    ])
    def test_symmetry_and_duplicates(self, holo, match):
        with pytest.raises(ValueError, match=match):
            VVExpansion.from_json(self.data(2, "1/2", "rho", holo))

    @pytest.mark.parametrize("part, n", [("holo", -1), ("nonholo", -13)])
    @pytest.mark.parametrize("first", [1, 5])
    def test_same_text_partners_at_negative_eps(self, part, n, first):
        # weight 1/2 on the dual has eps = -1, so equal nonzero partners are
        # a violation even when the reader shares one value for their text
        rows = [[n, first, "3/2"], [n, 6 - first, "3/2"]]
        data = self.data(3, "1/2", "dual", [], trunc=20)
        data[part] = rows
        with pytest.raises(ValueError, match="symmetry with gamma = 1"):
            VVExpansion.from_json(data)
        rows[1][2] = "-3/2"
        VVExpansion.from_json(data)

    def test_self_paired_slot_must_vanish(self):
        # weight 3/2 on rho has eps = -1, so gamma = 0 and gamma = N are empty
        for gamma in (0, 2):
            row = [gamma * gamma, gamma, "1"]
            with pytest.raises(ValueError, match="self-paired"):
                VVExpansion.from_json(self.data(2, "3/2", "rho", [row]))
        f = VVExpansion.from_json(self.data(2, "3/2", "rho", [[4, 2, "0"]]))
        assert not f.holo

    @pytest.mark.parametrize("k", ["1/3", "1", "0"])
    def test_weight_must_be_half_integral(self, k):
        with pytest.raises(ValueError, match="half-integral"):
            VVExpansion.from_json(self.data(2, k, "rho", []))

    def test_agrees_with_validate(self):
        rng = random.Random(19)
        seen, kinds = set(), set()
        for case in range(180):
            N = rng.randint(1, 6)
            k, rep = rng.choice([F(1, 2), F(3, 2), F(5, 2)]), rng.choice([1, -1])
            f = random_supported(N, k, rep, seed=case, trunc=24)
            data = f.to_json()
            assert VVExpansion.from_json(data) == f
            part = rng.choice(["holo", "nonholo"])
            rows = data[part]
            kind = rng.randrange(6)
            if kind in (0, 1, 3) and not rows:
                kind = 2
            if kind == 0:    # one value changed
                rows[rng.randrange(len(rows))][2] = str(F(rng.randint(-3, 3)))
            elif kind == 1:  # one entry dropped
                rows.pop(rng.randrange(len(rows)))
            elif kind == 2:  # an entry at a self-paired slot
                gamma = rng.choice([0, N])
                free = [n for n in range(-24, 0)
                        if (n - rep * gamma * gamma) % (4 * N) == 0
                        and [n, gamma] not in [r[:2] for r in rows]]
                if free:
                    rows.append([rng.choice(free), gamma, "2"])
            elif kind == 3:  # an entry and its partner scaled together
                n, gamma, _ = rows[rng.randrange(len(rows))]
                for r in rows:
                    if r[0] == n and r[1] in (gamma, -gamma % (2 * N)):
                        r[2] = str(3 * F(r[2]))
            else:            # a symmetric pair past trunc, or nonholo at n >= 0
                gamma = rng.randrange(2 * N)
                n = rep * gamma * gamma % (4 * N)
                if kind == 5:
                    rows = data["nonholo"]
                    n += 4 * N * rng.randint(0, (24 - n) // (4 * N))
                elif part == "holo" and rng.random() < 0.5:
                    n += 4 * N * (24 // (4 * N) + 1)
                else:
                    n -= 4 * N * ((n + 24) // (4 * N) + 1)
                rows.append([n, gamma, "2"])
                if -gamma % (2 * N) != gamma:
                    rows.append([n, -gamma % (2 * N), str(2 * f.epsilon)])
            tables = {p: {(n, g % (2 * N)): F(c) for n, g, c in data[p] if F(c)}
                      for p in ("holo", "nonholo")}
            naive = VVExpansion(N, k, rep, tables["holo"], tables["nonholo"], 24)
            try:
                naive.validate()
                valid = True
            except ValueError:
                valid = False
            try:
                assert VVExpansion.from_json(data) == naive
                read = True
            except ValueError:
                read = False
            assert read == valid, (case, data)
            seen.add((valid, f.epsilon))
            kinds.add((kind, valid))
        assert seen == {(True, 1), (True, -1), (False, 1), (False, -1)}
        assert {(4, False), (5, False)} <= kinds

    @pytest.mark.parametrize("field, value", [
        ("N", 1.0), ("N", "1"), ("N", True), ("trunc", 10.7), ("trunc", "10"),
        ("trunc", True),
    ])
    def test_level_and_window_must_be_integers(self, field, value):
        data = self.data(1, "1/2", "rho", [[0, 0, "1"]], trunc=10)
        data[field] = value
        with pytest.raises(ValueError, match="must be integers"):
            VVExpansion.from_json(data)

    @pytest.mark.parametrize("edit, why", [
        (lambda d: d.update(N=0), "N and trunc must be integers with N >= 1"),
        (lambda d: d.update(trunc=-1), "N and trunc must be integers with N >= 1"),
        (lambda d: d["holo"].append([0, 2, "1"]), "slot (n=0, gamma=0) is given twice"),
        (lambda d: d["holo"].append([4, 0, "1/0"]), "'1/0' is not a rational number"),
        (lambda d: d["nonholo"].append([-4, 0]), "not enough values to unpack"),
    ], ids=["level-0", "trunc-negative", "repeated", "zero-denominator", "short-row"])
    def test_reader_errors_name_the_layout(self, edit, why):
        # every error of the reader, the frame check included, is prefixed
        data = self.data(1, "1/2", "rho", [[0, 0, "1"]], trunc=10)
        edit(data)
        with pytest.raises(ValueError, match="^" + re.escape(
                f"malformed expansion JSON: {why}")):
            VVExpansion.from_json(data)

    @pytest.mark.parametrize("row", [
        [1.9, 1, "2"], [1.0, 1, "2"], ["1", 1, "2"], [1, "1", "2"],
        [True, True, "2"], [1, 1.0, "2"], [1.5, 1, "0"],
    ])
    @pytest.mark.parametrize("part", ["holo", "nonholo"])
    def test_indices_must_be_integers(self, row, part):
        # truncated to ints, each index pair reads as slot (1, 1), or (-1, 1)
        # in nonholo; a zero value does not excuse a non-integer index
        if part == "nonholo" and type(row[0]) is not str:
            row = [-row[0], *row[1:]]
        data = self.data(1, "1/2", "rho", [[0, 0, "1"]], trunc=10)
        data[part].append(row)
        with pytest.raises(ValueError, match="non-integer index"):
            VVExpansion.from_json(data)


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

    def test_one_involution_call_per_expansion(self, monkeypatch):
        calls = []

        def counting(N, c, gamma):
            calls.append(gamma)
            return atkin_lehner(N, c, gamma)

        monkeypatch.setattr(vvforms, "atkin_lehner", counting)
        th = theta_series(30, 200)
        tw = apply_aut(th, 5)
        assert len(calls) <= 1
        assert tw.holo == {(n, atkin_lehner(30, 5, g)): v
                           for (n, g), v in th.holo.items()}

    @pytest.mark.parametrize("c", [2 ** 12, 5 ** 12])
    def test_cost_does_not_grow_with_the_level(self, c):
        N = 10 ** 12
        f = VVExpansion(N, F(1, 2), 1, {(1, 1): F(3)}, {}, 10)
        ((n, x), v), = apply_aut(f, c).holo.items()
        assert (n, v) == (1, F(3)) and 0 <= x < 2 * N
        assert (x + 1) % (2 * c) == 0 and (x - 1) % (2 * N // c) == 0


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
                [coords] = decompose([el], basis)
                assert coords == [F(int(i == j)) for i in range(len(basis))]


class TestDecompose:
    def test_round_trip_combination(self):
        basis = basis_m_half(6, 24)
        f = basis[0].scaled(2) + basis[1].scaled(3)
        assert decompose([f], basis) == [[F(2), F(3)]]

    def test_rational_combination(self):
        basis = basis_m_half(12, 48)
        f = (basis[0].scaled(F(1, 2)) + basis[1].scaled(F(-2, 3))
             + basis[2].scaled(5))
        assert decompose([f], basis) == [[F(1, 2), F(-2, 3), F(5)]]

    def test_rejects_outside_span(self):
        # the alien slot is inside the reliable window but past n = 4N, where
        # the coordinates are already fixed
        basis = basis_m_half(6, 60)
        alien = VVExpansion(6, F(1, 2), 1, {(49, 1): F(1), (49, 11): F(1)},
                            {}, 60)
        with pytest.raises(DecompositionError, match=re.escape(
                "not in the span of the theta basis (first inconsistent slot "
                "(49, 1))")):
            decompose([basis[0] + alien], basis)

    def test_names_principal_part_slot(self):
        # theta series have no principal part, so a holo entry at n < 0 is
        # the equation 0 = c, and it sorts before every slot with n >= 0
        basis = basis_m_half(6, 24)
        polar = VVExpansion(6, F(1, 2), 1, {(-23, 1): F(2), (-23, 11): F(2)},
                            {}, 24)
        with pytest.raises(DecompositionError, match=re.escape(
                "first inconsistent slot (-23, 1)")):
            decompose([basis[0] + polar], basis)

    def test_rejects_inconsistent_pivot_rows(self):
        basis = basis_m_half(6, 24)
        lone = VVExpansion(6, F(1, 2), 1, {(0, 0): F(1)}, {}, 24)
        with pytest.raises(DecompositionError, match="not in the span"):
            decompose([lone], basis)

    def test_rejects_wrong_weight(self):
        f = random_supported(6, F(3, 2), 1, seed=3, trunc=24)
        with pytest.raises(DecompositionError):
            decompose([f], basis_m_half(6, 24))

    def test_rejects_nonholomorphic(self):
        f = random_supported(6, F(1, 2), 1, seed=3, trunc=24)
        if not f.nonholo:  # pragma: no cover - seed dependent guard
            f.nonholo[(-23, 1)] = F(1)
            f.nonholo[(-23, 11)] = F(1)
        with pytest.raises(DecompositionError):
            decompose([f], basis_m_half(6, 24))


def all_slots(N, window):
    """Reference walk: every supported slot with 0 <= n <= min(window, 4N)."""
    return [(n, g) for n in range(min(window, 4 * N) + 1) for g in range(2 * N)
            if (n - g * g) % (4 * N) == 0]


def slot_system(f, basis, slots):
    """One equation per slot: the basis values against the value of f."""
    return ([[b.holo.get(k, F(0)) for b in basis] for k in slots],
            [f.holo.get(k, F(0)) for k in slots])


def all_slots_coordinates(f, basis):
    """Slow reference: the all-slot walk solved by dense Gauss-Jordan."""
    window = min([f.trunc] + [b.trunc for b in basis])
    return dense_solve(*slot_system(f, basis, all_slots(f.N, window)))


def seeded_combination(rng, basis):
    coords = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in basis]
    f = basis[0].scaled(coords[0])
    for x, b in zip(coords[1:], basis[1:]):
        f = f + b.scaled(x)
    return f, coords


class TestDecomposeOracle:
    def test_basis_elements_match_all_slot_walk(self):
        for N in range(1, 41):
            basis = basis_m_half(N, 4 * N)
            for el in basis:
                assert decompose([el], basis) == [all_slots_coordinates(el, basis)]

    def test_combinations_match_all_slot_walk(self):
        rng = random.Random(6)
        for N in range(1, 41):
            basis = basis_m_half(N, 4 * N + rng.randint(0, 30))
            for _ in range(3):
                f, coords = seeded_combination(rng, basis)
                [got] = decompose([f], basis)
                assert got == coords == all_slots_coordinates(f, basis), N

    def test_garbage_at_unsupported_slots_is_caught(self):
        # basis elements vanish at unsupported slots, so garbage there is
        # the equation 0 = c
        rng = random.Random(7)
        for N in (1, 4, 6, 12, 30):
            window = 6 * N
            basis = basis_m_half(N, window)
            f, coords = seeded_combination(rng, basis)
            free = [(n, g) for n in range(window + 1) for g in range(2 * N)
                    if (n - g * g) % (4 * N)]
            for slot in rng.sample(free, min(5, len(free))):
                bad = VVExpansion(N, f.weight, 1, {**f.holo, slot: F(7, 3)}, {},
                                  window)
                with pytest.raises(DecompositionError, match=re.escape(
                        f"first inconsistent slot {slot}")):
                    decompose([bad], basis)
            beyond = {(window + 4 * N, 0): F(5)}
            assert decompose([VVExpansion(N, f.weight, 1, {**f.holo, **beyond}, {},
                                          window)], basis) == [coords]

    def test_names_first_inconsistent_slot(self):
        # the reference: the first slot of the all-slot walk at which the
        # equations so far have no solution
        rng = random.Random(8)
        for N in (1, 2, 6, 12, 20):
            basis = basis_m_half(N, 4 * N)
            f, _ = seeded_combination(rng, basis)
            slots = all_slots(N, 4 * N)
            for slot in rng.sample(slots, min(4, len(slots))):
                holo = dict(f.holo)
                holo[slot] = holo.get(slot, F(0)) + 1
                bad = VVExpansion(N, f.weight, 1, holo, {}, 4 * N)
                first = next(k for i, k in enumerate(slots) if outcome(
                    dense_solve, *slot_system(bad, basis, slots[:i + 1]))
                    is InconsistentSystem)
                with pytest.raises(DecompositionError, match=re.escape(
                        f"first inconsistent slot {first}")):
                    decompose([bad], basis)

    def test_several_targets_match_single_solves(self):
        rng = random.Random(9)
        for N in range(1, 41):
            basis = basis_m_half(N, 4 * N + rng.randint(0, 30))
            pairs = [seeded_combination(rng, basis) for _ in range(3)]
            targets = [f for f, _ in pairs] + basis
            want = [coords for _, coords in pairs] + [
                [F(int(i == j)) for i in range(len(basis))] for j in range(len(basis))]
            assert decompose(targets, basis) == want, N
            assert [decompose([f], basis)[0] for f in targets] == want, N
        assert decompose([], basis) == []

    def test_several_targets_name_first_inconsistent_slot(self):
        # any target outside the span fails the whole solve, at the least of
        # the targets' own first inconsistent slots
        rng = random.Random(10)
        for N in (1, 2, 6, 12, 20):
            basis = basis_m_half(N, 4 * N)
            slots = all_slots(N, 4 * N)
            targets = [seeded_combination(rng, basis)[0] for _ in range(4)]
            firsts = []
            for i in rng.sample(range(4), rng.randint(1, 3)):
                holo = dict(targets[i].holo)
                slot = rng.choice(slots)
                holo[slot] = holo.get(slot, F(0)) + 1
                targets[i] = VVExpansion(N, F(1, 2), 1, holo, {}, 4 * N)
                firsts.append(next(k for j, k in enumerate(slots) if outcome(
                    dense_solve, *slot_system(targets[i], basis, slots[:j + 1]))
                    is InconsistentSystem))
            with pytest.raises(DecompositionError, match=re.escape(
                    f"first inconsistent slot {min(firsts)})")):
                decompose(targets, basis)

    def test_rejects_any_bad_target(self):
        basis = basis_m_half(6, 24)
        wrong = random_supported(6, F(3, 2), 1, seed=3, trunc=24)
        with pytest.raises(DecompositionError, match="weight 1/2"):
            decompose([basis[0], wrong], basis)
        with pytest.raises(DecompositionError, match="mismatched"):
            decompose([basis[0], theta_series(3, 24)], basis)
        with pytest.raises(DecompositionError, match="empty basis"):
            decompose([theta_series(1, 9)], [])


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
            decompose([x], basis_m_half(3, 50))
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


def reference_random_supported(N, weight, rep, seed, trunc):
    """random_supported with the same rng calls, building each value afresh."""
    eps = symmetry_sign(weight, rep)
    rng = random.Random(seed)
    holo, nonholo = {}, {}
    for gamma in range(N + 1):
        partner = -gamma % (2 * N)
        if partner == gamma and eps == -1:
            continue
        for table, lo, hi in ((holo, -trunc, trunc), (nonholo, -trunc, -1)):
            for n in range(lo, hi + 1):
                if (n - rep * gamma * gamma) % (4 * N) or rng.random() >= 0.5:
                    continue
                num, den = rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4))
                if num:
                    table[(n, gamma)] = F(num, den)
                    if partner != gamma:
                        table[(n, partner)] = eps * F(num, den)
    return holo, nonholo


class TestRandomSupported:
    def test_matches_reference_draws(self):
        picked = [(1, F(1, 2), 1), (1, F(5, 2), -1), (2, F(3, 2), 1),
                  (3, F(3, 2), -1), (4, F(1, 2), -1), (6, F(-1, 2), 1),
                  (7, F(5, 2), 1), (12, F(3, 2), 1)]
        cases = [(N, k, rep, seed, 60) for N, k, rep in picked for seed in (0, 7, 31)]
        # every level to 12, weight and representation, at trunc 80
        cases += [(N, k, rep, seed, 80) for N in range(1, 13)
                  for k in (F(-1, 2), F(1, 2), F(3, 2), F(5, 2))
                  for rep in (1, -1) for seed in (0, 1, 8201)]
        seen = set()  # (eps, whether a self-paired slot is stored)
        for N, k, rep, seed, trunc in cases:
            f = random_supported(N, k, rep, seed=seed, trunc=trunc)
            want = reference_random_supported(N, k, rep, seed, trunc)
            assert (f.holo, f.nonholo) == want
            assert all(type(v) is F for v in [*f.holo.values(), *f.nonholo.values()])
            seen.add((f.epsilon, any(g in (0, N) for _, g in f.holo)))
        assert seen == {(1, True), (-1, False)}

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

    def test_rejects_bad_level_and_truncation(self):
        for N, trunc in ((0, 10), (-2, 10), (3, -4), (3, -1)):
            with pytest.raises(ValueError, match="N >= 1 and trunc >= 0"):
                random_supported(N, F(1, 2), 1, seed=1, trunc=trunc)

    def test_zero_window(self):
        f = random_supported(3, F(1, 2), 1, seed=2, trunc=0)
        f.validate()
        assert all(n == 0 for (n, _) in f.holo)
        assert not f.nonholo
