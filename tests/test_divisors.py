"""Cusp classes, eta-product divisors, matching solver, CM-point degrees."""

import hashlib
import importlib
import json
import pathlib
import pkgutil
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from math import gcd, prod

import pytest

import weilq
import weilq.divisors as divisors_module
import weilq.verify as verify_module
from weilq._linalg import solve_exact
from weilq.discform import (divisor_classes, divisors, euler_phi, index_gamma0,
                            prime_factors)
from weilq.divisors import (CuspDivisor, MatchingError, _coset_reps,
                            _degrees_by_root, _matching_inverse,
                            _proj_automorph_order, cusp_classes,
                            cusp_space_dimension, eta_divisor, eta_order,
                            fricke_image, heegner_degree, reduced_forms,
                            solve_cusp_matching)
from weilq.heckeops import legendre


def eta_combination(N: int, coeffs: dict) -> CuspDivisor:
    """The divisor of prod_d eta-product(d)^(x_d) for coeffs {d: x_d}.

    Built class by class from the Ligozat orders, zero sums dropped.
    """
    orders = {}
    for c in divisors(N):
        v = sum((x * eta_order(N, d, c) for d, x in coeffs.items()), F(0))
        if v:
            orders[c] = v
    return CuspDivisor(N, orders)


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


def p1_reps_by_minimum(N: int) -> tuple:
    """Projective line over Z/N keyed by orbit minima, in quadratic time."""
    if N == 1:
        return ((1, 0),)
    reps = []
    for c0 in divisors(N):
        x = c0 % N
        units = [u for u in range(1, N + 1)
                 if gcd(u, N) == 1 and (u * x - x) % N == 0]
        seen = set()
        for y in range(N):
            if gcd(gcd(x, y), N) != 1:
                continue
            key = min((u * y) % N for u in units)
            if key in seen:
                continue
            seen.add(key)
            reps.append((x, key))
    return tuple(reps)


class TestCuspClasses:
    def test_counts(self):
        counts = [sum(cl.orbit_size for cl in cusp_classes(N))
                  for N in (1, 4, 9, 12)]
        assert counts == [1, 3, 4, 6]

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
        for d, c in ((-2, 6), (0, 1), (1, 0), (2, -6), (-1, -1), (12, 1)):
            with pytest.raises(ValueError, match="positive divisor"):
                eta_order(6, d, c)
        for d in (-2, -1, 0, 4, 12):
            with pytest.raises(ValueError, match="positive divisor"):
                eta_divisor(6, d)

    def test_eta_order_rejects_a_float_divisor(self):
        # 2.0 hashes equal to 2, so a bare dict lookup would find row 2
        for d, c in ((2.0, 3), (2, 3.0), (True, 3)):
            with pytest.raises(ValueError, match="is not a positive divisor"):
                eta_order(6, d, c)

    def test_eta_divisor_rejects_a_float_divisor(self):
        for d in (2.0, True):
            with pytest.raises(ValueError, match="is not a positive divisor"):
                eta_divisor(6, d)

    def test_ligozat_per_factor_sum(self):
        # Ligozat's sum term by term over delta in {d, N/d}, not the
        # combined numerator the order table is built from
        for N in range(1, 201):
            for d in divisors(N):
                for c in divisors(N):
                    want = sum(F(N * gcd(c, delta) ** 2,
                                 24 * c * delta * gcd(c, N // c))
                               for delta in (d, N // d))
                    got = eta_order(N, d, c)
                    assert got == want and got > 0, (N, d, c)


class TestCuspDivisor:
    def test_json_round_trip(self):
        div = eta_divisor(12, 2)
        again = CuspDivisor.from_json(div.to_json())
        assert again.N == div.N and again.orders == div.orders
        again.validate()

    @pytest.mark.parametrize("N, orders, match", [
        (6, {1: 0.5}, "order at class 1 has type float, not Fraction"),
        (6, {1: 1}, "order at class 1 has type int, not Fraction"),
        (6, {4: F(1)}, "class 4 is not a positive divisor of N = 6"),
        (6, {1: F(0)}, "stored zero at class 1"),
        (6.0, {1: F(1)}, "N must be a positive integer, got 6.0"),
        (0, {}, "N must be a positive integer, got 0"),
    ], ids=["float", "int", "non-divisor", "zero", "float-level", "zero-level"])
    def test_validate_rejects(self, N, orders, match):
        with pytest.raises(ValueError, match=match):
            CuspDivisor(N, orders).validate()

    def test_validate_accepts_built_divisors(self):
        for N in (1, 6, 36):
            for d in divisors(N):
                eta_divisor(N, d).validate()
                eta_combination(N, {d: F(-2, 3), 1: F(1)}).validate()
        CuspDivisor(6, {}).validate()

    def test_from_json_checks_the_class_of_a_zero_row(self):
        assert CuspDivisor.from_json({"N": 6, "orders": [[2, "0"]]}).orders == {}
        with pytest.raises(ValueError, match="class 5 is not a positive divisor"):
            CuspDivisor.from_json({"N": 6, "orders": [[5, "0"]]})

    @pytest.mark.parametrize("orders, why", [
        (5, "'int' object is not iterable"),
        ([[2, "1"], [2, "3"]], "class 2 is given twice"),
        ([[2, "1/0"]], "'1/0' is not a rational number"),
    ], ids=["not-a-list", "repeated", "zero-denominator"])
    def test_from_json_reader_errors_name_the_layout(self, orders, why):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"malformed divisor JSON: {why}")):
            CuspDivisor.from_json({"N": 6, "orders": orders})

    def test_fricke_fixed_points_and_involution(self):
        for N in (2, 6, 12, 45):
            for d in divisors(N):
                div = eta_divisor(N, d)
                assert fricke_image(div).orders == div.orders
        skew = CuspDivisor(6, {1: F(2), 6: F(5)})
        assert fricke_image(skew).orders == {6: F(2), 1: F(5)}
        assert fricke_image(fricke_image(skew)).orders == skew.orders

    def test_fricke_image_validates_its_divisor(self):
        # class 4 does not divide 6; unchecked, it would map to class 1
        with pytest.raises(ValueError, match="class 4 is not a positive divisor"):
            fricke_image(CuspDivisor(6, {4: 1}))


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
        assert solve_cusp_matching(12, CuspDivisor(12, {})) == [F(0)] * 3

    def test_rejects_non_fricke_invariant(self):
        target = CuspDivisor(6, {1: F(1)})
        with pytest.raises(ValueError, match="Fricke"):
            solve_cusp_matching(6, target)

    def test_rejects_float_orders(self):
        # unchecked, the floats would solve to [7/2, -5/2]
        with pytest.raises(ValueError, match="type float, not Fraction"):
            solve_cusp_matching(6, CuspDivisor(6, {1: 0.5, 6: 0.5}))

    def test_rejects_wrong_level(self):
        with pytest.raises(ValueError, match="level"):
            solve_cusp_matching(6, CuspDivisor(12, {}))

    def test_reconstruction(self):
        N = 36
        target = eta_combination(N, {2: F(1, 3), 6: F(-2)})
        x = solve_cusp_matching(N, target)
        assert x == [F(0), F(1, 3), F(0), F(0), F(-2)]
        rebuilt = eta_combination(N, dict(zip(divisor_classes(N), x)))
        assert rebuilt.orders == target.orders

    def test_agrees_with_solve_exact(self):
        # the cached inverse against one elimination of the same rows with
        # both targets of a level as its right-hand sides
        rng = random.Random(15)
        for N in range(1, 301):
            classes = divisor_classes(N)
            rows = [[eta_order(N, d, c) for d in classes] for c in classes]
            targets = []
            for _ in range(2):
                orders = {}
                for c in classes:
                    v = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                    if rng.random() < 0.8:
                        orders[c] = orders[N // c] = v
                targets.append(CuspDivisor(N, orders))
            sol, den = solve_exact(rows, [[t.orders.get(c, 0) for t in targets]
                                          for c in classes])
            for j, target in enumerate(targets):
                x = solve_cusp_matching(N, target)
                assert x == [F(row[j], den) for row in sol], N
                assert all(type(v) is F for v in x)

    def test_singular_matrix_is_reported_on_every_call(self, monkeypatch):
        def ones(N):
            return {d: {c: F(1) for c in divisors(N)} for d in divisors(N)}

        monkeypatch.setattr(divisors_module, "_order_table", ones)
        _matching_inverse.cache_clear()
        try:
            for _ in range(2):
                with pytest.raises(MatchingError) as info:
                    solve_cusp_matching(6, CuspDivisor(6, {}))
                assert str(info.value) == (
                    "matching matrix at level 6 is singular; this contradicts "
                    "the cusp-matching theorem (inconsistent linear system "
                    "(first bad row 1))")
            assert _matching_inverse.cache_info().currsize == 0
        finally:
            _matching_inverse.cache_clear()

    def test_singular_matrix_fails_the_suite(self, monkeypatch):
        # every solve of the cusp suite reports the error as a witness,
        # the zero solve too, and the suite runs on to the next level
        def singular(N):
            raise MatchingError(f"matching matrix at level {N} is singular")

        monkeypatch.setattr(divisors_module, "_matching_inverse", singular)
        for N in (1, 6, 36):
            outcomes = list(verify_module._cusp_cases(N, seed=1))
            dim = cusp_space_dimension(N)
            assert len(outcomes) == dim + 3, N
            assert outcomes[0] is None
            fails = outcomes[1:]
            assert [f["check"] for f in fails] == \
                ["unit"] * dim + ["zero", "round-trip"]
            for f in fails:
                assert f["N"] == N
                assert f["error"] == f"matching matrix at level {N} is singular"
            assert [f["d"] for f in fails[:dim]] == divisor_classes(N)
            assert set(fails[dim]) == {"N", "check", "error"}

    def test_round_trip_oracle_catches_a_wrong_solve(self, monkeypatch):
        solve = verify_module.solve_cusp_matching

        def off_by_one(N, target):
            x = solve(N, target)
            return [x[0] + 1] + x[1:]

        monkeypatch.setattr(verify_module, "solve_cusp_matching", off_by_one)
        for N in (6, 12, 36):
            fails = [f for f in verify_module._cusp_cases(N, seed=1)
                     if f and f["check"] == "round-trip"]
            assert len(fails) == 1, N
            fail = fails[0]
            assert set(fail) == {"N", "check", "expected", "got"}
            assert fail["got"] != fail["expected"]
            for side in ("expected", "got"):
                assert CuspDivisor.from_json(fail[side]).N == N


class TestCaches:
    def test_no_shared_mutable_state(self):
        div = eta_divisor(12, 2)
        want = dict(div.orders)
        div.orders[1] = F(99)
        del div.orders[12]
        assert eta_divisor(12, 2).orders == want
        assert eta_divisor(12, 6).orders == want
        assert eta_order(12, 2, 1) == want[1]
        x = solve_cusp_matching(12, eta_divisor(12, 2))
        assert x == [F(0), F(1), F(0)]
        x[1] = F(7)
        x.append(F(1))
        assert solve_cusp_matching(12, eta_divisor(12, 2)) == [F(0), F(1), F(0)]

    def test_caches_are_bounded(self):
        # every memo of every weilq module, and none of them unbounded
        caches = {}
        for info in pkgutil.iter_modules(weilq.__path__):
            module = importlib.import_module(f"weilq.{info.name}")
            for obj in vars(module).values():
                if hasattr(obj, "cache_info"):
                    caches[f"{obj.__module__}.{obj.__qualname__}"] = obj
        assert set(caches) == {
            "weilq.divisors._order_table", "weilq.divisors._matching_inverse",
            "weilq.divisors.reduced_forms", "weilq.divisors._coset_monomials",
            "weilq.divisors._degrees_by_root", "weilq.heckeops._tp_factors",
            "weilq.heckeops._v_plan",
            "weilq.jacobi._euler_recurrence", "weilq.jacobi._eta_pair",
            "weilq.cli._build_parser"}
        unbounded = {name for name, cached in caches.items()
                     if cached.cache_info().maxsize is None}
        assert unbounded == set()


class TestReducedForms:
    def test_small_discriminants(self):
        assert reduced_forms(-3) == ((1, 1, 1),)
        assert reduced_forms(-4) == ((1, 0, 1),)
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

    def test_float_discriminant_raises_cached_or_not(self):
        # typed=True keeps -23.0 off the memo entry of -23
        reduced_forms.cache_clear()
        with pytest.raises(TypeError):
            reduced_forms(-23.0)
        assert reduced_forms(-23) == ((1, 1, 6), (2, 1, 3), (2, -1, 3))
        with pytest.raises(TypeError):
            reduced_forms(-23.0)


class TestCosetReps:
    def test_projective_line_sizes(self):
        for N in (1, 2, 6, 12, 30, 4001):
            assert len(_coset_reps(N)) == index_gamma0(N)

    def test_matches_minimum_enumeration(self):
        assert _coset_reps(1) == ((1, 0, 0, 1),)
        for N in range(2, 300):
            first_columns = tuple((a % N, c) for a, _, c, _ in _coset_reps(N))
            assert first_columns == p1_reps_by_minimum(N), N

    def test_determinants_and_distinctness(self):
        for N in range(1, 300):
            for a, b, c, d in _coset_reps(N):
                assert a * d - b * c == 1, (N, a, b, c, d)
        for N in (1, 4, 6, 15):
            reps = _coset_reps(N)
            assert len(reps) == index_gamma0(N)
            seen = set()
            for a, b, c, d in reps:
                # the coset is determined by the bottom-projective first column
                units = [u for u in range(1, N + 1) if gcd(u, N) == 1]
                key = min(((u * a) % N, (u * c) % N) for u in units)
                assert key not in seen
                seen.add(key)


def matrix_walk(N, n, reps):
    """Slow reference for _degrees_by_root: each translate from its matrix.

    Every reduced form of disc n is moved by every matrix (a, b, c, d) of
    reps = _coset_reps(N), and both coefficients of the translate are
    expanded.
    """
    bins = {}
    for A, B, C in reduced_forms(n):
        sixths = 6 // _proj_automorph_order(A, B, C)
        for a, b, c, d in reps:
            if (A * a * a + B * a * c + C * c * c) % N == 0:
                g = (2 * A * a * b + B * (a * d + b * c) + 2 * C * c * d) % (2 * N)
                bins[g] = bins.get(g, 0) + sixths
    return bins


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

    def test_composite_level_roots(self):
        # independent oracle (Gross-Kohnen-Zagier): for gcd(N, D) = 1 each
        # root gamma mod 2N carries one level-N class per level-1 class, so
        # every root alone has degree H(D); a fault in the binning by gamma
        # breaks this at composite levels, where roots are many
        cases = 0
        for N in range(1, 41):
            for D in range(3, 200):
                if -D % 4 not in (0, 1) or gcd(N, D) != 1:
                    continue
                for g in range(2 * N):
                    if (g * g + D) % (4 * N) == 0:
                        assert heegner_degree(N, -D, g) == hurwitz_oracle(D), \
                            (N, D, g)
                        cases += 1
        assert cases == 2355

    def test_bins_are_roots(self):
        for N in range(1, 31):
            for n in range(-119, 0):
                if n % 4 in (0, 1):
                    for g in _degrees_by_root(N, n):
                        assert (g * g - n) % (4 * N) == 0, (N, n, g)

    def test_walk_matches_matrix_reference(self):
        discs = [n for n in range(-1, -301, -1) if n % 4 in (0, 1)]
        assert 30 * len(discs) == 4500
        for N in range(1, 31):
            reps = _coset_reps(N)  # one coset walk per level
            for n in discs:
                assert _degrees_by_root(N, n) == matrix_walk(N, n, reps), (N, n)

    def test_bins_are_pinned(self):
        # every bin of 1800 (N, n) pairs, composite levels with gcd(N, n) > 1
        # included, which the Hurwitz and GKZ oracles above skip
        pairs = [[N, n, sorted(_degrees_by_root(N, n).items())]
                 for N in range(1, 31) for n in range(-1, -121, -1)
                 if n % 4 in (0, 1)]
        assert len(pairs) == 1800
        digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
        assert digest == ("ca0da1f72086edac73e76232153012a8"
                          "26a238c94f75aa9fd8628a223d854898")

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
        for N in (0, -2):
            with pytest.raises(ValueError, match="N must be a positive"):
                heegner_degree(N, -3, 0)

    NON_INT_ARGS = [(1, -3.0, 1), (True, -3, 1), (1.0, -3, 1), (1, -3, True),
                    (1, -3, 1.0), (1, F(-3), 1)]

    @pytest.mark.parametrize("args", NON_INT_ARGS)
    def test_non_int_arguments_raise_after_the_int_call(self, args):
        # the int call fills the memo entry that an equal float or bool hit
        assert heegner_degree(1, -3, 1) == F(1, 3)
        with pytest.raises(ValueError, match="must be ints"):
            heegner_degree(*args)

    def test_non_int_arguments_raise_in_a_fresh_process(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
                "from fractions import Fraction\n"
                "from weilq.divisors import heegner_degree\n"
                f"for args in {self.NON_INT_ARGS!r}:\n"
                "    try:\n"
                "        print(heegner_degree(*args))\n"
                "    except Exception as exc:\n"
                "        print(type(exc).__name__)")
        src = pathlib.Path(weilq.__file__).resolve().parent.parent
        out = subprocess.run([sys.executable, "-c", code, str(src)],
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == ["ValueError"] * len(self.NON_INT_ARGS)


def kronecker(D: int, p: int) -> int:
    """Kronecker symbol (D/p) for a discriminant D and a prime p."""
    if p == 2:
        return 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
    return legendre(D, p)


class TestFrickeQuotientGenus:
    """Genera of X_0(N) and X_0(N)/w_N at squarefree levels 5 <= N <= 1000.

    g = 1 + mu/12 - nu_2/4 - nu_3/3 - nu_inf/2 with nu_inf read from the
    cusp classes, and Riemann-Hurwitz for the Fricke involution, whose
    fixed points at N > 4 number the Hurwitz class number H(4N), read as
    heegner_degree(1, -4N, 0): g+ = (2g + 2 - H(4N)) / 4.  Both must be
    integers >= 0, and the genus 0 levels and the primes with g+ = 1, 2 are
    the classical lists.
    """

    def genera(self):
        out = {}
        for N in range(5, 1001):
            primes = prime_factors(N)
            if prod(primes) != N:
                continue
            nu2 = prod(1 + kronecker(-4, p) for p in primes)
            nu3 = prod(1 + kronecker(-3, p) for p in primes)
            cusps = sum(cl.orbit_size for cl in cusp_classes(N))
            g = (1 + F(index_gamma0(N), 12) - F(nu2, 4) - F(nu3, 3)
                 - F(cusps, 2))
            g_plus = (2 * g + 2 - heegner_degree(1, -4 * N, 0)) / 4
            out[N] = (g, g_plus)
        return out

    def test_genera_are_integers(self):
        genera = self.genera()
        assert len(genera) == 605
        for N, (g, g_plus) in genera.items():
            assert g.denominator == 1 and g >= 0, (N, g)
            assert g_plus.denominator == 1 and g_plus >= 0, (N, g_plus)

    def test_classical_lists(self):
        genera = self.genera()
        assert [N for N, (g, _) in genera.items() if g == 0] == [
            5, 6, 7, 10, 13]
        assert [N for N, (_, g_plus) in genera.items() if g_plus == 0] == [
            5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 23, 26, 29, 31, 35, 39,
            41, 47, 59, 71]
        primes = [N for N in genera if prime_factors(N) == [N]]
        assert [N for N in primes if genera[N][1] == 1] == [
            37, 43, 53, 61, 79, 83, 89, 101, 131]
        assert [N for N in primes if genera[N][1] == 2] == [
            67, 73, 103, 107, 167, 191]
