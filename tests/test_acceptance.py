"""Acceptance criteria: every suite at full scale, exact rational equality.

Each test runs one named verification suite end to end at its default
parameters and reports a single PASS/FAIL line (visible with ``pytest -s`` or
on failure).  The suites live in ``weilq.verify`` and are the same ones
exposed by ``weilq verify``.  The case counts pin the default scale; criteria
1-3 are also pinned at the scale of the perfbench ``products`` workload and
must fail every case when the Borcherds product is off by one coefficient;
criteria 4 and 5 run at a small scale with the operators wrapped, to check
that each case makes each operator image once.
"""

import pytest

from weilq import verify
from weilq.fracq import FracSeries
from weilq.verify import run_suite

CASES = {"eta": 159, "basis": 107, "usub": 290, "commute": 3000, "xi": 960,
         "hecke": 5, "cusp": 1156, "degree": 1210, "heegner": 807,
         "fricke": 482}


def report(number: int, label: str, name: str) -> None:
    result = run_suite(name)[0]
    verdict = "PASS" if result.ok else "FAIL"
    line = (f"{verdict} criterion {number}: {label} "
            f"({result.cases} cases, {len(result.failures)} failures)")
    print(line)
    assert result.ok, f"{line}; first witness: {result.failures[:1]}"
    assert result.cases == CASES[name], line


def test_criterion_01_eta_identity_all_exact_divisors_to_level_50():
    report(1, "product expansion matches the paired eta product, "
              "level <= 50, 200 coefficients", "eta")


def test_criterion_02_basis_elements_lift_to_eta_products_to_level_50():
    report(2, "every basis element's product is the eta product of its "
              "divisor class, level <= 50", "basis")


def test_criterion_03_index_raising_matches_substitution_to_d_5():
    report(3, "product of the index-raised input equals q -> q^d "
              "substitution, d <= 5, level <= 30", "usub")


def test_criterion_04_operator_commutation_on_random_forms():
    report(4, "U/V, T/U, T/V commutation on 50 seeded random forms per "
              "level <= 20", "commute")


def test_criterion_05_shadow_transport_for_all_four_operators():
    report(5, "shadow table transport under sigma, T_p, U_d, V_l at "
              "weight 1/2, level <= 20", "xi")


def test_criterion_06_theta_is_a_hecke_eigenform():
    report(6, "theta |T_p = (1 + 1/p) theta for p in {3,5,7,11,13}",
           "hecke")


def test_criterion_07_cusp_matching_solver_round_trips_to_level_200():
    report(7, "square invertible cusp system, exact solve round-trips, "
              "level <= 200", "cusp")


def test_criterion_08_eta_degrees_satisfy_the_index_over_12_law():
    report(8, "cusp degrees sum to index/12 and the infinity order is the "
              "leading exponent, level <= 100", "degree")


def test_criterion_09_cm_point_degrees_match_class_number_anchors():
    report(9, "weighted CM degrees hit the classical anchor values and "
              "the gamma <-> -gamma symmetry, level <= 20", "heegner")


def test_criterion_10_fricke_symmetry_of_the_cusp_data():
    report(10, "cusp classes, orders, and solver output are Fricke "
               "symmetric, level <= 100", "fricke")


# criteria 1-3 at the parameters of perfbench's products workload
LIFT_SCALES = [("eta", {"n_max": 10, "prec": 80}, 23),
               ("basis", {"n_max": 10, "prec": 80}, 15),
               ("usub", {"n_max": 8, "prec": 80, "d_max": 3}, 33)]


@pytest.mark.parametrize("name, params, cases", LIFT_SCALES,
                         ids=[name for name, _, _ in LIFT_SCALES])
def test_lift_case_counts_at_benchmark_scale(name, params, cases):
    result = run_suite(name, **params)[0]
    assert result.ok and result.cases == cases


@pytest.mark.parametrize("name, params, cases", [
    ("eta", {"n_max": 6, "prec": 30}, 13),
    ("basis", {"n_max": 6, "prec": 30}, 8),
    ("usub", {"n_max": 4, "prec": 30, "d_max": 2}, 10),
], ids=["eta", "basis", "usub"])
def test_lift_criteria_fail_every_case_on_a_wrong_product(monkeypatch, name,
                                                          params, cases):
    real = verify.borcherds_product

    def off_by_one(f, weyl, prec):
        # 1 added to the top stored coefficient, inside every compared window
        res = real(f, weyl, prec)
        s = res.expansion
        top = max(s.terms)
        res.expansion = FracSeries(s.denom, {**s.terms, top: s.terms[top] + 1},
                                   s.trunc)
        return res

    monkeypatch.setattr(verify, "borcherds_product", off_by_one)
    result = run_suite(name, **params)[0]
    assert result.cases == len(result.failures) == cases
    for failure in result.failures:
        assert set(failure) == {"N", "d_class", "d", "witness"}


# criteria 4 and 5 at a small scale, with the operators wrapped
GUARD_SCALES = [("commute", {"n_max": 6, "count": 10, "op_max": 3, "trunc": 60}, 180),
                ("xi", {"n_max": 6, "count": 8, "op_max": 3, "trunc": 100}, 192)]


@pytest.mark.parametrize("name, params, count", GUARD_SCALES,
                         ids=[name for name, _, _ in GUARD_SCALES])
def test_operator_suites_make_each_image_once(monkeypatch, name, params, count):
    """No case applies an operator twice to one input at one index, and the
    xi suite's left sides see f's nonholo table alone."""
    cases = []  # per case: [(operator, input, index)], inputs kept alive

    def starting(real):
        def wrapped(*args, **kwargs):
            cases.append([])
            return real(*args, **kwargs)
        return wrapped

    def recording(op, real):
        def wrapped(f, index):
            cases[-1].append((op, f, index))
            return real(f, index)
        return wrapped

    monkeypatch.setattr(verify, "random_supported",
                        starting(verify.random_supported))
    for op in ("hecke_tp", "level_u", "level_v", "apply_aut"):
        monkeypatch.setattr(verify, op, recording(op, getattr(verify, op)))
    result = run_suite(name, **params)[0]
    assert result.ok and result.cases == count
    for calls in cases:
        keys = [(op, id(f), index) for op, f, index in calls]
        assert len(keys) == len(set(keys)), calls
    calls = [call for case in cases for call in case]
    # the draws reach d = 1 or l = 1, where an image would repeat
    assert any(op in ("level_u", "level_v") and index == 1
               for op, _, index in calls)
    if name == "xi":
        left = [f for _, f, _ in calls if not f.radical]
        assert not any(f.holo for f in left)
        assert sum(bool(f.nonholo) for f in left) > len(left) // 2
