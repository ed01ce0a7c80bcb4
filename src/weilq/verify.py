"""Exact property-check suites over ranges of levels.

Each suite function returns a SuiteResult with a case count and a list of
first-mismatch witnesses.  The command-line front end and the release test
suite both call these functions; the default parameters are the release
acceptance parameters.
"""

from __future__ import annotations

import multiprocessing
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd

from .borcherds import borcherds_product, eta_product, verify_eta_identity
from .discform import divisor_classes, divisors, exact_divisors, index_gamma0
from .divisors import (CuspDivisor, cusp_space_dimension, eta_divisor,
                       eta_order, fricke_image, heegner_degree,
                       solve_cusp_matching, cusp_classes)
from .heckeops import hecke_tp, level_u, level_v
from .vvforms import (apply_aut, basis_m_half, formal_xi, random_supported,
                      theta_series)


@dataclass
class SuiteResult:
    """Outcome of one verification suite."""

    suite: str
    cases: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        word = "ok" if self.ok else "FAIL"
        return (f"{self.suite}: {self.cases} cases, "
                f"{len(self.failures)} failures -> {word}")

    def to_json(self) -> dict:
        return {"suite": self.suite, "cases": self.cases, "ok": self.ok,
                "failure_count": len(self.failures),
                "failures": self.failures[:10]}


def _pmap(fn, items, jobs: int) -> list:
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(jobs, len(items))) as pool:
        return pool.map(fn, items)


def _gather(name: str, pairs) -> SuiteResult:
    cases = 0
    failures = []
    for c, f in pairs:
        cases += c
        failures.extend(f)
    return SuiteResult(name, cases, failures)


def _series_witness(got, expected):
    """First exponent where two exact q-series differ, or None."""
    diff = got - expected
    if diff.is_zero():
        return None
    e = diff.leading_exponent
    return {"exponent": str(e), "expected": str(expected.coefficient(e)),
            "got": str(got.coefficient(e))}


def _expansion_witness(got, expected):
    """First slot where two expansions differ on the common window, or None."""
    window = min(got.trunc, expected.trunc)
    ok, slot = got.agrees_with(expected, window)
    if ok:
        return None
    part, key, va, vb = slot
    return {"part": part, "slot": list(key), "got": str(va),
            "expected": str(vb), "window": window}


# ----- 1. eta-product identity ------------------------------------------


def _eta_cases(N: int, prec: int):
    cases = 0
    failures = []
    for c in exact_divisors(N):
        cases += 1
        report = verify_eta_identity(N, c, prec)
        if not report.ok:
            failures.append({"N": N, "c": c, "witness": report.to_json()})
    return cases, failures


def suite_eta(n_max: int = 50, prec: int = 200, jobs: int = 1) -> SuiteResult:
    """Borcherds products of the twisted theta functions are eta products."""
    pairs = _pmap(partial(_eta_cases, prec=prec), range(1, n_max + 1), jobs)
    return _gather("eta", pairs)


# ----- 2. products of all weight 1/2 basis elements ---------------------


def _basis_cases(N: int, prec: int):
    cases = 0
    failures = []
    basis = basis_m_half(N, prec * prec)
    for d, f in zip(divisor_classes(N), basis):
        cases += 1
        weyl = Fraction(d + N // d, 24)
        res = borcherds_product(f, weyl, prec)
        eta = eta_product(N, d, weyl + prec)
        wit = _series_witness(res.expansion, eta)
        if wit is not None:
            failures.append({"N": N, "d": d, "witness": wit})
    return cases, failures


def suite_basis(n_max: int = 50, prec: int = 200, jobs: int = 1) -> SuiteResult:
    """Every theta-basis element multiplies out to its eta product."""
    pairs = _pmap(partial(_basis_cases, prec=prec), range(1, n_max + 1), jobs)
    return _gather("basis", pairs)


# ----- 3. index-raising substitution ------------------------------------


def _usub_cases(N: int, prec: int, d_max: int):
    cases = 0
    failures = []
    basis = basis_m_half(N, prec * prec)
    for dclass, f in zip(divisor_classes(N), basis):
        weyl = Fraction(dclass + N // dclass, 24)
        base = eta_product(N, dclass, weyl + prec)
        for d in range(1, d_max + 1):
            cases += 1
            lifted = borcherds_product(level_u(f, d), d * weyl, prec)
            expected = base.substitute(d)
            wit = _series_witness(lifted.expansion, expected)
            if wit is not None:
                failures.append({"N": N, "d_class": dclass, "d": d,
                                 "witness": wit})
    return cases, failures


def suite_usub(n_max: int = 30, prec: int = 200, d_max: int = 5,
               jobs: int = 1) -> SuiteResult:
    """Raising the index substitutes q -> q^d in the eta product."""
    pairs = _pmap(partial(_usub_cases, prec=prec, d_max=d_max),
                  range(1, n_max + 1), jobs)
    return _gather("usub", pairs)


# ----- 4. operator commutations -----------------------------------------


def _draw_pdl(rng: random.Random, N: int, op_max: int):
    """A triple (p, d, l) with p prime to 2*N*d*l, or None."""
    for _ in range(64):
        d = rng.randint(1, op_max)
        ell = rng.randint(1, op_max)
        ps = [p for p in (3, 5, 7) if gcd(p, 2 * N * d * ell) == 1]
        if ps:
            return rng.choice(ps), d, ell
    d = ell = 1
    ps = [p for p in (3, 5, 7) if gcd(p, 2 * N) == 1]
    if not ps:
        return None
    return rng.choice(ps), d, ell


def _commute_cases(N: int, count: int, op_max: int, trunc: int, seed: int):
    cases = 0
    failures = []
    for i in range(count):
        tag = seed * 1000003 + N * 1009 + i
        rng = random.Random(tag)
        weight = rng.choice([Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)])
        rep = rng.choice([1, -1])
        f = random_supported(N, weight, rep, seed=tag + 1, trunc=trunc)
        drawn = _draw_pdl(rng, N, op_max)
        if drawn is None:
            continue
        p, d, ell = drawn
        checks = [
            ("UV", level_v(level_u(f, d), ell), level_u(level_v(f, ell), d)),
            ("TU", level_u(hecke_tp(f, p), d), hecke_tp(level_u(f, d), p)),
            ("TV", level_v(hecke_tp(f, p), ell), hecke_tp(level_v(f, ell), p)),
        ]
        for name, left, right in checks:
            cases += 1
            wit = _expansion_witness(left, right)
            if wit is not None:
                failures.append({"N": N, "case": i, "relation": name,
                                 "p": p, "d": d, "l": ell,
                                 "weight": str(weight), "rep": rep,
                                 "witness": wit})
    return cases, failures


def suite_commute(n_max: int = 20, count: int = 50, op_max: int = 7,
                  trunc: int = 400, seed: int = 1,
                  jobs: int = 1) -> SuiteResult:
    """Index raising, index spreading, and Hecke operators all commute."""
    pairs = _pmap(partial(_commute_cases, count=count, op_max=op_max,
                          trunc=trunc, seed=seed), range(1, n_max + 1), jobs)
    return _gather("commute", pairs)


# ----- 5. shadow-operator commutations ----------------------------------


def _xi_cases(N: int, count: int, op_max: int, trunc: int, seed: int):
    cases = 0
    failures = []
    k = Fraction(1, 2)
    for i in range(count):
        tag = seed * 1000003 + N * 2003 + i
        rng = random.Random(tag)
        rep = 1 if i % 2 == 0 else -1
        f = random_supported(N, k, rep, seed=tag + 1, trunc=trunc)
        x = formal_xi(f)
        drawn = _draw_pdl(rng, N, op_max)
        if drawn is None:
            continue
        p, d, ell = drawn
        c = rng.choice(exact_divisors(N))
        checks = [
            ("T", formal_xi(hecke_tp(f, p)),
             hecke_tp(x, p).scaled(Fraction(1, p))),
            ("sigma", formal_xi(apply_aut(f, c)), apply_aut(x, c)),
            ("U", formal_xi(level_u(f, d)), level_u(x, d)),
            ("V", formal_xi(level_v(f, ell)), level_v(x, ell)),
        ]
        for name, left, right in checks:
            cases += 1
            wit = _expansion_witness(left, right)
            if wit is not None:
                failures.append({"N": N, "case": i, "relation": name,
                                 "p": p, "d": d, "l": ell, "c": c, "rep": rep,
                                 "witness": wit})
    return cases, failures


def suite_xi(n_max: int = 20, count: int = 12, op_max: int = 7,
             trunc: int = 400, seed: int = 1, jobs: int = 1) -> SuiteResult:
    """The shadow map intertwines all four operators as claimed."""
    pairs = _pmap(partial(_xi_cases, count=count, op_max=op_max,
                          trunc=trunc, seed=seed), range(1, n_max + 1), jobs)
    return _gather("xi", pairs)


# ----- 6. Hecke eigenvalue anchor ---------------------------------------


def suite_hecke(primes=(3, 5, 7, 11, 13), prec: int = 200,
                jobs: int = 1) -> SuiteResult:
    """The level-one theta function is a Hecke eigenform, eigenvalue 1+1/p."""
    cases = 0
    failures = []
    for p in primes:
        cases += 1
        theta = theta_series(1, prec * p * p)
        got = hecke_tp(theta, p)
        expected = theta.scaled(1 + Fraction(1, p))
        wit = _expansion_witness(got, expected)
        if wit is not None:
            failures.append({"N": 1, "p": p, "witness": wit})
    return SuiteResult("hecke", cases, failures)


# ----- 7. cusp-matching dimension and solver ----------------------------


def _cusp_cases(N: int, seed: int):
    cases = 0
    failures = []
    classes = divisor_classes(N)
    dim = cusp_space_dimension(N)
    cases += 1
    if len(classes) != dim:
        failures.append({"N": N, "check": "dimension",
                         "expected": dim, "got": len(classes)})
        return cases, failures
    for j, d in enumerate(classes):
        cases += 1
        try:
            x = solve_cusp_matching(N, eta_divisor(N, d))
        except ValueError as exc:
            failures.append({"N": N, "check": "unit", "d": d,
                             "error": str(exc)})
            continue
        unit = [Fraction(1) if i == j else Fraction(0)
                for i in range(len(classes))]
        if x != unit:
            failures.append({"N": N, "check": "unit", "d": d,
                             "got": [str(v) for v in x]})
    cases += 1
    if solve_cusp_matching(N, CuspDivisor.zero(N)) != [Fraction(0)] * dim:
        failures.append({"N": N, "check": "zero"})
    rng = random.Random(seed * 1000003 + N)
    orders = {}
    for c in [c for c in divisors(N) if c * c <= N]:
        v = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if v:
            orders[c] = v
            orders[N // c] = v
    target = CuspDivisor(N, orders)
    cases += 1
    try:
        x = solve_cusp_matching(N, target)
        rebuilt = CuspDivisor.zero(N)
        for v, d in zip(x, classes):
            rebuilt = rebuilt + eta_divisor(N, d).scaled(v)
        if rebuilt.orders != target.orders:
            failures.append({"N": N, "check": "round-trip",
                             "expected": target.to_json(),
                             "got": rebuilt.to_json()})
    except ValueError as exc:
        failures.append({"N": N, "check": "round-trip", "error": str(exc)})
    return cases, failures


def suite_cusp(n_max: int = 200, seed: int = 1, jobs: int = 1) -> SuiteResult:
    """The eta-product matching system is square, invertible, and exact."""
    pairs = _pmap(partial(_cusp_cases, seed=seed), range(1, n_max + 1), jobs)
    return _gather("cusp", pairs)


# ----- 8. divisor degree law --------------------------------------------


def _degree_cases(N: int):
    from .borcherds import weyl_vector

    cases = 0
    failures = []
    mu = index_gamma0(N)
    classes = cusp_classes(N)
    for d in divisors(N):
        cases += 1
        total = sum((cl.orbit_size * eta_order(N, d, cl.c)
                     for cl in classes), Fraction(0))
        if total != Fraction(mu, 12):
            failures.append({"N": N, "d": d, "check": "degree",
                             "expected": str(Fraction(mu, 12)),
                             "got": str(total)})
        cases += 1
        if eta_order(N, d, N) != Fraction(d + N // d, 24):
            failures.append({"N": N, "d": d, "check": "infinity-order",
                             "got": str(eta_order(N, d, N))})
    basis = basis_m_half(N, 4 * N)
    for d, f in zip(divisor_classes(N), basis):
        cases += 1
        try:
            w = weyl_vector(f, basis)
        except ValueError as exc:
            failures.append({"N": N, "d": d, "check": "weyl", "error": str(exc)})
            continue
        if w != eta_order(N, d, N):
            failures.append({"N": N, "d": d, "check": "weyl",
                             "expected": str(eta_order(N, d, N)),
                             "got": str(w)})
    return cases, failures


def suite_degree(n_max: int = 100, jobs: int = 1) -> SuiteResult:
    """Eta-product divisor degrees are mu/12; infinity orders match Weyl vectors."""
    pairs = _pmap(_degree_cases, range(1, n_max + 1), jobs)
    return _gather("degree", pairs)


# ----- 9. CM-point degrees ----------------------------------------------

HURWITZ_ANCHORS = {3: Fraction(1, 3), 4: Fraction(1, 2), 7: Fraction(1),
                   8: Fraction(1), 11: Fraction(1), 12: Fraction(4, 3)}


def _heegner_cases(N: int, n_bound: int):
    cases = 0
    failures = []
    for m in range(1, n_bound + 1):
        n = -m
        for gamma in range(1, N):
            if (gamma * gamma - n) % (4 * N):
                continue
            cases += 1
            left = heegner_degree(N, n, gamma)
            right = heegner_degree(N, n, 2 * N - gamma)
            if left != right:
                failures.append({"N": N, "n": n, "gamma": gamma,
                                 "expected": str(right), "got": str(left)})
    return cases, failures


def suite_heegner(n_max: int = 20, n_bound: int = 200, jobs: int = 1) -> SuiteResult:
    """Level-one degrees match Hurwitz numbers; degrees are symmetric in gamma."""
    cases = 0
    failures = []
    for disc, value in HURWITZ_ANCHORS.items():
        cases += 1
        gamma = disc % 2
        got = heegner_degree(1, -disc, gamma)
        if got != value:
            failures.append({"N": 1, "n": -disc, "gamma": gamma,
                             "expected": str(value), "got": str(got)})
    pairs = _pmap(partial(_heegner_cases, n_bound=n_bound),
                  range(1, n_max + 1), jobs)
    tail = _gather("heegner", pairs)
    return SuiteResult("heegner", cases + tail.cases, failures + tail.failures)


# ----- 10. Fricke invariance --------------------------------------------


def _fricke_cases(N: int):
    cases = 0
    failures = []
    for d in divisors(N):
        cases += 1
        div = eta_divisor(N, d)
        if fricke_image(div).orders != div.orders:
            failures.append({"N": N, "d": d,
                             "divisor": div.to_json()})
    return cases, failures


def suite_fricke(n_max: int = 100, jobs: int = 1) -> SuiteResult:
    """Eta-product cusp divisors are fixed by the Fricke involution."""
    pairs = _pmap(_fricke_cases, range(1, n_max + 1), jobs)
    return _gather("fricke", pairs)


# ----- driver -----------------------------------------------------------

SUITES = {
    "eta": suite_eta,
    "basis": suite_basis,
    "usub": suite_usub,
    "commute": suite_commute,
    "xi": suite_xi,
    "hecke": suite_hecke,
    "cusp": suite_cusp,
    "degree": suite_degree,
    "heegner": suite_heegner,
    "fricke": suite_fricke,
}


def run_suite(name: str, **kwargs) -> list:
    """Run one named suite, or all of them; returns a list of SuiteResult."""
    if name == "all":
        return [run_suite(key, **kwargs)[0] for key in SUITES]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join([*SUITES, 'all'])}")
    fn = SUITES[name]
    import inspect

    accepted = inspect.signature(fn).parameters
    passed = {k: v for k, v in kwargs.items() if k in accepted and v is not None}
    return [fn(**passed)]
