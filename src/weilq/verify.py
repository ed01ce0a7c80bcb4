"""Exact property-check suites over ranges of levels.

Each suite is a case generator ``cases(N, **params)`` that yields one value
per case at level N: None when the case passes, or a first-mismatch
failure dict.  ``SUITES`` maps each name to its generator and its default
parameters, which are the release acceptance parameters; ``run_suite``
runs a generator over the levels 1..n_max, serially in one process, and
returns a SuiteResult with the case count and the failures.  The
command-line front end and the release test suite both go through
``run_suite``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .borcherds import _weyl_of_coordinates, borcherds_product, eta_product
from .discform import divisor_classes, divisors, exact_divisors, index_gamma0
from .divisors import (CuspDivisor, cusp_space_dimension, eta_divisor,
                       eta_order, fricke_image, heegner_degree,
                       solve_cusp_matching, cusp_classes)
from .fracq import Record
from .heckeops import hecke_tp, level_u, level_v
from .vvforms import (DecompositionError, apply_aut, basis_m_half, decompose,
                      formal_xi, random_supported, theta_series)


class SuiteResult(Record):
    """Outcome of one verification suite; a plain class, see fracq.Record."""

    def __init__(self, suite: str, cases: int, failures: list) -> None:
        self.suite = suite
        self.cases = cases
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"suite": self.suite, "cases": self.cases, "ok": self.ok,
                "failure_count": len(self.failures),
                "failures": self.failures[:10]}


def _failure(witness, **where):
    """None for a passing case (no witness), else the case's failure dict."""
    return None if witness is None else {**where, "witness": witness}


def _series_witness(got, expected):
    """First exponent where two exact q-series differ, or None.

    The two series are compared truncated to their common window, where
    both are exact; the difference series is built only on a mismatch.
    """
    window = min(got.trunc, expected.trunc)
    if got.truncate(window) == expected.truncate(window):
        return None
    e = (got - expected).leading_exponent
    return {"exponent": str(e), "expected": str(expected.coefficient(e)),
            "got": str(got.coefficient(e))}


def _expansion_witness(got, expected):
    """First slot where two expansions differ on the common window, or None."""
    ok, slot = got.agrees_with(expected)
    if ok:
        return None
    if slot[0] == "type":  # (N, k, rep, radical) of each side
        return {"part": "type", "got": list(map(str, slot[1])),
                "expected": list(map(str, slot[2]))}
    part, key, va, vb = slot
    return {"part": part, "slot": list(key), "got": str(va),
            "expected": str(vb), "window": min(got.trunc, expected.trunc)}


# ----- 1. eta-product identity ------------------------------------------


def _eta_cases(N: int, prec: int):
    """Borcherds products of the twisted theta functions are eta products."""
    theta = theta_series(N, prec * prec)
    for c in exact_divisors(N):
        weyl = Fraction(c + N // c, 24)
        res = borcherds_product(apply_aut(theta, c), weyl, prec)
        yield _failure(_series_witness(res.expansion,
                                       eta_product(N, c, weyl + prec)), N=N, c=c)


# ----- 2. products of all weight 1/2 basis elements ---------------------


def _basis_cases(N: int, prec: int):
    """Every theta-basis element multiplies out to its eta product."""
    basis = basis_m_half(N, prec * prec)
    for d, f in zip(divisor_classes(N), basis):
        weyl = Fraction(d + N // d, 24)
        res = borcherds_product(f, weyl, prec)
        yield _failure(_series_witness(res.expansion,
                                       eta_product(N, d, weyl + prec)), N=N, d=d)


# ----- 3. index-raising substitution ------------------------------------


def _usub_cases(N: int, prec: int, d_max: int):
    """Raising the index substitutes q -> q^d in the eta product."""
    basis = basis_m_half(N, prec * prec)
    for dclass, f in zip(divisor_classes(N), basis):
        weyl = Fraction(dclass + N // dclass, 24)
        base = eta_product(N, dclass, weyl + prec)
        for d in range(1, d_max + 1):
            lifted = borcherds_product(level_u(f, d), d * weyl, prec)
            yield _failure(_series_witness(lifted.expansion, base.substitute(d)),
                           N=N, d_class=dclass, d=d)


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
    """Index raising, index spreading, and Hecke operators all commute."""
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
        fu, fv, ft = level_u(f, d), level_v(f, ell), hecke_tp(f, p)
        checks = [
            ("UV", level_v(fu, ell), level_u(fv, d)),
            ("TU", level_u(ft, d), hecke_tp(fu, p)),
            ("TV", level_v(ft, ell), hecke_tp(fv, p)),
        ]
        for name, left, right in checks:
            yield _failure(_expansion_witness(left, right), N=N, case=i,
                           relation=name, p=p, d=d, l=ell,
                           weight=str(weight), rep=rep)


# ----- 5. shadow-operator commutations ----------------------------------


def _xi_cases(N: int, count: int, op_max: int, trunc: int, seed: int):
    """The shadow map intertwines all four operators as claimed."""
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
            yield _failure(_expansion_witness(left, right), N=N, case=i,
                           relation=name, p=p, d=d, l=ell, c=c, rep=rep)


# ----- 6. Hecke eigenvalue anchor ---------------------------------------


def _hecke_cases(N: int, primes, prec: int):
    """Theta at level N is a T_p eigenform, eigenvalue 1+1/p, for p prime to 2N."""
    for p in primes:
        if (2 * N) % p == 0:
            continue
        theta = theta_series(N, prec * p * p)
        got = hecke_tp(theta, p)
        yield _failure(_expansion_witness(got, theta.scaled(1 + Fraction(1, p))),
                       N=N, p=p)


# ----- 7. cusp-matching dimension and solver ----------------------------


def _cusp_cases(N: int, seed: int):
    """The eta-product matching system is square, invertible, and exact."""
    classes = divisor_classes(N)
    dim = cusp_space_dimension(N)
    if len(classes) != dim:
        yield {"N": N, "check": "dimension", "expected": dim, "got": len(classes)}
        return
    yield None
    for j, d in enumerate(classes):
        try:
            x = solve_cusp_matching(N, eta_divisor(N, d))
        except ValueError as exc:
            yield {"N": N, "check": "unit", "d": d, "error": str(exc)}
            continue
        unit = [Fraction(1) if i == j else Fraction(0)
                for i in range(len(classes))]
        yield None if x == unit else {"N": N, "check": "unit", "d": d,
                                      "got": [str(v) for v in x]}
    zero = solve_cusp_matching(N, CuspDivisor.zero(N))
    yield None if zero == [Fraction(0)] * dim else {"N": N, "check": "zero"}
    rng = random.Random(seed * 1000003 + N)
    orders = {}
    for c in classes:
        v = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if v:
            orders[c] = v
            orders[N // c] = v
    target = CuspDivisor(N, orders)
    try:
        x = solve_cusp_matching(N, target)
    except ValueError as exc:
        yield {"N": N, "check": "round-trip", "error": str(exc)}
        return
    rebuilt = CuspDivisor.zero(N)
    for v, d in zip(x, classes):
        rebuilt = rebuilt + eta_divisor(N, d).scaled(v)
    yield None if rebuilt.orders == target.orders else {
        "N": N, "check": "round-trip", "expected": target.to_json(),
        "got": rebuilt.to_json()}


# ----- 8. divisor degree law --------------------------------------------


def _degree_cases(N: int):
    """Eta-product divisor degrees are mu/12; infinity orders match Weyl vectors."""
    mu12 = Fraction(index_gamma0(N), 12)
    classes = cusp_classes(N)
    for d in divisors(N):
        total = sum((cl.orbit_size * eta_order(N, d, cl.c)
                     for cl in classes), Fraction(0))
        yield None if total == mu12 else {
            "N": N, "d": d, "check": "degree", "expected": str(mu12),
            "got": str(total)}
        at_inf = eta_order(N, d, N)
        yield None if at_inf == Fraction(d + N // d, 24) else {
            "N": N, "d": d, "check": "infinity-order", "got": str(at_inf)}
    # the Weyl vectors of all basis elements come from one solve
    basis = basis_m_half(N, 4 * N)
    try:
        coords = decompose(basis, basis)
    except DecompositionError as exc:
        for d in divisor_classes(N):
            yield {"N": N, "d": d, "check": "weyl", "error": str(exc)}
        return
    for d, x in zip(divisor_classes(N), coords):
        w = _weyl_of_coordinates(N, x)
        want = eta_order(N, d, N)
        yield None if w == want else {"N": N, "d": d, "check": "weyl",
                                      "expected": str(want), "got": str(w)}


# ----- 9. CM-point degrees ----------------------------------------------

HURWITZ_ANCHORS = {3: Fraction(1, 3), 4: Fraction(1, 2), 7: Fraction(1),
                   8: Fraction(1), 11: Fraction(1), 12: Fraction(4, 3)}


def _heegner_cases(N: int, n_bound: int):
    """Level-one degrees match Hurwitz numbers; degrees are symmetric in gamma."""
    anchors = HURWITZ_ANCHORS.items() if N == 1 else ()
    for disc, value in anchors:
        gamma = disc % 2
        got = heegner_degree(1, -disc, gamma)
        yield None if got == value else {"N": 1, "n": -disc, "gamma": gamma,
                                         "expected": str(value), "got": str(got)}
    for m in range(1, n_bound + 1):
        n = -m
        for gamma in range(1, N):
            if (gamma * gamma - n) % (4 * N):
                continue
            left = heegner_degree(N, n, gamma)
            right = heegner_degree(N, n, 2 * N - gamma)
            yield None if left == right else {"N": N, "n": n, "gamma": gamma,
                                              "expected": str(right),
                                              "got": str(left)}


# ----- 10. Fricke invariance --------------------------------------------


def _fricke_cases(N: int):
    """Eta-product cusp divisors are fixed by the Fricke involution."""
    for d in divisors(N):
        div = eta_divisor(N, d)
        yield None if fricke_image(div).orders == div.orders else {
            "N": N, "d": d, "divisor": div.to_json()}


# ----- driver -----------------------------------------------------------

# name -> (case generator, default parameters); n_max bounds the levels.
SUITES = {
    "eta": (_eta_cases, {"n_max": 50, "prec": 200}),
    "basis": (_basis_cases, {"n_max": 50, "prec": 200}),
    "usub": (_usub_cases, {"n_max": 30, "prec": 200, "d_max": 5}),
    "commute": (_commute_cases, {"n_max": 20, "count": 50, "op_max": 7,
                                 "trunc": 400, "seed": 1}),
    "xi": (_xi_cases, {"n_max": 20, "count": 12, "op_max": 7, "trunc": 400,
                       "seed": 1}),
    "hecke": (_hecke_cases, {"n_max": 1, "primes": (3, 5, 7, 11, 13),
                             "prec": 200}),
    "cusp": (_cusp_cases, {"n_max": 200, "seed": 1}),
    "degree": (_degree_cases, {"n_max": 100}),
    "heegner": (_heegner_cases, {"n_max": 20, "n_bound": 200}),
    "fricke": (_fricke_cases, {"n_max": 100}),
}


def run_suite(name: str, **kwargs) -> list:
    """Run one named suite, or all of them; returns a list of SuiteResult.

    Every case runs serially in this process, level by level.  Keyword
    arguments that a suite's defaults name override them when not None; the
    rest are ignored, so one set of options serves "all".
    """
    if name == "all":
        return [run_suite(key, **kwargs)[0] for key in SUITES]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join([*SUITES, 'all'])}")
    cases, defaults = SUITES[name]
    params = dict(defaults)
    params.update((k, v) for k, v in kwargs.items()
                  if k in defaults and v is not None)
    for k, v in params.items():
        if k != "seed" and isinstance(v, int) and v < 1:
            raise ValueError(f"{name}: {k} = {v} must be at least 1")
    n_max = params.pop("n_max")
    count, failures = 0, []
    for N in range(1, n_max + 1):
        for outcome in cases(N, **params):
            count += 1
            if outcome is not None:
                failures.append(outcome)
    return [SuiteResult(name, count, failures)]
