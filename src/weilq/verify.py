"""Exact property-check suites over ranges of levels.

Each suite is a case generator ``cases(N, **params)`` that yields one value
per case at level N: None when the case passes, or a first-mismatch
failure dict.  Criteria 1-3 (eta, basis, usub) check one identity in
``_lift_cases``, Psi(U_j f) = eta(d z) eta((N/d) z) at q -> q^j, on the
twisted thetas sigma_c theta (d = c) and on the theta basis (d its class).
``SUITES`` maps each name to its generator and its default parameters, the
release acceptance parameters; ``run_suite`` runs a generator over the
levels 1..n_max, serially in one process, and returns a SuiteResult with
the case count and the failures.  The command-line front end and the
release test suite both go through ``run_suite``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
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
    both are exact; only on a mismatch are both read as maps from Fraction
    exponents, which compare across lattices, to find the smallest exponent
    at which they differ.
    """
    window = min(got.trunc, expected.trunc)
    got, expected = got.truncate(window), expected.truncate(window)
    if got == expected:
        return None
    a, b = dict(got.items()), dict(expected.items())
    e = min(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    return {"exponent": str(e), "expected": str(b.get(e, 0)), "got": str(a.get(e, 0))}


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


# ----- 1-3. Borcherds lifts of theta inputs are eta products ------------


def _lift_cases(N: int, prec: int, d_max: int, inputs):
    """Psi(U_j f) = eta(d z) eta((N/d) z) at q -> q^j, for 1 <= j <= d_max.

    inputs yields (d, f), f of Weyl vector (d + N/d)/24: (c, sigma_c theta)
    for the exact divisors c, or the theta basis zipped with its classes.
    """
    for d, f in inputs:
        weyl = Fraction(d + N // d, 24)
        base = eta_product(N, d, weyl + prec)
        for j in range(1, d_max + 1):
            lifted = borcherds_product(level_u(f, j), j * weyl, prec)
            yield _failure(_series_witness(lifted.expansion, base.substitute(j)),
                           N=N, d_class=d, d=j)


def _eta_cases(N: int, prec: int):
    """Criterion 1: the twisted thetas (c, sigma_c theta), c an exact divisor."""
    theta = theta_series(N, prec * prec)
    pairs = ((c, apply_aut(theta, c)) for c in exact_divisors(N))
    return _lift_cases(N, prec, 1, pairs)


def _usub_cases(N: int, prec: int, d_max: int):
    """Criteria 2 (at d_max = 1) and 3: the theta basis and its divisor classes."""
    pairs = zip(divisor_classes(N), basis_m_half(N, prec * prec))
    return _lift_cases(N, prec, d_max, pairs)


# ----- 4. operator commutations -----------------------------------------


def _draw_pdl(rng: random.Random, N: int, op_max: int):
    """A triple (p, d, l) with p prime to 2*N*d*l, or None."""
    for _ in range(64):
        d = rng.randint(1, op_max)
        ell = rng.randint(1, op_max)
        ps = [p for p in (3, 5, 7) if gcd(p, 2 * N * d * ell) == 1]
        if ps:
            return rng.choice(ps), d, ell
    ps = [p for p in (3, 5, 7) if gcd(p, 2 * N) == 1]
    return (rng.choice(ps), 1, 1) if ps else None


def _commute_cases(N: int, count: int, op_max: int, trunc: int, seed: int):
    """Index raising, index spreading, and Hecke operators all commute.

    Each image is made once.  level_u(f, 1) and level_v(f, 1) return f
    itself, so at d = 1 the images of fu are those of f (V_l fu is fv and
    T_p fu is ft), and at l = 1 those of fv are those of f (U_d fv is fu
    and T_p fv is ft); these are reused rather than computed again.
    """
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
        # at d = 1 the two sides of UV and of TU, and at l = 1 those of UV
        # and of TV, are one image, so these relations check nothing there
        vu = fv if d == 1 else level_v(fu, ell)
        uv = fu if ell == 1 else level_u(fv, d)
        tu = ft if d == 1 else hecke_tp(fu, p)
        tv = ft if ell == 1 else hecke_tp(fv, p)
        checks = [
            ("UV", vu, uv),
            ("TU", level_u(ft, d), tu),
            ("TV", level_v(ft, ell), tv),
        ]
        for name, left, right in checks:
            yield _failure(_expansion_witness(left, right), N=N, case=i,
                           relation=name, p=p, d=d, l=ell,
                           weight=str(weight), rep=rep)


# ----- 5. shadow-operator commutations ----------------------------------


def _xi_cases(N: int, count: int, op_max: int, trunc: int, seed: int):
    """The shadow map intertwines all four operators as claimed.

    formal_xi reads only the nonholo table, and every operator maps holo to
    holo and nonholo to nonholo (neither table reads the other), so the
    left sides run on f with its holo table emptied: the holo half of their
    images would be made only to be dropped.  The right sides map x =
    formal_xi(f).
    """
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
        fn = f._with({}, f.nonholo, f.trunc)
        checks = [
            ("T", formal_xi(hecke_tp(fn, p)),
             hecke_tp(x, p).scaled(Fraction(1, p))),
            ("sigma", formal_xi(apply_aut(fn, c)), apply_aut(x, c)),
            ("U", formal_xi(level_u(fn, d)), level_u(x, d)),
            ("V", formal_xi(level_v(fn, ell)), level_v(x, ell)),
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
        unit = [Fraction(int(i == j)) for i in range(dim)]
        yield None if x == unit else {"N": N, "check": "unit", "d": d,
                                      "got": [str(v) for v in x]}
    try:
        zero = solve_cusp_matching(N, CuspDivisor(N, {}))
    except ValueError as exc:
        yield {"N": N, "check": "zero", "error": str(exc)}
    else:
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
    rebuilt = {}
    for c in divisors(N):
        total = sum((v * eta_order(N, d, c) for v, d in zip(x, classes)),
                    Fraction(0))
        if total:
            rebuilt[c] = total
    yield None if rebuilt == target.orders else {
        "N": N, "check": "round-trip", "expected": target.to_json(),
        "got": CuspDivisor(N, rebuilt).to_json()}


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
    "basis": (partial(_usub_cases, d_max=1), {"n_max": 50, "prec": 200}),
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
