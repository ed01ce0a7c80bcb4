"""What one pass of each workload calls into weilq, and how it is checked.

A pass is a list of steps (label, call) timed one by one, followed by a
check of everything the steps returned or wrote.  Suite workloads call
``weilq.verify.run_suite`` with jobs=1.  The cli-pipeline workload runs
``weilq.cli.main`` in-process on JSON inputs generated here from the seed,
so the program receives only the generated inputs.

Every check that fails is one failure towards fail_frac: a suite that is
not ok, a case count that differs from the one recorded below, a step that
raised or exited non-zero, and a failed cross-check of output files.  The
recorded case counts hold for every seed, so a change cannot speed up a
workload by dropping cases.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

# workload -> ((suite, parameters, expected case count), ...)
SUITE_WORKLOADS = {
    "products": (
        ("eta", {"n_max": 10, "prec": 80}, 23),
        ("basis", {"n_max": 10, "prec": 80}, 15),
        ("usub", {"n_max": 8, "prec": 80, "d_max": 3}, 33),
    ),
    "operators": (
        ("commute", {"n_max": 12, "count": 30, "op_max": 3, "trunc": 100}, 1080),
        ("xi", {"n_max": 10, "count": 16, "trunc": 200}, 640),
    ),
    "divisors": (
        ("cusp", {"n_max": 150}, 846),
        ("degree", {"n_max": 80}, 924),
        ("heegner", {"n_max": 20, "n_bound": 200}, 807),
        ("fricke", {"n_max": 100}, 482),
        ("hecke", {"prec": 200}, 5),
    ),
}
SEEDED_SUITES = ("commute", "xi", "cusp")
WORKLOADS = (*SUITE_WORKLOADS, "cli-pipeline")


@dataclass
class Plan:
    """Steps of one pass and the check that runs after them."""

    steps: list             # [(label, zero-argument call)]
    check: object           # results -> (attempted, [failure text], counts)
    probe: str = None       # an output file a cross-check reads


def plan(workload: str, seed: int, workdir: str) -> Plan:
    if workload in SUITE_WORKLOADS:
        return _suite_plan(SUITE_WORKLOADS[workload], seed)
    if workload == "cli-pipeline":
        return _cli_plan(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# ----- suite workloads ---------------------------------------------------


def _suite_plan(table, seed: int) -> Plan:
    from weilq.verify import run_suite

    steps = []
    for suite, params, _ in table:
        kwargs = dict(params, jobs=1)
        if suite in SEEDED_SUITES:
            kwargs["seed"] = seed
        steps.append((f"verify.{suite}",
                      lambda s=suite, kw=kwargs: run_suite(s, **kw)[0]))

    def check(results):
        failures = []
        counts = {}
        for (suite, _, expected), res in zip(table, results):
            if isinstance(res, BaseException):
                failures.append(f"{suite}: raised {res!r}")
                failures.append(f"{suite}: no case count")
                continue
            counts[f"verify.{suite}.cases"] = res.cases
            if not res.ok:
                failures.append(f"{suite}: {len(res.failures)} failing cases, "
                                f"first {res.failures[:1]}")
            if res.cases != expected:
                failures.append(f"{suite}: {res.cases} cases, expected {expected}")
        return 2 * len(table), failures, counts

    return Plan(steps, check)


# ----- cli-pipeline --------------------------------------------------------

# (N, p, d, l) with p prime to 2*N*d*l; the seed draws weights, reps,
# coefficients and Atkin-Lehner divisors, never these, so every seed asks
# for the same amount of work.
CLI_OPERATOR_INPUTS = ((9, 5, 2, 3), (2, 5, 3, 2), (3, 5, 2, 2), (4, 3, 2, 2),
                       (5, 3, 2, 3), (6, 5, 2, 2), (7, 3, 2, 2), (8, 5, 3, 2))
CLI_TRUNC = 1500
CLI_THETA_LEVELS = (2, 3, 6, 10, 12, 15)
CLI_PRODUCT_PREC = 40
CLI_SOLVE_LEVELS = (12, 18, 24, 30, 36, 48)
CLI_HEEGNER_LEVELS = (2, 3, 5, 6, 7, 11)
CLI_HEEGNER_MAX_DISC = 160
# Recorded, not derived: 10 commands per operator input, 3 per theta
# level, 1 per solve level and 2 per Heegner level.
CLI_COMMANDS = 116
_WEIGHTS = (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2))
_NUMERATORS = tuple(v for v in range(-9, 10) if v)


def _divisors(N: int) -> list:
    return [d for d in range(1, N + 1) if N % d == 0]


def _exact_divisors(N: int) -> list:
    return [c for c in _divisors(N) if gcd(c, N // c) == 1]


def random_expansion(rng: random.Random, N: int, weight: Fraction, rep: int,
                     trunc: int) -> dict:
    """Expansion JSON with seeded entries on about half the supported slots.

    Entries obey the support rule n = rep * gamma^2 mod 4N and the component
    symmetry a(n, -gamma) = eps * a(n, gamma), eps = (-1)^(k - rep/2).
    """
    eps = -1 if int(weight - Fraction(rep, 2)) % 2 else 1
    two_n, four_n = 2 * N, 4 * N
    tables = {"holo": {}, "nonholo": {}}
    for gamma in range(N + 1):
        partner = (-gamma) % two_n
        if partner == gamma and eps == -1:
            continue
        r = (rep * gamma * gamma) % four_n
        for part, lo, hi in (("holo", -trunc, trunc), ("nonholo", -trunc, -1)):
            for n in range(lo + (r - lo) % four_n, hi + 1, four_n):
                if rng.random() < 0.5:
                    continue
                c = Fraction(rng.choice(_NUMERATORS), rng.choice((1, 2, 3, 4)))
                tables[part][(n, gamma)] = c
                tables[part][(n, partner)] = eps * c
    return {"N": N, "k": str(weight), "rep": "rho" if rep == 1 else "dual",
            **{part: [[n, g, str(c)] for (n, g), c in sorted(t.items())]
               for part, t in tables.items()},
            "trunc": trunc}


def theta_expansion(N: int, trunc: int) -> dict:
    """Unary theta JSON at level N: slot (m^2, m mod 2N) counts the m."""
    holo = {}
    for m in range(-isqrt(trunc), isqrt(trunc) + 1):
        key = (m * m, m % (2 * N))
        holo[key] = holo.get(key, 0) + 1
    return {"N": N, "k": "1/2", "rep": "rho",
            "holo": [[n, g, str(c)] for (n, g), c in sorted(holo.items())],
            "nonholo": [], "trunc": trunc}


def _eta_order(N: int, d: int, c: int) -> Fraction:
    """Ligozat order of eta(d z) eta((N/d) z) at the cusp class c."""
    g = gcd(c, N // c)
    return sum((Fraction(N * gcd(c, delta) ** 2, 24 * c * delta * g)
                for delta in (d, N // d)), Fraction(0))


def _cli_plan(seed: int, workdir: str) -> Plan:
    from weilq.cli import main

    rng = random.Random(seed)
    steps = []      # (label, call)
    files = []      # every file a step reads or writes
    checks = []     # zero-argument callables returning failure text or None

    def path(name):
        return os.path.join(workdir, name + ".json")

    def write(name, data):
        with open(path(name), "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    def cmd(argv, infile=None, out=None):
        full = list(argv)
        if infile:
            full += ["--in", path(infile)]
        if out:
            full += ["--out", path(out)]
        steps.append((f"cli.{argv[0]}", lambda: main(full)))
        files.append((path(infile) if infile else None, path(out) if out else None))

    def apply(op, flag, value, src, dst):
        cmd(["apply", "--op", op, flag, str(value)], src, dst)

    for i, (N, p, d, ell) in enumerate(CLI_OPERATOR_INPUTS):
        weight, rep = rng.choice(_WEIGHTS), rng.choice((1, -1))
        f = f"f{i}"
        write(f, random_expansion(rng, N, weight, rep, CLI_TRUNC))
        c = rng.choice(_exact_divisors(N))
        apply("tp", "--p", p, f, f"T{i}")
        apply("ud", "--d", d, f"T{i}", f"TU{i}")
        apply("ud", "--d", d, f, f"U{i}")
        apply("tp", "--p", p, f"U{i}", f"UT{i}")
        apply("vl", "--l", ell, f, f"V{i}")
        apply("ud", "--d", d, f"V{i}", f"VU{i}")
        apply("vl", "--l", ell, f"U{i}", f"UV{i}")
        apply("sigma", "--c", c, f, f"S{i}")
        apply("sigma", "--c", c, f"S{i}", f"SS{i}")
        cmd(["xi"], f, f"X{i}")
        checks += [lambda a=f"TU{i}", b=f"UT{i}": _same_expansion(path(a), path(b)),
                   lambda a=f"VU{i}", b=f"UV{i}": _same_expansion(path(a), path(b)),
                   lambda a=f"SS{i}", b=f: _same_expansion(path(a), path(b)),
                   lambda x=f"X{i}", src=f: _xi_matches(path(x), path(src))]

    for N in CLI_THETA_LEVELS:
        c = rng.choice(_exact_divisors(N))
        write(f"theta{N}", theta_expansion(N, CLI_PRODUCT_PREC ** 2))
        apply("sigma", "--c", c, f"theta{N}", f"theta{N}c")
        cmd(["product", "--prec", str(CLI_PRODUCT_PREC)], f"theta{N}c", f"P{N}")
        cmd(["eta", "--N", str(N), "--d", str(c), "--prec", str(CLI_PRODUCT_PREC)],
            out=f"E{N}")
        checks.append(lambda N=N, c=c: _product_matches_eta(
            path(f"P{N}"), path(f"E{N}"), Fraction(c + N // c, 24)))

    for N in CLI_SOLVE_LEVELS:
        orders = {}
        for c in [c for c in _divisors(N) if c * c <= N]:
            v = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if v:
                orders[c] = orders[N // c] = v
        write(f"target{N}", {"N": N, "orders": [[c, str(v)] for c, v in sorted(orders.items())]})
        cmd(["solve", "--N", str(N)], f"target{N}", f"solve{N}")
        checks.append(lambda N=N, o=orders: _solution_matches(path(f"solve{N}"), N, o))

    for N in CLI_HEEGNER_LEVELS:
        gamma = rng.randint(1, N - 1)
        k = rng.randint(gamma * gamma // (4 * N) + 1,
                        (gamma * gamma + CLI_HEEGNER_MAX_DISC) // (4 * N))
        n = gamma * gamma - 4 * N * k
        for g in (gamma, 2 * N - gamma):
            cmd(["heegner", "--N", str(N), "--n", str(n), "--gamma", str(g)],
                out=f"H{N}_{g}")
        checks.append(lambda a=f"H{N}_{gamma}", b=f"H{N}_{2 * N - gamma}":
                      _degrees_match(path(a), path(b)))

    def check(results):
        failures = []
        if len(results) != CLI_COMMANDS:
            failures.append(f"{len(results)} commands ran, expected {CLI_COMMANDS}")
        for (label, _), code in zip(steps, results):
            if code != 0:
                failures.append(f"{label}: exit {code!r}")
        for fn in checks:
            try:
                msg = fn()
            except (OSError, ValueError, KeyError, TypeError) as exc:
                msg = f"unreadable output: {exc!r}"
            if msg:
                failures.append(msg)
        counts = {"cli.json_bytes_in": sum(_size(i) for i, _ in files),
                  "cli.json_bytes_out": sum(_size(o) for _, o in files)}
        return 1 + len(steps) + len(checks), failures, counts

    return Plan(steps, check, probe=path("TU0"))


# ----- output checks: each returns failure text, or None ------------------


def _size(path) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _table(data, window):
    return {(part, n, g): Fraction(c)
            for part in ("holo", "nonholo", "r") for n, g, c in data.get(part, ())
            if abs(n) <= window}


def _same_expansion(path_a, path_b):
    a, b = _load(path_a), _load(path_b)
    kind_a, kind_b = [(x["N"], Fraction(x["k"]), x["rep"]) for x in (a, b)]
    if kind_a != kind_b:
        return f"{path_a} vs {path_b}: type {kind_a} vs {kind_b}"
    window = min(a["trunc"], b["trunc"])
    ta, tb = _table(a, window), _table(b, window)
    if not ta:
        return f"{path_a} vs {path_b}: empty window {window}"
    if ta != tb:
        slot = min(set(ta.items()) ^ set(tb.items()))[0]
        return (f"{path_a} vs {path_b}: differ at {slot}: "
                f"{ta.get(slot)} vs {tb.get(slot)}")
    return None


def _xi_matches(path_x, path_f):
    x, f = _load(path_x), _load(path_f)
    want = {("r", -n, g): Fraction(c) for n, g, c in f["nonholo"]}
    if not want:
        return f"{path_f}: no negative-index entries to compare"
    if (x["N"], Fraction(x["k"]), x["rep"], x["trunc"]) != (
            f["N"], 2 - Fraction(f["k"]), "dual" if f["rep"] == "rho" else "rho",
            f["trunc"]):
        return f"{path_x}: wrong type or window for the shadow of {path_f}"
    if _table(x, x["trunc"]) != want:
        return f"{path_x}: shadow table differs from the input's negative part"
    return None


def _series(data):
    d = data["denom"]
    return {Fraction(e, d): Fraction(c) for e, c in data["terms"]}, Fraction(data["trunc"])


def _product_matches_eta(path_p, path_e, weyl):
    prod = _load(path_p)
    if Fraction(prod["weyl"]) != weyl:
        return f"{path_p}: Weyl exponent {prod['weyl']}, expected {weyl}"
    (sp, tp), (se, te) = _series(prod["expansion"]), _series(_load(path_e))
    window = min(tp, te)
    sp = {e: c for e, c in sp.items() if e < window}
    se = {e: c for e, c in se.items() if e < window}
    if not se:
        return f"{path_p} vs {path_e}: empty window {window}"
    if sp != se:
        e = min(set(sp.items()) ^ set(se.items()))[0]
        return f"{path_p} vs {path_e}: differ at q^{e}: {sp.get(e)} vs {se.get(e)}"
    return None


def _solution_matches(path_x, N, orders):
    out = _load(path_x)
    classes = [d for d in _divisors(N) if d * d <= N]
    if out["classes"] != classes:
        return f"{path_x}: classes {out['classes']}, expected {classes}"
    x = [Fraction(v) for v in out["x"]]
    for c in _divisors(N):
        got = sum((xd * _eta_order(N, d, c) for xd, d in zip(x, classes)), Fraction(0))
        if got != orders.get(c, 0):
            return f"{path_x}: order {got} at cusp class {c}, target {orders.get(c, 0)}"
    return None


def _degrees_match(path_a, path_b):
    a, b = Fraction(_load(path_a)["degree"]), Fraction(_load(path_b)["degree"])
    if a <= 0 or a != b:
        return f"{path_a} vs {path_b}: degrees {a} and {b}"
    return None


def corrupt(path) -> None:
    """Change one stored coefficient of an expansion file (self-test only)."""
    data = _load(path)
    n, g, c = data["holo"][0]
    data["holo"][0] = [n, g, str(Fraction(c) + 1)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
