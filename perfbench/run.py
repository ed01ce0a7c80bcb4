"""Benchmark for weilq: end-to-end verification time and traced layer cost.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # the four workloads in turn
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(perfbench/worker.py) with jobs=1 and cold caches, so it pays for what a
user's ``weilq verify`` pays for.  Passes repeat until the next one would
end after S seconds; the metrics are medians over passes.  Pass j draws its
inputs from seed * 1000 + j, so a run's median covers several inputs of
the seed-dependent workloads and the same seed gives the same inputs.

With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json;
with --trace 1 each unit is an untraced pass followed by a traced pass on
the same inputs, and the result holds the per-layer metrics.  Either way
the last stdout line is one JSON object; a per-run record with every pass
and the machine it ran on goes to .bench_build/results/.

wall_s and setup_s are scaled to the reference host's speed by a fixed
calibration kernel timed between the steps of every pass (calib.py): the
shared host's speed drifts by up to 1.4x for minutes at a time, which no
run of under a minute averages out.  The measured times are the per-layer
metrics raw.wall_s and raw.setup_s, the kernel's own time host.calib_ms.

The fork pool in weilq.verify._pmap (jobs > 1) is not measured: the
reference machine has 2 shared cores, so its wall-clock scaling would time
the scheduler rather than weilq.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SETUP_PROBES = 4        # import-only workers per run, on top of every pass
MIN_UNITS = 3           # passes (pairs when traced) per run, however slow
RUN_LIMIT_S = 165       # every worker of a run is stopped by then
POOL_NOTE = ("jobs=1: the fork pool in weilq.verify._pmap is not measured; "
             "on 2 shared cores its wall-clock scaling would time the scheduler")

sys.pycache_prefix = os.path.join(BUILD, "pycache")
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


class WorkerFailed(RuntimeError):
    pass


def worker(workload, pass_seed, mode, run_id, deadline, extra=()):
    """Run one worker process to completion; returns its JSON record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed(f"{run_id}: no time left in this run")
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPYCACHEPREFIX"] = os.path.join(BUILD, "pycache")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload,
           str(pass_seed), mode, run_id, *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{run_id}: timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{run_id}: exit {proc.returncode}: {tail}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise WorkerFailed(f"{run_id}: no result line: {tail}")


def machine(before) -> dict:
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(), "jobs": 1,
            "loadavg_before": before, "loadavg_after": list(os.getloadavg()),
            "note": POOL_NOTE}


def measure(workload, seed, seconds, traced):
    """All passes of one run; returns (passes, errors, setup samples)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(BUILD, exist_ok=True)
    worker(workload, 0, "import", "warmup", deadline)  # compiles bytecode; untimed
    setups = [worker(workload, 0, "import", "probe", deadline)
              for _ in range(SETUP_PROBES)]
    modes = ("plain", "traced") if traced else ("plain",)
    passes, errors, units = [], [], []
    start = time.monotonic()
    j = 0
    while True:
        u0 = time.monotonic()
        for mode in modes:
            pass_seed = seed * 1000 + j
            try:
                rec = worker(workload, pass_seed, mode,
                             f"{workload}-s{seed}-p{j}-{mode}", deadline)
            except WorkerFailed as exc:
                errors.append(str(exc))
                continue
            rec.update(mode=mode, unit=j, pass_seed=pass_seed)
            passes.append(rec)
            setups.append({k: rec[k] for k in ("setup_s", "raw_setup_s")})
        units.append(time.monotonic() - u0)
        j += 1
        now, unit = time.monotonic(), statistics.median(units)
        if (now + unit > deadline - 10
                or (j >= MIN_UNITS and now - start + unit > seconds)):
            return passes, errors, setups


def end_to_end(plain, setups) -> dict:
    """Medians over passes."""
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
    }


def command_latency(plain) -> dict:
    """p50 and p90 over a workload's commands of each one's median latency.

    A command is one top-level call into weilq: a suite, or one CLI
    command.  Only the cli-pipeline workload has enough of them for a p90.
    """
    cmd_ms = [1000 * statistics.median(ts) for ts in
              zip(*[[t for _, t in r["steps"]] for r in plain])]
    return {"cmd_p50_ms": statistics.median(cmd_ms),
            "cmd_p90_ms": statistics.quantiles(cmd_ms, n=10, method="inclusive")[8]}


def layer_values(rec) -> dict:
    """Flat per-layer values of one pass."""
    out = dict(rec["counts"])
    out.update({"raw.wall_s": rec["raw_wall_s"], "raw.setup_s": rec["raw_setup_s"],
                "host.calib_ms": rec["calib_ms"]})
    for label, t in rec["steps"]:
        if label.startswith("verify."):
            out[f"{label}.wall_s"] = out.get(f"{label}.wall_s", 0) + t
    tr = rec["trace"]
    if tr is not None:
        out.update({f"{k}.calls": v for k, v in tr["calls"].items()})
        out.update({f"{k}.self_s": v for k, v in tr["self_s"].items()})
        out.update(tr["counts"])
        raw = rec["raw_wall_s"]
        out["trace.unattributed_frac"] = (raw - tr["covered_s"]) / raw
    return out


def per_layer(passes) -> dict:
    """Medians over passes; where both kinds have a value, untraced wins."""
    out = {}
    for mode in ("traced", "plain"):
        values = [layer_values(r) for r in passes if r["mode"] == mode]
        for name in {k for v in values for k in v}:
            out[name] = statistics.median(v.get(name, 0) for v in values)
    walls = {}
    for r in passes:
        walls.setdefault(r["unit"], {})[r["mode"]] = r["wall_s"]
    diffs = [w["traced"] - w["plain"] for w in walls.values() if len(w) == 2]
    if diffs:
        out["trace.overhead_s"] = statistics.median(diffs)
    return out


def report(spec, workload, seed, seconds, traced):
    load_before = list(os.getloadavg())
    passes, errors, setups = measure(workload, seed, seconds, traced)
    plain = [r for r in passes if r["mode"] == "plain"]
    if not plain or (traced and not any(r["mode"] == "traced" for r in passes)):
        for e in errors:
            print(e, file=sys.stderr)
        sys.exit(f"{workload}: no pass completed; no result")
    attempted = sum(r["attempted"] for r in passes) + len(passes) + len(errors)
    failures = errors + [f for r in passes for f in r["failures"]]
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    values = per_layer(passes) if traced else end_to_end(plain, setups)
    latency = command_latency(plain)
    if workload == "cli-pipeline":
        values.update({f"cli.{k}": v for k, v in latency.items()})
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(traced), "machine": machine(load_before),
              "setup_samples": setups, "errors": errors, "values": values,
              "passes": [{k: r[k] for k in ("mode", "unit", "pass_seed", "wall_s",
                                            "raw_wall_s", "setup_s", "raw_setup_s",
                                            "calib_ms", "rss_mb", "attempted",
                                            "failures")} for r in passes]}
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", f"{workload}-seed{seed}-trace{int(traced)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    n_plain = len(plain)
    print(f"# {workload} seed={seed}: {n_plain} untraced passes, "
          f"{len(passes) - n_plain} traced, {len(setups)} set-ups")
    print(f"# machine {json.dumps(record['machine'])}")
    print(f"fail_frac {len(failures) / attempted:.6g} frac "
          f"({len(failures)} of {attempted} checks failed)")
    for f in failures[:10]:
        print(f"# FAILED {f}")
    for name, v in latency.items():
        print(f"# {name} {v:.6g} ms over {len(plain[0]['steps'])} commands")
    print(f"# as measured: raw.wall_s "
          f"{statistics.median(r['raw_wall_s'] for r in plain):.6g} s, raw.setup_s "
          f"{statistics.median(s['raw_setup_s'] for s in setups):.6g} s, host.calib_ms "
          f"{statistics.median(r['calib_ms'] for r in plain):.6g} ms")
    missing = {m for r in passes if r["trace"] for m in r["trace"]["missing"]}
    if missing:
        print(f"# not traced, gone from weilq: {', '.join(sorted(missing))}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def self_test() -> int:
    """A corrupted output file must be counted as a failed check."""
    os.makedirs(BUILD, exist_ok=True)
    rec = worker("cli-pipeline", 1, "plain", "self-test",
                 time.monotonic() + RUN_LIMIT_S, ("--corrupt",))
    caught = [f for f in rec["failures"] if "TU0" in f]
    print(json.dumps({"failures": rec["failures"], "attempted": rec["attempted"]}))
    if not caught:
        print("self-test FAILED: the corrupted output was not detected", file=sys.stderr)
        return 1
    print("self-test ok: the corrupted output counts as a failed check")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "weilq", "__init__.py")):
        sys.exit(f"no weilq sources under {ROOT}/src; run from a checkout")
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        for name in names:
            report(spec, name, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:  # set-up failed: the program cannot run
        sys.exit(f"no result: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
