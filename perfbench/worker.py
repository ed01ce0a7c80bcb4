"""One pass of one workload in a fresh interpreter.

Usage: worker.py ROOT WORKLOAD PASS_SEED MODE RUN_ID [--corrupt]

MODE is ``import`` (time the import and stop), ``plain`` (untraced pass) or
``traced`` (pass with layer spans).  The last stdout line is one JSON
object.  Only sys and time are imported before weilq, so the import time
covers everything weilq pulls in.

Times are reported twice: as measured (``raw_*``) and scaled to the
reference host by the calibration kernel (see calib.py), which is timed
right after the import and then between steps.
"""

import sys
import time


def main() -> int:
    _, root, workload, pass_seed, mode, run_id = sys.argv[:6]
    sys.path.insert(0, root + "/src")
    t0 = time.perf_counter()
    import weilq.cli  # the timed set-up
    setup_s = time.perf_counter() - t0

    import fractions  # noqa: F401  (the kernel's import is not timed)
    import json
    import os
    import resource
    import shutil
    import statistics

    import calib

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(weilq.__file__).startswith(src + os.sep):
        sys.exit(f"weilq was imported from {weilq.__file__}, not from {src}")
    samples = [(0, calib.sample())]  # (steps done, kernel time)
    setup = {"setup_s": setup_s * calib.REF_S / samples[0][1], "raw_setup_s": setup_s}
    if mode == "import":
        print(json.dumps(setup))
        return 0

    heegner = sys.modules["weilq.divisors"].heegner_degree
    if hasattr(heegner, "cache_info") and heegner.cache_info().currsize:
        sys.exit("heegner_degree cache is not cold before the first timed call")

    import tracer
    import workloads

    workdir = os.path.join(root, ".bench_build", "cli", run_id)
    os.makedirs(workdir, exist_ok=True)
    try:
        plan = workloads.plan(workload, int(pass_seed), workdir)
        tr = None
        if mode == "traced":
            tr = tracer.Tracer(run_id)
            tr.install()
        times, results = [], []
        last_sample = time.perf_counter()
        for label, call in plan.steps:
            start = time.perf_counter()
            try:
                if tr is None:
                    out = call()
                else:
                    with tr.span(label):
                        out = call()
            except Exception as exc:  # a crashing step is a counted failure
                out = exc
            end = time.perf_counter()
            times.append(end - start)
            results.append(out)
            if end - last_sample >= calib.EVERY_S or len(times) == len(plan.steps):
                samples.append((len(times), calib.sample()))
                last_sample = time.perf_counter()
        scaled = calib.scale(times, samples)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if "--corrupt" in sys.argv[6:]:
            workloads.corrupt(plan.probe)
        attempted, failures, counts = plan.check(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {**setup, "wall_s": sum(scaled), "raw_wall_s": sum(times),
              "calib_ms": 1000 * statistics.median(c for _, c in samples),
              "rss_mb": rss_mb, "steps": [[label, t] for (label, _), t in zip(plan.steps, scaled)],
              "attempted": attempted, "failures": failures,
              "counts": counts, "trace": None}
    if tr is not None:
        record["trace"] = tr.finish()
        spans_dir = os.path.join(root, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        tr.write(os.path.join(spans_dir, f"{workload}.jsonl.gz"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
