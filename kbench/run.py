"""Benchmark of the kextract package: one workload per run.

Usage, from the root of a checkout:

    python3 kbench/run.py --workload {pipeline-n4,oracle-n8,sweep-colors}
                          --seed N --seconds S --trace {0,1}

The run imports kextract from the checkout's src/ (and refuses to run
without it), builds the workload's inputs several times to time setup,
then runs passes over the workload's jobs until another pass would end
after S seconds (at least one). Outputs are checked after every pass.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the wall
and CPU time of one pass (per job, the median over passes, summed), the
median setup time, the process's peak RSS, and the fraction of jobs
that passed. Times are in reference seconds: each job's (and each setup
repetition's) time is scaled by REF_NOMINAL_S over the time of a fixed
pure-Python loop run just before and after it, which cancels the drift
in core speed of a shared host; the env line keeps the unscaled pass
times.

--trace 1 alternates untraced and traced passes and reports the
per-layer metrics: span times in plain seconds, work counts, and the
traced-minus-untraced pass time as the tracer's overhead. Its spans are
written to .kbench_work/<workload>/trace-seed<N>.jsonl.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the
environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
# Pass times are reported at a fixed speed of the reference loop: on a
# shared host the speed of a core drifts by a quarter within minutes
# (other tenants, SMT siblings), and timing the loop next to every job
# cancels most of that drift. REF_NOMINAL_S is the loop's median time
# on the 2-core 2.0 GHz Xeon VM the benchmark was tuned on.
REF_LOOP = 300_000
REF_NOMINAL_S = 0.023
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import kextract; "
    "print(time.perf_counter() - t)"
)


def import_seconds():
    """Import time of kextract in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or None
    except OSError:
        commit = None
    # The checkout may not be a git repository: a digest of the sources
    # identifies the code either way.
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "kextract").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def reference_seconds():
    """One timing of a fixed pure-Python loop, after a short sleep that
    lets BLAS worker threads park, so no kextract work runs beside it."""
    time.sleep(0.01)
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i
    return time.perf_counter() - t0


class ReferenceClock:
    """Scale factors to the reference loop's nominal speed, each from the
    loop's timings just before and just after the measured interval."""

    def __init__(self):
        self.before = reference_seconds()

    def scale(self):
        """Factor for the interval since the previous call (or creation)."""
        after = reference_seconds()
        factor = REF_NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        return factor


def run_pass(workload, tracer, index):
    """Run every job once.

    Returns ({job: (wall_s, cpu_s, raw_wall_s)}, failures), with wall_s
    and cpu_s in reference seconds.
    """
    workload.prepare()
    ctx, errors, times = {}, {}, {}
    jobs = workload.jobs()
    clock = ReferenceClock()
    with tracer.unit("pass", index) if tracer else contextlib.nullcontext():
        for name, fn in jobs:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                ctx[name] = fn(ctx)
            except Exception as exc:  # a job that raises counts as failed
                errors[name] = [f"{type(exc).__name__}: {exc}"]
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            scale = clock.scale()
            times[name] = (wall * scale, cpu * scale, wall)
    try:
        checks = workload.check(ctx)
    except Exception as exc:  # a check that cannot run fails every job
        checks = {name: [f"check raised {type(exc).__name__}: {exc}"] for name, _ in jobs}
    failures = {}
    for name, _ in jobs:
        reasons = errors.get(name) or checks.get(name) or []
        if reasons:
            failures[name] = reasons
    return times, failures


def pass_time(passes, which):
    """One pass's wall (which=0) or CPU (which=1) time, as the sum over
    jobs of each job's median across the given passes. Per-job medians
    drop a slow stretch that hits one job in one pass, which a median of
    pass totals over a few passes would keep."""
    return sum(
        statistics.median(p[job][which] for p in passes) for job in passes[0]
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "kextract" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {SRC / 'kextract'} or {spec_path} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "kbench"))
    os.chdir(ROOT)
    import kextract
    from kextract import pipeline

    if Path(kextract.__file__).resolve().parent != SRC / "kextract":
        print(f"error: imported kextract from {kextract.__file__}", file=sys.stderr)
        return 2
    import spans
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {m["name"]: m["unit"] for m in group}

    step_names = [s["name"] for s in pipeline.load_config(None, "n4")["steps"]]
    per_layer = spans.metric_names(step_names) | {"pipeline.artifacts"} | {
        "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"
    }
    if {m["name"] for m in spec["per_layer"]} != per_layer:
        print("error: BENCHMARK.json per_layer names differ from the tracer's",
              file=sys.stderr)
        return 2

    work_dir = ROOT / ".kbench_work" / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](seed, os.path.relpath(work_dir, ROOT))
    tracer = spans.Tracer(getattr(workload, "step_names", {})) if args.trace else None

    setup_times = []
    clock = ReferenceClock()
    for rep in range(SETUP_REPS):
        imported = import_seconds()
        with tracer.unit("setup", rep) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            workload.setup()
            built = time.perf_counter() - t0
        setup_times.append((imported + built) * clock.scale())

    passes = {False: [], True: []}  # traced -> [{job: (wall_s, cpu_s, raw_wall_s)}]
    attempted = failed = count = 0
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(args.trace) and count % 2 == 1
        t0 = time.perf_counter()
        times, failures = run_pass(workload, tracer if traced else None, count)
        longest = max(longest, time.perf_counter() - t0)
        passes[traced].append(times)
        attempted += len(times)
        failed += len(failures)
        for name, reasons in failures.items():
            print(f"FAILED {args.workload} pass {count} {name}: {'; '.join(reasons)}",
                  file=sys.stderr)
        count += 1
        done = not args.trace or count >= 2
        if done and time.perf_counter() - start + longest > args.seconds:
            break

    if args.trace:
        units = [("setup", r) for r in range(SETUP_REPS)] + [
            ("pass", i) for i in range(1, count, 2)
        ]
        metrics = tracer.summary(spans.metric_names(step_names), units)
        metrics["pipeline.artifacts"] = getattr(workload, "artifacts", 0)
        metrics["trace.wall_s"] = pass_time(passes[True], 0)
        metrics["trace.untraced_wall_s"] = pass_time(passes[False], 0)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": pass_time(passes[False], 0),
            "cpu_s": pass_time(passes[False], 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }

    env = environment()
    env.update(workload=args.workload, seed=seed,
               raw_pass_wall_s={("traced" if k else "untraced"): [
                   round(sum(t[2] for t in p.values()), 4) for p in v
               ] for k, v in passes.items()},
               setup_reps=SETUP_REPS, seconds=args.seconds)
    if tracer is not None:
        dump = work_dir / f"trace-seed{seed}.jsonl"
        with open(dump, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
