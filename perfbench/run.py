"""Benchmark of jacsyz: one workload, one seed, one run.

    python3 perfbench/run.py --workload free_curves --seed 1 --seconds 30 \
        --trace 0

Drives the public jacsyz API from this single-threaded process in a closed
loop: a job is one user request, and the next job starts when the previous
one returns.  Inputs come from ``--seed`` (see workloads.py).  The loop runs
whole rounds of the workload's stated mix until ``--seconds`` have passed and
enough jobs ran for the tail percentile; then every output is checked by an
exact oracle.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
number of rounds (enough for the tail percentile) traced (spans.py) and then
replays them untraced, fails unless both give the same job outputs, and
reports the per-layer metrics of the traced pass and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A record of the run (environment, input properties, job times,
per-layer table) goes to perfbench/out/, and spans of a traced run too.
"""

from __future__ import annotations

import os

# one thread for every BLAS / OpenMP pool; must precede the numpy import
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7


def import_program():
    """Import jacsyz from this checkout's src/, and nothing else."""
    if not (SRC / "jacsyz" / "__init__.py").is_file():
        raise SystemExit(f"error: no jacsyz sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jacsyz
    if Path(jacsyz.__file__).resolve().parent != SRC / "jacsyz":
        raise SystemExit(f"error: imported jacsyz from {jacsyz.__file__}")


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def caches():
    """Cache sizes of cpu0 by level and type, e.g. {"L2 Unified": "2048K"}."""
    out = {}
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache.glob("index*")):
        out[f"L{_read(idx / 'level')} {_read(idx / 'type')}"] = \
            _read(idx / "size")
    return out


def l2_bytes():
    size = caches().get("L2 Unified") or ""
    units = {"K": 1024, "M": 1024 ** 2}
    return int(size[:-1]) * units[size[-1]] if size[-1:] in units else None


def environment(seed):
    import numpy
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor(), "caches": caches(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "seed": seed}


def setup_seconds(workload, seed):
    """Median over fresh processes of the time from process start until
    the first job could be timed, less the time the benchmark spent drawing
    its inputs."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()  # CLOCK_MONOTONIC, shared with the child
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        ready, generate_s = map(float, proc.stdout.split()[-2:])
        samples.append(ready - t0 - generate_s)
    return statistics.median(samples), samples


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_program()
    global workloads  # imports jacsyz, so only once src/ is on the path
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")

    t0 = time.perf_counter()
    wl, deck, ctx, generate_s = workloads.setup(args.workload, args.seed)
    in_process_setup = time.perf_counter() - t0
    if args.setup_probe:
        print(time.monotonic(), generate_s)
        return 0

    record = {"workload": wl.name, "trace": args.trace,
              "seconds": args.seconds, "strata": repr(wl.strata),
              "environment": environment(args.seed),
              "in_process_setup_s": in_process_setup,
              "generate_s": generate_s}
    if args.trace:
        metrics, failed, n = traced_run(wl, deck, ctx, args.seed, record)
    else:
        inputs, results, times, rounds, wall = workloads.run_loop(
            wl, deck, ctx, seconds=args.seconds)
        failed = summarize(wl, inputs, results, times, ctx, record)
        setup_s, record["setup_samples_s"] = setup_seconds(args.workload,
                                                           args.seed)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record.update(rounds=rounds, loop_wall_s=wall)
        metrics = reported({
            "setup_s": setup_s,
            "jobs_per_s": (len(results) - failed) / wall,
            "job_p50_s": statistics.median(times),
            "job_tail_s": workloads.percentile(times, wl.tail_pct),
            "peak_rss_mb": peak_mb}, "end_to_end")
        n = len(results)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"run-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": n,
                      "failed": failed, "metrics": metrics}))
    return 0


def summarize(wl, inputs, results, times, ctx, record):
    """Check every job with its oracle; record what ran.  Returns the number
    of failed jobs."""
    verdicts = workloads.check(inputs, results, ctx)
    failed = sum(v is not None for v in verdicts)
    record.update(workloads.input_properties(inputs, results))
    record.update({"jobs": len(results), "failed_frac": failed / len(results),
                   "tail_percentile": wl.tail_pct,
                   "failures": [v for v in verdicts if v][:20],
                   "job_seconds": [[i.label, t]
                                   for i, t in zip(inputs, times)]})
    return failed


def traced_run(wl, deck, ctx, seed, record):
    """Traced pass over a fixed number of rounds, so per-layer counts compare
    across versions of the program, then an untraced replay of the same
    rounds that must give the same outputs.  Running the traced pass first
    keeps its jobs as cold as those of an untraced run.

    The overhead metric is the number of spans times the measured cost of
    one span (``spans.span_cost``).  Traced minus untraced wall time is
    kept in the record too, but whole passes drift by more than the tracing
    costs, so that difference is noise, and can be negative."""
    from spans import NameGuardError, Tracer, span_cost
    tracer = Tracer(extra_modules=(workloads,))
    try:
        tracer.install()
    except NameGuardError as exc:
        raise SystemExit(f"error: traced run refused: {exc}")
    try:
        inputs, results, _, rounds, t_wall = workloads.run_loop(
            wl, deck, ctx, rounds=wl.trace_rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    _, plain, times, _, wall = workloads.run_loop(wl, deck, ctx,
                                                  rounds=rounds)
    for i, (a, b) in enumerate(zip(workloads.comparable(results),
                                   workloads.comparable(plain))):
        if a != b:
            raise SystemExit(f"error: traced job {i} gave {a}, the untraced "
                             f"replay {b}")
    failed = summarize(wl, inputs, results, times, ctx, record)
    stats, job_s, coverage = tracer.layer_stats()
    n_spans = sum(st["calls"] for st in stats.values())
    cost = span_cost()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{seed}.jsonl")
    record.update({
        "rounds": rounds, "layers": stats, "traced_job_s": job_s,
        "coverage": coverage, "traced_wall_s": t_wall,
        "untraced_wall_s": wall, "wall_difference_s": t_wall - wall,
        "spans": n_spans, "span_cost_s": cost,
        "overhead_s": n_spans * cost,
        "l2_bytes": l2_bytes(),
        "kernel_cells": {
            name: {"cells": st["cells"], "max_cells": st["max_cells"],
                   "max_bytes_computed": 8 * st["max_cells"]}
            for name, st in stats.items() if st["cells"]}})
    values = {"trace.coverage": coverage,
              "trace.overhead_s": n_spans * cost}
    for name, st in stats.items():
        values.update({f"{name}.{k}": v for k, v in st.items()})
    return reported(values, "per_layer"), failed, len(results)


def reported(values, kind):
    """The metrics BENCHMARK.json lists under ``kind``, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


if __name__ == "__main__":
    sys.exit(main())
