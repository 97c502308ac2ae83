"""Run every workload untraced and traced, print every metric by name with
its unit, and write the combined results with the environment.

    python3 perfbench/report.py --seed 1 [--seconds 20] [--out FILE]

For each workload this prints the end-to-end metrics (plus failed_frac, the
tail percentile and the job count), the input properties (degree histogram,
class shares, matrix cells of each kernel next to the L2 size), and the
per-layer table of the traced run with its coverage and tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" /
                         f"run-{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    return result, record


def show_workload(workload, plain, plain_rec, traced_rec):
    print(f"\n== {workload['name']}: {workload['why']}")
    print(f"   mix per round {plain_rec['strata']}; {plain_rec['jobs']} jobs "
          f"in {plain_rec['rounds']} rounds, tail at "
          f"p{plain_rec['tail_percentile']}, correct={plain['correct']}")
    for metric, m in plain["metrics"].items():
        print(f"   {metric:<14} {m['value']:>12.4f} {m['unit']}")
    print(f"   {'failed_frac':<14} {plain_rec['failed_frac']:>12.4f} ratio")
    print(f"   degrees {plain_rec['degree_histogram']}")
    print("   classes " + ", ".join(
        f"{c} {share:.0%}" for c, share in plain_rec["class_share"].items()))
    l2 = traced_rec["l2_bytes"]
    for kernel, c in traced_rec["kernel_cells"].items():
        print(f"   {kernel}: {c['cells']} cells in all, largest "
              f"{c['max_cells']} = {c['max_bytes_computed']} bytes computed "
              f"(L2 {l2} bytes)")
    job_s = traced_rec["traced_job_s"]
    print(f"   traced job time {job_s:.3f} s, layers cover "
          f"{traced_rec['coverage']:.2%}; overhead "
          f"{traced_rec['overhead_s']:.3f} s ({traced_rec['spans']} spans x "
          f"{traced_rec['span_cost_s'] * 1e6:.2f} us); traced "
          f"{traced_rec['traced_wall_s']:.3f} s, untraced replay "
          f"{traced_rec['untraced_wall_s']:.3f} s")
    print(f"   {'layer':<40} {'calls':>7} {'self_s':>9} {'share':>6} "
          f"{'cells':>11} {'max_cells':>9}")
    layers = sorted(traced_rec["layers"].items(),
                    key=lambda kv: -kv[1]["self_s"])
    for layer, st in layers:
        print(f"   {layer:<40} {st['calls']:>7} {st['self_s']:>9.4f} "
              f"{st['self_s'] / job_s:>6.1%} {st['cells']:>11} "
              f"{st['max_cells']:>9}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=BENCHMARK["run_seconds"])
    ap.add_argument("--out", type=Path, default=HERE / "out" / "report.json")
    args = ap.parse_args(argv)

    combined = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in BENCHMARK["workloads"]:
        name = workload["name"]
        plain, plain_rec = run(name, args.seed, args.seconds, 0)
        traced, traced_rec = run(name, args.seed, args.seconds, 1)
        combined["environment"] = plain_rec["environment"]
        show_workload(workload, plain, plain_rec, traced_rec)
        traced_rec.pop("job_seconds")
        combined["workloads"][name] = {
            "end_to_end": plain, "record": plain_rec,
            "per_layer": traced, "trace_record": traced_rec}
    print(f"\nenvironment {json.dumps(combined['environment'])}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(combined, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
