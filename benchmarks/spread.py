"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workloads fiber,duality,pinned,report \\
        --seeds 1-10 --out spread.json

Each run is a separate ``benchmarks/run.py`` process with ``run_seconds``
from BENCHMARK.json.  For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound; a spread under a third of the bound is marked steady.
With ``--trace`` it runs the traced variant and summarises the per-layer
metrics instead, without bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += list(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    command = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    start = time.perf_counter()
    child = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=900)
    result = json.loads(child.stdout.splitlines()[-1])
    result["exit_code"] = child.returncode
    result["wall_s"] = time.perf_counter() - start
    return result


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    out = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = spread < bound / 3
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="fiber,duality,pinned,report")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in table}
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    all_correct = True
    for workload in args.workloads.split(","):
        runs = {}
        for seed in seed_list(args.seeds):
            runs[seed] = run_once(workload, seed, spec["run_seconds"], args.trace)
            all_correct &= runs[seed]["correct"] and runs[seed]["exit_code"] == 0
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in runs.values()], bound)
            for name, bound in bounds.items()
        }
        report["workloads"][workload] = {
            "seeds": list(runs),
            "correct": all(r["correct"] for r in runs.values()),
            "attempted": sum(r["attempted"] for r in runs.values()),
            "failed": sum(r["failed"] for r in runs.values()),
            "max_wall_s": max(r["wall_s"] for r in runs.values()),
            "metrics": metrics,
        }
        print(f"{workload}: {len(runs)} runs, longest {report['workloads'][workload]['max_wall_s']:.1f} s,"
              f" failed {report['workloads'][workload]['failed']}")
        for name, m in metrics.items():
            flag = "" if "steady" not in m else ("  steady" if m["steady"] else "  NOT STEADY")
            print(f"  {name:<44} median {m['median']:.6g}  spread {m['spread']:.4f}"
                  + (f"  bound {m['bound']}" if "bound" in m else "") + flag)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
