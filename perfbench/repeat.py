"""Run the benchmark several times per workload, one seed per run, and
summarize each metric as its median, quartiles and spread: the distance
between the quartiles as a share of the median, the figure that
BENCHMARK.json's bounds are set against.

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1] [--trace 0|1]
                                [--workloads oracle,series] [--out FILE]

Run from the repository root.  Runs are sequential and each takes
BENCHMARK.json's run_seconds plus set-up and checking.  An untraced
summary marks each spread at or above a third of its bound (!) and at or
above the bound (!!).  --out writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            result["seed"] = seed
            runs[workload].append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if k in bounds or args.trace), flush=True)
        names = runs[workload][0]["metrics"]
        summary[workload] = {name: summarize([r["metrics"][name]["value"] for r in runs[workload]])
                             for name in names}

    print(f"\n{'workload':<9} {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} spread")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            flag = ""
            if name in bounds and name != "setup_s":
                flag = " !!" if s["spread"] >= bounds[name] else (
                    " !" if s["spread"] >= bounds[name] / 3 else "")
            print(f"{workload:<9} {name:<40} {s['median']:>12.5g} {s['q1']:>12.5g} "
                  f"{s['q3']:>12.5g} {s['spread']:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps({
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "run_seconds": spec["run_seconds"], "trace": args.trace,
            "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
