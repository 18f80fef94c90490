"""kbonacci benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a kbonacci checkout; the program is imported from
its `src/`.  Each repetition runs the workload's operation list in a
fresh interpreter (perfbench/worker.py), because kbonacci's lru caches
would turn a second in-process repetition into cache hits while a CLI
user pays for them on every invocation.  Repetitions run one after the
other from this process until S seconds have passed (at least three).
This process runs no kbonacci code: it checks every output against
reference.py's independent values, outside the timed region.

The machine's speed drifts by tens of per cent over seconds and
minutes, so times are calibrated: a worker samples the speed while it
works (worker.Clock, a fixed piece of work timed every 50 ms of wall
time), and a time is reported in seconds of a machine on which that
work takes CHUNK_S: measured seconds * CHUNK_S / mean sample.  The operation
time excludes the sampling itself.  Set-up is measured by a set-up-only
worker before each repetition, which samples the speed right after its
set-up.  The summary above the JSON also prints the raw medians.

Untraced (--trace 0), the last line of stdout is a JSON object with the
end-to-end metrics: wall_s, setup_s, peak_rss_mb and ok_ratio (the share
of operations that exit 0 with an exactly right output; fail_ratio is
1 - ok_ratio and is printed in the summary above the JSON).  Traced
(--trace 1), repetitions alternate untraced and traced, and the JSON
holds the per-layer metrics of tracing.py plus trace.overhead_ratio.
`correct` is false when any operation exited 0 with a wrong output;
operations that fail loudly (nonzero exit, exception) count in `failed`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracing
import workloads
from reference import Oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHUNK_S = 0.003        # worker.Clock's sample time that defines a calibrated second
MIN_REPS = 3           # per kind of repetition (untraced, traced)
WORKER_TIMEOUT_S = 60
LAST_START_S = 100     # no repetition starts later than this into a run


class BenchError(Exception):
    pass


class Launcher:
    """The launcher.py process, which starts every worker."""

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen([sys.executable, "-S", str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def spawn(self, ops: list[dict], trace: bool, outdir: Path) -> dict:
        """Run one worker; returns its report plus setup_s."""
        request = {
            "argv": [sys.executable, str(HERE / "worker.py"), str(ROOT / "src")],
            "input": json.dumps({"ops": ops, "outdir": str(outdir), "trace": trace}),
            "timeout": WORKER_TIMEOUT_S,
            "cwd": str(ROOT),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the launcher process ended")
        reply = json.loads(line)
        if reply.get("timeout"):
            raise BenchError(f"a repetition took over {WORKER_TIMEOUT_S} s")
        if reply["returncode"] != 0:
            raise BenchError(f"worker exited {reply['returncode']}: "
                             f"{reply['stderr'].strip()[-800:]}")
        report = json.loads(reply["stdout"].splitlines()[-1])
        report["setup_s"] = (report["ready_ns"] - reply["started_ns"]) / 1e9
        return report


def calibrated(seconds: float, samples: list[float]) -> float:
    """A time measured while worker.Clock took `samples`, in seconds of a
    machine on which a Clock sample takes CHUNK_S."""
    if not samples:
        raise BenchError("no speed samples: a repetition took under 50 ms")
    return seconds * CHUNK_S / statistics.fmean(samples)


def _digest(out: str) -> str:
    # verify's JSON carries per-check timings; they are not output values
    return hashlib.sha256(re.sub(r'"elapsed_ms": \d+', "", out).encode()).hexdigest()


class Checker:
    """Checks each repetition's outputs; a value already checked is not
    checked again."""

    def __init__(self, ops: list[dict]) -> None:
        self.ops = ops
        self.oracle = Oracle()
        self.verdicts: dict[tuple[int, str], str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: dict[int, str] = {}

    def __call__(self, report: dict, outdir: Path) -> None:
        for i, op in enumerate(self.ops):
            self.attempted += 1
            out = (outdir / f"{i}.out").read_text(encoding="utf-8")
            err = (outdir / f"{i}.err").read_text(encoding="utf-8").strip()
            code, raised = report["codes"][i], report["raised"][i]
            if raised is not None:
                reason = f"raised {raised}"
            elif code != 0:
                reason = f"exit {code}: {err.splitlines()[-1] if err else ''}"
            else:
                key = (i, _digest(out))
                if key not in self.verdicts:
                    self.verdicts[key] = check.check(op, out, self.oracle)
                reason = self.verdicts[key]
                self.wrong += reason is not None
            if reason is not None:
                self.failed += 1
                self.reasons.setdefault(i, reason[:200])


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g}, q3 {q3:.4g}, min {min(values):.4g}, max {max(values):.4g}, n={len(values)}"


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    ops = workloads.operations(workload, seed)
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        with Launcher() as launcher:
            launcher.spawn([], False, tmp)  # compiles bytecode once; not measured
            checker = Checker(ops)
            probes: list[dict] = []
            plain: list[dict] = []
            traced: list[dict] = []
            began = time.monotonic()
            while True:
                elapsed = time.monotonic() - began
                enough = len(plain) >= MIN_REPS and (not trace or len(traced) >= MIN_REPS)
                if (enough and elapsed >= seconds) or elapsed >= LAST_START_S:
                    break
                as_traced = trace and len(traced) < len(plain)
                probes.append(launcher.spawn([], False, tmp))
                report = launcher.spawn(ops, as_traced, tmp)
                checker(report, tmp)
                (traced if as_traced else plain).append(report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any((ROOT / ".perfbench_tmp").iterdir()):
            (ROOT / ".perfbench_tmp").rmdir()

    op_times = [r["wall_s"] - sum(r["clock"]) for r in plain]
    walls = [calibrated(t, r["clock"]) for t, r in zip(op_times, plain)]
    setups = [calibrated(p["setup_s"], p["clock"]) for p in probes]
    speeds = [statistics.fmean(r["clock"]) for r in plain + probes]
    rss = [r["rss_mb"] for r in plain]
    print(f"perfbench workload={workload} seed={seed} trace={int(trace)} "
          f"repetitions={len(plain)}+{len(traced)} traced, {len(ops)} operations each; "
          f"python {platform.python_version()}, nproc {os.cpu_count()}")
    print(f"  wall_s       {statistics.median(walls):.4f} s   ({_spread(walls)}); "
          f"raw {statistics.median(op_times):.4f} s")
    print(f"  setup_s      {statistics.median(setups):.4f} s   ({_spread(setups)}); "
          f"raw {statistics.median(p['setup_s'] for p in probes):.4f} s")
    print(f"  peak_rss_mb  {statistics.median(rss):.2f} MB  ({_spread(rss)})")
    print(f"  fail_ratio   {checker.failed / checker.attempted:.4f}   "
          f"({checker.failed} of {checker.attempted} operations; "
          f"{checker.wrong} with a wrong output)")
    print(f"  clock        {statistics.median(speeds) * 1e3:.4f} ms a sample   "
          f"({_spread(speeds)}); calibrated = raw * {CHUNK_S * 1e3} ms / sample")
    for i, reason in sorted(checker.reasons.items()):
        print(f"  failed: {workloads.describe(ops[i])}: {reason}")

    if trace:
        metrics = {}
        for name, (unit, _) in tracing.METRICS.items():
            value = statistics.median(r["trace"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_ratio"]["value"] = (
            statistics.median(r["wall_s"] for r in traced) / statistics.median(op_times))
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
        coverage = [r["trace"]["trace.self_coverage"] for r in traced]
        if any(abs(1 - c) > tracing.COVERAGE_TOLERANCE for c in coverage):
            print(f"warning: self times cover {min(coverage):.3f} to {max(coverage):.3f} "
                  f"of the traced wall time, outside 1 +- {tracing.COVERAGE_TOLERANCE}",
                  file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "ok_ratio": {"value": 1 - checker.failed / checker.attempted, "unit": "ratio"},
        }
    return {"correct": checker.wrong == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kbonacci" / "__init__.py").is_file():
        print(f"error: no kbonacci sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the checker reads exact values of any size; the workers keep the
    # interpreter's default limit
    sys.set_int_max_str_digits(0)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
