"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py SRC_DIR < spec.json

Imports kbonacci from SRC_DIR and builds the CLI parser (the set-up that
every CLI invocation pays), then runs the operations in the JSON spec
{"ops": [...], "outdir": DIR, "trace": bool}, writing operation i's
stdout and stderr to DIR/i.out and DIR/i.err.  Prints one JSON line: the
monotonic-clock time at which set-up finished, the wall time of the
operation list, each operation's exit code or exception, the peak
resident memory, the speed samples of `Clock` and, when traced, the
per-layer metrics.  An empty operation list measures set-up alone, and
then samples the speed PROBE_SAMPLES times right after set-up.

This process never changes interpreter limits: failures that the default
limits cause are part of what the benchmark measures.
"""

import json
import os
import sys
import time

TICK_S = 0.05        # interval between two speed samples during the operations
PROBE_SAMPLES = 40   # speed samples after a set-up-only start


class Clock:
    """Samples the machine's speed, which drifts by tens of per cent over
    seconds and minutes on a shared host: each sample is the time of a
    fixed piece of pure-Python work in the mix kbonacci spends its time
    on (int arithmetic, dicts keyed by tuples, lists of tuples and
    strings).  As a context manager, a SIGALRM handler takes a sample
    every TICK_S of wall time, so the samples cover the operations evenly
    and run on the same core."""

    def __init__(self) -> None:
        import gc
        import signal  # here, not at the top: set-up does not pay for them
        self.gc = gc
        self.signal = signal
        self.samples: list[float] = []

    def sample(self, *_) -> None:
        # a collection started here would traverse the program's heap
        enabled = self.gc.isenabled()
        self.gc.disable()
        start = time.perf_counter()
        x = 0
        for i in range(10_000):
            x += i
        poly: dict[tuple[int, int, int], int] = {}
        for i in range(4_000):
            poly[(i & 63, i >> 6, i % 7)] = poly.get((i & 63, (i >> 6) - 1, i % 7), 0) + i
        rows = [(i, str(i)) for i in range(2_000)]
        self.samples.append(time.perf_counter() - start)
        del poly, rows
        if enabled:
            self.gc.enable()

    def __enter__(self) -> "Clock":
        self.signal.signal(self.signal.SIGALRM, self.sample)
        self.signal.setitimer(self.signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        self.signal.setitimer(self.signal.ITIMER_REAL, 0, 0)
        self.signal.signal(self.signal.SIGALRM, self.signal.SIG_DFL)


def main() -> int:
    src = os.path.abspath(sys.argv[1])
    sys.path.insert(0, src)
    from kbonacci import cli
    cli.build_parser()
    ready_ns = time.monotonic_ns()

    import contextlib
    import resource
    import traceback

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"kbonacci was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    from kbonacci import verify

    ops, outdir = spec["ops"], spec["outdir"]
    codes: list[int | None] = []
    raised: list[str | None] = []
    values: dict[int, dict] = {}
    clock = Clock()
    start = time.perf_counter()
    with clock if ops and tracer is None else contextlib.nullcontext():
        for i, op in enumerate(ops):
            code, error = 0, None
            with open(os.path.join(outdir, f"{i}.out"), "w", encoding="utf-8") as out, \
                    open(os.path.join(outdir, f"{i}.err"), "w", encoding="utf-8") as err, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    if op["kind"] == "cli":
                        code = cli.main(op["argv"])
                    else:
                        values[i] = verify.brute_totals(op["n"], op["k"])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # reported as a failed operation
                    traceback.print_exc()
                    code, error = None, f"{type(exc).__name__}: {exc}"[:300]
            codes.append(code)
            raised.append(error)
    wall_s = time.perf_counter() - start
    if not ops:
        for _ in range(PROBE_SAMPLES):
            clock.sample()

    for i, totals in values.items():
        with open(os.path.join(outdir, f"{i}.out"), "w", encoding="utf-8") as out:
            json.dump(totals, out)
    stdout_bytes = sum(os.path.getsize(os.path.join(outdir, f"{i}.out"))
                       for i, op in enumerate(ops) if op["kind"] == "cli")
    result = {
        "ready_ns": ready_ns,
        "wall_s": wall_s,
        "clock": clock.samples,
        "codes": codes,
        "raised": raised,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.metrics(wall_s, stdout_bytes) if tracer else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
