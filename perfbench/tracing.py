"""Per-layer tracing for a traced repetition, installed from outside kbonacci.

`install` replaces each traced function or method with a wrapper at every
place it is bound: the defining module, every kbonacci module that
imported the name (formulas imports `expand`, `expand_ints`,
`gf_named_total` and `enumerate_words` directly) and the package
namespace.  Wrappers keep aggregates per name, not per-call spans: the
number of calls, inclusive seconds and self seconds.  An open call is one
float on a stack that collects the time of the calls nested in it, so a
name's self time is its time minus that of the traced calls inside it.
Calls and inclusive time count only the outermost of nested calls with
the same name (a recursion, or `sub` calling `add`), so time is never
counted twice.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, metric name); "Class.method" patches a method.  Names
# without metrics of their own (series.gf, cli.main, ...) are traced so that
# their self time is not counted in their callers' self time.
TARGETS = [
    ("words", "iter_words", "words.iter_words"),
    ("words", "Word.__init__", "words.Word"),
    ("words", "count_words", "words.count_words"),
    ("words", "enumerate_words", "words.enumerate_words"),
    ("polyomino", "from_word", "polyomino.from_word"),
    ("polyomino", "semiperimeter", "polyomino.semiperimeter"),
    ("graph", "build_graph", "graph.build_graph"),
    ("graph", "degree_profile", "graph.degree_profile"),
    ("graph", "is_hamiltonian", "graph.is_hamiltonian"),
    ("graph", "mirrored", "graph.mirrored"),
    ("series", "expand", "series.expand"),
    ("series", "expand_ints", "series.expand_ints"),
    ("series", "total_weight_series", "series.total_weight_series"),
    *[("series", f"gf_{f}", "series.gf")
      for f in ("polyomino", "graph", "degree", "hamiltonian", "named_total")],
    ("series", "MultiPoly.__init__", "series.MultiPoly.init"),
    ("series", "MultiPoly.__mul__", "series.MultiPoly.mul"),
    ("series", "MultiPoly.__rmul__", "series.MultiPoly.mul"),
    ("series", "MultiPoly.__add__", "series.MultiPoly.add"),
    ("series", "MultiPoly.__radd__", "series.MultiPoly.add"),
    ("series", "MultiPoly.__sub__", "series.MultiPoly.add"),
    ("series", "MultiPoly.__rsub__", "series.MultiPoly.add"),
    ("series", "MultiPoly.__neg__", "series.MultiPoly.add"),
    ("series", "MultiPoly.specialize", "series.MultiPoly.specialize"),
    ("series", "MultiPoly.to_text", "series.MultiPoly.to_text"),
    ("formulas", "empirical_degree_ratio", "formulas.empirical_degree_ratio"),
    ("formulas", "verify_certificate", "formulas.verify_certificate"),
    *[("formulas", f, "formulas.recurrence")
      for f in ("t_poly", "t_poly_closed", "v_poly", "v_poly_closed",
                "d2_poly", "d2_poly_closed", "d3_poly", "d3_poly_closed",
                "d4_poly", "d4_poly_closed", "degree_poly")],
    *[("formulas", f"QuadraticConstant.{m}", "formulas.QuadraticConstant")
      for m in ("enclosure", "abs_diff_below", "gap_upper_bound", "decimal")],
    ("verify", "brute_totals", "verify.brute_totals"),
    ("verify", "cross_check", "verify.cross_check"),
    ("verify", "totals_check", "verify.totals_check"),
    ("verify", "reversal_check", "verify.reversal_check"),
    ("verify", "ham_pair_check", "verify.ham_pair_check"),
    ("verify", "run_all", "verify.run_all"),
    *[("cli", f"cmd_{c}", f"cli.{c}")
      for c in ("count", "enumerate", "series", "verify", "asymptotics")],
    ("cli", "main", "cli.main"),
]

# the per-layer metrics a traced run reports, with unit and direction
METRICS = {
    "words.iter_words.calls": ("count", "lower"),
    "words.iter_words.items": ("count", "lower"),
    "words.iter_words.s": ("s", "lower"),
    "words.Word.calls": ("count", "lower"),
    "words.Word.s": ("s", "lower"),
    "words.count_words.calls": ("count", "lower"),
    "words.count_words.s": ("s", "lower"),
    "polyomino.from_word.calls": ("count", "lower"),
    "polyomino.from_word.s": ("s", "lower"),
    "polyomino.semiperimeter.calls": ("count", "lower"),
    "polyomino.semiperimeter.s": ("s", "lower"),
    "graph.build_graph.calls": ("count", "lower"),
    "graph.build_graph.s": ("s", "lower"),
    "graph.build_graph.distinct_ratio": ("ratio", "higher"),
    "graph.degree_profile.calls": ("count", "lower"),
    "graph.degree_profile.s": ("s", "lower"),
    "graph.is_hamiltonian.calls": ("count", "lower"),
    "graph.is_hamiltonian.s": ("s", "lower"),
    "graph.is_hamiltonian.distinct_ratio": ("ratio", "higher"),
    "graph.mirrored.calls": ("count", "lower"),
    "graph.mirrored.s": ("s", "lower"),
    "series.expand.calls": ("count", "lower"),
    "series.expand.s": ("s", "lower"),
    "series.expand.self_s": ("s", "lower"),
    "series.expand.terms_out": ("count", "lower"),
    "series.expand.distinct_ratio": ("ratio", "higher"),
    "series.MultiPoly.init.calls": ("count", "lower"),
    "series.MultiPoly.init.s": ("s", "lower"),
    "series.MultiPoly.mul.calls": ("count", "lower"),
    "series.MultiPoly.mul.s": ("s", "lower"),
    "series.MultiPoly.add.calls": ("count", "lower"),
    "series.MultiPoly.add.s": ("s", "lower"),
    "series.MultiPoly.specialize.calls": ("count", "lower"),
    "series.MultiPoly.specialize.s": ("s", "lower"),
    "series.MultiPoly.to_text.calls": ("count", "lower"),
    "series.MultiPoly.to_text.s": ("s", "lower"),
    "formulas.empirical_degree_ratio.calls": ("count", "lower"),
    "formulas.empirical_degree_ratio.s": ("s", "lower"),
    "formulas.verify_certificate.calls": ("count", "lower"),
    "formulas.verify_certificate.s": ("s", "lower"),
    "formulas.recurrence.s": ("s", "lower"),
    "formulas.QuadraticConstant.s": ("s", "lower"),
    "verify.brute_totals.calls": ("count", "lower"),
    "verify.brute_totals.s": ("s", "lower"),
    "verify.cross_check.s": ("s", "lower"),
    "verify.totals_check.s": ("s", "lower"),
    "verify.reversal_check.s": ("s", "lower"),
    "verify.ham_pair_check.s": ("s", "lower"),
    "verify.run_all.self_s": ("s", "lower"),
    "verify.checks": ("count", "higher"),
    "verify.skip_ratio": ("ratio", "lower"),
    "verify.elapsed_attributed_ratio": ("ratio", "higher"),
    **{f"cli.{c}.{stat}": unit
       for c in ("count", "enumerate", "series", "verify", "asymptotics")
       for stat, unit in (("calls", ("count", "lower")), ("s", ("s", "lower")))},
    "cli.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("B", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.self_coverage": ("ratio", "higher"),
}

# share of the traced wall time that self times must account for
COVERAGE_TOLERANCE = 0.05


def _expand_key(gf, n_max):
    return (gf.variables, tuple(sorted(gf.numerator.terms.items())),
            tuple(sorted(gf.denominator.terms.items())), n_max)


class Tracer:
    """Aggregated call statistics; `clock` is injectable for tests.

    stats[name] is [calls, inclusive seconds, self seconds, open calls].
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counts: dict[str, float] = defaultdict(int)
        self.inputs: dict[str, set] = defaultdict(set)
        self._stack = [0.0]  # per open call: time of traced calls inside it

    def wrap(self, name: str, fn, key=None, observe=None, count_calls: bool = True):
        """A traced version of `fn`.  `key(*args)` identifies the input for
        the distinct-input ratio; `observe(result)` adds counts."""
        stat, inputs, stack, clock = self.stats[name], self.inputs[name], self._stack, self.clock

        def traced(*args, **kwargs):
            if key is not None:
                inputs.add(key(*args, **kwargs))
            stat[3] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                stat[2] += elapsed - inner
                stat[3] -= 1
                if not stat[3]:
                    stat[0] += count_calls
                    stat[1] += elapsed
            if observe is not None:
                observe(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name: str, fn):
        """A traced generator function: each call counts once, and time is
        taken only inside next(), not while the consumer works."""
        stat, counts = self.stats[name], self.counts
        step = self.wrap(name, next, count_calls=False)

        def timed(it):
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                counts[name + ".items"] += 1
                yield item

        def traced(*args, **kwargs):
            stat[0] += 1
            return timed(fn(*args, **kwargs))
        traced.__wrapped__ = fn
        return traced

    def _observe_expand(self, coeffs) -> None:
        self.counts["series.expand.terms_out"] += sum(len(c.terms) for c in coeffs)

    def _observe_run_all(self, summary) -> None:
        self.counts["verify.checks"] += len(summary.reports)
        self.counts["verify.skips"] += summary.skips
        self.counts["verify.elapsed_s"] += sum(r.elapsed_ms for r in summary.reports) / 1000

    def traced_version(self, name: str, fn):
        if name == "words.iter_words":
            return self.wrap_iter(name, fn)
        if name == "graph.build_graph":
            return self.wrap(name, fn, key=lambda p: p.heights)
        if name == "graph.is_hamiltonian":
            return self.wrap(name, fn, key=lambda g: g)
        if name == "series.expand":
            return self.wrap(name, fn, key=_expand_key, observe=self._observe_expand)
        if name == "verify.run_all":
            return self.wrap(name, fn, observe=self._observe_run_all)
        return self.wrap(name, fn)

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def inclusive(self, name: str) -> float:
        return self.stats[name][1]

    def self_time(self, name: str) -> float:
        return self.stats[name][2]

    def metrics(self, wall_s: float, stdout_bytes: int) -> dict[str, float]:
        """Every METRICS value except trace.overhead_ratio, which needs the
        untraced repetitions and is left at 0."""
        out: dict[str, float] = {}
        for metric in METRICS:
            base, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = self.calls(base)
            elif stat == "s":
                out[metric] = self.inclusive(base)
            elif stat == "distinct_ratio":
                calls = self.calls(base)
                out[metric] = len(self.inputs[base]) / calls if calls else 0.0
            else:  # items, terms_out, checks; the rest is set below
                out[metric] = self.counts[metric]
        out["series.expand.self_s"] = self.self_time("series.expand")
        out["verify.run_all.self_s"] = self.self_time("verify.run_all")
        out["cli.self_s"] = sum(self.self_time(name) for name in list(self.stats)
                                if name.startswith("cli."))
        checks = self.counts["verify.checks"]
        out["verify.skip_ratio"] = self.counts["verify.skips"] / checks if checks else 0.0
        verify_s = self.inclusive("cli.verify")
        out["verify.elapsed_attributed_ratio"] = (
            self.counts["verify.elapsed_s"] / verify_s if verify_s else 0.0)
        out["cli.stdout_bytes"] = stdout_bytes
        out["trace.self_coverage"] = sum(s[2] for s in self.stats.values()) / wall_s
        return out


def install(tracer: Tracer) -> None:
    """Wrap every target at every binding site in the loaded kbonacci
    modules: module attributes and the values of module-level dicts (such
    as verify's family table)."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "kbonacci" or name.startswith("kbonacci."))]
    for module, attr, name in TARGETS:
        owner = sys.modules[f"kbonacci.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.traced_version(name, cls.__dict__[meth]))
            continue
        original = getattr(owner, attr)
        traced = tracer.traced_version(name, original)
        for m in modules:
            for binding, value in list(vars(m).items()):
                if value is original:
                    setattr(m, binding, traced)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = traced
