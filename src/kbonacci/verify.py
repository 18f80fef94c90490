"""Brute-force oracle harness: aggregate statistics over enumerated words
and assert exact equality with the series and formula layers.

Every pass is an exact polynomial or integer equality, never a numeric
tolerance.  Failures never abort a sweep; they are collected as reports
so discrepancies can be inspected together.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

from . import formulas, graph, polyomino, series, words
from .series import MultiPoly, RationalGF


class Family(NamedTuple):
    """A multivariate family: its generating-function constructor and the
    `graph.WordStats` fields its auxiliary variables mark, in order."""

    gf: Callable[[int], RationalGF]
    fields: tuple[str, ...]


# the one family registry: series families, verify suites and totals
# derive from it
FAMILIES = {
    "poly": Family(series.gf_polyomino, ("perimeter", "area")),
    "graph": Family(series.gf_graph, ("edges", "vertices")),
    "degree": Family(series.gf_degree, ("deg2", "deg3", "deg4")),
    "ham": Family(series.gf_hamiltonian, ("ham",)),
}

# total name -> (multivariate family, marking variable), in WordStats order
_MARKS = {name: (family, var) for family, fam in FAMILIES.items()
          for name, var in zip(fam.fields, fam.gf(2).aux_variables)}
TOTALS = {name: _MARKS[name] for name in graph.WordStats._fields}


def _family(family: str) -> Family:
    """The `FAMILIES` entry of `family`: the one check of a family name."""
    try:
        return FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; expected one of {tuple(FAMILIES)}") from None


class CheckReport(NamedTuple):
    family: str
    k: int
    n: int
    status: str  # pass | fail
    expected: str
    actual: str
    elapsed_ms: int


class Summary:
    """The reports of a verification run, in order, and their counts."""

    def __init__(self, reports: list[CheckReport]) -> None:
        self.reports = reports

    @property
    def passes(self) -> int:
        return sum(1 for r in self.reports if r.status == "pass")

    @property
    def fails(self) -> int:
        return sum(1 for r in self.reports if r.status == "fail")

    @property
    def skips(self) -> int:
        """0 for every run, as no check skips; the text summary keeps its
        `skips=` field."""
        return sum(1 for r in self.reports if r.status == "skip")

    @property
    def ok(self) -> bool:
        return self.fails == 0


class _Run:
    """One verification run: whether its sweeps decide Hamiltonicity, the
    `graph.WordStats` of every word its checks sweep, (n, k) -> {word
    bits: WordStats}, and its clock.  `run_all` makes one for all its
    suites; a check alone makes its own, kept until it returns, deciding
    Hamiltonicity iff the check reads it."""

    def __init__(self, ham: bool) -> None:
        self.ham = ham
        self.tables: dict[tuple[int, int], dict[tuple[int, ...], graph.WordStats]] = {}
        self.start = time.perf_counter()
        self.charged = 0

    def stats(self, n: int, k: int) -> dict[tuple[int, ...], graph.WordStats]:
        """Every length-n word's statistics, from one `graph.sweep_stats`
        over the words in `iter_words` order.  The first check that needs
        a length fills its table, so that check's report is charged for
        it; Hamiltonicity is decided once per word, if the run asks."""
        words.check_n(n, 1, "length")
        table = self.tables.get((n, k))
        if table is None:
            sweep = graph.sweep_stats(words.iter_words(n, k), self.ham)
            table = self.tables[n, k] = {w.bits: stats for w, stats in sweep}
        return table

    def report(self, family: str, k: int, n: int, expected: str, actual: str) -> CheckReport:
        """A report charged with the whole milliseconds of the run not yet
        charged, so set-up shared by reports is charged to the first of
        them.  The running total charged is the elapsed time cut to whole
        milliseconds, so the reports of one run add up to its time less
        under 1 ms, however many they are."""
        now = int((time.perf_counter() - self.start) * 1000)
        elapsed, self.charged = now - self.charged, now
        status = "pass" if expected == actual else "fail"
        return CheckReport(family, k, n, status, expected, actual, elapsed)


def brute_stats_poly(n: int, k: int, family: str, *,
                     run: _Run | None = None) -> MultiPoly:
    """Exact monomial aggregation over all length-n words."""
    fields = _family(family).fields
    run = run or _Run(family == "ham")
    terms: dict[tuple[int, ...], int] = {}
    for stats in run.stats(n, k).values():
        key = tuple(getattr(stats, field) for field in fields)
        terms[key] = terms.get(key, 0) + 1
    return MultiPoly(tuple(TOTALS[field][1] for field in fields), terms)


def _first_difference(left: MultiPoly, right: MultiPoly,
                      names: tuple[str, str] = ("brute", "series")) -> str:
    """Where two unequal polynomials first differ in graded-lex order:
    the monomial and both coefficients, each after its side's name."""
    exps = next(iter((left - right).terms))
    monomial = MultiPoly(left.variables, {exps: 1}).to_text()
    return (f"differs at {monomial}: {names[0]} {left.terms.get(exps, 0)}, "
            f"{names[1]} {right.terms.get(exps, 0)}")


def cross_check(family: str, k: int, max_n: int, *,
                run: _Run | None = None) -> list[CheckReport]:
    """One report per n comparing brute force against the series
    coefficient; a failing report's `actual` starts with the first
    monomial where they differ."""
    gf = _family(family).gf
    words.check_k(k)
    words.check_n(max_n, 1, "max_n")
    run = run or _Run(family == "ham")
    coeffs = series.expand(gf(k), max_n)
    out = []
    for n in range(1, max_n + 1):
        brute = brute_stats_poly(n, k, family, run=run)
        expected, actual = brute.to_text(), coeffs[n].to_text()
        if actual != expected:
            actual = f"{_first_difference(brute, coeffs[n])}; series = {actual}"
        out.append(run.report(family, k, n, expected, actual))
    return out


def brute_totals(n: int, k: int, *, run: _Run | None = None) -> dict[str, int]:
    """All eight statistic totals over length-n words in one sweep: the
    sums of the `graph.WordStats` fields."""
    table = (run or _Run(True)).stats(n, k)
    return dict(zip(TOTALS, map(sum, zip(*table.values()))))


def totals_check(k: int, max_n: int, *, run: _Run | None = None) -> list[CheckReport]:
    """Named univariate totals vs the weighted multivariate series vs brute
    force, one report per (name, n).  A row expects both series to equal
    the brute-force total; a failing row names each side that differs,
    with both values: `named 41 differs from brute 40`, joined by `; `
    when both do."""
    words.check_k(k)
    words.check_n(max_n, 1, "max_n")
    run = run or _Run(True)
    named = {name: series.expand_ints(series.gf_named_total(name, k), max_n)
             for name in TOTALS}
    weighted = {name: series.total_weight_series(FAMILIES[fam].gf(k), var, max_n)
                for name, (fam, var) in TOTALS.items()}
    out = []
    brutes = {n: brute_totals(n, k, run=run) for n in range(1, max_n + 1)}
    for name in TOTALS:
        for n in range(1, max_n + 1):
            b = brutes[n][name]
            sides = (("named", named[name][n]), ("weighted", weighted[name][n]))
            expected = f"named={b} weighted={b}"
            differ = [f"{side} {value} differs from brute {b}"
                      for side, value in sides if value != b]
            out.append(run.report(f"total:{name}", k, n, expected,
                                  "; ".join(differ) or expected))
    return out


def ham_pair_check(max_k: int, max_n: int, *, run: _Run | None = None) -> list[CheckReport]:
    """Total-Hamiltonian series agree for the parameter pairs (2j, 2j+1):
    the named total of 2j against the total of the multivariate
    Hamiltonian gf of 2j+1.  The named total reads k only through
    2*floor(k/2), so the odd side must come from the other gf."""
    words.check_k(max_k)
    words.check_n(max_n, 1, "max_n")
    run = run or _Run(False)
    out = []
    for j in range(1, (max_k - 1) // 2 + 1):
        even = series.expand_ints(series.gf_named_total("ham", 2 * j), max_n)
        odd = series.total_weight_series(series.gf_hamiltonian(2 * j + 1), "q", max_n)
        for n in range(1, max_n + 1):
            out.append(run.report("ham-pair", 2 * j, n, str(even[n]), str(odd[n])))
    return out


def _ham_rule_report(run: _Run) -> CheckReport:
    """The ham-rule row: it passes iff `graph.check_ham_rule` proves the
    odd-run rule of `graph.hamiltonian_by_odd_runs` for every word, and
    else names the shortest word on which the rule fails.  Its k = 2 and
    n = 0 stand for every k and n."""
    found = graph.check_ham_rule().counterexample
    claim = "odd runs iff Hamiltonian"
    return run.report("ham-rule", 2, 0, claim,
                      claim if found is None else f"differs at {found}")


def reversal_check(k: int, max_n: int, *, run: _Run | None = None) -> list[CheckReport]:
    """Statistics of every word agree with those of its reverse, and the
    mirrored geometry equals the reverse word's geometry."""
    words.check_k(k)
    words.check_n(max_n, 1, "max_n")
    run = run or _Run(False)
    out = []
    for n in range(1, max_n + 1):
        stats = run.stats(n, k)
        geos = {w.bits: geo for w, geo in polyomino.geometries(words.iter_words(n, k))}
        bad = ""
        for bits, geo in geos.items():
            rev = bits[::-1]
            if stats[bits] != stats[rev] or graph.mirrored(geo) != geos[rev]:
                bad = "".join(map(str, bits))
                break
        out.append(run.report("reversal", k, n, "symmetric",
                              f"asymmetric at {bad}" if bad else "symmetric"))
    return out


def _formula_row(run: _Run, family: str, n: int, recurrence: MultiPoly,
                 closed: MultiPoly, from_series: MultiPoly) -> CheckReport:
    """A k = 2 polynomial row: it expects the recurrence's polynomial, and
    a failing row names which of the closed form and the series differ
    from it, each at its first differing monomial."""
    expected = recurrence.to_text()
    differ = [f"{name} {_first_difference(recurrence, other, ('recurrence', name))}"
              for name, other in (("closed form", closed), ("series", from_series))
              if other != recurrence]
    return run.report(family, 2, n, expected, "; ".join(differ) or expected)


def _formula_reports(run: _Run) -> list[CheckReport]:
    out = []
    walks, sides = formulas.recurrence_sides(30), formulas.series_sides(30)
    for n in range(1, 31):
        for name, walk in walks.items():
            out.append(_formula_row(run, f"formulas:{name}", n, walk[n],
                                    formulas.CLOSED_FORMS[name](n), sides[name][n]))
    area_coeffs = series.expand_ints(series.gf_named_total("area", 2), 50)
    for n in range(1, 51):
        out.append(run.report("formulas:total-area", 2, n, str(area_coeffs[n]),
                              str(formulas.total_area_closed(n))))
    by_area = formulas.polyomino_counts_by_area(14)
    for a in range(1, 15):
        # expects the recurrence; a failing row names each side that differs
        b = formulas.narayana(a + 1)
        differ = [f"{name} {value}" for name, value in
                  (("binomial sum", formulas.narayana_binomial(a + 1)),
                   ("area count", by_area[a])) if value != b]
        out.append(run.report("formulas:narayana", 2, a, str(b), "; ".join(differ) or str(b)))
    for n in range(0, 31):
        direct, closed = formulas.fib_convolution(n), formulas.fib_convolution_closed(n)
        out.append(run.report("formulas:fib-conv", 2, n, "consistent",
                              "consistent" if direct == closed
                              else f"sum {direct}, closed form {closed}"))
    for which in ("rel1", "rel2"):
        for n in range(1, 21):
            results = [formulas.verify_certificate(which, n, i)
                       for i in range(0, n // 2 + 3)]
            checked = sum(1 for r in results if r is not None)
            good = sum(1 for r in results if r)
            out.append(run.report(f"formulas:cert-{which}", 2, n,
                                  f"{checked}/{checked}", f"{good}/{checked}"))
    eps = Fraction(5, 1000)
    gaps_ok = all(
        formulas.degree_proportion_limit(j).abs_diff_below(
            formulas.empirical_degree_ratio(j, 2000), eps)
        for j in formulas.DEGREES)
    out.append(run.report("formulas:asymptotics", 2, 2000, "gaps < 5e-3",
                          "gaps < 5e-3" if gaps_ok else "gap too large"))
    # the degree-j shares of the vertices sum to 1 iff the counts sum to
    # the vertex total, as that total is positive
    broken = formulas.degree_partition_break(2000)
    out.append(run.report("formulas:degree-partition", 2, 2000, "sum == 1",
                          "sum == 1" if broken is None else f"partition broken at n={broken}"))
    return out


def _family_suite(family: str) -> Callable[[_Run, int, int], list[CheckReport]]:
    """A family's cross checks for every k; the ham suite also runs the
    (2j, 2j+1) pair identity of the Hamiltonian totals and the proof of
    the odd-run rule."""
    def suite(run: _Run, max_n: int, max_k: int) -> list[CheckReport]:
        out = [r for k in range(2, max_k + 1) for r in cross_check(family, k, max_n, run=run)]
        if family == "ham":
            out += ham_pair_check(max_k, max(max_n, 12), run=run)
            out.append(_ham_rule_report(run))
        return out
    return suite


# suite name -> its checks for (the run the suites share, max_n, max_k),
# in report order
SUITES = {
    **{family: _family_suite(family) for family in FAMILIES},
    "totals": lambda run, max_n, max_k: [
        r for k in range(2, max_k + 1) for r in totals_check(k, max_n, run=run)],
    "formulas": lambda run, max_n, max_k: _formula_reports(run),
    "reversal": lambda run, max_n, max_k: [
        r for k in range(2, max_k + 1)
        for r in reversal_check(k, min(max_n, 10), run=run)],
}


def run_all(max_n: int, max_k: int, suites: tuple[str, ...] = tuple(SUITES)) -> Summary:
    """Run the requested suites for every k <= max_k and collect reports
    in deterministic (suite, k, n) order.  The suites share one `_Run`:
    one sweep of each (n, k), kept for this call only, and one clock, so
    the reports' `elapsed_ms` add up to the call's time less under 1 ms."""
    if not SUITES.keys() >= set(suites):
        raise ValueError(f"unknown suite in {suites}; expected one of {tuple(SUITES)}")
    words.check_n(max_n, 1, "max_n")
    words.check_k(max_k)
    # only the ham and totals suites read Hamiltonicity
    run = _Run(bool({"ham", "totals"} & set(suites)))
    return Summary([report for suite, checks in SUITES.items() if suite in suites
                    for report in checks(run, max_n, max_k)])


# ---------------------------------------------------------------------
# Report rendering.  The text table carries no timings so identical runs
# are byte-identical; CSV and JSON include elapsed_ms.

def to_text(summary: Summary) -> str:
    lines = [f"{'family':<24} {'k':>2} {'n':>4} status"]
    for r in summary.reports:
        lines.append(f"{r.family:<24} {r.k:>2} {r.n:>4} {r.status}")
        if r.status == "fail":
            lines.append(f"  expected: {r.expected}")
            lines.append(f"  actual:   {r.actual}")
    lines.append(f"passes={summary.passes} fails={summary.fails} skips={summary.skips}")
    return "\n".join(lines)


def to_csv(summary: Summary) -> str:
    lines = ["family,k,n,status,elapsed_ms"]
    for r in summary.reports:
        lines.append(f"{r.family},{r.k},{r.n},{r.status},{r.elapsed_ms}")
    return "\n".join(lines)


def to_json_obj(summary: Summary) -> list[dict]:
    """One flat dict per report, keyed by the `CheckReport` fields in order."""
    return [r._asdict() for r in summary.reports]
