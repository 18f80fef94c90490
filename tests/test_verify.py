import collections
import contextlib
import io
import json
import re
import subprocess
import sys
import time

import pytest

from kbonacci import cli, formulas, graph, polyomino, series, verify, words
from kbonacci.series import MultiPoly
from kbonacci.verify import (
    CheckReport,
    Summary,
    brute_stats_poly,
    brute_totals,
    cross_check,
    ham_pair_check,
    reversal_check,
    run_all,
    to_csv,
    to_json_obj,
    to_text,
    totals_check,
)


def corrupt_area_of_1100(monkeypatch):
    """Add 1 to the area of the record of 1100 at k = 3, wherever the
    sweep yields it."""
    sweep = graph.sweep_stats

    def corrupt(ws, ham):
        for w, s in sweep(ws, ham):
            if w.bits == (1, 1, 0, 0) and w.k == 3:
                s = s._replace(area=s.area + 1)
            yield w, s

    monkeypatch.setattr(graph, "sweep_stats", corrupt)


class TestBruteStats:
    def test_polyomino_family(self):
        expected = MultiPoly(("p", "q"), {(4, 3): 1, (5, 4): 3, (5, 5): 2, (6, 5): 1})
        assert brute_stats_poly(3, 3, "poly") == expected

    def test_graph_family(self):
        assert brute_stats_poly(1, 2, "graph") == MultiPoly(
            ("p", "q"), {(4, 4): 1, (7, 6): 1})

    def test_degree_family(self):
        expected = MultiPoly(("q2", "q3", "q4"),
                             {(4, 2, 0): 1, (5, 2, 1): 2, (4, 4, 1): 1})
        assert brute_stats_poly(2, 3, "degree") == expected

    def test_ham_at_every_length(self):
        # every k = 2 grid graph is Hamiltonian
        assert brute_stats_poly(15, 2, "ham") == MultiPoly(
            ("q",), {(1,): words.count_words(15, 2)})

    def test_validation(self):
        with pytest.raises(ValueError):
            brute_stats_poly(0, 2, "poly")
        with pytest.raises(ValueError):
            brute_stats_poly(3, 2, "nope")


class TestCrossCheck:
    def test_polyomino_five_passes(self):
        reports = cross_check("poly", 3, 5)
        assert len(reports) == 5
        assert all(r.status == "pass" for r in reports)

    def test_a_failing_report_names_the_first_differing_monomial(self, monkeypatch):
        corrupt_area_of_1100(monkeypatch)
        reports = cross_check("poly", 3, 4)
        assert [r.status for r in reports] == ["pass"] * 3 + ["fail"]
        assert all(r.actual == r.expected for r in reports[:3])
        # 1100 moves from p^6*q^6 to p^6*q^7; degree 12 comes first
        assert reports[3].actual == (
            "differs at p^6*q^6: brute 2, series 3; "
            "series = p^5*q^4 + 4*p^6*q^5 + 3*p^6*q^6 + 3*p^7*q^6 + 2*p^7*q^7")

    def test_first_difference_at_a_constant_term(self):
        brute = MultiPoly(("q",), {(0,): 2, (1,): 5})
        gf = MultiPoly(("q",), {(1,): 4})
        assert verify._first_difference(brute, gf) == "differs at 1: brute 2, series 0"
        assert verify._first_difference(gf, brute) == "differs at 1: brute 0, series 2"

    def test_ham_k2_all_hamiltonian(self):
        reports = cross_check("ham", 2, 8)
        assert [r.status for r in reports] == ["pass"] * 8
        for n in range(1, 9):
            poly = brute_stats_poly(n, 2, "ham")
            assert set(poly.terms) == {(1,)}

    def test_ham_passes_past_length_14(self):
        reports = cross_check("ham", 3, 16)
        assert [r.status for r in reports] == ["pass"] * 16

    def test_degree_family_k5(self):
        assert all(r.status == "pass" for r in cross_check("degree", 5, 6))

    def test_an_unknown_family_is_a_value_error(self):
        known = re.escape(str(tuple(verify.FAMILIES)))
        message = f"^unknown family 'bogus'; expected one of {known}$"
        for check in (lambda: cross_check("bogus", 2, 3),
                      lambda: brute_stats_poly(3, 2, "bogus")):
            with pytest.raises(ValueError, match=message):
                check()


class TestFormulaRows:
    @staticmethod
    def _row(family, n):
        summary = run_all(6, 2, suites=("formulas",))
        return next(r for r in summary.reports if r.family == family and r.n == n)

    def test_a_failing_row_names_the_closed_form_and_the_monomial(self, monkeypatch):
        t_poly_closed = formulas.t_poly_closed

        def corrupt(n):
            t = t_poly_closed(n)
            return t + MultiPoly.monomial(("p", "q"), 1, p=6, q=5) if n == 4 else t

        monkeypatch.setitem(formulas.CLOSED_FORMS, "t", corrupt)
        row = self._row("formulas:t", 4)
        assert row.status == "fail"
        assert row.expected == formulas.t_poly(4).to_text()
        # t_4 = p^5*q^4 + 4*p^6*q^5 + 3*p^7*q^6
        assert row.actual == "closed form differs at p^6*q^5: recurrence 4, closed form 5"
        assert self._row("formulas:t", 3).status == "pass"

    def test_a_failing_row_names_the_series(self, monkeypatch):
        sides = formulas.series_sides

        def corrupt(n_max):
            out = sides(n_max)
            out["d3"][2] = out["d3"][2] - MultiPoly.constant(("q",), 1)
            return out

        monkeypatch.setattr(formulas, "series_sides", corrupt)
        row = self._row("formulas:d3", 2)
        assert row.status == "fail"
        # d_{2,3} = 3*q^2
        assert row.actual == "series differs at 1: recurrence 0, series -1"

    def test_passing_rows_keep_their_bytes(self):
        row = self._row("formulas:d2", 5)
        assert row.status == "pass"
        assert row.actual == row.expected == formulas.degree_poly(2, 5).to_text()

    @staticmethod
    def _failing_formula_rows(capsys):
        """The failing rows of `verify --suite formulas`, which must exit 1:
        a wrong identity is a failing row, not an abort."""
        code = cli.main(["verify", "--suite", "formulas", "--max-n", "2", "--max-k", "2",
                         "--format", "json"])
        assert code == 1
        return [r for r in json.loads(capsys.readouterr().out) if r["status"] == "fail"]

    def test_a_wrong_fib_convolution_closed_form_fails_its_row(self, capsys, monkeypatch):
        closed = formulas.fib_convolution_closed
        monkeypatch.setattr(formulas, "fib_convolution_closed",
                            lambda n: closed(n) + (n == 7))
        [row] = self._failing_formula_rows(capsys)
        assert (row["family"], row["n"]) == ("formulas:fib-conv", 7)
        c7 = sum(formulas.fibonacci(i) * formulas.fibonacci(7 - i) for i in range(8))
        assert row["actual"] == f"sum {c7}, closed form {c7 + 1}"

    def test_a_wrong_narayana_binomial_sum_fails_its_row(self, capsys, monkeypatch):
        binomial = formulas.narayana_binomial
        monkeypatch.setattr(formulas, "narayana_binomial", lambda n: binomial(n) - (n == 6))
        [row] = self._failing_formula_rows(capsys)
        # b_6 = 6 counts the polyominoes of area 5
        assert (row["family"], row["n"]) == ("formulas:narayana", 5)
        assert (row["expected"], row["actual"]) == ("6", "binomial sum 5")


class TestTotalsAndPairs:
    def test_brute_totals_one_pass(self):
        tot = brute_totals(3, 2)
        assert tot["area"] == 3 + 4 + 4 + 4 + 5  # the five length-3 words
        assert tot["ham"] == 5
        assert tot["vertices"] == 50

    def test_brute_totals_rejects_an_empty_length(self):
        with pytest.raises(ValueError, match="length must be >= 1, got 0"):
            brute_totals(0, 2)

    def test_brute_totals_decides_ham_at_every_length(self):
        assert brute_totals(15, 2)["ham"] == words.count_words(15, 2)
        # all runs odd at k = 3 means all runs of length 1: Fibonacci many
        assert brute_totals(16, 3)["ham"] == 2584

    def test_totals_check_passes(self):
        reports = totals_check(3, 5)
        assert len(reports) == 8 * 5
        assert all(r.status == "pass" for r in reports)

    def test_a_failing_total_row_names_the_series_that_differ(self, monkeypatch):
        passing = totals_check(3, 5)
        area = brute_totals(4, 3)["area"]
        corrupt_area_of_1100(monkeypatch)
        reports = totals_check(3, 5)
        failing = [r for r in reports if r.status == "fail"]
        assert [(r.family, r.n) for r in failing] == [("total:area", 4)]
        assert failing[0].expected == f"named={area + 1} weighted={area + 1}"
        assert failing[0].actual == (f"named {area} differs from brute {area + 1}; "
                                     f"weighted {area} differs from brute {area + 1}")
        # passing rows keep their text
        assert [(r.expected, r.actual) for r in reports if r.status == "pass"] == [
            (r.expected, r.actual) for r in passing
            if (r.family, r.n) != ("total:area", 4)]
        assert passing[0].actual == passing[0].expected == "named=3 weighted=3"

    def test_a_failing_total_row_names_only_the_series_that_differs(self, monkeypatch):
        expand_ints = series.expand_ints
        area_total = series.gf_named_total("area", 3)

        def corrupt(gf, n_max):
            out = expand_ints(gf, n_max)
            return [c + (n == 4 and gf == area_total) for n, c in enumerate(out)]

        monkeypatch.setattr(series, "expand_ints", corrupt)
        area = brute_totals(4, 3)["area"]
        failing = [r for r in totals_check(3, 5) if r.status == "fail"]
        assert [(r.family, r.n, r.actual) for r in failing] == [
            ("total:area", 4, f"named {area + 1} differs from brute {area}")]

    def test_ham_pairs(self):
        reports = ham_pair_check(7, 12)
        assert {r.k for r in reports} == {2, 4, 6}
        assert all(r.status == "pass" for r in reports)

    def test_a_wrong_odd_hamiltonian_gf_fails_its_pairs(self, monkeypatch):
        # the odd side comes from the multivariate gf of 2j+1, not from the
        # named total, which reads k only through 2*floor(k/2)
        gf_hamiltonian = series.gf_hamiltonian
        monkeypatch.setattr(series, "gf_hamiltonian",
                            lambda k: gf_hamiltonian(k + 1 if k % 2 else k))
        reports = ham_pair_check(5, 12)
        failing = {(r.k, r.n) for r in reports if r.status == "fail"}
        assert {k for k, _ in failing} == {2, 4}
        assert all(r.status == "pass" for r in reports if r.n < 3)


class TestReversal:
    def test_reversal_sweep(self):
        reports = reversal_check(3, 6)
        assert all(r.status == "pass" for r in reports)

    def test_an_identity_mirror_fails_at_the_first_asymmetric_word(self, monkeypatch):
        monkeypatch.setattr(graph, "mirrored", lambda geo: geo)
        reports = reversal_check(2, 3)
        # n = 1 has only palindromes; 01 is the first word unlike its reverse
        assert [(r.n, r.status, r.actual) for r in reports] == [
            (1, "pass", "symmetric"), (2, "fail", "asymmetric at 01"),
            (3, "fail", "asymmetric at 001")]

    def test_builds_no_grid_graph(self, monkeypatch):
        def no_graph(p):
            raise AssertionError("reversal_check built a geometry outside its sweep")

        monkeypatch.setattr(graph, "build_graph", no_graph)
        assert all(r.status == "pass" for r in reversal_check(3, 6))


class TestRunAll:
    def test_small_run_green(self):
        summary = run_all(5, 3, suites=("poly", "graph", "degree", "ham",
                                        "totals", "reversal"))
        assert summary.ok
        assert summary.fails == 0
        assert summary.passes > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_all(0, 3)
        with pytest.raises(ValueError):
            run_all(5, 1)

    def test_unknown_suite_rejected(self):
        known = re.escape(str(tuple(verify.SUITES)))
        for suites in (("hams",), ("poly", "Totals")):
            with pytest.raises(ValueError, match=f"expected one of {known}$"):
                run_all(3, 3, suites=suites)

    def test_text_report_reproducible(self):
        a = to_text(run_all(3, 2, suites=("poly", "reversal")))
        b = to_text(run_all(3, 2, suites=("poly", "reversal")))
        assert a == b
        assert a.endswith("passes=6 fails=0 skips=0")


class TestTiming:
    def test_elapsed_ms_adds_up_to_wall_time(self):
        start = time.perf_counter()
        summary = run_all(6, 3)
        wall_ms = (time.perf_counter() - start) * 1000
        # check-function calls: cross_check per family and k, the ham
        # pairs, totals_check per k, the formulas, reversal_check per k
        calls = 4 * 2 + 1 + 2 + 1 + 2
        total_ms = sum(r.elapsed_ms for r in summary.reports)
        assert wall_ms - (calls + 2) <= total_ms <= wall_ms

    def test_one_clock_per_run_loses_under_a_millisecond(self):
        start = time.perf_counter()
        summary = run_all(6, 3)
        wall_ms = (time.perf_counter() - start) * 1000
        total_ms = sum(r.elapsed_ms for r in summary.reports)
        # the run's 14 check-function calls share one clock, so cutting
        # its total to whole milliseconds loses under 1 ms in all
        assert wall_ms - 2 <= total_ms <= wall_ms

    def test_set_up_is_charged_to_the_first_report(self, monkeypatch):
        expand = series.expand

        def slow_expand(*args):
            time.sleep(0.05)
            return expand(*args)

        monkeypatch.setattr(series, "expand", slow_expand)
        reports = cross_check("degree", 3, 3)
        assert reports[0].elapsed_ms >= 50
        assert all(r.elapsed_ms < 50 for r in reports[1:])


class _Counts:
    """Counts the records `graph.sweep_stats` yields, by (word, k, ham
    asked), and Hamiltonicity searches: the calls of the DP's step,
    `graph._step`, which a sweep runs once per edge of its automaton.
    `swept[i]` holds the searches of the i-th sweep that asked for
    Hamiltonicity and ran to its end."""

    def __init__(self, monkeypatch):
        self.records = collections.Counter()
        self.searches = 0
        self.swept = []
        sweep, search = graph.sweep_stats, graph._step

        def counted_sweep(ws, ham):
            before = self.searches
            for w, stats in sweep(ws, ham):
                self.records[w.bits, w.k, ham] += 1
                yield w, stats
            if ham:
                self.swept.append(self.searches - before)

        def counted_search(*args):
            self.searches += 1
            return search(*args)

        monkeypatch.setattr(graph, "sweep_stats", counted_sweep)
        monkeypatch.setattr(graph, "_step", counted_search)

    def snapshot(self):
        return sum(self.records.values()), self.searches


def _words(max_n, max_k):
    return {(w.bits, k) for k in range(2, max_k + 1) for n in range(1, max_n + 1)
            for w in words.iter_words(n, k)}


class TestSharedSweeps:
    def test_run_all_builds_each_record_once(self, monkeypatch):
        counts = _Counts(monkeypatch)
        assert run_all(8, 4).ok
        assert len(_words(8, 4)) == 895
        assert sum(counts.records.values()) == len(counts.records) == 895
        assert {(bits, k) for bits, k, _ in counts.records} == _words(8, 4)
        searched = {(bits, k) for bits, k, ham in counts.records if ham}
        assert searched == _words(8, 4)
        # one sweep per (n, k), each running the DP's step at most once
        # per edge of its automaton (26 edges at most), and the rule's
        # proof, once per edge of its 20
        assert len(counts.swept) == 8 * 3
        assert all(0 < steps <= 26 for steps in counts.swept)
        assert sum(counts.swept) < len(searched)
        assert counts.searches == sum(counts.swept) + 20

    def test_no_search_without_a_suite_that_reads_ham(self, monkeypatch):
        counts = _Counts(monkeypatch)
        run_all(8, 4, suites=("poly",))
        assert counts.searches == 0
        run_all(6, 3, suites=("graph", "degree", "formulas", "reversal"))
        assert counts.searches == 0

    def test_nothing_is_reused_across_calls(self, monkeypatch):
        counts = _Counts(monkeypatch)
        run_all(6, 3)
        first = counts.snapshot()
        run_all(6, 3)
        assert counts.snapshot() == (2 * first[0], 2 * first[1])

    def test_direct_brute_totals_sweeps_each_time(self, monkeypatch):
        counts = _Counts(monkeypatch)
        assert brute_totals(6, 3) == brute_totals(6, 3)
        assert sum(counts.records.values()) == 2 * words.count_words(6, 3)

    def test_ham_suite_calls_no_brute_totals(self, monkeypatch):
        calls = []
        brute = verify.brute_totals

        def counted(*args, **kwargs):
            calls.append(args)
            return brute(*args, **kwargs)

        monkeypatch.setattr(verify, "brute_totals", counted)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--suite", "ham", "--max-n", "6", "--max-k", "3"]) == 0
            assert calls == []
            assert cli.main(["verify", "--suite", "totals", "--max-n", "6", "--max-k", "3"]) == 0
        assert len(calls) == 2 * 6


class TestOneRun:
    def test_run_all_reports_are_the_standalone_reports(self):
        def untimed(reports):
            return [r._replace(elapsed_ms=0) for r in reports]

        alone = []
        for family in verify.FAMILIES:
            alone += [r for k in (2, 3) for r in cross_check(family, k, 6)]
        alone += ham_pair_check(3, 12)
        alone.append(verify._ham_rule_report(verify._Run(False)))
        alone += [r for k in (2, 3) for r in totals_check(k, 6)]
        alone += [r for k in (2, 3) for r in reversal_check(k, 6)]
        summary = run_all(6, 3)
        assert untimed(r for r in summary.reports
                       if not r.family.startswith("formulas:")) == untimed(alone)

    def test_the_run_is_the_only_setting(self):
        assert brute_totals(5, 3, run=verify._Run(True)) == brute_totals(5, 3)
        with pytest.raises(TypeError):
            brute_totals(5, 3, 4)
        reports = cross_check("ham", 2, 3, run=verify._Run(True))
        assert [r.status for r in reports] == ["pass"] * 3

    def test_a_check_alone_searches_only_for_the_ham_family(self, monkeypatch):
        counts = _Counts(monkeypatch)
        for family in ("poly", "graph", "degree"):
            assert all(r.status == "pass" for r in cross_check(family, 3, 6))
        assert all(r.status == "pass" for r in reversal_check(3, 6))
        assert counts.searches == 0
        assert all(r.status == "pass" for r in cross_check("ham", 3, 6))
        assert len(counts.swept) == 6
        assert all(0 < steps <= 26 for steps in counts.swept)
        assert sum(counts.swept) == counts.searches


class TestHamRule:
    CLAIM = "odd runs iff Hamiltonian"

    def rule_row(self):
        return verify._ham_rule_report(verify._Run(False))

    def test_one_row_at_the_end_of_the_ham_suite(self):
        reports = run_all(4, 5, suites=("ham",)).reports
        assert reports[-1] == CheckReport("ham-rule", 2, 0, "pass", self.CLAIM, self.CLAIM,
                                          reports[-1].elapsed_ms)
        assert [r.family for r in reports].count("ham-rule") == 1
        others = tuple(s for s in verify.SUITES if s != "ham")
        assert "ham-rule" not in {r.family for r in run_all(3, 3, suites=others).reports}

    def test_the_automaton_is_built_only_when_the_row_runs(self, monkeypatch):
        calls = []
        check = graph.check_ham_rule

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(graph, "check_ham_rule", counted)
        run_all(3, 3, suites=tuple(s for s in verify.SUITES if s != "ham"))
        assert calls == []
        assert self.rule_row().status == "pass"
        assert calls
        # importing the CLI builds no automaton and reads no line table: with
        # the table emptied before the import, the row passes once it is back
        code = ("from kbonacci import polyomino\n"
                "lines, polyomino._LINES = polyomino._LINES, {}\n"
                "from kbonacci import cli, verify\n"
                "polyomino._LINES = lines\n"
                "print(verify._ham_rule_report(verify._Run(False)).status)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out == "pass\n"

    def test_a_dropped_side_fails_the_row(self, monkeypatch):
        # the bottom horizontal side of a height-1 column between two others
        corners, sides = polyomino._LINES[1, 1]
        dropped = tuple(side for side in sides if side != (0, 3))
        assert len(dropped) == len(sides) - 1
        monkeypatch.setitem(polyomino._LINES, (1, 1), (corners, dropped))
        row = self.rule_row()
        assert (row.status, row.actual) == ("fail", "differs at 00")
        # the row names a true disagreement of the mutated graph and the rule
        w = words.Word.from_text("00", 2)
        geo = polyomino.geometry(polyomino.from_word(w))
        assert graph.is_hamiltonian(geo) is False
        assert graph.hamiltonian_by_odd_runs(w) is True

    def test_a_dfa_that_accepts_even_runs_fails_the_row(self, monkeypatch):
        # a word may end inside a run of even length
        monkeypatch.setattr(graph, "ODD_RUN_ACCEPT", (True, True, True, False))
        assert (self.rule_row().status, self.rule_row().actual) == ("fail", "differs at 11")
        # a run of even length may end with a 0
        monkeypatch.setattr(graph, "ODD_RUN_ACCEPT", (True, True, False, False))
        monkeypatch.setattr(graph, "ODD_RUN_STEP", ((0, 1), (0, 2), (0, 1), (3, 3)))
        assert (self.rule_row().status, self.rule_row().actual) == ("fail", "differs at 110")


class TestSharingWeakensNoCheck:
    def test_a_corrupt_record_fails_every_check_that_reads_it(self, monkeypatch):
        corrupt_area_of_1100(monkeypatch)
        summary = run_all(5, 3, suites=("poly", "totals", "reversal"))
        failing = [r for r in summary.reports if r.status == "fail"]
        assert {(r.family, r.k, r.n) for r in failing} == {
            ("poly", 3, 4), ("total:area", 3, 4), ("reversal", 3, 4)}
        assert next(r for r in failing if r.family == "reversal").actual == (
            "asymmetric at 0011")

    @staticmethod
    def corrupt_deg3_at(monkeypatch, n):
        """Add x^n D to the numerator N of the k = 2 deg3 total, whose
        series then gains +1 at x^n alone: (N + x^n D)/D = N/D + x^n."""
        named = formulas.gf_named_total

        def corrupt(name, k):
            gf = named(name, k)
            if name != "deg3":
                return gf
            x_n = MultiPoly(("x",), {(n,): 1})
            return series.RationalGF(gf.numerator + x_n * gf.denominator, gf.denominator)

        monkeypatch.setattr(formulas, "gf_named_total", corrupt)
        return corrupt

    def test_a_corrupt_degree_count_breaks_the_partition(self, monkeypatch):
        corrupt = self.corrupt_deg3_at(monkeypatch, 1234)
        good = series.expand_ints(series.gf_named_total("deg3", 2), 1240)
        bad = series.expand_ints(corrupt("deg3", 2), 1240)
        assert [n for n in range(1241) if bad[n] != good[n]] == [1234]
        assert bad[1234] == good[1234] + 1
        summary = run_all(3, 2, suites=("formulas",))
        failing = [r for r in summary.reports if r.status == "fail"]
        assert [r.family for r in failing] == ["formulas:degree-partition"]
        assert failing[0].actual == "partition broken at n=1234"

    def test_a_break_past_the_checked_range_passes(self, monkeypatch):
        # the row checks n <= 2000, as it did when it expanded the totals
        self.corrupt_deg3_at(monkeypatch, 2001)
        assert run_all(3, 2, suites=("formulas",)).ok
        assert formulas.degree_partition_break(2000) is None
        assert formulas.degree_partition_break(2001) == 2001


class TestRendering:
    def sample(self):
        return Summary([
            CheckReport("poly", 2, 1, "pass", "x", "x", 3),
            CheckReport("poly", 2, 2, "fail", "x", "y", 4),
            CheckReport("ham", 2, 9, "skip", "", "guard exceeded", 0),
        ])

    def test_text_shows_failures(self):
        text = to_text(self.sample())
        assert "expected: x" in text
        assert "actual:   y" in text
        assert text.endswith("passes=1 fails=1 skips=1")

    def test_csv_header(self):
        csv = to_csv(self.sample())
        lines = csv.splitlines()
        assert lines[0] == "family,k,n,status,elapsed_ms"
        assert lines[1] == "poly,2,1,pass,3"

    def test_json_equals_the_record_rendering(self):
        summary = run_all(4, 3)
        assert json.dumps(to_json_obj(summary)) == json.dumps(
            [r._asdict() for r in summary.reports])

    def test_json_keys(self):
        objs = to_json_obj(self.sample())
        assert objs[0] == {"family": "poly", "k": 2, "n": 1, "status": "pass",
                           "expected": "x", "actual": "x", "elapsed_ms": 3}

    def test_summary_counters(self):
        s = self.sample()
        assert (s.passes, s.fails, s.skips) == (1, 1, 1)
        assert not s.ok
