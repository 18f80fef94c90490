from fractions import Fraction

import pytest

from kbonacci import formulas, series, verify
from kbonacci.formulas import (
    QuadraticConstant,
    binom,
    d2_poly,
    d3_poly,
    d3_poly_closed,
    d4_poly,
    degree_poly,
    degree_proportion_limit,
    empirical_degree_ratio,
    fib_convolution,
    fib_convolution_closed,
    fibonacci,
    narayana,
    narayana_binomial,
    polyomino_counts_by_area,
    t_poly,
    t_poly_closed,
    total_area_closed,
    v_poly,
    v_poly_closed,
    verify_certificate,
)
from kbonacci.series import (MultiPoly, RationalGF, expand, expand_ints, gf_degree, gf_graph,
                             gf_named_total, gf_polyomino)

PQ = ("p", "q")
Q = ("q",)


def pq(terms):
    return MultiPoly(PQ, terms)


def qp(terms):
    return MultiPoly(Q, {(e,): c for e, c in terms.items()})


class TestBinom:
    def test_plain_values(self):
        assert binom(4, 2) == 6
        assert binom(5, 0) == 1
        assert binom(3, 3) == 1

    def test_out_of_range_is_zero(self):
        assert binom(5, -1) == 0
        assert binom(-3, 2) == 0
        assert binom(2, 5) == 0

    def test_negative_diagonal_extension(self):
        # the one boundary case the degree closed forms rely on at n = 1
        assert binom(-1, -1) == 1


class TestPolyominoWeights:
    def test_initial_values(self):
        assert t_poly(1) == pq({(2, 1): 1, (3, 2): 1})
        assert t_poly(2) == pq({(3, 2): 1, (4, 3): 2})

    def test_closed_equals_recurrence_equals_series(self):
        coeffs = expand(gf_polyomino(2), 30)
        for n in range(1, 31):
            assert t_poly(n) == t_poly_closed(n) == coeffs[n]

    def test_index_validation(self):
        with pytest.raises(ValueError):
            t_poly(0)
        with pytest.raises(ValueError):
            t_poly_closed(-1)


class TestGraphWeights:
    def test_initial_values(self):
        assert v_poly(1) == pq({(4, 4): 1, (7, 6): 1})
        assert v_poly(2) == pq({(7, 6): 1, (10, 8): 2})

    def test_closed_equals_recurrence_equals_series(self):
        coeffs = expand(gf_graph(2), 30)
        for n in range(1, 31):
            assert v_poly(n) == v_poly_closed(n) == coeffs[n]


class TestDegreePolynomials:
    def test_initial_values(self):
        assert d2_poly(1) == qp({4: 2})
        assert d3_poly(1) == qp({2: 1, 0: 1})
        assert d4_poly(1) == qp({0: 2})

    def test_closed_equals_recurrence_equals_series_slice(self):
        sides = formulas.series_sides(30)
        for j in formulas.DEGREES:
            name = f"d{j}"
            for n in range(1, 31):
                assert (degree_poly(j, n) == formulas.CLOSED_FORMS[name](n)
                        == sides[name][n]), (name, n)

    def test_degree_validation(self):
        # one check of j, so one message, from every function that takes j
        for bad in (1, 5):
            for call in (lambda: degree_poly(bad, 1),
                         lambda: degree_proportion_limit(bad),
                         lambda: empirical_degree_ratio(bad, 10)):
                with pytest.raises(ValueError, match=f"^degree must be 2, 3 or 4, got {bad}$"):
                    call()


class TestFamilyTables:
    def test_one_entry_per_family_in_report_order(self):
        names = ["t", "v", "d2", "d3", "d4"]
        assert list(formulas.RECURRENCES) == list(formulas.CLOSED_FORMS) == names
        assert list(formulas.series_sides(3)) == names
        assert list(formulas.DEGREES) == [2, 3, 4]

    def test_values_are_the_module_functions(self):
        # perfbench's tracer rewrites the values of module-level dicts, so
        # a call through a table counts as a call of the function
        for table, suffix in ((formulas.RECURRENCES, "_poly"),
                              (formulas.CLOSED_FORMS, "_poly_closed")):
            for name, f in table.items():
                assert f is getattr(formulas, name + suffix)


class TestFormulaSuiteSweepsOnce:
    def test_bulk_counts_equal_the_single_ones(self):
        counts = polyomino_counts_by_area(14)
        assert counts[1:] == [polyomino_counts_by_area(a)[a] for a in range(1, 15)]
        assert counts[0] == 0
        with pytest.raises(ValueError, match="area must be >= 1, got 0"):
            polyomino_counts_by_area(0)

    def test_one_sweep_and_one_expansion_per_degree_slice(self, monkeypatch):
        # one expansion per family; each degree slice specializes the other
        # two markers before it expands, so it expands a gf in (x, q_j) alone
        swept, expanded = [], []
        enumerate_words, expand_ = formulas.enumerate_words, formulas.expand

        def counted_enumerate_words(n, k):
            swept.append((n, k))
            return enumerate_words(n, k)

        def counted_expand(gf, n_max):
            expanded.append(gf.aux_variables)
            return expand_(gf, n_max)

        monkeypatch.setattr(formulas, "enumerate_words", counted_enumerate_words)
        monkeypatch.setattr(formulas, "expand", counted_expand)
        assert verify.run_all(3, 2, suites=("formulas",)).ok
        assert swept == [(n, 2) for n in range(1, 15)]
        # the five recurrences' generating functions, then the paper's
        assert expanded == [("p", "q"), ("p", "q"), ("q",), ("q",), ("q",),
                            ("p", "q"), ("p", "q"), ("q2",), ("q3",), ("q4",)]


class TestOneExpansionPerFamily:
    def test_recurrence_sides_yield_every_index_of_the_recurrence(self):
        sides = formulas.recurrence_sides(30)
        assert list(sides) == list(formulas.RECURRENCES)
        for name, side in sides.items():
            assert len(side) == 31
            assert side[0] == MultiPoly.zero(side[1].variables)
            for n in range(1, 31):
                assert side[n] == formulas.RECURRENCES[name](n), (name, n)
        assert all(side == [side[0]] for side in formulas.recurrence_sides(0).values())
        with pytest.raises(ValueError, match="index must be >= 0, got -1"):
            formulas.recurrence_sides(-1)

    def test_the_formula_suite_expands_each_rule_once(self, monkeypatch):
        expanded = []
        expand_ = formulas.expand

        def counted_expand(gf, n_max):
            expanded.append((gf, n_max))
            return expand_(gf, n_max)

        def not_per_n(n):
            raise AssertionError(f"per-n recurrence call at n={n}")

        monkeypatch.setattr(formulas, "expand", counted_expand)
        for name, f in formulas.RECURRENCES.items():
            monkeypatch.setitem(formulas.RECURRENCES, name, not_per_n)
            monkeypatch.setattr(formulas, f.__name__, not_per_n)
        assert verify.run_all(3, 2, suites=("formulas",)).ok
        rule_gfs = [formulas._gf(rule) for rule in formulas._RULES.values()]
        assert ([(gf, n_max) for gf, n_max in expanded if gf in rule_gfs]
                == [(gf, 30) for gf in rule_gfs])

    def test_the_partition_check_expands_nothing(self, monkeypatch):
        expanded = []

        def counted(module, name):
            f = getattr(module, name)

            def wrapper(*args):
                expanded.append(name)
                return f(*args)
            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((formulas, "expand"), (formulas, "expand_ints"),
                             (series, "expand"), (series, "expand_ints"),
                             (series, "iter_expand")):
            counted(module, name)
        assert formulas.degree_partition_break(2000) is None
        assert expanded == []

    def test_no_named_total_numerator_has_a_constant_term(self):
        # what lets the lowest power of x in the cross-multiplied
        # difference be the first n >= 1 at which the counts differ
        for name in ("deg2", "deg3", "deg4", "vertices"):
            assert all(exps[0] for exps in gf_named_total(name, 2).numerator.terms)


class TestEachRuleIsThePapersGF:
    """Each recurrence's generating function equals the paper's: with both
    denominators 1 at x = 0, N_rule/D_rule - N/D has the numerator
    N_rule D - N D_rule, whose lowest power of x is the first n at which
    the two series differ, so a zero numerator proves the rule table and
    `series_sides` equal at every n."""

    @staticmethod
    def papers_gf(name):
        if name == "t":
            return gf_polyomino(2)
        if name == "v":
            return gf_graph(2)
        # as `series_sides` reads it: the other two markers set to 1
        j = name[1:]
        gf = gf_degree(2).specialize({f"q{i}": 1 for i in formulas.DEGREES if str(i) != j})
        return RationalGF(*(p.rename({f"q{j}": "q"}) for p in (gf.numerator, gf.denominator)))

    def gap(self, name, rule):
        ours, paper = formulas._gf(rule), self.papers_gf(name)
        return ours.numerator * paper.denominator - paper.numerator * ours.denominator

    @pytest.mark.parametrize("name", formulas.RECURRENCES)
    def test_the_rule_gf_is_the_papers_gf(self, name):
        gap = self.gap(name, formulas._RULES[name])
        assert gap == MultiPoly.zero(gap.variables)

    # the printed initial values of `TestPaperErrataFixtures`, each with
    # the first n at which it is wrong
    @pytest.mark.parametrize("name, printed, first_wrong", [
        ("v", {"second": {(7, 6): 1}}, 2),
        ("d2", {"second": {(4,): 3}}, 2),
        ("d4", {"first": {(4,): 2}, "second": {(4,): 3}}, 1),
    ])
    def test_a_printed_initial_value_breaks_the_identity(self, name, printed, first_wrong):
        gap = self.gap(name, formulas._RULES[name]._replace(**printed))
        assert min(exps[0] for exps in gap.terms) == first_wrong


class TestRecurrencesAtLargeN:
    @pytest.mark.parametrize("name", formulas.RECURRENCES)
    def test_walk_reaches_n_3000_and_equals_the_closed_form(self, name):
        assert formulas.RECURRENCES[name](3000) == formulas.CLOSED_FORMS[name](3000)

    def test_nothing_is_cached(self):
        assert not any(hasattr(f, "cache_info")
                       for table in (formulas.RECURRENCES, formulas.CLOSED_FORMS)
                       for f in table.values())
        assert not hasattr(formulas, "lru_cache")


class TestPaperErrataFixtures:
    """Printed values that the brute-force oracle overrules.  Each fixture
    pins the oracle value and asserts the literal printed reading differs,
    so silent drift in either direction is impossible."""

    def test_graph_weight_second_initial_value(self):
        # literal reading of the misprinted exponent drops the p^10 term
        literal = pq({(7, 6): 1})
        assert v_poly(2) == pq({(7, 6): 1, (10, 8): 2})
        assert v_poly(2) != literal

    def test_deg2_second_initial_value(self):
        literal = qp({4: 3})  # "q^4 + 2 q^4"
        assert d2_poly(2) == qp({4: 1, 5: 2})
        assert d2_poly(2) != literal

    def test_deg4_initial_values(self):
        # the printed statement repeats the degree-2 initial values verbatim
        printed_first, printed_second = qp({4: 2}), qp({4: 3})
        assert d4_poly(1) == qp({0: 2})
        assert d4_poly(2) == qp({0: 1, 1: 2})
        assert d4_poly(1) != printed_first
        assert d4_poly(2) != printed_second

    def test_deg3_closed_form_printed_exponent(self):
        # printed form carries q^(2(n-1-i)) on both binomial groups; the
        # second group needs q^(2(n-2-i)) to satisfy the recurrence
        def printed(n):
            out = MultiPoly.zero(Q)
            for i in range(n + 1):
                c1, c2 = binom(n - i - 1, i), binom(n - i - 2, i)
                if c1:
                    out = out + qp({0: 1, 2: 1}) * qp({2 * (n - 1 - i): c1})
                if c2:
                    out = out + qp({2: 2, 4: -1}) * qp({2 * (n - 1 - i): c2})
            return out

        assert printed(1) == d3_poly(1)
        assert printed(2) != d3_poly(2)
        assert d3_poly_closed(2) == d3_poly(2)

    def test_hamiltonian_total_k6_printed_denominator(self):
        # printed reduced form for parameters 6 and 7 ends its denominator
        # with x^5; the general corollary formula (and brute force at n = 6:
        # 33 Hamiltonian graphs, not 35) require x^6
        from kbonacci.graph import build_graph, is_hamiltonian
        from kbonacci.polyomino import from_word
        from kbonacci.words import iter_words

        x = ("x",)
        printed = RationalGF(
            MultiPoly(x, {(1,): 2, (2,): 1, (3,): 1, (4,): 1, (5,): 1, (6,): 1}),
            MultiPoly(x, {(0,): 1, (1,): -1, (2,): -1, (4,): -1, (5,): -1}))
        general = expand_ints(gf_named_total("ham", 6), 8)
        assert expand_ints(printed, 8)[:6] == general[:6]
        assert expand_ints(printed, 8)[6] == 35 != general[6] == 33
        brute6 = sum(1 for w in iter_words(6, 6)
                     if is_hamiltonian(build_graph(from_word(w))))
        assert brute6 == 33

    def test_narayana_printed_initial_values(self):
        # b_0 = 0, b_1 = b_2 = 1 would give b_6 = 4; the generating
        # function 1/(1 - x - x^3) and the area theorem force b_6 = 6
        def shifted(n):
            seq = [0, 1, 1]
            for m in range(3, n + 1):
                seq.append(seq[-1] + seq[-3])
            return seq[n]

        assert narayana(6) == 6
        assert shifted(6) == 4


class TestIntegerSequences:
    def test_total_area_values(self):
        assert total_area_closed(1) == 3
        assert total_area_closed(2) == 8

    def test_total_area_matches_series(self):
        coeffs = expand_ints(gf_named_total("area", 2), 50)
        for n in range(1, 51):
            assert total_area_closed(n) == coeffs[n]

    def test_fibonacci_by_doubling(self):
        a, b = 0, 1
        for n in range(0, 500):
            assert fibonacci(n) == a, n
            a, b = b, a + b
        assert fibonacci(-3) == 0

    def test_fib_convolution(self):
        assert fib_convolution(0) == 0
        assert fib_convolution(4) == 5
        assert fib_convolution(10) == sum(
            fibonacci(i) * fibonacci(10 - i) for i in range(11))
        assert [fib_convolution_closed(n) for n in range(40)] == [
            fib_convolution(n) for n in range(40)]

    def test_narayana_values(self):
        assert [narayana(n) for n in range(8)] == [1, 1, 1, 2, 3, 4, 6, 9]
        assert narayana(9) == narayana(8) + narayana(6)
        assert [narayana_binomial(n) for n in range(60)] == [
            narayana(n) for n in range(60)]

    def test_polyomino_area_counts(self):
        counts = polyomino_counts_by_area(5)
        assert (counts[1], counts[2], counts[5]) == (1, 2, 6)

    def test_area_counts_match_narayana(self):
        counts = polyomino_counts_by_area(12)
        for a in range(1, 13):
            assert counts[a] == narayana(a + 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            total_area_closed(0)
        for f in (fib_convolution, fib_convolution_closed, narayana, narayana_binomial):
            with pytest.raises(ValueError, match="index must be >= 0, got -1"):
                f(-1)
        with pytest.raises(ValueError):
            polyomino_counts_by_area(0)


class TestIntIndex:
    """Every index of a formula is an int, checked before any work, as a
    word length is (`words.check_n`): 2.0 and True are not 2 and 1."""

    INDEXED = [*formulas.RECURRENCES.values(), *formulas.CLOSED_FORMS.values(),
               lambda n: degree_poly(3, n), total_area_closed, fib_convolution,
               fib_convolution_closed, narayana, narayana_binomial, fibonacci,
               lambda n: empirical_degree_ratio(2, n), formulas.series_sides,
               formulas.recurrence_sides,
               formulas.degree_partition_break, polyomino_counts_by_area,
               lambda n: verify_certificate("rel1", n, 1),
               lambda n: verify_certificate("rel2", n, 1),
               lambda i: verify_certificate("rel1", 5, i)]

    @pytest.mark.parametrize("n", [2.0, 2.5, True, "3", None])
    def test_non_int_index_rejected(self, n):
        for f in self.INDEXED:
            with pytest.raises(ValueError, match="n must be an int, got"):
                f(n)


class TestAsymptotics:
    def test_limit_constants(self):
        assert degree_proportion_limit(2) == QuadraticConstant(7, -1, 22)
        assert degree_proportion_limit(3) == QuadraticConstant(4, 1, 11)
        assert degree_proportion_limit(4) == QuadraticConstant(7, -1, 22)
        with pytest.raises(ValueError):
            degree_proportion_limit(5)

    def test_limits_partition_unity(self):
        # (7 - sqrt5)/22 + (4 + sqrt5)/11 + (7 - sqrt5)/22 == 1 exactly
        parts = [degree_proportion_limit(j) for j in (2, 3, 4)]
        assert all(c.c == 22 or c.c == 11 for c in parts)
        rational = sum(Fraction(c.a, c.c) for c in parts)
        irrational = sum(Fraction(c.b, c.c) for c in parts)
        assert rational == 1 and irrational == 0

    def test_decimal_renderings(self):
        assert degree_proportion_limit(2).decimal(8) == "0.21654236"
        assert degree_proportion_limit(3).decimal(8) == "0.56691527"
        assert degree_proportion_limit(4).decimal(9) == "0.216542365"

    def test_format_fraction_rounds_half_away_from_zero(self):
        cases = {(Fraction(25, 1000), 1): "0.03", (Fraction(-5, 2), 1): "-3",
                 (Fraction(1, 2), 3): "0.500", (Fraction(9995, 1000), 3): "10.0",
                 (Fraction(123456), 3): "123000", (Fraction(-1, 3), 4): "-0.3333",
                 (Fraction(1, 8000), 2): "0.00013", (Fraction(0), 5): "0"}
        for (f, digits), text in cases.items():
            assert formulas.format_fraction(f, digits) == text, (f, digits)

    def test_ratios_partition_unity(self):
        for n in (1, 2, 3, 17, 100, 300):
            assert sum(empirical_degree_ratio(j, n) for j in (2, 3, 4)) == 1

    def test_ratio_equals_the_named_totals(self):
        # the closed forms in F(n), F(n+1) against the series of the totals
        d, *dj = (expand_ints(gf_named_total(name, 2), 600)
                  for name in ("vertices", "deg2", "deg3", "deg4"))
        for j, counts in zip((2, 3, 4), dj):
            for n in range(1, 601):
                assert empirical_degree_ratio(j, n) == Fraction(counts[n], d[n]), (j, n)

    def test_small_ratio_value(self):
        # at n = 3: 26 degree-2 vertices out of 50
        assert empirical_degree_ratio(2, 3) == Fraction(26, 50)

    def test_gap_small_at_2000(self):
        eps = Fraction(5, 1000)
        for j in (2, 3, 4):
            ratio = empirical_degree_ratio(j, 2000)
            assert degree_proportion_limit(j).abs_diff_below(ratio, eps)

    def test_convergence_trend(self):
        for j in (2, 3, 4):
            limit = degree_proportion_limit(j)
            gaps = [limit.gap_upper_bound(empirical_degree_ratio(j, n))
                    for n in (250, 500, 1000, 2000)]
            for prev, nxt in zip(gaps, gaps[1:]):
                assert nxt <= Fraction(11, 10) * prev

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_degree_ratio(5, 10)
        with pytest.raises(ValueError):
            empirical_degree_ratio(2, 0)


class TestCertificates:
    def test_examples(self):
        assert verify_certificate("rel1", 5, 1) is True
        assert verify_certificate("rel1", 6, 0) is True
        assert verify_certificate("rel2", 8, 2) is True

    def test_skip_signals(self):
        assert verify_certificate("rel1", 2, 2) is None  # denominator zero
        assert verify_certificate("rel2", 1, 1) is None  # outside support
        assert verify_certificate("rel2", 8, 0) is None

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            verify_certificate("rel3", 5, 1)

    def test_full_sweep(self):
        counts = {"rel1": 0, "rel2": 0}
        for which in counts:
            for n in range(1, 21):
                for i in range(0, n // 2 + 3):
                    result = verify_certificate(which, n, i)
                    if result is not None:
                        assert result is True, (which, n, i)
                        counts[which] += 1
        assert counts["rel1"] >= 100
        assert counts["rel2"] >= 80
