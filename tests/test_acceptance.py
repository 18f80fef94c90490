"""Acceptance suite: one test per criterion, exact equalities throughout.

Each test carries its stated budget in asserts; a terminal-summary hook in
conftest.py prints one pass/fail line per criterion.
"""

import time
from fractions import Fraction

from kbonacci import formulas, graph, polyomino, series, verify, words
from kbonacci.series import MultiPoly, RationalGF, expand, expand_ints

PQ = ("p", "q")


def _timed(budget_s):
    """Context manager asserting the block stays within its time budget."""
    class Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            if exc[0] is None:
                elapsed = time.perf_counter() - self.t0
                assert elapsed < budget_s, f"{elapsed:.2f} s over the {budget_s} s budget"
            return False

    return Timer()


def _uni(num_pairs, den_pairs):
    """Univariate rational gf from (coef, exponent) pair lists."""
    def build(pairs):
        terms = {}
        for c, e in pairs:
            terms[(e,)] = terms.get((e,), 0) + c
        return MultiPoly(("x",), terms)

    return RationalGF(build(num_pairs), build(den_pairs))


def _den_sq(pairs):
    terms = {}
    for c, e in pairs:
        terms[(e,)] = terms.get((e,), 0) + c
    p = MultiPoly(("x",), terms)
    return p * p


def test_criterion_01_word_counts():
    with _timed(1.0):
        for k in range(2, 6):
            for n in range(0, 13):
                assert len(words.enumerate_words(n, k)) == words.generalized_fibonacci(n + 2, k)
        assert [w.text for w in words.enumerate_words(3, 2)] == [
            "000", "001", "010", "100", "101"]
        assert [w.text for w in words.enumerate_words(3, 3)] == [
            "000", "001", "010", "011", "100", "101", "110"]
        assert words.count_words(3, 2) == 5
        assert words.count_words(3, 3) == 7


def test_criterion_02_polyomino_gf():
    with _timed(5.0):
        for k in range(2, 6):
            coeffs = expand(series.gf_polyomino(k), 12)
            for n in range(1, 13):
                assert coeffs[n] == verify.brute_stats_poly(n, k, "poly"), (k, n)
        bold = MultiPoly(PQ, {(4, 3): 1, (5, 4): 3, (5, 5): 2, (6, 5): 1})
        assert expand(series.gf_polyomino(3), 3)[3] == bold


# printed k = 2, 3, 4 specializations of the total generating functions
PRINTED_TOTALS = {
    ("area", 2): ([(3, 1), (2, 2), (1, 3)], [(1, 0), (-1, 1), (-1, 2)]),
    ("area", 3): ([(3, 1), (6, 2), (3, 3), (2, 4), (1, 5)],
                  [(1, 0), (-1, 1), (-1, 2), (-1, 3)]),
    ("area", 4): ([(3, 1), (6, 2), (9, 3), (4, 4), (3, 5), (2, 6), (1, 7)],
                  [(1, 0), (-1, 1), (-1, 2), (-1, 3), (-1, 4)]),
    ("perimeter", 2): ([(5, 1), (1, 2), (-2, 3), (-1, 4)], [(1, 0), (-1, 1), (-1, 2)]),
    ("perimeter", 3): ([(5, 1), (5, 2), (-3, 4), (-2, 5), (-1, 6)],
                       [(1, 0), (-1, 1), (-1, 2), (-1, 3)]),
    ("perimeter", 4): ([(5, 1), (5, 2), (5, 3), (-1, 4), (-4, 5), (-3, 6), (-2, 7), (-1, 8)],
                       [(1, 0), (-1, 1), (-1, 2), (-1, 3), (-1, 4)]),
    ("vertices", 2): ([(10, 1), (2, 2), (-4, 3), (-2, 4)], [(1, 0), (-1, 1), (-1, 2)]),
    ("vertices", 3): ([(10, 1), (11, 2), (-6, 4), (-4, 5), (-2, 6)],
                      [(1, 0), (-1, 1), (-1, 2), (-1, 3)]),
    ("vertices", 4): ([(10, 1), (11, 2), (12, 3), (-2, 4), (-8, 5), (-6, 6), (-4, 7), (-2, 8)],
                      [(1, 0), (-1, 1), (-1, 2), (-1, 3), (-1, 4)]),
    ("edges", 2): ([(11, 1), (5, 2), (-1, 4)], [(1, 0), (-1, 1), (-1, 2)]),
    ("edges", 3): ([(11, 1), (17, 2), (6, 3), (1, 4), (-1, 6)],
                   [(1, 0), (-1, 1), (-1, 2), (-1, 3)]),
    ("edges", 4): ([(11, 1), (17, 2), (23, 3), (7, 4), (2, 5), (1, 6), (-1, 8)],
                   [(1, 0), (-1, 1), (-1, 2), (-1, 3), (-1, 4)]),
    ("deg2", 2): ([(8, 1), (-2, 2), (-10, 3), (-4, 4)], [(1, 0), (-1, 1), (-1, 2)]),
    ("deg2", 3): ([(8, 1), (2, 2), (-8, 3), (-16, 4), (-10, 5), (-4, 6)],
                  [(1, 0), (-1, 1), (-1, 2), (-1, 3)]),
    ("deg2", 4): ([(8, 1), (-14, 2), (-4, 4), (2, 5), (14, 6), (-2, 9), (-4, 10)],
                  [(1, 0), (-2, 1), (1, 5)]),
    ("deg3", 2): ([(2, 1), (2, 2), (4, 3), (2, 4)], [(1, 0), (-1, 1), (-1, 2)]),
    ("deg3", 3): ([(2, 1), (2, 2), (-6, 3), (4, 4), (-4, 5), (2, 8)],
                  [(1, 0), (-2, 1), (1, 4)]),
    ("deg3", 4): ([(2, 1), (2, 2), (-8, 4), (6, 5), (-4, 6), (2, 10)],
                  [(1, 0), (-2, 1), (1, 5)]),
    ("ham", 2): ([(2, 1), (1, 2)], None),
    ("ham", 3): ([(2, 1), (1, 2)], None),
    ("ham", 4): ([(2, 1), (1, 2), (1, 3), (1, 4)], None),
}
PRINTED_HAM_DENS = {
    2: [(1, 0), (-1, 1), (-1, 2)],
    3: [(1, 0), (-1, 1), (-1, 2)],
    4: [(1, 0), (-1, 1), (-1, 2), (-1, 4)],
}


def test_criterion_03_totals():
    with _timed(5.0):
        names = ("area", "perimeter", "vertices", "edges", "deg2", "deg3", "ham")
        family_of = {n: verify.TOTALS[n] for n in names}
        for k in range(2, 6):
            brute = {n: verify.brute_totals(n, k) for n in range(1, 13)}
            for name in names:
                named = expand_ints(series.gf_named_total(name, k), 12)
                fam, var = family_of[name]
                gf = {"poly": series.gf_polyomino, "graph": series.gf_graph,
                      "degree": series.gf_degree, "ham": series.gf_hamiltonian}[fam](k)
                weighted = series.total_weight_series(gf, var, 12)
                for n in range(1, 13):
                    assert named[n] == weighted[n] == brute[n][name], (name, k, n)
        # printed specializations match the general constructors termwise
        for (name, k), (num, den) in PRINTED_TOTALS.items():
            if name == "ham":
                printed = _uni(num, PRINTED_HAM_DENS[k])
            else:
                printed = RationalGF(_uni(num, [(1, 0)]).numerator, _den_sq(den))
            general = series.gf_named_total(name, k)
            assert expand_ints(printed, 12) == expand_ints(general, 12), (name, k)


def test_criterion_04_deg4_denominator_adjudication():
    first_mismatches = {}
    for k in range(2, 6):
        adopted = expand_ints(series.gf_named_total("deg4", k), 12)
        rejected = expand_ints(series.gf_deg4_alternate(k), 12)
        for n in range(1, 13):
            b = verify.brute_totals(n, k)["deg4"]
            assert adopted[n] == b, (k, n)
            if n not in first_mismatches.get(k, ()) and rejected[n] != b:
                first_mismatches.setdefault(k, (n, rejected[n], b))
    # the rejected variant must actually disagree, first at n = k + 3
    for k in range(2, 6):
        n, got, want = first_mismatches[k]
        assert n == k + 3
        print(f"criterion 4: rejected deg4 denominator first mismatch at "
              f"k={k}, n={n}: {got} != {want}")
    # printed k = 2, 3, 4 specializations of the adopted form
    printed = {
        2: ([(2, 2), (2, 3)], [(1, 0), (-1, 1), (-1, 2)]),
        3: ([(3, 2), (4, 3), (4, 4), (2, 5)], [(1, 0), (-1, 1), (-1, 2), (-1, 3)]),
        4: ([(3, 2), (-3, 4), (-2, 6), (2, 9)], [(1, 0), (-2, 1), (1, 5)]),
    }
    for k, (num, den) in printed.items():
        gf = RationalGF(_uni(num, [(1, 0)]).numerator, _den_sq(den))
        assert expand_ints(gf, 12) == expand_ints(series.gf_named_total("deg4", k), 12)


def test_criterion_05_graph_gf():
    with _timed(5.0):
        for k in range(2, 6):
            coeffs = expand(series.gf_graph(k), 12)
            for n in range(1, 13):
                assert coeffs[n] == verify.brute_stats_poly(n, k, "graph"), (k, n)
        bold = MultiPoly(PQ, {(16, 12): 1, (15, 11): 2, (13, 10): 3, (10, 8): 1})
        assert expand(series.gf_graph(3), 3)[3] == bold


def test_criterion_06_degree_gf():
    with _timed(5.0):
        for k in range(2, 6):
            coeffs = expand(series.gf_degree(k), 12)
            for n in range(1, 13):
                assert coeffs[n] == verify.brute_stats_poly(n, k, "degree"), (k, n)
        bold = MultiPoly(("q2", "q3", "q4"), {
            (6, 4, 2): 1, (6, 2, 2): 1, (5, 4, 2): 2, (5, 4, 1): 2, (4, 4, 0): 1})
        assert expand(series.gf_degree(3), 3)[3] == bold


def test_criterion_07_fibonacci_closed_forms():
    with _timed(2.0):
        poly_coeffs = expand(series.gf_polyomino(2), 30)
        graph_coeffs = expand(series.gf_graph(2), 30)
        for n in range(1, 31):
            assert formulas.t_poly(n) == formulas.t_poly_closed(n) == poly_coeffs[n]
            assert formulas.v_poly(n) == formulas.v_poly_closed(n) == graph_coeffs[n]
        area_coeffs = expand_ints(series.gf_named_total("area", 2), 50)
        for n in range(1, 51):
            raw = 6 * n * formulas.fibonacci(n + 2) + (n + 2) * formulas.fibonacci(n)
            assert raw % 5 == 0
            assert formulas.total_area_closed(n) == area_coeffs[n]


def test_criterion_08_narayana():
    with _timed(10.0):
        counts = formulas.polyomino_counts_by_area(18)
        for a in range(1, 19):
            assert counts[a] == formulas.narayana(a + 1)
        assert formulas.narayana(6) == 6
        assert counts[5] == 6


def test_criterion_09_hamiltonicity():
    with _timed(30.0):
        for k in range(2, 6):
            coeffs = expand(series.gf_hamiltonian(k), 10)
            for n in range(1, 11):
                count = 0
                for w in words.iter_words(n, k):
                    g = graph.build_graph(polyomino.from_word(w))
                    ham = graph.is_hamiltonian(g)
                    if ham:
                        count += 1
                    if k == 2:
                        assert ham
                assert coeffs[n].terms.get((1,), 0) == count, (k, n)
        for k in (3, 4, 5):
            w11 = words.Word((1, 1), k)
            assert not graph.is_hamiltonian(graph.build_graph(polyomino.from_word(w11)))
        for j in (1, 2, 3):
            even = expand_ints(series.gf_named_total("ham", 2 * j), 12)
            odd = expand_ints(series.gf_named_total("ham", 2 * j + 1), 12)
            assert even == odd, j


def test_criterion_10_certificates():
    with _timed(2.0):
        for which in ("rel1", "rel2"):
            checked = 0
            for n in range(1, 21):
                for i in range(0, n // 2 + 3):
                    result = formulas.verify_certificate(which, n, i)
                    if result is not None:
                        assert result is True, (which, n, i)
                        checked += 1
            assert checked > 50, which


def test_criterion_11_asymptotics():
    with _timed(5.0):
        eps = Fraction(5, 1000)
        for j, target in ((2, formulas.QuadraticConstant(7, -1, 22)),
                          (3, formulas.QuadraticConstant(4, 1, 11))):
            ratio = formulas.empirical_degree_ratio(j, 2000)
            assert formulas.degree_proportion_limit(j) == target
            assert target.abs_diff_below(ratio, eps), (j, float(ratio))
        for n in range(1, 2001):
            assert sum(formulas.empirical_degree_ratio(j, n) for j in (2, 3, 4)) == 1


def test_criterion_12_paper_erratum_fixtures():
    # graph-weight second initial value: oracle keeps the p^10 q^8 term the
    # literal broken-exponent reading loses
    oracle_v2 = MultiPoly(PQ, {(7, 6): 1, (10, 8): 2})
    literal_v2 = MultiPoly(PQ, {(7, 6): 1})
    assert formulas.v_poly(2) == oracle_v2
    assert verify.brute_stats_poly(2, 2, "graph") == oracle_v2
    assert oracle_v2 != literal_v2
    # degree-4 initial values: printed text repeats the degree-2 ones
    q = ("q",)
    oracle_d41 = MultiPoly(q, {(0,): 2})
    oracle_d42 = MultiPoly(q, {(0,): 1, (1,): 2})
    printed_d41 = MultiPoly(q, {(4,): 2})
    printed_d42 = MultiPoly(q, {(4,): 3})
    assert formulas.d4_poly(1) == oracle_d41 != printed_d41
    assert formulas.d4_poly(2) == oracle_d42 != printed_d42
    brute = {}
    for n in (1, 2):
        poly = verify.brute_stats_poly(n, 2, "degree")
        brute[n] = poly.specialize({"q2": 1, "q3": 1}).rename({"q4": "q"})
    assert brute[1] == oracle_d41
    assert brute[2] == oracle_d42
