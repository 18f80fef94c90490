import itertools
import random
import tracemalloc

import pytest

from kbonacci import graph, polyomino
from kbonacci.graph import (
    build_graph,
    degree_profile,
    grid_hamiltonian_rule,
    hamiltonian_by_odd_runs,
    is_hamiltonian,
    mirrored,
    sweep_stats,
    to_dot,
    word_stats,
    WordStats,
)
from kbonacci.polyomino import (
    Geometry,
    Polyomino,
    area,
    by_euler,
    from_word,
    geometries,
    geometry,
    semiperimeter,
)
from kbonacci.series import expand, gf_hamiltonian
from kbonacci.verify import brute_totals
from kbonacci.words import Word, count_words, enumerate_words, iter_words, reverse

from test_polyomino import sweep_orders


def graph_of(text: str, k: int) -> Geometry:
    return build_graph(from_word(Word.from_text(text, k)))


def rectangle_grid(m: int, n: int) -> Geometry:
    """The grid graph on an m x n array of vertices, the vertex (x, y) at
    id n x + y."""
    ids = range(m * n)
    edges = [(v, v + n) for v in ids if v + n < m * n]
    edges += [(v, v + 1) for v in ids if v % n < n - 1]
    return Geometry(tuple(ids), tuple(sorted(edges)))


def brute_force_hamiltonian(vertices, edges) -> bool:
    """Whether some order of the vertices, from the first, closes a cycle
    along `edges`."""
    adjacent = {frozenset(e) for e in edges}
    first, *rest = vertices
    return any(all(frozenset(pair) in adjacent
                   for pair in zip((first, *order), (*order, first)))
               for order in itertools.permutations(rest))


def cell_union_graph(p: Polyomino) -> tuple[frozenset, frozenset]:
    """Corners and the four sides of every cell, cell by cell, as (x, y)
    pairs."""
    verts, edges = set(), set()
    for x, h in enumerate(p.heights):
        for y in range(h):
            verts.update([(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)])
            edges.update([((x, y), (x + 1, y)), ((x, y + 1), (x + 1, y + 1)),
                          ((x, y), (x, y + 1)), ((x + 1, y), (x + 1, y + 1))])
    return frozenset(verts), frozenset(edges)


def as_pairs(geo: Geometry) -> tuple[frozenset, frozenset]:
    """A polyomino's geometry on (x, y) pairs: the id 3x + y as (x, y)."""
    return (frozenset(divmod(v, 3) for v in geo.vertices),
            frozenset((divmod(u, 3), divmod(v, 3)) for u, v in geo.edges))


class TestBuild:
    def test_single_square(self):
        g = graph_of("0", 2)
        assert (len(g.vertices), len(g.edges)) == (4, 4)

    def test_single_domino(self):
        g = graph_of("1", 2)
        assert (len(g.vertices), len(g.edges)) == (6, 7)

    def test_two_by_two_block(self):
        g = graph_of("11", 3)
        assert (len(g.vertices), len(g.edges)) == (9, 12)

    def test_matches_cell_by_cell_construction(self):
        for k in (2, 3, 4):
            for n in range(1, 9):
                for w in enumerate_words(n, k):
                    p = from_word(w)
                    assert as_pairs(build_graph(p)) == cell_union_graph(p), w.text

    def test_vertex_count_closed_form(self):
        # 2(n+1) + (number of 1's) + (number of maximal 1-runs)
        for k in (2, 3, 4, 5):
            for n in range(1, 13):
                for w in enumerate_words(n, k):
                    closed = 2 * (n + 1) + sum(w.bits) + len(w.ones_runs())
                    assert len(build_graph(from_word(w)).vertices) == closed, w.text

    def test_edges_from_euler_relation(self):
        # connected planar graph whose inner faces are exactly the cells
        for k in (2, 3):
            for n in range(1, 9):
                for w in enumerate_words(n, k):
                    p = from_word(w)
                    g = build_graph(p)
                    assert len(g.edges) == len(g.vertices) + area(p) - 1


class TestDegreeProfile:
    def test_examples(self):
        assert degree_profile(graph_of("0", 2)) == (4, 0, 0)
        assert degree_profile(graph_of("00", 2)) == (4, 2, 0)
        assert degree_profile(graph_of("11", 3)) == (4, 4, 1)

    def test_handshake(self):
        for k in (2, 3, 4):
            for n in range(1, 9):
                for w in enumerate_words(n, k):
                    g = build_graph(from_word(w))
                    d2, d3, d4 = degree_profile(g)
                    assert d2 + d3 + d4 == len(g.vertices)
                    assert 2 * d2 + 3 * d3 + 4 * d4 == 2 * len(g.edges)

    def test_degree_outside_range_rejected(self):
        path = Geometry((0, 3), ((0, 3),))
        with pytest.raises(ValueError):
            degree_profile(path)

    def test_error_names_the_vertex_by_coordinates(self):
        # the ids 3x + y of (5, 1) and (6, 1)
        path = Geometry((16, 19), ((16, 19),))
        with pytest.raises(ValueError, match=r"vertex \(5, 1\) has degree 1"):
            degree_profile(path)


class TestHamiltonianRule:
    def test_examples(self):
        assert grid_hamiltonian_rule(3, 3) is False
        assert grid_hamiltonian_rule(2, 3) is True
        assert grid_hamiltonian_rule(1, 1) is True

    def test_rule_matches_backtracking_on_small_grids(self):
        # the rule presumes a proper grid; 1 x n strips are paths
        for m in range(2, 5):
            for n in range(2, 5):
                assert is_hamiltonian(rectangle_grid(m, n)) == grid_hamiltonian_rule(m, n)

    def test_strips_are_paths(self):
        for n in range(2, 7):
            assert grid_hamiltonian_rule(1, n) is False
            assert grid_hamiltonian_rule(n, 1) is False
            if n >= 3:
                assert is_hamiltonian(rectangle_grid(1, n)) is False
                assert is_hamiltonian(rectangle_grid(n, 1)) is False


class TestIsHamiltonian:
    def test_four_cycle(self):
        assert is_hamiltonian(graph_of("0", 2)) is True

    def test_three_by_three_grid(self):
        assert is_hamiltonian(graph_of("11", 3)) is False
        assert is_hamiltonian(graph_of("11", 4)) is False

    def test_two_by_three_grid(self):
        assert is_hamiltonian(graph_of("1", 2)) is True

    def test_too_small_rejected(self):
        tiny = Geometry((0, 3), ((0, 3),))
        with pytest.raises(ValueError):
            is_hamiltonian(tiny)

    def test_unbalanced_bipartite_graphs_are_refuted_at_once(self):
        # a 3 x 61 grid: 92 vertices on one side, 91 on the other, which
        # a backtracking search takes exponential time to refute and the
        # DP, with a frontier of one column, refutes in linear time
        assert word_stats(Word("1" * 60, 61)).ham == 0
        assert is_hamiltonian(rectangle_grid(3, 3)) is False

    def test_graphs_that_are_not_bipartite_are_searched(self):
        def complete(m):
            return Geometry(tuple(range(m)),
                            tuple((u, v) for u in range(m) for v in range(u + 1, m)))

        assert is_hamiltonian(complete(4)) is True
        # an odd number of vertices does not refute a graph with an odd cycle
        assert is_hamiltonian(complete(3)) is True
        assert is_hamiltonian(complete(5)) is True
        # a 5-cycle with a pendant vertex: not bipartite and not Hamiltonian
        five = ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
        assert is_hamiltonian(Geometry(tuple(range(6)), five + ((4, 5),))) is False

    def test_disconnected_graphs_have_no_cycle(self):
        square = ((0, 1), (0, 2), (1, 3), (2, 3))
        two = square + tuple((u + 4, v + 4) for u, v in square)
        assert is_hamiltonian(Geometry(tuple(range(8)), two)) is False
        # vertex 4 has no edge
        assert is_hamiltonian(Geometry(tuple(range(5)), square)) is False

    def test_a_reversed_edge_order_is_refuted_as_well(self):
        # the 3 x 3 grid's edges from the last, and with their ends
        # swapped: the verdict is the same either way
        g = rectangle_grid(3, 3)
        edges = g.edges[::-1]
        assert is_hamiltonian(Geometry(g.vertices, edges)) is False
        assert is_hamiltonian(Geometry(g.vertices, tuple((v, u) for u, v in edges))) is False
        assert is_hamiltonian(Geometry(g.vertices, tuple(sorted(edges)))) is False

    def test_the_dp_agrees_with_brute_force_on_small_graphs(self):
        """Every simple graph on 3, 4 or 5 vertices (1,096 of them) on each
        of three id sets: contiguous ids, on ids with gaps (0, 3, 4, 7, 8) and on ids whose
        parities run otherwise (1, 2, 4, 6, 9): the DP agrees with a check
        of every vertex order, with the edges in sorted order, reversed,
        and with each edge's ends swapped."""
        graphs = 0
        for m in (3, 4, 5):
            pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
            for ids in (tuple(range(m)), (0, 3, 4, 7, 8)[:m], (1, 2, 4, 6, 9)[:m]):
                for mask in range(1 << len(pairs)):
                    chosen = [(ids[a], ids[b]) for i, (a, b) in enumerate(pairs)
                              if mask >> i & 1]
                    expected = brute_force_hamiltonian(ids, chosen)
                    for edges in (chosen, chosen[::-1], [(v, u) for u, v in chosen]):
                        assert is_hamiltonian(Geometry(ids, tuple(edges))) is expected, (
                            ids, edges)
                    graphs += 1
        assert graphs == 3 * 1096

    def test_balanced_graphs_without_a_cycle_are_still_searched(self):
        # 1^(2a) 0 1^(2b): the two sides of the grid graph, by the parity of
        # x + y, have the same size, so no count of sides refutes them
        for a, b in ((1, 1), (1, 2), (2, 3)):
            w = Word("1" * (2 * a) + "0" + "1" * (2 * b), 7)
            geo = geometry(from_word(w))
            ones = sum(sum(divmod(v, 3)) % 2 for v in geo.vertices)
            assert 2 * ones == len(geo.vertices), w.text
            assert is_hamiltonian(geo) is False, w.text

    @pytest.mark.parametrize("a", [14, 250])
    def test_long_balanced_words_are_decided_in_linear_time(self, a):
        """1^(2a) 0 1^(2a) has balanced sides and no cycle; a backtracking
        search took 237 ms on it at a = 14, doubling every 4 letters.  The
        sweep's DP and the DP on the whole geometry as one line, whose
        frontier is one column wide, both agree with the odd-run rule, as
        does the word with its 0 moved one letter right (all runs odd)."""
        for text in ("1" * (2 * a) + "0" + "1" * (2 * a),
                     "1" * (2 * a + 1) + "0" + "1" * (2 * a - 1)):
            w = Word(text, 2 * a + 2)
            assert hamiltonian_by_odd_runs(w) is (text[2 * a] == "1")
            assert word_stats(w).ham == hamiltonian_by_odd_runs(w)
            assert is_hamiltonian(build_graph(from_word(w))) is hamiltonian_by_odd_runs(w)

    def test_the_search_agrees_with_the_odd_run_rule_up_to_n_12(self):
        """All 33,596 words with k = 2..7 and n <= 12.  `check_ham_rule`
        proves the rule for every word as the sweep runs the DP, line by
        line, so an answer of the DP on the whole graph at once that
        differs is a fault of the search; its graph is free of k, so each
        bit string is searched once."""
        searched = {}
        pairs = 0
        for k in range(2, 8):
            for n in range(1, 13):
                for w, geo in geometries(iter_words(n, k)):
                    if w.bits not in searched:
                        searched[w.bits] = is_hamiltonian(geo)
                    assert searched[w.bits] is hamiltonian_by_odd_runs(w), (w.text, k)
                    pairs += 1
        assert pairs == 33596

    def test_long_words_need_no_recursion(self):
        assert word_stats(Word("10" * 995, 2)).ham == 1
        assert word_stats(Word("1" * 995, 996)).ham == 1

    def test_fibonacci_graphs_always_hamiltonian(self):
        for n in range(1, 11):
            for w in enumerate_words(n, 2):
                assert is_hamiltonian(build_graph(from_word(w)))

    def test_words_with_all_odd_runs_are_hamiltonian(self):
        for k in (3, 4, 5):
            for n in range(1, 9):
                for w in enumerate_words(n, k):
                    if all(r % 2 == 1 for r in w.ones_runs()):
                        assert is_hamiltonian(build_graph(from_word(w)))

    def test_odd_run_rule_equals_the_search_on_every_word(self):
        searched = {}  # bits -> the search's answer; a word's graph is free of k
        for k in range(2, 7):
            for n in range(1, 11):
                for w in enumerate_words(n, k):
                    if w.bits not in searched:
                        searched[w.bits] = is_hamiltonian(geometry(from_word(w)))
                    assert hamiltonian_by_odd_runs(w) is searched[w.bits], (w.text, k)
        assert len(searched) == sum(count_words(n, 6) for n in range(1, 11))

    def test_odd_run_rule_rejects_the_empty_word(self):
        with pytest.raises(ValueError, match="the empty word has no polyomino"):
            hamiltonian_by_odd_runs(Word((), 2))

    def test_counts_match_series_marker(self):
        for k in (2, 3, 4, 5):
            coeffs = expand(gf_hamiltonian(k), 8)
            for n in range(1, 9):
                count = sum(1 for w in enumerate_words(n, k)
                            if is_hamiltonian(build_graph(from_word(w))))
                assert coeffs[n].terms.get((1,), 0) == count


class TestOracleAgreesWithPublicFunctions:
    def test_per_word_statistics(self):
        # word_stats reads the sweep's running counts; the public functions
        # take the word's geometry, built in one go
        for k in (2, 3, 4, 5):
            for n in range(1, 9):
                for w in enumerate_words(n, k):
                    p = from_word(w)
                    g = build_graph(p)
                    expected = WordStats(area(p), semiperimeter(p), len(g.vertices),
                                         len(g.edges), *degree_profile(g),
                                         int(is_hamiltonian(g)))
                    assert word_stats(w) == expected, w.text
                    assert g == geometry(p), w.text

    def test_the_sweep_equals_one_record_per_word_in_any_order(self):
        expected = {}  # bits -> word_stats; a word's record is free of k
        for ws in sweep_orders():
            swept = list(sweep_stats(ws, True))
            assert [w for w, _ in swept] == ws
            for w, stats in swept:
                if w.bits not in expected:
                    expected[w.bits] = word_stats(w)
                assert stats == expected[w.bits], w.text
        ws = list(iter_words(7, 3))
        assert ([s for _, s in sweep_stats(ws, False)]
                == [word_stats(w)._replace(ham=None) for w in ws])

    def test_hamiltonicity_only_when_asked(self):
        w = Word.from_text("0110", 3)
        [(_, stats)] = sweep_stats((w,), False)
        assert stats.ham is None
        assert word_stats(w).ham == 0
        assert stats == word_stats(w)._replace(ham=None)

    def test_brute_totals(self):
        for k in (2, 3, 4, 5):
            for n in range(1, 9):
                ps = [from_word(w) for w in enumerate_words(n, k)]
                gs = [build_graph(p) for p in ps]
                profiles = [degree_profile(g) for g in gs]
                assert brute_totals(n, k) == {
                    "area": sum(area(p) for p in ps),
                    "perimeter": sum(semiperimeter(p) for p in ps),
                    "vertices": sum(len(g.vertices) for g in gs),
                    "edges": sum(len(g.edges) for g in gs),
                    "deg2": sum(d[0] for d in profiles),
                    "deg3": sum(d[1] for d in profiles),
                    "deg4": sum(d[2] for d in profiles),
                    "ham": sum(is_hamiltonian(g) for g in gs),
                }, (n, k)


def tuple_mirror(g: tuple[frozenset, frozenset]) -> tuple[frozenset, frozenset]:
    """The grid graph reflected by (x, y) -> (n - x, y), on (x, y) pairs."""
    vertices, edges = g
    n = max(x for x, _ in vertices)

    def flip(v):
        return (n - v[0], v[1])

    return (frozenset(map(flip, vertices)),
            frozenset(tuple(sorted((flip(u), flip(v)))) for u, v in edges))


def scratch_build(vertices, edges):
    """The counts of a graph on integer ids, built from scratch the plain
    way: vertices, edges, and vertices of degree 2, 3 and 4."""
    degree = dict.fromkeys(vertices, 0)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    counts = [sum(d == k for d in degree.values()) for k in (2, 3, 4)]
    return (len(vertices), len(edges), *counts)


class TestGraphInput:
    """`is_hamiltonian` and `degree_profile` take a graph of distinct,
    non-negative int ids in ascending order and edges between them; any
    other graph is a `ValueError`, checked before any work."""

    square = [(0, 1), (1, 2), (2, 3), (0, 3)]

    @pytest.mark.parametrize("vertices, edges", [
        ([-1, 0, 1, 2], [(-1, 0), (0, 1), (1, 2), (-1, 2)]),
        ([0, 2, 1, 3], square),
        ([0, 1, 1, 2, 3], square),
        ([0, 1.0, 2, 3], square),
        ([True, 2, 3, 4], [(True, 2), (2, 3), (3, 4), (True, 4)]),
        (["0", "1", "2", "3"], square),
    ])
    def test_bad_vertex_ids_rejected(self, vertices, edges):
        for f in (is_hamiltonian, degree_profile):
            with pytest.raises(ValueError, match="distinct non-negative ints in ascending"):
                f(Geometry(tuple(vertices), tuple(edges)))

    @pytest.mark.parametrize("edges", [
        square + [(0, 4)],
        square + [(-1, 0)],
        [(0, 1), (1, 2), (2, 3), (0, 3.0)],
        [(0, True), (1, 2), (2, 3), (0, 3)],
    ])
    def test_edge_ends_outside_the_vertices_rejected(self, edges):
        for f in (is_hamiltonian, degree_profile):
            with pytest.raises(ValueError, match="every edge end must be a listed vertex id"):
                f(Geometry((0, 1, 2, 3), tuple(edges)))

    def test_valid_graphs_pass(self):
        square = Geometry((0, 1, 2, 3), tuple(self.square))
        assert is_hamiltonian(square) is True
        assert is_hamiltonian(Geometry((3, 4, 7, 10),
                                       ((3, 4), (4, 7), (7, 10), (3, 10)))) is True
        assert degree_profile(square) == (4, 0, 0)
        assert degree_profile(Geometry((), ())) == (0, 0, 0)

    def test_memory_follows_the_graph_not_its_largest_id(self):
        """A 4-cycle whose largest id is 10**6 takes under 1 MB at peak:
        nothing is sized by the largest id."""
        top = 10 ** 6
        g = Geometry((0, 1, 2, top), ((0, 1), (1, top), (2, top), (0, 2)))
        tracemalloc.start()
        try:
            assert degree_profile(g) == (4, 0, 0)
            assert is_hamiltonian(g) is True
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def automata(monkeypatch) -> list:
    """Every `graph._Automaton` made from now on, in order, each counting
    its subscriptions in `gets`."""
    made = []

    class Recorded(graph._Automaton):
        __slots__ = ("gets",)

        def __init__(self, *args):
            super().__init__(*args)
            self.gets = 0
            made.append(self)

        def __getitem__(self, edge):
            self.gets += 1
            return super().__getitem__(edge)

    monkeypatch.setattr(graph, "_Automaton", Recorded)
    return made


def projected(automaton) -> set:
    """The edges of an automaton as ((left height, frontier), right
    height), the sides of a node left out: what `_step` reads."""
    out = set()
    for key in automaton:
        node, right = divmod(key, 3)
        left, _, frontier = automaton.keys[node]
        out.add(((left, frontier), right))
    return out


class TestSweepGraph:
    """The sweep's walk on its line automaton against a graph built from
    scratch from the same vertex and edge lists."""

    def test_every_word_in_every_order_equals_a_scratch_build(self):
        """In `iter_words` order, reversed, shuffled and with lengths mixed
        (`sweep_orders`), the sweep's counts equal a build from scratch of
        the word's geometry, `geometry(from_word(w))`, and the DP's verdict
        from the kept nodes equals `is_hamiltonian` of that geometry
        (built and decided once per distinct word graph)."""
        built = {}
        for ws in sweep_orders():
            swept = []
            for w, s in sweep_stats(ws, True):
                if w.bits not in built:
                    geo = geometry(from_word(w))
                    totals = scratch_build(geo.vertices, geo.edges)
                    built[w.bits] = WordStats(*by_euler(*totals[:2]), *totals,
                                              int(is_hamiltonian(geo)))
                assert s == built[w.bits], w.text
                swept.append(w)
            assert swept == ws
        assert len(built) == sum(count_words(n, 6) for n in range(1, 11))

    def test_the_verdict_is_free_of_the_edge_order(self):
        """Shuffled edges give the graph of every word up to length 6 at
        k = 4, the rectangles and two small graphs the same verdict as
        sorted ones.  The DP reads them in ascending order, which keeps
        its frontier to a column: in the order given, the shuffled edges
        of the 3 x 12 grid below ran out of 2 GB of memory."""
        rng = random.Random(17)
        graphs = [graph_of(w.text, 4) for n in range(1, 7) for w in iter_words(n, 4)]
        graphs += [rectangle_grid(m, n) for m in range(1, 5) for n in range(2, 5) if m * n > 2]
        graphs += [rectangle_grid(12, 3),
                   Geometry((0, 1, 2, 3, 5), ((0, 1), (1, 2), (2, 3), (0, 3), (3, 5), (1, 5))),
                   Geometry((0, 2, 4, 6), ((0, 2), (2, 4), (4, 6), (0, 6)))]
        for g in graphs:
            expected = is_hamiltonian(g)
            for _ in range(3):
                shuffled = tuple(rng.sample(g.edges, len(g.edges)))
                assert is_hamiltonian(Geometry(g.vertices, shuffled)) is expected, shuffled

    def test_the_sweep_verdict_is_the_odd_run_rule(self):
        """The sweep's DP finds 2,842 non-Hamiltonian words among the 5,046
        of lengths 1 to 10 at k = 2, 3, 4 and 6, each the proved odd-run
        rule's verdict."""
        non_hamiltonian = words = 0
        for k in (2, 3, 4, 6):
            for n in range(1, 11):
                for w, s in sweep_stats(iter_words(n, k), True):
                    ham = hamiltonian_by_odd_runs(w)
                    assert s.ham == ham, w.text
                    non_hamiltonian += not ham
                    words += 1
        assert (non_hamiltonian, words) == (2842, 5046)

    def test_the_dp_runs_only_over_the_rebuilt_lines(self, monkeypatch):
        """The sweep runs the DP's step only where a rebuilt line takes an
        edge of its automaton for the first time, so once per edge: the
        4,934 words with k = 2..5 and n <= 10 reach 13 nodes and 26 edges
        with `ham`, between 9 distinct frontiers (the start and three
        dead ones, with no state left, among them), and a sweep without
        `ham` runs no step."""
        made = automata(monkeypatch)
        steps = []
        step = graph._step
        monkeypatch.setattr(graph, "_step", lambda *args: steps.append(args) or step(*args))
        words = [w for k in range(2, 6) for n in range(1, 11) for w in iter_words(n, k)]
        assert len(words) == 4934
        assert len(list(sweep_stats(words, True))) == 4934
        table = made[-1]
        assert (len(table.keys), len(table), len(steps)) == (13, 26, 26)
        assert len({frontier for _, _, frontier in table.keys}) == 9
        steps.clear()
        assert len(list(sweep_stats(words, False))) == 4934
        assert steps == []

    def test_a_rebuilt_line_costs_one_count_lookup(self, monkeypatch):
        """A word of the sweep looks up each line it rebuilds once in the
        automaton, from the node kept before its first rebuilt
        line, and keeps the running counts of the lines before it; each
        edge's counts are computed once: the 4,934 words with k = 2..5 and
        n <= 10 reach 6 nodes and 11 edges without `ham`, a first line
        beside a column of height 1 or 2, and the three lines that can
        follow a line of each of three kinds (vertical sides of height 1
        and a right column of height 1; of height 2 and 1; of height 2
        and 2)."""
        made = automata(monkeypatch)
        counted = []
        degrees = graph._corner_degrees
        monkeypatch.setattr(graph, "_corner_degrees",
                            lambda *args: counted.append(args) or degrees(*args))
        ws = list(iter_words(10, 5))
        built = [11] + [11 - max(i for i, b in enumerate(w.bits) if b) for w in ws[1:]]
        for ham in (False, True):
            gets = 0
            for (w, _), lines in zip(sweep_stats(ws, ham), built):
                assert made[-1].gets - gets == lines, w.text
                gets = made[-1].gets
            assert gets == sum(built) < 3.1 * len(ws)
        words = [w for k in range(2, 6) for n in range(1, 11) for w in iter_words(n, k)]
        counted.clear()
        assert len(list(sweep_stats(words, False))) == 4934
        assert (len(made[-1].keys), len(made[-1]), len(counted)) == (6, 11, 11)

    def test_the_whole_automaton_computes_every_edge(self):
        """A walk of the whole automaton, not of a sample of words: rights
        1 and 2 from the start and from every node they reach, and the
        closing line (right 0) from each of those but the start.  Every
        edge is computed without error, so no line of the table has a
        corner of a degree outside 2..4 and the automaton needs no word's
        line index to name one.  The walk reaches the nodes and edges
        that the word sweeps reach: 6 and 11 without `ham`, 13 and 26
        with it."""
        for ham, reached in ((False, (6, 11)), (True, (13, 26))):
            lines = graph._Automaton(True, ham)
            queue, seen = [0], {0}
            while queue:
                node = queue.pop()
                for right in (1, 2) if node == 0 else (0, 1, 2):
                    after = lines[node + right][0]
                    if right and after not in seen:
                        seen.add(after)
                        queue.append(after)
            assert (len(lines.keys), len(lines)) == reached, ham


class TestSweepCoveredByTheProof:
    """Every DP step the sweep takes is one that `check_ham_rule` checks,
    so the proof covers the sweep's verdicts, and the sweep's automaton
    stays bounded at any n."""

    def test_every_edge_of_the_sweep_is_an_edge_of_the_proof(self, monkeypatch):
        made = automata(monkeypatch)
        assert graph.check_ham_rule().counterexample is None
        proof = projected(made[-1])
        words = [w for k in range(2, 8) for n in range(1, 13) for w in iter_words(n, k)]
        assert len(list(sweep_stats(words, True))) == len(words) == 33596
        swept = made[-1]
        assert (len(swept.keys), len(swept)) == (13, 26)
        assert projected(swept) <= proof
        long = [Word((1,) * 499 + (0,) + (1,) * 499, 500), Word((1,) * 999, 1000)]
        assert [s.ham for _, s in sweep_stats(long, True)] == [1, 1]
        assert set(made[-1].keys) <= set(swept.keys)
        assert projected(made[-1]) <= proof


class TestReversalSymmetry:
    def test_invariants_and_mirror_map(self):
        for k in (2, 3, 4, 5):
            for n in range(1, 9):
                for w in enumerate_words(n, k):
                    geo = geometry(from_word(w))
                    geo_r = geometry(from_word(reverse(w)))
                    assert len(geo.vertices) == len(geo_r.vertices)
                    assert len(geo.edges) == len(geo_r.edges)
                    assert geo.semiperimeter == geo_r.semiperimeter
                    assert degree_profile(geo) == degree_profile(geo_r)
                    assert mirrored(geo) == geo_r
                    assert mirrored(geo_r) == geo

    def test_mirror_agrees_with_the_tuple_graph_mirror(self):
        for k in (2, 3, 4, 5):
            for n in range(1, 9):
                for w in enumerate_words(n, k):
                    g = as_pairs(build_graph(from_word(w)))
                    assert as_pairs(mirrored(geometry(from_word(w)))) == tuple_mirror(g)
                    assert tuple_mirror(g) == as_pairs(build_graph(from_word(reverse(w))))


class TestSerialization:
    def test_dot_output(self):
        dot = to_dot(geometry(from_word(Word.from_text("0", 2))))
        assert dot.startswith("graph G {")
        assert '"0,0" -- "0,1";' in dot
        assert dot.endswith("}")


START = ((), frozenset([()]))
# the frontiers after a line, on ids relative to its base (the corners
# 3, 4, ... of the next line), each with its states: per frontier vertex
# the other end of its chosen path
SEVEN_FRONTIERS = {
    START,
    ((3, 4), frozenset({(4, 3)})),  # one path with both ends on a height-1 line
    # ... and the cycle of the first cell closed early, after "00"; the
    # mark dies at the next line
    ((3, 4), frozenset({(4, 3), graph._CLOSED})),
    ((3, 4, 5), frozenset({(5, 4, 3)})),
    ((3, 4, 5), frozenset({(3, 5, 4), (4, 3, 5)})),
    ((3, 4), frozenset()),  # no state left: after an even run ("110")
    ((3, 4, 5), frozenset()),  # the same on a height-2 line ("1101")
}


def accepted(max_n: int) -> dict[tuple[int, ...], bool]:
    """Whether `_step`, run over the current line table as
    `check_ham_rule` runs it, closes a cycle on the closing line of each
    nonempty binary word of length <= max_n."""
    lines = polyomino._LINES
    out = {}
    level = {(): (0, START)}
    for _ in range(max_n):
        level = {bits + (b,): (b + 1, graph._step(f, 3 if left else 0, *lines[left, b + 1]))
                 for bits, (left, f) in level.items() for b in (0, 1)}
        for bits, (left, f) in level.items():
            out[bits] = graph._CLOSED in graph._step(f, 3, *lines[left, 0])[1]
    return out


def searched(bits: tuple[int, ...]) -> bool:
    """The DP on the geometry built from the current line table, read as
    one line (`is_hamiltonian`), not line by line."""
    return is_hamiltonian(geometry(Polyomino(tuple(b + 1 for b in bits), 2)))


class TestRuleProof:
    """The odd-run rule proved on the Hamiltonicity DP itself:
    `graph.check_ham_rule` runs the DP's step, `graph._step`, over the
    line table as a finite automaton, whose verdict on each word is the
    sweep's, and proves it equal to the rule of
    `graph.hamiltonian_by_odd_runs`."""

    def test_the_rule_is_proved_over_seven_frontiers(self):
        check = graph.check_ham_rule()
        assert check.counterexample is None
        assert check.frontiers == SEVEN_FRONTIERS
        assert check.pairs == 7

    def test_the_automaton_accepts_exactly_the_hamiltonian_words(self):
        verdicts = accepted(9)
        assert len(verdicts) == 2 ** 10 - 2
        swept = {w.bits: s.ham for w, s in graph.sweep_stats(
            (Word(bits, 11) for bits in verdicts), True)}
        for bits, closes in verdicts.items():
            assert closes is searched(bits), bits
            assert swept[bits] == closes, bits
            assert closes is graph.hamiltonian_by_odd_runs(Word(bits, 11)), bits

    def test_the_automaton_follows_the_line_table(self, monkeypatch):
        """Each side dropped from the table changes the automaton as it
        changes the graph.  The proof fails for 21 of the 28 drops, each
        time naming a word on which the rule and the one-line DP differ,
        the shortest and lexicographically least; the other 7 leave every
        word's Hamiltonicity as it was, as far as the DP sees."""
        table = dict(polyomino._LINES)
        failing = 0
        for key, (corners, sides) in table.items():
            for i in range(len(sides)):
                mutated = {**table, key: (corners, sides[:i] + sides[i + 1:])}
                monkeypatch.setattr(polyomino, "_LINES", mutated)
                verdicts = accepted(6)
                for bits, closes in verdicts.items():
                    assert closes is searched(bits), (key, sides[i], bits)
                found = graph.check_ham_rule().counterexample
                # the words of length <= 6 on which the rule fails, shortest
                # first, then in lexicographic order
                wrong = sorted((len(bits), bits) for bits, closes in verdicts.items()
                               if closes is not graph.hamiltonian_by_odd_runs(Word(bits, 7)))
                if found is None:
                    assert not wrong, (key, sides[i])
                else:
                    failing += 1
                    bits = tuple(map(int, found))
                    assert searched(bits) is not graph.hamiltonian_by_odd_runs(Word(bits, 7))
                    assert len(found) > 6 if not wrong else bits == wrong[0][1]
        assert failing == 21

    def test_the_counterexample_is_the_least_of_the_shortest_words(self, monkeypatch):
        # a DFA that accepts no word: both "0" and "1" are Hamiltonian
        monkeypatch.setattr(graph, "ODD_RUN_ACCEPT", (False,) * 4)
        assert graph.check_ham_rule().counterexample == "0"

    def test_a_start_that_cannot_close_is_not_accepted(self):
        # the empty word: there is no line between two missing columns, so
        # the start node, where the sweep starts too, is excepted from the
        # proof although the DFA accepts in its start state
        assert (0, 0) not in polyomino._LINES
        assert graph._START == START
        assert graph._Automaton(True, True).keys == [(0, (), START)]
        assert graph._CLOSED not in START[1]
        assert graph.ODD_RUN_ACCEPT[0] is True
        assert graph.check_ham_rule().counterexample is None
