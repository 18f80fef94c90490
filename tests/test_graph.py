import pytest

from kbonacci.graph import (
    GridGraph,
    build_graph,
    degree_counts,
    degree_profile,
    grid_hamiltonian_rule,
    hamiltonian_by_odd_runs,
    has_hamiltonian_cycle,
    is_hamiltonian,
    mirrored,
    to_dot,
    word_stats,
    WordStats,
)
from kbonacci.polyomino import Polyomino, area, from_word, geometry, semiperimeter
from kbonacci.series import expand, gf_hamiltonian
from kbonacci.verify import brute_totals
from kbonacci.words import Word, count_words, enumerate_words, reverse


def graph_of(text: str, k: int) -> GridGraph:
    return build_graph(from_word(Word.from_text(text, k)))


def rectangle_grid(m: int, n: int) -> GridGraph:
    """The grid graph on an m x n array of vertices."""
    verts = {(x, y) for x in range(m) for y in range(n)}
    edges = set()
    for x, y in verts:
        if (x + 1, y) in verts:
            edges.add(((x, y), (x + 1, y)))
        if (x, y + 1) in verts:
            edges.add(((x, y), (x, y + 1)))
    return GridGraph(frozenset(verts), frozenset(edges))


def cell_union_graph(p: Polyomino) -> GridGraph:
    """Corners and the four sides of every cell, cell by cell."""
    verts, edges = set(), set()
    for x, h in enumerate(p.heights):
        for y in range(h):
            verts.update([(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)])
            edges.update([((x, y), (x + 1, y)), ((x, y + 1), (x + 1, y + 1)),
                          ((x, y), (x, y + 1)), ((x + 1, y), (x + 1, y + 1))])
    return GridGraph(frozenset(verts), frozenset(edges))


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
                    assert build_graph(p) == cell_union_graph(p), w.text

    def test_edge_outside_vertices_rejected(self):
        with pytest.raises(ValueError):
            GridGraph(frozenset([(0, 0)]), frozenset([((0, 0), (1, 0))]))

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
        path = GridGraph(frozenset([(0, 0), (1, 0)]), frozenset([((0, 0), (1, 0))]))
        with pytest.raises(ValueError):
            degree_profile(path)

    def test_error_names_the_vertex_by_coordinates(self):
        path = GridGraph(frozenset([(5, -2), (6, -2)]), frozenset([((5, -2), (6, -2))]))
        with pytest.raises(ValueError, match=r"vertex \(5, -2\) has degree 1"):
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

    def test_relabelling_ignores_position(self):
        for m, n in ((2, 3), (3, 3), (4, 5)):
            g = rectangle_grid(m, n)
            moved = GridGraph(frozenset((x - 7, y - 4) for x, y in g.vertices),
                              frozenset(((ux - 7, uy - 4), (vx - 7, vy - 4))
                                        for (ux, uy), (vx, vy) in g.edges))
            assert is_hamiltonian(moved) == grid_hamiltonian_rule(m, n)
            assert degree_profile(moved) == degree_profile(g)


class TestIsHamiltonian:
    def test_four_cycle(self):
        assert is_hamiltonian(graph_of("0", 2)) is True

    def test_three_by_three_grid(self):
        assert is_hamiltonian(graph_of("11", 3)) is False
        assert is_hamiltonian(graph_of("11", 4)) is False

    def test_two_by_three_grid(self):
        assert is_hamiltonian(graph_of("1", 2)) is True

    def test_too_small_rejected(self):
        tiny = GridGraph(frozenset([(0, 0), (1, 0)]), frozenset([((0, 0), (1, 0))]))
        with pytest.raises(ValueError):
            is_hamiltonian(tiny)

    def test_long_words_need_no_recursion(self):
        assert word_stats(Word("10" * 995, 2), True).ham == 1
        assert word_stats(Word("1" * 995, 996), True).ham == 1

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
                        geo = geometry(from_word(w))
                        searched[w.bits] = has_hamiltonian_cycle(geo.vertices, geo.edges)
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
        # word_stats reads integer geometry; the public functions take a GridGraph
        for k in (2, 3, 4, 5):
            for n in range(1, 9):
                for w in enumerate_words(n, k):
                    p = from_word(w)
                    g = build_graph(p)
                    expected = WordStats(area(p), semiperimeter(p), len(g.vertices),
                                         len(g.edges), *degree_profile(g),
                                         int(is_hamiltonian(g)))
                    assert word_stats(w, True) == expected, w.text
                    geo = geometry(p)
                    assert degree_counts(geo.vertices, geo.edges) == degree_profile(g), w.text
                    assert (has_hamiltonian_cycle(geo.vertices, geo.edges)
                            == is_hamiltonian(g)), w.text

    def test_hamiltonicity_only_when_asked(self):
        w = Word.from_text("0110", 3)
        assert word_stats(w, False).ham is None
        assert word_stats(w, True).ham == 0
        assert word_stats(w, False) == WordStats(**{**vars(word_stats(w, True)), "ham": None})

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


def tuple_mirror(g: GridGraph) -> GridGraph:
    """The grid graph reflected by (x, y) -> (n - x, y), on (x, y) tuples."""
    n = max(x for x, _ in g.vertices)

    def flip(v):
        return (n - v[0], v[1])

    return GridGraph(frozenset(map(flip, g.vertices)),
                     frozenset(tuple(sorted((flip(u), flip(v)))) for u, v in g.edges))


def as_grid_graph(geo) -> GridGraph:
    return GridGraph(frozenset(divmod(v, 3) for v in geo.vertices),
                     frozenset((divmod(u, 3), divmod(v, 3)) for u, v in geo.edges))


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
                    assert (degree_counts(geo.vertices, geo.edges)
                            == degree_counts(geo_r.vertices, geo_r.edges))
                    assert mirrored(geo) == geo_r
                    assert mirrored(geo_r) == geo

    def test_mirror_agrees_with_the_tuple_graph_mirror(self):
        for k in (2, 3, 4, 5):
            for n in range(1, 9):
                for w in enumerate_words(n, k):
                    g = build_graph(from_word(w))
                    assert as_grid_graph(mirrored(geometry(from_word(w)))) == tuple_mirror(g)
                    assert tuple_mirror(g) == build_graph(from_word(reverse(w)))


class TestSerialization:
    def test_dot_output(self):
        dot = to_dot(graph_of("0", 2))
        assert dot.startswith("graph G {")
        assert '"0,0" -- "0,1";' in dot
        assert dot.endswith("}")
