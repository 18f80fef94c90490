import random

import pytest
from hypothesis import given

from kbonacci import polyomino
from kbonacci.polyomino import (
    Polyomino,
    area,
    from_word,
    geometries,
    geometry,
    render,
    semiperimeter,
    semiperimeter_closed,
)
from kbonacci.words import Word, enumerate_words, iter_words, reverse

from test_words import valid_words


class TestConstruction:
    def test_heights_are_word_plus_one(self):
        assert from_word(Word.from_text("000", 2)).heights == (1, 1, 1)
        assert from_word(Word.from_text("101", 2)).heights == (2, 1, 2)
        assert from_word(Word.from_text("011", 3)).heights == (1, 2, 2)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            from_word(Word((), 2))

    def test_bad_heights_rejected(self):
        with pytest.raises(ValueError):
            Polyomino((1, 3), 2)
        with pytest.raises(ValueError):
            Polyomino((), 2)


class TestArea:
    def test_examples(self):
        assert area(Polyomino((1, 1, 1), 2)) == 3
        assert area(Polyomino((2,), 2)) == 2
        assert area(Polyomino((2, 1, 2), 2)) == 5

    def test_area_is_length_plus_ones(self):
        for k in (2, 3, 4):
            for n in range(1, 9):
                for w in enumerate_words(n, k):
                    assert area(from_word(w)) == n + sum(w.bits)


class TestGeometry:
    def test_single_square(self):
        geo = geometry(Polyomino((1,), 2))
        assert geo.vertices == (0, 1, 3, 4)
        assert geo.edges == ((0, 1), (0, 3), (1, 4), (3, 4))
        assert geo.area == 1
        assert geo.semiperimeter == 2

    def test_l_tromino(self):
        # cells (0,0), (0,1), (1,0): 12 cell sides, two of them shared
        geo = geometry(Polyomino((2, 1), 2))
        assert geo.vertices == (0, 1, 2, 3, 4, 5, 6, 7)
        assert geo.edges == ((0, 1), (0, 3), (1, 2), (1, 4), (2, 5),
                             (3, 4), (3, 6), (4, 5), (4, 7), (6, 7))
        assert geo.area == 3
        assert geo.semiperimeter == 4

    def test_ids_ascend(self):
        for k in (2, 3, 4):
            for n in range(1, 9):
                for w in enumerate_words(n, k):
                    geo = geometry(from_word(w))
                    assert list(geo.vertices) == sorted(set(geo.vertices))
                    assert list(geo.edges) == sorted(set(geo.edges))
                    assert all(u < v for u, v in geo.edges)


def sweep_orders():
    """Word lists for the sweep: every word with k = 2..6 and n <= 10 in
    `iter_words` order, one list per (k, n), then the same words reversed,
    shuffled with a fixed seed, and all lengths of one k mixed."""
    by_kn = [list(iter_words(n, k)) for k in range(2, 7) for n in range(1, 11)]
    mixed = [[w for n in range(1, 11) for w in iter_words(n, k)] for k in range(2, 7)]
    rng = random.Random(14)
    shuffled = [rng.sample(ws, len(ws)) for ws in mixed]
    return by_kn + [ws[::-1] for ws in by_kn] + shuffled + mixed


class TestGeometries:
    def test_equal_to_one_geometry_per_word_in_any_order(self):
        for ws in sweep_orders():
            swept = list(geometries(ws))
            assert [w for w, _ in swept] == ws
            for w, geo in swept:
                assert geo == geometry(from_word(w)), w.text

    def test_each_word_rebuilds_the_lines_from_its_last_one(self, monkeypatch):
        """A guard against full rebuilds: in `iter_words` order a word
        shares every line before its last 1 with the previous word, so the
        sweep of the 912 words of length 10 at k = 5 builds about 3 lines
        a word, where a full build is 11."""
        built = []
        add_lines = polyomino._add_lines

        def counted(heights, x, *lists):
            built.append(len(heights) + 1 - x)
            return add_lines(heights, x, *lists)

        monkeypatch.setattr(polyomino, "_add_lines", counted)
        ws = list(iter_words(10, 5))
        assert len(list(geometries(ws))) == len(ws) == 912
        last_ones = [max(i for i, b in enumerate(w.bits) if b) for w in ws[1:]]
        assert built == [11] + [11 - i for i in last_ones]
        assert sum(built) < 3.1 * len(ws)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="the empty word has no polyomino"):
            list(geometries([Word("01", 2), Word((), 2)]))


class TestSemiperimeter:
    def test_examples(self):
        assert semiperimeter(Polyomino((1,), 2)) == 2
        assert semiperimeter(Polyomino((1, 1, 1), 2)) == 4
        assert semiperimeter(Polyomino((2, 1, 2), 2)) == 6

    def test_closed_form_examples(self):
        assert semiperimeter_closed(Word.from_text("000", 2)) == 4
        assert semiperimeter_closed(Word.from_text("101", 2)) == 6
        assert semiperimeter_closed(Word.from_text("011", 3)) == 5

    def test_closed_form_rejects_empty(self):
        with pytest.raises(ValueError):
            semiperimeter_closed(Word((), 2))

    def test_closed_form_matches_boundary_walk(self):
        for k in (2, 3, 4, 5):
            for n in range(1, 11):
                for w in enumerate_words(n, k):
                    assert semiperimeter(from_word(w)) == semiperimeter_closed(w)

    @given(valid_words(max_len=12))
    def test_closed_form_matches_boundary_walk_random(self, pair):
        bits, k = pair
        if not bits:
            return
        w = Word(tuple(bits), k)
        assert semiperimeter(from_word(w)) == semiperimeter_closed(w)


class TestEuler:
    def test_area_and_semiperimeter_of_the_graph_are_the_fast_paths(self):
        """The oracle reads area and semiperimeter off the grid graph by
        Euler's formula; on every word with k = 2..7 and n <= 12 they
        equal the fast paths, which count columns and runs of 1's."""
        seen = 0
        for k in range(2, 8):
            for n in range(1, 13):
                for w, geo in geometries(iter_words(n, k)):
                    assert geo.area == area(from_word(w)), w.text
                    assert geo.semiperimeter == semiperimeter_closed(w), w.text
                    seen += 1
        assert seen == 33596


class TestInvariants:
    def test_bounds(self):
        for k in (2, 3, 4):
            for n in range(1, 9):
                for w in enumerate_words(n, k):
                    p = from_word(w)
                    assert n <= area(p) <= 2 * n
                    assert n + 1 <= semiperimeter(p) <= n + 1 + (n + 1) // 2

    def test_reversal_invariance(self):
        for k in (2, 3):
            for n in range(1, 9):
                for w in enumerate_words(n, k):
                    p, pr = from_word(w), from_word(reverse(w))
                    assert area(p) == area(pr)
                    assert semiperimeter(p) == semiperimeter(pr)


class TestSerialization:
    def test_render_two_rows(self):
        assert render(Polyomino((2, 1, 2), 2)) == "█ █\n███"
        assert render(Polyomino((1, 1), 2)) == "██"
