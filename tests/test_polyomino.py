import pytest
from hypothesis import given

from kbonacci.polyomino import (
    Polyomino,
    area,
    from_word,
    geometry,
    render,
    semiperimeter,
    semiperimeter_closed,
)
from kbonacci.words import Word, enumerate_words, reverse

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
        assert geo.boundary == 4

    def test_l_tromino(self):
        # cells (0,0), (0,1), (1,0): 12 cell sides, two of them shared
        geo = geometry(Polyomino((2, 1), 2))
        assert geo.vertices == (0, 1, 2, 3, 4, 5, 6, 7)
        assert geo.edges == ((0, 1), (0, 3), (1, 2), (1, 4), (2, 5),
                             (3, 4), (3, 6), (4, 5), (4, 7), (6, 7))
        assert geo.boundary == 8
        assert geo.semiperimeter == 4

    def test_ids_ascend(self):
        for k in (2, 3, 4):
            for n in range(1, 9):
                for w in enumerate_words(n, k):
                    geo = geometry(from_word(w))
                    assert list(geo.vertices) == sorted(set(geo.vertices))
                    assert list(geo.edges) == sorted(set(geo.edges))
                    assert all(u < v for u, v in geo.edges)


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
