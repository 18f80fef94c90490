from functools import lru_cache
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from kbonacci.words import (
    Word,
    count_words,
    enumerate_words,
    generalized_fibonacci,
    is_kbonacci,
    iter_words,
    reverse,
)


def valid_words(max_len=10, k_values=(2, 3, 4, 5)):
    """Hypothesis strategy for (bits, k) pairs that satisfy the avoidance."""
    return st.tuples(
        st.lists(st.integers(0, 1), max_size=max_len),
        st.sampled_from(k_values),
    ).filter(lambda t: is_kbonacci(t[0], t[1]))


class TestIsKbonacci:
    def test_forbidden_factor_itself(self):
        assert not is_kbonacci("111", 3)

    def test_listed_members(self):
        assert is_kbonacci("110", 3)
        assert is_kbonacci("101", 2)

    def test_run_inside_longer_word(self):
        assert not is_kbonacci("0110", 2)
        assert is_kbonacci("0110", 3)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            is_kbonacci("0", 1)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            is_kbonacci("102", 2)
        with pytest.raises(ValueError):
            is_kbonacci([0, 2], 2)


class TestGeneralizedFibonacci:
    def test_base_cases(self):
        assert generalized_fibonacci(1, 2) == 1
        assert generalized_fibonacci(0, 3) == 0
        assert generalized_fibonacci(-7, 4) == 0

    def test_classical_value(self):
        assert generalized_fibonacci(5, 2) == 5

    def test_matches_naive_recursion_k2(self):
        @lru_cache(maxsize=None)
        def naive(n):
            if n <= 0:
                return 0
            if n == 1:
                return 1
            return naive(n - 1) + naive(n - 2)

        for n in range(1, 31):
            assert generalized_fibonacci(n, 2) == naive(n)

    def test_recurrence_holds_for_larger_k(self):
        for k in (3, 4, 5):
            for n in range(2, 25):
                expected = sum(generalized_fibonacci(n - i, k) for i in range(1, k + 1))
                assert generalized_fibonacci(n, k) == expected

    def test_k_validation(self):
        with pytest.raises(ValueError):
            generalized_fibonacci(5, 1)

    def test_running_sum_matches_window(self):
        def window_version(n, k):
            if n <= 0:
                return 0
            window = [0] * (k - 1) + [1]
            for _ in range(n - 1):
                window.append(sum(window))
                window.pop(0)
            return window[-1]

        for k in range(2, 9):
            for n in range(-2, 201):
                assert generalized_fibonacci(n, k) == window_version(n, k), (n, k)

    def test_k_far_beyond_n_allocates_no_ring_of_k_slots(self):
        tracemalloc.start()
        try:
            value = generalized_fibonacci(5, 10 ** 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 8
        assert peak < 2 ** 20

    def test_k_near_and_beyond_n_matches_an_additive_loop(self):
        def additive(n, k):
            values = [1]  # F(1)
            while len(values) < n:
                values.append(sum(values[-k:]))
            return values[n - 1]

        for n in range(1, 40):
            for k in {*range(max(2, n - 2), n + 2), 10 ** 7}:
                assert generalized_fibonacci(n, k) == additive(n, k), (n, k)
        assert count_words(3, 10 ** 7) == 8

    def test_k2_doubling_matches_an_additive_loop(self):
        # k = 2 runs by doubling; this loop shares no code with it
        values = [0, 1]  # F(0), F(1)
        while len(values) <= 30002:
            values.append(values[-1] + values[-2])
        for n in range(-3, 601):
            assert generalized_fibonacci(n, 2) == values[max(n, 0)], n
        assert generalized_fibonacci(30002, 2) == values[30002]
        assert count_words(30000, 2) == values[30002]


class TestCountWords:
    def test_paper_listings(self):
        assert count_words(3, 2) == 5
        assert count_words(3, 3) == 7

    def test_empty_word_counts_once(self):
        for k in (2, 3, 4, 5):
            assert count_words(0, k) == 1

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            count_words(-1, 2)


class TestEnumerateWords:
    def test_single_letters(self):
        assert [w.text for w in enumerate_words(1, 2)] == ["0", "1"]

    def test_length_three_k2(self):
        assert [w.text for w in enumerate_words(3, 2)] == ["000", "001", "010", "100", "101"]

    def test_length_two_k2(self):
        assert [w.text for w in enumerate_words(2, 2)] == ["00", "01", "10"]

    def test_length_zero(self):
        ws = enumerate_words(0, 3)
        assert len(ws) == 1 and ws[0].text == ""

    def test_counts_and_order(self):
        for k in (2, 3, 4, 5):
            for n in range(0, 13):
                ws = enumerate_words(n, k)
                assert len(ws) == generalized_fibonacci(n + 2, k)
                texts = [w.text for w in ws]
                assert texts == sorted(texts)
                assert len(set(texts)) == len(texts)

    def test_same_order_as_prefix_backtracking(self):
        def backtrack(n, k, prefix=(), run=0):
            # the extend-by-0-then-1 recursion iter_words replaced
            if len(prefix) == n:
                yield prefix
                return
            yield from backtrack(n, k, prefix + (0,), 0)
            if run + 1 < k:
                yield from backtrack(n, k, prefix + (1,), run + 1)

        for k in range(2, 7):
            for n in range(0, 12):
                assert [w.bits for w in iter_words(n, k)] == list(backtrack(n, k)), (n, k)

    def test_long_words_need_no_recursion(self):
        first = next(iter_words(5000, 2))
        assert first.bits == (0,) * 5000

    def test_enumerated_words_and_reverses_are_valid(self):
        for k in (2, 3, 4, 5):
            for n in range(0, 9):
                for w in enumerate_words(n, k):
                    assert is_kbonacci(w.bits, k)
                    assert is_kbonacci(reverse(w).bits, k)


class TestWord:
    def test_invalid_word_rejected(self):
        with pytest.raises(ValueError):
            Word((1, 1), 2)

    def test_from_text_round_trip(self):
        w = Word.from_text("0110", 3)
        assert w.text == "0110"
        assert str(w) == "0110"
        assert len(w) == 4

    def test_ones_runs(self):
        assert Word.from_text("0110100", 3).ones_runs() == [2, 1]
        assert Word.from_text("000", 2).ones_runs() == []

    def test_reverse_examples(self):
        assert reverse(Word.from_text("001", 2)).text == "100"
        assert reverse(Word.from_text("010", 2)).text == "010"
        assert reverse(Word.from_text("110", 3)).text == "011"

    @given(valid_words())
    def test_reverse_involution_and_validity(self, pair):
        bits, k = pair
        w = Word(tuple(bits), k)
        assert reverse(reverse(w)) == w
        assert is_kbonacci(reverse(w).bits, k)


class TestLetters:
    """A letter is the int 0 or 1 or the character "0" or "1", nothing
    that merely converts to one."""

    @pytest.mark.parametrize("bits", [[0.5, 1], [1.9, 0], [" 1"], [1.0, 0], [True, 0],
                                      ["1", 2], "1 0", [[1]]])
    def test_non_letters_rejected(self, bits):
        with pytest.raises(ValueError, match="invalid letter"):
            Word(bits, 2)
        with pytest.raises(ValueError, match="invalid letter"):
            is_kbonacci(bits, 3)

    def test_float_letters_are_not_kbonacci(self):
        with pytest.raises(ValueError, match=r"invalid letter 0\.7"):
            is_kbonacci([0.7, 1.2], 2)

    def test_ints_characters_and_iterators_read_alike(self):
        for bits in ("0101", [0, 1, 0, 1], (0, 1, "0", "1"), iter("0101"), map(int, "0101")):
            assert Word(bits, 2).bits == (0, 1, 0, 1)
        assert Word("", 2).bits == Word([], 2).bits == ()


class TestIntK:
    """k is an int >= 2 at every entry point, checked before any work."""

    @pytest.mark.parametrize("k", [2.0, 2.5, True, "3", None])
    def test_non_int_k_rejected(self, k):
        with pytest.raises(ValueError, match="must be an int >= 2"):
            Word((1,), k)
        with pytest.raises(ValueError, match="must be an int >= 2"):
            is_kbonacci("1", k)
        with pytest.raises(ValueError, match="must be an int >= 2"):
            count_words(5, k)
        with pytest.raises(ValueError, match="must be an int >= 2"):
            generalized_fibonacci(5, k)
        with pytest.raises(ValueError, match="must be an int >= 2"):
            enumerate_words(3, k)

    def test_iter_words_rejects_before_yielding(self):
        words = iter_words(3, 2.5)
        with pytest.raises(ValueError, match="must be an int >= 2"):
            next(words)


class TestIntN:
    """A word length or sequence index n is an int, as k is."""

    @pytest.mark.parametrize("n", [2.0, 2.5, True, "3", None])
    def test_non_int_n_rejected(self, n):
        with pytest.raises(ValueError, match="n must be an int, got"):
            next(iter_words(n, 2))
        with pytest.raises(ValueError, match="n must be an int, got"):
            count_words(n, 2)
        with pytest.raises(ValueError, match="n must be an int, got"):
            generalized_fibonacci(n, 2)
        with pytest.raises(ValueError, match="n must be an int, got"):
            enumerate_words(n, 2)
