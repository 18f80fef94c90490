"""Binary words avoiding k consecutive 1's, and the counts that go with them.

A word of length n is valid for a parameter k >= 2 when no run of 1's
reaches length k.  The number of valid words of length n is the
generalized Fibonacci number F(n+2, k).
"""

from __future__ import annotations

from typing import Iterable, Iterator


_LETTERS = {0: 0, 1: 1, "0": 0, "1": 1}
_LETTER_TYPES = {int, str}


def _as_bits(bits: Iterable[int] | str) -> tuple[int, ...]:
    """The 0/1 tuple of a word given by its letters, each the int 0 or 1
    or the character "0" or "1" (not 1.0 or True, which equal 1)."""
    bits = tuple(bits)
    try:
        if {*map(type, bits)} <= _LETTER_TYPES:
            return tuple(map(_LETTERS.__getitem__, bits))
    except KeyError:
        pass
    bad = next(b for b in bits if type(b) not in _LETTER_TYPES or b not in _LETTERS)
    raise ValueError(f"invalid letter {bad!r} in word")


def check_k(k: int) -> None:
    """Reject an avoidance parameter k that is not an int >= 2."""
    if type(k) is not int or k < 2:
        raise ValueError(f"avoidance parameter k must be an int >= 2, got {k!r}")


def check_n(n: int) -> None:
    """Reject a length or index n that is not an int (2.0, True, "3")."""
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")


def _avoids(bits: tuple[int, ...], k: int) -> bool:
    """True iff no run of 1's in the 0/1 tuple `bits` reaches length k."""
    run = 0
    for b in bits:
        run = run + 1 if b else 0
        if run >= k:
            return False
    return True


def is_kbonacci(bits: Iterable[int] | str, k: int) -> bool:
    """True iff no run of 1's in `bits` has length >= k."""
    check_k(k)
    return _avoids(_as_bits(bits), k)


class _Frozen:
    """An immutable record on `__slots__`, which name its fields in the
    order its `__init__` takes them: equal to a record of the same class
    with equal fields and to nothing else (not to a tuple), hashed and
    shown by its fields, and pickled and copied by calling the class on
    them.  It is not a tuple, so it is not iterable."""

    __slots__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple[type, tuple]:
        return self.__class__, self._values()


class Word(_Frozen):
    """An immutable binary word together with the k it was validated against."""

    __slots__ = ("bits", "k")
    bits: tuple[int, ...]
    k: int

    def __init__(self, bits: Iterable[int] | str, k: int) -> None:
        bits = _as_bits(bits)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "k", k)
        check_k(k)
        if not _avoids(bits, k):
            raise ValueError(f"word {self.text!r} contains {k} consecutive 1's")

    @classmethod
    def from_text(cls, text: str, k: int) -> "Word":
        return cls(text, k)

    @property
    def text(self) -> str:
        return "".join(map(str, self.bits))

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return self.text

    def ones_runs(self) -> list[int]:
        """Lengths of the maximal runs of 1's, left to right."""
        runs = []
        run = 0
        for b in self.bits:
            if b:
                run += 1
            elif run:
                runs.append(run)
                run = 0
        if run:
            runs.append(run)
        return runs


def reverse(w: Word) -> Word:
    """The reversed word; validity under the same k is preserved."""
    return Word(w.bits[::-1], w.k)


def generalized_fibonacci(n: int, k: int) -> int:
    """F(n, k) with F(n, k) = sum of the previous k values, F(1, k) = 1
    and F(n, k) = 0 for n <= 0.  Exact for any n (arbitrary precision).

    k = 2 is the classical Fibonacci sequence, computed by doubling in
    O(log n) big-int products: F(2m) = F(m)(2F(m+1) - F(m)) and
    F(2m+1) = F(m)^2 + F(m+1)^2.  Other k take O(n) additions on a ring
    of the last k values: doubling there (Fiduccia) needs O(k^2 log n)
    big products, which loses to the ring at large k.  Up to index k + 1
    each value is the sum of all earlier ones, so F(n, k) = F(n, n - 1)
    for k >= n - 1, and the ring never holds more than n - 1 slots."""
    check_n(n)
    check_k(k)
    if n <= 0:
        return 0
    k = max(2, min(k, n - 1))
    if k == 2:
        a, b = 0, 1  # F(m), F(m+1) for m the leading bits of n read so far
        for bit in bin(n)[2:]:
            a, b = a * (2 * b - a), a * a + b * b
            if bit == "1":
                a, b = b, a + b
        return a
    # ring of the last k values with their running sum; slot i holds the
    # oldest, which the next value replaces
    ring = [0] * (k - 1) + [1]  # F(2-k..0) = 0, F(1) = 1
    total = value = 1
    i = 0
    for _ in range(n - 1):
        value = total
        total += value - ring[i]
        ring[i] = value
        i = i + 1 if i + 1 < k else 0
    return value


def count_words(n: int, k: int) -> int:
    """Number of valid words of length n, i.e. F(n+2, k)."""
    check_n(n)
    check_k(k)
    if n < 0:
        raise ValueError(f"word length must be >= 0, got {n}")
    return generalized_fibonacci(n + 2, k)


def iter_words(n: int, k: int) -> Iterator[Word]:
    """Yield all valid words of length n in lexicographic order (0 < 1).

    Each word follows from the last by the lexicographic successor: the
    rightmost 0 that can become a 1 without completing a run of k 1's
    does, and every letter after it becomes 0.  Invalid words are never
    materialized, and no recursion limits n.
    """
    check_n(n)
    check_k(k)
    if n < 0:
        raise ValueError(f"word length must be >= 0, got {n}")
    bits = [0] * n
    run = [0] * (n + 1)  # run[i]: length of the run of 1's ending before letter i
    while True:
        yield Word(tuple(bits), k)
        i = n - 1
        while i >= 0 and (bits[i] or run[i] == k - 1):
            i -= 1
        if i < 0:
            return
        bits[i] = 1
        run[i + 1] = run[i] + 1
        bits[i + 1:] = [0] * (n - 1 - i)
        run[i + 2:] = [0] * (n - 1 - i)


def enumerate_words(n: int, k: int) -> list[Word]:
    """All valid words of length n, lexicographically sorted."""
    return list(iter_words(n, k))
