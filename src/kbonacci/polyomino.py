"""Bargraph polyominoes of binary words: column i has height w_i + 1.

Coordinates: column i (1-based) occupies x in [i-1, i]; a column of
height h covers the unit cells with y in [0, h).  This fixes the vertex
labels used by the graph module.

`_add_lines` builds a polyomino's corners and sides line by line, from
the vertical line x = 0 to x = n, each line from the heights of the
columns on either side of it (`_LINES`), into vertex and edge lists
that can be cut back to a line.  `geometry` builds one polyomino.
`_kept_lines` finds the lines a word shares with the previous one in a
sequence of words: line x reads only letters x - 1 and x, so the words
of one length in `iter_words` order rebuild about three lines each, not
n + 1.  `geometries` yields a sequence's geometries from it, and
`graph.sweep_stats` walks the same lines on its line automaton.
Euler's formula gives a geometry's area and semiperimeter (`Geometry`,
`by_euler`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from .words import Word, _Frozen


class Polyomino(_Frozen):
    """Column heights (each 1 or 2), left to right, with the source word's k."""

    __slots__ = ("heights", "k")
    heights: tuple[int, ...]
    k: int

    def __init__(self, heights: tuple[int, ...], k: int) -> None:
        object.__setattr__(self, "heights", heights)
        object.__setattr__(self, "k", k)
        if not heights:
            raise ValueError("a polyomino needs at least one column")
        if any(h not in (1, 2) for h in heights):
            raise ValueError("column heights must be 1 or 2")


def from_word(w: Word) -> Polyomino:
    """The bargraph polyomino of a nonempty word."""
    if len(w) == 0:
        raise ValueError("the empty word has no polyomino")
    return Polyomino(tuple(b + 1 for b in w.bits), w.k)


class Geometry(NamedTuple):
    """A graph on integer vertex ids, the one graph type of the package:
    `vertices` ascend, and `edges` are id pairs.  A bargraph polyomino's
    geometry has its cell corners as vertices, the corner (x, y) at id
    3x + y (heights are at most 2), so ids order as the (x, y) pairs do
    and have the parity of x + y, and its distinct cell sides as edges,
    id pairs (u, v) with u < v in ascending order.  A bargraph has no
    holes, so its cells are the bounded faces of this connected plane
    graph: Euler gives V - E + (area + 1) = 2, and as a side lies in two
    cells, or in one on the perimeter P, 4 area = 2E - P and
    P / 2 = 2V - E - 2 (`area`, `semiperimeter`).
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def area(self) -> int:
        return by_euler(len(self.vertices), len(self.edges))[0]

    @property
    def semiperimeter(self) -> int:
        return by_euler(len(self.vertices), len(self.edges))[1]


def by_euler(vertices: int, edges: int) -> tuple[int, int]:
    """Area and semiperimeter of a bargraph polyomino whose grid graph has
    `vertices` corners and `edges` sides (`Geometry`)."""
    return edges - vertices + 1, 2 * vertices - edges - 2


def _line(left: int, right: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Corners and sides on the vertical line between a column of height
    `left` and one of height `right` (0: no column there), as offsets
    from the id 3x of the line's lowest corner.  A side belongs to the
    line of its lower endpoint: the vertical sides on the line and the
    horizontal sides of the right column."""
    top = max(left, right)
    corners, sides = [], []
    for y in range(top + 1):
        corners.append(y)
        if y < top:  # (x, y)-(x, y+1), a side of cells (x-1, y) and (x, y)
            sides.append((y, y + 1))
        if right and y <= right:  # (x, y)-(x+1, y), of cells (x, y-1) and (x, y)
            sides.append((y, y + 3))
    return tuple(corners), tuple(sides)


_LINES = {(left, right): _line(left, right)
          for left in range(3) for right in range(3) if left or right}


def _add_lines(bits: Sequence[int], x: int, vertices: list[int],
               edges: list[tuple[int, int]], marks: list[tuple[int, int]]) -> None:
    """Rebuild lines x, x + 1, ..., n of the polyomino of the letters
    `bits` (n of them; column i has height bits[i] + 1) in the vertex
    and edge lists of a graph on integer ids: cut them back to their
    lengths before line x, `marks[x]`, then append the corners and sides
    of each line at its ids 3x + y and its mark.  Each line's ids exceed
    the previous line's, so both lists ascend without a sort.  Only the
    letters from x - 1 on are read.  This is the one reader of `_LINES`
    that builds geometry; the other, `graph._Automaton`, walks the same
    lines as an automaton."""
    nv, ne = marks[x]
    del vertices[nv:], edges[ne:], marks[x + 1:]
    base = 3 * x
    left = bits[x - 1] + 1 if x else 0
    for b in (*bits[x:], -1):  # -1: the closing line, with no column right of it
        corners, sides = _LINES[left, b + 1]
        for y in corners:
            vertices.append(base + y)
        for u, v in sides:
            edges.append((base + u, base + v))
        marks.append((len(vertices), len(edges)))
        base += 3
        left = b + 1


def geometry(p: Polyomino) -> Geometry:
    """Corners and sides of every cell, built line by line from the
    column heights."""
    vertices: list[int] = []
    edges: list[tuple[int, int]] = []
    _add_lines([h - 1 for h in p.heights], 0, vertices, edges, [(0, 0)])
    return Geometry(tuple(vertices), tuple(edges))


def _kept_lines(words: Iterable[Word]) -> Iterator[tuple[Word, int]]:
    """Each nonempty word of `words` with the number x of its first
    lines that equal the previous word's: line x depends only on letters
    x - 1 and x (counting from 0), so a word that shares its first x
    letters with the previous one keeps the previous word's lines
    0..x - 1 and rebuilds the rest.  In `iter_words` order, x is the new
    word's last 1 (the letter the successor raised; every later letter is
    0), and comparing the first x letters confirms it.  When they differ,
    or the length changes, x is 0, so any order of words gets the right
    lines."""
    last: tuple[int, ...] = ()
    for w in words:
        bits = w.bits
        if not bits:
            raise ValueError("the empty word has no polyomino")
        x = len(bits) - 1 - bits[::-1].index(1) if 1 in bits else 0
        if len(bits) != len(last) or bits[:x] != last[:x]:
            x = 0
        last = bits
        yield w, x


def geometries(words: Iterable[Word]) -> Iterator[tuple[Word, Geometry]]:
    """Each nonempty word with the geometry of its polyomino, equal to
    `geometry(from_word(w))`, built once per prefix (`_kept_lines`)."""
    vertices: list[int] = []
    edges: list[tuple[int, int]] = []
    marks = [(0, 0)]
    for w, x in _kept_lines(words):
        _add_lines(w.bits, x, vertices, edges, marks)
        yield w, Geometry(tuple(vertices), tuple(edges))


def area(p: Polyomino) -> int:
    """Number of cells."""
    return sum(p.heights)


def semiperimeter(p: Polyomino) -> int:
    """Half the perimeter of the cell union, from the corner and side
    counts of its geometry by Euler's formula (`Geometry`)."""
    return geometry(p).semiperimeter


def semiperimeter_closed(w: Word) -> int:
    """Fast path: n + 1 + (number of maximal runs of 1's in w)."""
    if len(w) == 0:
        raise ValueError("the empty word has no polyomino")
    return len(w) + 1 + len(w.ones_runs())


def render(p: Polyomino) -> str:
    """Two-row block rendering, top row first."""
    top = "".join("█" if h == 2 else " " for h in p.heights).rstrip()
    bottom = "█" * len(p.heights)
    return (top + "\n" if top else "") + bottom
