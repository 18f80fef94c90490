"""Bargraph polyominoes of binary words: column i has height w_i + 1.

Coordinates: column i (1-based) occupies x in [i-1, i]; a column of
height h covers the unit cells with y in [0, h).  This fixes the vertex
labels used by the graph module.

`geometry` builds a polyomino's corners and sides line by line, from the
vertical line x = 0 to x = n, each line from the heights of the columns
on either side of it (`_LINES`).  `geometries` does the same for a
sequence of words and keeps the lines a word shares with the previous
one: line x reads only letters x - 1 and x, so the words of one length in
`iter_words` order rebuild about three lines each, not n + 1.  Euler's
formula gives a geometry's area and semiperimeter (`Geometry`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .words import Word


@dataclass(frozen=True)
class Polyomino:
    """Column heights (each 1 or 2), left to right, with the source word's k."""

    heights: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if not self.heights:
            raise ValueError("a polyomino needs at least one column")
        if any(h not in (1, 2) for h in self.heights):
            raise ValueError("column heights must be 1 or 2")


def from_word(w: Word) -> Polyomino:
    """The bargraph polyomino of a nonempty word."""
    if len(w) == 0:
        raise ValueError("the empty word has no polyomino")
    return Polyomino(tuple(b + 1 for b in w.bits), w.k)


@dataclass(frozen=True)
class Geometry:
    """Cell corners and cell sides of a bargraph polyomino on integer
    vertex ids: the corner (x, y) has id 3x + y (heights are at most 2),
    so ids order as the (x, y) pairs do.

    `vertices` ascend; `edges` are the distinct cell sides as id pairs
    (u, v) with u < v, in ascending order.  A bargraph has no holes, so
    its cells are the bounded faces of this connected plane graph: Euler
    gives V - E + (area + 1) = 2, and as a side lies in two cells, or in
    one on the perimeter P, 4 area = 2E - P and P / 2 = 2V - E - 2.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def area(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    @property
    def semiperimeter(self) -> int:
        return 2 * len(self.vertices) - len(self.edges) - 2


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


def _add_lines(heights: tuple[int, ...], x: int, vertices: list[int],
               edges: list[tuple[int, int]], marks: list[tuple[int, int]]) -> None:
    """Rebuild lines x, x + 1, ..., n of the columns `heights` (n of them):
    cut `vertices` and `edges` back to their lengths before line x, then
    append the corners and sides of each line.  `marks[i]` holds the two
    lengths before line i (`marks[:x + 1]` must be set).  Each line's ids
    exceed the previous line's, so both lists ascend without a sort."""
    nv, ne = marks[x]
    del vertices[nv:], edges[ne:], marks[x + 1:]
    base = 3 * x
    left = heights[x - 1] if x else 0
    for right in heights[x:] + (0,):
        corners, sides = _LINES[left, right]
        for y in corners:
            vertices.append(base + y)
        for u, v in sides:
            edges.append((base + u, base + v))
        marks.append((len(vertices), len(edges)))
        base += 3
        left = right


def geometry(p: Polyomino) -> Geometry:
    """Corners and sides of every cell, built line by line from the
    column heights."""
    vertices: list[int] = []
    edges: list[tuple[int, int]] = []
    _add_lines(p.heights, 0, vertices, edges, [(0, 0)])
    return Geometry(tuple(vertices), tuple(edges))


def geometries(words: Iterable[Word]) -> Iterator[tuple[Word, Geometry]]:
    """Each nonempty word with the geometry of its polyomino, equal to
    `geometry(from_word(w))`, built once per prefix: line x depends only
    on letters x - 1 and x (counting from 0), so a word that shares its
    first i letters with the previous one keeps the previous word's lines
    0..i - 1 and rebuilds the rest.  In `iter_words` order, i is the new
    word's last 1 (the letter the successor raised; every later letter is
    0), and comparing the first i letters confirms it.  When they differ,
    or the length changes, every line is rebuilt, so any order of words
    gets the right geometries."""
    vertices: list[int] = []
    edges: list[tuple[int, int]] = []
    marks = [(0, 0)]
    last: tuple[int, ...] = ()
    for w in words:
        bits = w.bits
        if not bits:
            raise ValueError("the empty word has no polyomino")
        x = len(bits) - 1 - bits[::-1].index(1) if 1 in bits else 0
        if len(bits) != len(last) or bits[:x] != last[:x]:
            x = 0
        _add_lines(tuple([b + 1 for b in bits]), x, vertices, edges, marks)
        last = bits
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
