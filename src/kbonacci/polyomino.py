"""Bargraph polyominoes of binary words: column i has height w_i + 1.

Coordinates: column i (1-based) occupies x in [i-1, i]; a column of
height h covers the unit cells with y in [0, h).  This fixes the vertex
labels used by the graph module.

`_add_lines` builds a polyomino's corners and sides line by line, from
the vertical line x = 0 to x = n, each line from the heights of the
columns on either side of it (`_LINES`), into a structure that can be
cut back to a line: `_Lines` holds the vertex and edge lists, and
`graph._Graph`, with the same `cut` and `add`, keeps per line just the
grid graph's running counts and the frontier states of its
Hamiltonicity DP.  `geometry` builds one polyomino.  `_build_each`
keeps the lines a word shares with the previous one in a sequence of
words: line x reads only letters x - 1 and x, so the words of one
length in `iter_words` order rebuild about three lines each, not n + 1.
`geometries` yields a sequence's geometries from it.  Euler's formula
gives a geometry's area and semiperimeter (`Geometry`, `by_euler`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, NamedTuple

from .words import Word, _Frozen

if TYPE_CHECKING:
    from .graph import _Graph


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


class _Lines:
    """The vertex and edge lists of a graph on integer ids, built line by
    line by `_add_lines`: `cut(x)` drops every line from line x on, and
    `add(base, corners, sides)` appends a line's corners and sides, as
    offsets from the line's lowest id `base`.  Each line's ids exceed the
    previous line's, so both lists ascend without a sort; `marks[i]`
    holds their lengths before line i.  `graph._Graph` takes the same
    `cut` and `add` and keeps per-line counts in place of the lists."""

    def __init__(self) -> None:
        self.vertices: list[int] = []
        self.edges: list[tuple[int, int]] = []
        self.marks = [(0, 0)]

    def cut(self, x: int) -> None:
        nv, ne = self.marks[x]
        del self.vertices[nv:], self.edges[ne:], self.marks[x + 1:]

    def add(self, base: int, corners: Sequence[int],
            sides: Sequence[tuple[int, int]]) -> None:
        vertices, edges = self.vertices, self.edges
        for y in corners:
            vertices.append(base + y)
        for u, v in sides:
            edges.append((base + u, base + v))
        self.marks.append((len(vertices), len(edges)))


def _add_lines(bits: Sequence[int], x: int, lines: _Lines | _Graph) -> None:
    """Rebuild lines x, x + 1, ..., n of the polyomino of the letters
    `bits` (n of them; column i has height bits[i] + 1) in `lines` (a
    `_Lines` or a `graph._Graph`): cut it back to its state before line
    x, then add the corners and sides of each line at its ids 3x + y.
    Only the letters from x - 1 on are read.  This is the one reader of
    `_LINES` that builds geometry; the other, `graph.check_ham_rule`,
    runs the Hamiltonicity DP's step over it in the same order."""
    lines.cut(x)
    base = 3 * x
    left = bits[x - 1] + 1 if x else 0
    for right in [b + 1 for b in bits[x:]] + [0]:
        corners, sides = _LINES[left, right]
        lines.add(base, corners, sides)
        base += 3
        left = right


def geometry(p: Polyomino) -> Geometry:
    """Corners and sides of every cell, built line by line from the
    column heights."""
    lines = _Lines()
    _add_lines([h - 1 for h in p.heights], 0, lines)
    return Geometry(tuple(lines.vertices), tuple(lines.edges))


def _build_each(words: Iterable[Word], lines: _Lines | _Graph) -> Iterator[Word]:
    """Each nonempty word of `words`, once `lines` holds the lines of its
    polyomino, built once per prefix: line x depends only on letters
    x - 1 and x (counting from 0), so a word that shares its first i
    letters with the previous one keeps the previous word's lines
    0..i - 1 and rebuilds the rest.  In `iter_words` order, i is the new
    word's last 1 (the letter the successor raised; every later letter is
    0), and comparing the first i letters confirms it.  When they differ,
    or the length changes, every line is rebuilt, so any order of words
    gets the right lines."""
    last: tuple[int, ...] = ()
    for w in words:
        bits = w.bits
        if not bits:
            raise ValueError("the empty word has no polyomino")
        x = len(bits) - 1 - bits[::-1].index(1) if 1 in bits else 0
        if len(bits) != len(last) or bits[:x] != last[:x]:
            x = 0
        _add_lines(bits, x, lines)
        last = bits
        yield w


def geometries(words: Iterable[Word]) -> Iterator[tuple[Word, Geometry]]:
    """Each nonempty word with the geometry of its polyomino, equal to
    `geometry(from_word(w))`, built once per prefix (`_build_each`)."""
    lines = _Lines()
    for w in _build_each(words, lines):
        yield w, Geometry(tuple(lines.vertices), tuple(lines.edges))


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
