"""Grid graphs of bargraph polyominoes: cell corners are vertices, cell
sides are edges.  All vertices have degree 2, 3 or 4.

A graph is a `polyomino.Geometry`, on integer vertex ids.  The degree
profile, Hamiltonicity and the mirror x -> n - x have one implementation
each: `degree_profile`, `is_hamiltonian` and `mirrored`.  The first two
read a private `_Graph`, built line by line by `polyomino._add_lines`,
which keeps per line the running counts of vertices, edges and vertices
by degree (read off the line and the one before it, `_corner_degrees`)
and the frontier states of a Hamiltonian-cycle DP (`_step`).  One
private record builder reads a word's statistics off it, each from the
grid graph (area and semiperimeter by Euler's formula): `sweep_stats`
takes a sequence of words on one `_Graph`, which `polyomino._build_each`
cuts back to the letters a word shares with the previous one and extends
from there, so the counts and frontiers of the kept lines are reused and
the DP runs only over the rebuilt ones; `word_stats` is the sweep of one
word, and `degree_profile` and `is_hamiltonian` build a `_Graph` of any
graph as one line.
Hamiltonicity also has one O(n) fast path, `hamiltonian_by_odd_runs`,
which `check_ham_rule` proves equal to the DP on every word by running
`_step` itself over `polyomino._LINES` as a finite automaton; the DP
stays as the rule's independent oracle, and `_step` is the only step of
a Hamiltonicity DP.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from . import polyomino
from .polyomino import Geometry, Polyomino, _build_each, by_euler, geometry
from .words import Word


def build_graph(p: Polyomino) -> Geometry:
    """Vertices = corners of every cell, edges = sides of every cell: the
    polyomino's `geometry`.  This name, `degree_profile`, `is_hamiltonian`
    and `mirrored` are kept because the benchmark's tracer and self-tests
    look them up by name."""
    return geometry(p)


def degree_profile(g: Geometry) -> tuple[int, int, int]:
    """Counts of vertices of degree 2, 3 and 4 of a graph on integer ids,
    taken as `is_hamiltonian` takes them."""
    return _Graph.of(g.vertices, g.edges).degrees()


def mirrored(geo: Geometry) -> Geometry:
    """The geometry reflected by x -> n - x, n its last line: the id
    3x + y goes to 3(n - x) + y.  This is the reverse word's geometry.
    The mirror reverses the order of the lines, so the ids and the edges
    are sorted again, and it swaps the ends of each horizontal side
    (u, u + 3) while keeping those of each vertical side (u, u + 1)."""
    top = geo.vertices[-1] // 3 * 3  # 3n
    flip = [top - v + 2 * (v % 3) for v in range(top + 3)]
    return Geometry(tuple(sorted([flip[v] for v in geo.vertices])),
                    tuple(sorted([(flip[v], flip[u]) if v - u == 3 else (flip[u], flip[v])
                                  for u, v in geo.edges])))


def grid_hamiltonian_rule(m: int, n: int) -> bool:
    """Whether the grid graph on an m x n vertex array has a Hamiltonian
    cycle: true iff m, n >= 2 and m*n is even (a 1 x n strip is a path),
    or, by convention, m = n = 1."""
    return m >= 2 and n >= 2 and m * n % 2 == 0 or m == n == 1


class _Graph:
    """A grid graph built and cut back line by line by
    `polyomino._add_lines`, as `polyomino._Lines` is, that keeps per
    line only what the record and the Hamiltonicity DP read, so a word
    of a sweep costs only the lines it rebuilds.  `lines[x + 1]` holds
    line x's base id, corners and sides as `add` took them (`lines[0]`
    is an empty line before line 0), and `totals[x + 1]` the vertices,
    edges and vertices of degree 2, 3 and 4 of lines 0..x.  A line's
    corners are final once it is in (`_corner_degrees`), so `add` adds
    to the totals the counts of the line in the context of the line
    before it, which `increments` maps to them: a sweep's lines come
    from one small table, so it stays small (11 contexts for every word
    with k = 2..5 and n <= 10).  `frontiers[x + 1]` holds line x's base
    and the DP's frontier (`_step`) after it, which `hamiltonian`
    extends up to the last line; `memo` maps a (frontier, base shift,
    corners, sides) step to the frontier after it (20 steps for the same
    words).  `cut(x)` truncates the three lists.  `of` builds a graph of
    any vertices and edges as one line; a sweep's graph has the counts
    and verdict of the one `of` builds from its vertex and edge lists."""

    def __init__(self) -> None:
        self.lines: list[tuple[int, Sequence[int], Sequence[tuple[int, int]]]] = [(0, (), ())]
        self.totals = [(0, 0, 0, 0, 0)]
        self.increments: dict[tuple, tuple[int, ...]] = {}
        self.frontiers = [(0, ((), frozenset([()])))]
        self.memo: dict[tuple, tuple[tuple[int, ...], frozenset]] = {}

    @classmethod
    def of(cls, vertices: Sequence[int], edges: Sequence[tuple[int, int]]) -> _Graph:
        """The graph of `vertices`, distinct non-negative int ids in
        ascending order, and `edges`, pairs of them, as one line with its
        edges as (lower, upper) pairs in ascending order; any other input
        is a `ValueError`."""
        ids = tuple(vertices)
        if (any(type(v) is not int for v in ids) or list(ids) != sorted(set(ids))
                or ids and ids[0] < 0):
            raise ValueError("vertex ids must be distinct non-negative ints in ascending order")
        listed = set(ids)
        if not all(type(u) is type(v) is int and u in listed and v in listed
                   for u, v in edges):
            raise ValueError("every edge end must be a listed vertex id")
        g = cls()
        g.add(0, ids, tuple(sorted((u, v) if u < v else (v, u) for u, v in edges)))
        return g

    def cut(self, x: int) -> None:
        del self.lines[x + 1:], self.totals[x + 1:], self.frontiers[x + 1:]

    def add(self, base: int, corners: Sequence[int],
            sides: Sequence[tuple[int, int]]) -> None:
        at, _, before = self.lines[-1]
        key = (base - at, before, corners, sides)
        counts = self.increments.get(key)
        if counts is None:
            degrees = list(_corner_degrees(*key).values())
            counts = self.increments[key] = (len(corners), len(sides), degrees.count(2),
                                             degrees.count(3), degrees.count(4))
        nv, ne, d2, d3, d4 = self.totals[-1]
        av, ae, a2, a3, a4 = counts
        self.totals.append((nv + av, ne + ae, d2 + a2, d3 + a3, d4 + a4))
        self.lines.append((base, corners, sides))

    def degrees(self) -> tuple[int, int, int]:
        """Counts of the vertices of degree 2, 3 and 4; a vertex of any
        other degree is a `ValueError` that names the first one as the
        (x, y) of its id 3x + y."""
        nv, _, d2, d3, d4 = self.totals[-1]
        if d2 + d3 + d4 < nv:
            for (at, _, before), (base, corners, sides) in zip(self.lines, self.lines[1:]):
                for c, d in _corner_degrees(base - at, before, corners, sides).items():
                    if not 2 <= d <= 4:
                        raise ValueError(f"vertex {divmod(base + c, 3)} has degree {d}, "
                                         "outside {2,3,4}")
        return d2, d3, d4

    def hamiltonian(self) -> bool:
        """`is_hamiltonian` of the graph as it stands: the DP runs
        over the lines past the last checkpoint, one `_step` per line."""
        if self.totals[-1][0] < 3:
            raise ValueError("Hamiltonicity needs at least 3 vertices")
        frontiers, memo = self.frontiers, self.memo
        for base, corners, sides in self.lines[len(frontiers):]:
            at, frontier = frontiers[-1]
            key = (frontier, base - at, corners, sides)
            after = memo.get(key)
            if after is None:
                after = memo[key] = _step(*key)
            frontiers.append((base, after))
        _, (_, states) = frontiers[-1]
        return _CLOSED in states


def _corner_degrees(shift: int, before: Sequence[tuple[int, int]], corners: Sequence[int],
                    sides: Sequence[tuple[int, int]]) -> dict[int, int]:
    """The degree of each of a line's `corners`, in their order, from its
    `sides` and the sides `before` of the line before it, whose base id
    was `shift` below this one's (all as offsets from their line's base).
    No other side meets them: each side's lower end lies in the line
    that adds it and its upper end in that line or the next."""
    ends = [end - shift for side in before for end in side]
    ends += [end for side in sides for end in side]
    degree = dict.fromkeys(corners, 0)
    for end in ends:
        if end in degree:
            degree[end] += 1
    return degree


_CLOSED = "closed"


def _step(frontier: tuple[tuple[int, ...], frozenset], shift: int, corners: Sequence[int],
          sides: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], frozenset]:
    """The frontier after a line with the id offsets `corners` and
    `sides`, from `frontier` after the line before, whose base id was
    `shift` below this one's.  A frontier is its vertices, on ids
    relative to its line's base, and a set of states, each a tuple that
    holds per frontier vertex the other end of its chosen path: itself
    while it has no chosen edge, and None once it has two.  `_CLOSED` is
    the one state after a Hamiltonian cycle has closed.

    A vertex enters the frontier at its first side and leaves after its
    last side in its own line, where it must have two chosen edges: no
    side of a later line reaches a corner of this one, as the ids of
    `polyomino._Lines` ascend line by line and each side's lower end lies
    in the line that adds it.  A corner that no side of its line meets
    leaves at the start.  So the frontier's vertices depend only on the
    position, not the state.  A chosen side that joins the two ends of
    one path closes the cycle, which it may do only when every other
    frontier vertex has two chosen edges and every corner of the line has
    entered; `_CLOSED` dies at any later line with corners (each corner
    of a grid line has a side in its own line, so none of them is on the
    cycle)."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, side in enumerate(sides):
        for v in side:
            first.setdefault(v, i)
            last[v] = i
    # leaving[i]: the corners whose last side is side i, and leaving[-1]
    # those that no side meets, which leave first (i = -1)
    leaving: list[list[int]] = [[] for _ in range(len(sides) + 1)]
    for c in corners:
        leaving[last.get(c, -1)].append(c)
    entered = max((first[c] for c in corners if c in first), default=0)
    order, states = frontier
    order = [v - shift for v in order]
    closed = _CLOSED in states and not corners
    now = {tuple([m if m is None else m - shift for m in s]) for s in states if s != _CLOSED}
    for i in range(-1, len(sides)):
        if i >= 0:
            a, b = sides[i]
            for v in (a, b):
                if v not in order:
                    order.append(v)
                    now = {s + (v,) for s in now}
            ia, ib = order.index(a), order.index(b)
            after = set(now)  # each state with the side left out
            for s in now if a != b else ():
                ea, eb = s[ia], s[ib]
                if ea is None or eb is None:
                    continue
                if ea == b:  # a and b end one path: the side closes it
                    closed |= i >= entered and sum(m is not None for m in s) == 2
                    continue
                t = list(s)
                t[ia] = t[ib] = None
                t[order.index(ea)] = eb
                t[order.index(eb)] = ea
                after.add(tuple(t))
            now = after
        for v in leaving[i]:
            if v not in order:  # a corner with no edge at all
                now = set()
                continue
            j = order.index(v)
            del order[j]
            now = {s[:j] + s[j + 1:] for s in now if s[j] is None}
    return tuple(order), frozenset(now | {_CLOSED} if closed else now)


# The odd-run rule as a DFA on the letters 0 and 1: state 0 is outside a
# run of 1's, 1 and 2 are inside a run of odd and of even length, and 3
# follows an even run (dead).  ODD_RUN_STEP[s][b] is the state after
# reading b in state s; ODD_RUN_ACCEPT[s] says whether a word that ends
# in state s has every run of 1's odd.  `check_ham_rule` reads these
# same tables, so its proof covers `hamiltonian_by_odd_runs`.
ODD_RUN_STEP = ((0, 1), (0, 2), (3, 1), (3, 3))
ODD_RUN_ACCEPT = (True, True, False, False)


def hamiltonian_by_odd_runs(w: Word) -> bool:
    """Whether the grid graph of a nonempty word has a Hamiltonian cycle,
    by the rule "every maximal run of 1's has odd length", in O(n).  The
    rule holds for every binary word (`check_ham_rule`), so for every k;
    the DP is its independent oracle."""
    if not w.bits:
        raise ValueError("the empty word has no polyomino")
    state = 0
    for b in w.bits:
        state = ODD_RUN_STEP[state][b]
    return ODD_RUN_ACCEPT[state]


class RuleCheck(NamedTuple):
    """The outcome of `check_ham_rule`: the frontiers reached, the number
    of (left height, frontier, DFA state) nodes reached, and the shortest
    word on which the DP and the odd-run DFA disagree (None: they agree
    on every nonempty word, which proves the rule)."""

    frontiers: frozenset[tuple[tuple[int, ...], frozenset]]
    pairs: int
    counterexample: str | None


def check_ham_rule() -> RuleCheck:
    """Prove that the DP's verdict on every word's grid graph is the
    odd-run rule of `ODD_RUN_STEP` and `ODD_RUN_ACCEPT`, or find the
    shortest word on which they differ.

    A word's graph is built from `polyomino._LINES` one line at a time
    (`polyomino._add_lines`), each line 3 ids above the one before, and
    the sweep's `_Graph` runs `_step` once per line with that shift.  A
    frontier holds ids relative to its line's base, so the frontier
    after a line depends only on the frontier before it and the heights
    (left, right) either side of the line: run over the table, `_step` is
    a deterministic automaton.  The letter b reads the line whose right
    column has height b + 1, and a word is Hamiltonian iff `_CLOSED` is
    in the frontier after its closing line (right height 0).  A breadth
    first search, letter 0 before 1, over the reachable (left height,
    frontier, DFA state) nodes compares that with the DFA at each node.
    The nodes are finitely many, so if every reached node agrees, the two
    agree on every word of every length, and so for every k; the first
    node that does not is reached by a shortest word, the least of those
    in lexicographic order.  The start node, the empty word, is excepted:
    it has no polyomino and no closing line.  The table is read when
    this is called, not at import."""
    lines = polyomino._LINES
    start = (0, _Graph().frontiers[0][1], 0)
    words = {start: ""}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        left, frontier, s = node
        word = words[node]
        shift = 3 if left else 0
        if word and (_CLOSED in _step(frontier, shift, *lines[left, 0])[1]) != ODD_RUN_ACCEPT[s]:
            return RuleCheck(frozenset(f for _, f, _ in words), len(words), word)
        for b in (0, 1):
            after = (b + 1, _step(frontier, shift, *lines[left, b + 1]),
                     ODD_RUN_STEP[s][b])
            if after not in words:
                words[after] = word + str(b)
                queue.append(after)
    return RuleCheck(frozenset(f for _, f, _ in words), len(words), None)


def is_hamiltonian(g: Geometry) -> bool:
    """Decide Hamiltonicity of a graph on integer ids (distinct,
    non-negative and ascending `g.vertices`; every end of `g.edges` one of
    them, else a `ValueError`) by a frontier DP over its edges in ascending
    order of their ends (Knuth's SIMPATH, TAOCP 7.1.4; the
    transfer-matrix method), whatever the order of `g.edges`.

    Each edge is left out or put in a set of chosen edges; a state says,
    for each vertex of the frontier, how many chosen edges it has and
    which vertex ends its chosen path.  `_step` reads one line of a
    `_Graph`; here the graph is one line, built in one go, and
    `sweep_stats` runs it per line of the `_Graph` it keeps, from the
    states kept for the lines a word shares with the previous one.  Time
    is linear in the edges while the frontier stays bounded: the vertices
    met by an edge so far and by an edge still to come, at most about one
    column of a grid graph on ids in (x, y) order.  Read in a shuffled
    order, a grid's edges would let the frontier grow to most of its
    vertices, and the states with it, hence the sort.
    """
    return _Graph.of(g.vertices, g.edges).hamiltonian()


class WordStats(NamedTuple):
    """Every per-word statistic of the paper, each field named after its
    total (`verify.TOTALS`, in the same order): the polyomino's area and
    semiperimeter (`perimeter`), the grid graph's vertex and edge counts
    and degree profile, and `ham`, 1 or 0 as the graph has a Hamiltonian
    cycle or not (None when not asked for)."""

    area: int
    perimeter: int
    vertices: int
    edges: int
    deg2: int
    deg3: int
    deg4: int
    ham: int | None


def _record(g: _Graph, ham: bool) -> WordStats:
    """The statistics of a polyomino, all read off its grid graph (area
    and semiperimeter by Euler's formula, `polyomino.Geometry`);
    Hamiltonicity is decided only when `ham` is set."""
    nv, ne = g.totals[-1][:2]
    return WordStats(*by_euler(nv, ne), nv, ne, *g.degrees(),
                     int(g.hamiltonian()) if ham else None)


def word_stats(w: Word, ham: bool) -> WordStats:
    """The statistics of a nonempty word, read off the grid graph of its
    polyomino: the sweep of `sweep_stats` on the one word."""
    return next(sweep_stats((w,), ham))[1]


def sweep_stats(words: Iterable[Word], ham: bool) -> Iterator[tuple[Word, WordStats]]:
    """Each nonempty word of `words` with its statistics, equal to
    `word_stats(w, ham)`, from one `_Graph` that `polyomino._build_each`
    keeps per prefix: a word rebuilds only the lines past the letters it
    shares with the previous word, and its record reads the running
    counts and the DP's frontier states, both kept per line, so the DP
    runs only over the rebuilt lines (and those looked up in the
    `_Graph`'s memo)."""
    g = _Graph()
    for w in _build_each(words, g):
        yield w, _record(g, ham)


def to_dot(geo: Geometry, name: str = "G") -> str:
    """DOT rendering for external graph viewers: each vertex named and
    placed at the x,y of its id 3x + y, in ascending id order, then each
    edge in the geometry's ascending order."""
    at = {v: "%d,%d" % divmod(v, 3) for v in geo.vertices}
    lines = [f"graph {name} {{"]
    lines += [f'  "{at[v]}" [pos="{at[v]}!"];' for v in geo.vertices]
    lines += [f'  "{at[u]}" -- "{at[v]}";' for u, v in geo.edges]
    lines.append("}")
    return "\n".join(lines)
