"""Grid graphs of bargraph polyominoes: cell corners are vertices, cell
sides are edges.  All vertices have degree 2, 3 or 4.

A graph is a `polyomino.Geometry`, on integer vertex ids.  The degree
profile, Hamiltonicity and the mirror x -> n - x have one implementation
each: `degree_profile`, `is_hamiltonian` and `mirrored`.  Two per-line
rules read a line, its corners and sides as `polyomino._LINES` gives
them: `_corner_degrees` counts its corners by degree, reading the line
before it too, and `_step` is the one step of a Hamiltonian-cycle DP.
`degree_profile` and `is_hamiltonian` run them once on any graph, read
as one line.  Over the table they make a finite automaton, `_Automaton`,
a dict whose node is what the next line's rules read and whose edge, one
line, is looked up by subscription, `lines[node + right]`, and holds the
node after it and the line's counts; a missing edge is computed and
stored at its first lookup, and each user numbers its nodes and edges as
it walks them.  One private record builder, `sweep_stats`, reads every
statistic of a word off the grid graph (area and semiperimeter by
Euler's formula): it walks a word's lines on the automaton, resuming
each word at the node kept before the first line it does not share with
the previous word (`polyomino._kept_lines`), so a rebuilt line costs one
subscription; `word_stats` is the sweep of one word.
Hamiltonicity also has one O(n) fast path, `hamiltonian_by_odd_runs`,
which `check_ham_rule` proves equal to the DP on every word by a search
over the same automaton; the DP stays as the rule's independent oracle.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from operator import add
from typing import NamedTuple

from . import polyomino
from .polyomino import Geometry, Polyomino, by_euler, geometry
from .words import Word


def build_graph(p: Polyomino) -> Geometry:
    """Vertices = corners of every cell, edges = sides of every cell: the
    polyomino's `geometry`.  This name, `degree_profile`, `is_hamiltonian`
    and `mirrored` are kept because the benchmark's tracer and self-tests
    look them up by name."""
    return geometry(p)


def _one_line(g: Geometry) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The vertices of `g`, distinct non-negative int ids in ascending
    order, and its edges, pairs of them, as one line: edges as (lower,
    upper) pairs in ascending order.  Any other graph is a `ValueError`."""
    ids = tuple(g.vertices)
    if (any(type(v) is not int for v in ids) or list(ids) != sorted(set(ids))
            or ids and ids[0] < 0):
        raise ValueError("vertex ids must be distinct non-negative ints in ascending order")
    listed = set(ids)
    if not all(type(u) is type(v) is int and u in listed and v in listed
               for u, v in g.edges):
        raise ValueError("every edge end must be a listed vertex id")
    return ids, tuple(sorted((u, v) if u < v else (v, u) for u, v in g.edges))


def degree_profile(g: Geometry) -> tuple[int, int, int]:
    """Counts of vertices of degree 2, 3 and 4 of a graph on integer ids,
    taken as `is_hamiltonian` takes them; a vertex of any other degree is
    a `ValueError` that names it as the (x, y) of its id 3x + y."""
    return _corner_degrees(0, (), *_one_line(g))


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


def _corner_degrees(shift: int, before: Sequence[tuple[int, int]], corners: Sequence[int],
                    sides: Sequence[tuple[int, int]]) -> tuple[int, int, int]:
    """Counts of a line's `corners` of degree 2, 3 and 4, from its `sides`
    and the sides `before` of the line before it, whose base id was
    `shift` below this one's (all as offsets from their line's base).  No
    other side meets them: each side's lower end lies in the line that
    adds it and its upper end in that line or the next.  A corner of any
    other degree is a `ValueError` that names the first one as the
    (x, y) of its offset 3x + y: the graph's own id in `degree_profile`,
    whose one line has base 0.  No line of `polyomino._LINES` has such a
    corner (the walk of the whole `_Automaton` in the tests)."""
    degree = dict.fromkeys(corners, 0)
    for end in [end - shift for side in before for end in side]:
        if end in degree:
            degree[end] += 1
    for side in sides:
        for end in side:
            if end in degree:
                degree[end] += 1
    counts = [0, 0, 0, 0, 0]
    for c, d in degree.items():
        if not 2 <= d <= 4:
            raise ValueError(f"vertex {divmod(c, 3)} has degree {d}, outside {{2,3,4}}")
        counts[d] += 1
    return counts[2], counts[3], counts[4]


_CLOSED = "closed"
# the DP's frontier before the first line: no vertex, one empty state
_START = ((), frozenset([()]))


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
    `polyomino._add_lines` ascend line by line and each side's lower end
    lies in the line that adds it.  A corner that no side of its line
    meets leaves at the start.  So the frontier's vertices depend only on
    the position, not the state.  A chosen side that joins the two ends
    of one path closes the cycle, which it may do only when every other
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


class _Automaton(dict):
    """The lines of `polyomino._LINES` as a finite automaton, numbered as
    it is walked (the transfer-matrix method, Stanley, EC1 4.7).  A node
    is what the next line's rules read: the left height of the next line
    (0 before the first line), the previous line's sides when `counts`
    is set, else (), for `_corner_degrees`, and the DP's frontier when
    `ham` is set, else None, for `_step`.  Node i has the number 3i, and
    the subscription `lines[node + right]` of an automaton `lines` is the
    line between a column of the node's left height and one of height
    `right` (0: the closing line), as the pair (number of the node after
    it, the line's increment of vertices, edges and vertices of degree 2,
    3 and 4, or () without `counts`).  A frontier holds ids relative to
    its line's base, so both depend only on the node and `right`, and
    `__missing__` computes each edge once, at its first lookup; a user
    keeps its own automaton, dropped with it.  The nodes are finitely
    many (`check_ham_rule`)."""

    __slots__ = ("keys", "numbers", "counts")

    def __init__(self, counts: bool, ham: bool) -> None:
        start = (0, (), _START if ham else None)
        self.keys = [start]  # keys[i]: node 3i
        self.numbers = {start: 0}
        self.counts = counts

    def __missing__(self, edge: int) -> tuple[int, tuple[int, ...]]:
        """Compute and store the edge `edge = node + right`."""
        i, right = divmod(edge, 3)
        left, before, frontier = self.keys[i]
        corners, sides = polyomino._LINES[left, right]
        shift = 3 if left else 0
        if frontier is not None:
            frontier = _step(frontier, shift, corners, sides)
        increment: tuple[int, ...] = ()
        if self.counts:
            increment = (len(corners), len(sides),
                         *_corner_degrees(shift, before, corners, sides))
        key = (right, sides if self.counts else (), frontier)
        after = self.numbers.get(key)
        if after is None:
            after = self.numbers[key] = 3 * len(self.keys)
            self.keys.append(key)
        value = self[edge] = (after, increment)
        return value


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

    A word's graph is built from `polyomino._LINES` one line at a time,
    each line 3 ids above the one before, and the sweep walks the same
    lines on an `_Automaton`; here its nodes are (left height, frontier),
    with no counts.  The letter b reads the line `lines[node + b + 1]`,
    whose right column has height b + 1, and a word is Hamiltonian iff
    `_CLOSED` is in the frontier after its closing line, `lines[node]`
    (right height 0).  A breadth first search, letter 0 before 1, over
    the reachable (node, DFA state) pairs compares that with the DFA at
    each pair.  The pairs are finitely many, so if every reached pair
    agrees, the two agree on every word of every length, and so for
    every k; the first pair that does not is reached by a shortest word,
    the least of those in lexicographic order.  The start pair, the
    empty word, is excepted: it has no polyomino and no closing line.
    The table is read when this is called, not at import."""
    lines = _Automaton(False, True)
    keys = lines.keys
    words = {(0, 0): ""}
    queue = deque([(0, 0)])
    counterexample = None
    while queue:
        node, s = pair = queue.popleft()
        word = words[pair]
        if word:
            closing = lines[node][0]
            if (_CLOSED in keys[closing // 3][2][1]) != ODD_RUN_ACCEPT[s]:
                counterexample = word
                break
        for b in (0, 1):
            after = lines[node + b + 1][0], ODD_RUN_STEP[s][b]
            if after not in words:
                words[after] = word + str(b)
                queue.append(after)
    return RuleCheck(frozenset(keys[node // 3][2] for node, _ in words), len(words),
                     counterexample)


def is_hamiltonian(g: Geometry) -> bool:
    """Decide Hamiltonicity of a graph on integer ids (distinct,
    non-negative and ascending `g.vertices`; every end of `g.edges` one of
    them, else a `ValueError`) by a frontier DP over its edges in ascending
    order of their ends (Knuth's SIMPATH, TAOCP 7.1.4; the
    transfer-matrix method), whatever the order of `g.edges`.

    Each edge is left out or put in a set of chosen edges; a state says,
    for each vertex of the frontier, how many chosen edges it has and
    which vertex ends its chosen path.  `_step` reads one line; here the
    graph is one line, read in one go, and `sweep_stats` runs it once per
    line of the automaton it walks.  Time is linear in the edges while
    the frontier stays bounded: the vertices met by an edge so far and by
    an edge still to come, at most about one column of a grid graph on
    ids in (x, y) order.  Read in a shuffled order, a grid's edges would
    let the frontier grow to most of its vertices, and the states with
    it, hence the sort.
    """
    ids, edges = _one_line(g)
    if len(ids) < 3:
        raise ValueError("Hamiltonicity needs at least 3 vertices")
    return _CLOSED in _step(_START, 0, ids, edges)[1]


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


def word_stats(w: Word) -> WordStats:
    """The statistics of a nonempty word, Hamiltonicity included, read off
    the grid graph of its polyomino: the sweep of `sweep_stats` on the one
    word.  Each call builds its own `_Automaton` and pays every line step
    again, so a loop over words should call `sweep_stats` once instead."""
    return next(sweep_stats((w,), True))[1]


def sweep_stats(words: Iterable[Word], ham: bool) -> Iterator[tuple[Word, WordStats]]:
    """Each nonempty word of `words` with its statistics, equal to
    `word_stats(w)` but for `ham`, all read off its grid graph (area and
    semiperimeter by Euler's formula, `polyomino.Geometry`), with
    Hamiltonicity decided only when `ham` is set.  The sweep walks each
    word's lines on one `_Automaton` and keeps per line the node before
    it and the running counts of the lines before it, so a word resumes
    at its first line not shared with the previous word
    (`polyomino._kept_lines`) and a rebuilt line costs one subscription
    of the automaton, `lines[node + b + 1]`, and one sum of count
    tuples."""
    lines = _Automaton(True, ham)
    keys = lines.keys
    path = [(0, (0, 0, 0, 0, 0))]  # path[x]: node before line x, counts of lines < x
    for w, x in polyomino._kept_lines(words):
        bits = w.bits
        del path[x + 1:]
        node, counts = path[x]
        for b in bits[x:]:
            node, increment = lines[node + b + 1]
            counts = tuple(map(add, counts, increment))
            path.append((node, counts))
        node, increment = lines[node]
        nv, ne, d2, d3, d4 = map(add, counts, increment)
        yield w, WordStats(*by_euler(nv, ne), nv, ne, d2, d3, d4,
                           int(_CLOSED in keys[node // 3][2][1]) if ham else None)


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
