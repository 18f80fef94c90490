"""Grid graphs of bargraph polyominoes: cell corners are vertices, cell
sides are edges.  All vertices have degree 2, 3 or 4.

The degree profile, the Hamiltonicity search and the mirror x -> n - x
have one implementation each, on integer vertex ids: `degree_counts`,
`has_hamiltonian_cycle` and `mirrored`.  The first two read a private
`_Graph`, the vertex and edge lists of `polyomino._Lines` built line by
line by `polyomino._add_lines`, which also keeps per line each vertex's
incidence list and the counts of finished vertices by degree and, when
a search will be asked for, the search's 2-colouring pass.  One private
record builder reads a word's statistics off it, each from the grid
graph (area and semiperimeter by Euler's formula): `sweep_stats` takes a
sequence of words on one `_Graph`, which `polyomino._build_each` cuts
back to the letters a word shares with the previous one and extends
from there, so the degree counts, the incidence lists and the colouring
are all reused for the kept lines; `word_stats` is the sweep of one
word, and `degree_counts` and `has_hamiltonian_cycle` build a `_Graph`
in one go.  The `GridGraph` functions relabel their (x, y) vertices to
their ranks first.  The search refutes a bipartite graph with sides of
different sizes before it backtracks, which holds for every graph.
Hamiltonicity also has one O(n) fast path, `hamiltonian_by_odd_runs`,
which `frontier.check_ham_rule` proves equal to the search on every
word; the search stays as its independent oracle.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from .polyomino import Geometry, Polyomino, _build_each, _Lines, by_euler, geometry
from .words import Word

Vertex = tuple[int, int]
Edge = tuple[Vertex, Vertex]

_UNDECIDED, _IN, _OUT = 0, 1, 2


@dataclass(frozen=True)
class GridGraph:
    vertices: frozenset[Vertex]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if u not in self.vertices or v not in self.vertices:
                raise ValueError("edge endpoint outside the vertex set")


def build_graph(p: Polyomino) -> GridGraph:
    """Vertices = corners of every cell, edges = sides of every cell."""
    geo = geometry(p)
    return GridGraph(frozenset(divmod(v, 3) for v in geo.vertices),
                     frozenset((divmod(u, 3), divmod(v, 3)) for u, v in geo.edges))


def _relabel(g: GridGraph) -> tuple[range, list[tuple[int, int]],
                                    Callable[[int], Vertex]]:
    """`g` on the ids 0, 1, ..., each vertex's rank in sorted (x, y)
    order, so that ids order as the (x, y) pairs do.  Returns the ids,
    the edges as id pairs in ascending (that is, sorted `g.edges`) order,
    and the map back."""
    order = sorted(g.vertices)
    rank = {v: i for i, v in enumerate(order)}
    return range(len(order)), sorted((rank[u], rank[v]) for u, v in g.edges), order.__getitem__


def degree_counts(vertices: Sequence[int], edges: Sequence[tuple[int, int]],
                  corner: Callable[[int], Vertex] = lambda v: divmod(v, 3),
                  ) -> tuple[int, int, int]:
    """Counts of vertices of degree 2, 3 and 4 of a graph on integer ids
    (ascending `vertices`); `corner` names a vertex in an error, by
    default as the (x, y) of id 3x + y."""
    return _Graph.of(vertices, edges, False).degrees(corner)


def degree_profile(g: GridGraph) -> tuple[int, int, int]:
    """Counts of vertices of degree 2, 3 and 4."""
    return degree_counts(*_relabel(g))


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


class _Graph(_Lines):
    """The vertex and edge lists of `polyomino._Lines`, built and cut back
    the same way by `polyomino._add_lines`, with what the degree counts
    and the search read kept as well, so that keeping them up costs a
    word of a sweep only the lines it rebuilds.  `finish` takes in the
    new lines' edges and finishes their vertices, whose degrees no later
    line changes; `cut(x, size)` undoes what the dropped lines brought
    and makes room for the ids below `size`.

    Per id, `incident` lists the edges at it as (edge, other end) pairs
    in edge order, so that a cut pops the tail entries of the edges it
    drops; a vertex's degree is the length of its list.  `tally[d]`
    counts the vertices of degree d < 5, with any degree above 4 counted
    in `tally[0]`.  Per id, `side` is its colour in the 2-colouring pass
    of `has_hamiltonian_cycle` (-1: none), and `ones` counts the ids of
    colour 1.  The pass colours the first vertex 0 and runs on each edge
    as it is added; `painted` lists the ids it colours, in order, and
    `stop` is the edge it stopped at (None while it runs; -1 for a graph
    made without `search`, which needs no colouring).  A vertex the pass
    colours is coloured by its first edge: at an earlier edge it would
    have been coloured or stopped the pass.  So a cut pops from `painted`
    the ids whose first edge it drops, which it leaves with no edge, and
    restarts the pass when it drops the edge it stopped at (the undo
    trail of Knuth, TAOCP 7.2.2, Algorithm B).  `of` builds a graph of
    any vertices and edges as one line; a sweep's graph equals the one
    `of` builds from its lists."""

    def __init__(self, search: bool) -> None:
        super().__init__()
        self.incident: list[list[tuple[int, int]]] = []
        self.tally = [0] * 5
        self.side: list[int] = []
        self.painted: list[int] = []
        self.ones = 0
        self.stop: int | None = None if search else -1

    @classmethod
    def of(cls, vertices: Sequence[int], edges: Sequence[tuple[int, int]],
           search: bool) -> _Graph:
        """The graph of ascending `vertices` and `edges`, as one line."""
        g = cls(search)
        g.cut(0, vertices[-1] + 1 if vertices else 0)
        g.add(0, vertices, edges)
        g.finish(0, 0)
        return g

    def cut(self, x: int, size: int) -> None:
        nv, ne = self.marks[x]
        vertices, incident, side, painted, tally = (
            self.vertices, self.incident, self.side, self.painted, self.tally)
        for v in vertices[nv:]:
            d = len(incident[v])
            tally[d if d < 5 else 0] -= 1
        for u, v in self.edges[ne:]:
            incident[u].pop()
            incident[v].pop()
        # the ids left with no edge are the last ones coloured, but the
        # first vertex, which stays coloured while it stays
        keep = 1 if nv else 0
        while len(painted) > keep and not incident[painted[-1]]:
            v = painted.pop()
            self.ones -= side[v]
            side[v] = -1
        if self.stop is not None and self.stop >= ne:
            self.stop = None
        super().cut(x, size)
        if len(incident) < size:
            more = size - len(incident)
            incident += [[] for _ in range(more)]
            side += [-1] * more

    def finish(self, first: int, i: int) -> None:
        vertices, edges, incident = self.vertices, self.edges, self.incident
        side, painted, ones = self.side, self.painted, self.ones
        running = self.stop is None
        if running and vertices and not painted:
            side[vertices[0]] = 0
            painted.append(vertices[0])
        for u, v in edges[i:]:
            incident[u].append((i, v))
            incident[v].append((i, u))
            if running:
                a = side[u]
                b = side[v]
                if a == b:  # two uncoloured ends, or an odd cycle
                    running = False
                    self.stop = i
                elif b < 0:
                    side[v] = 1 - a
                    ones += 1 - a
                    painted.append(v)
                elif a < 0:
                    side[u] = 1 - b
                    ones += 1 - b
                    painted.append(u)
            i += 1
        self.ones = ones
        tally = self.tally
        for v in vertices[first:]:
            d = len(incident[v])
            tally[d if d < 5 else 0] += 1

    def degrees(self, corner: Callable[[int], Vertex] = lambda v: divmod(v, 3),
                ) -> tuple[int, int, int]:
        """Counts of the vertices of degree 2, 3 and 4; a vertex of any
        other degree is a `ValueError` that names the first one by
        `corner`."""
        _, _, d2, d3, d4 = self.tally
        if d2 + d3 + d4 < len(self.vertices):
            v = next(v for v in self.vertices if not 2 <= len(self.incident[v]) <= 4)
            raise ValueError(f"vertex {corner(v)} has degree {len(self.incident[v])}, "
                             "outside {2,3,4}")
        return d2, d3, d4

    def refuted(self) -> bool:
        """Whether the colouring refutes a Hamiltonian cycle: the pass got
        through every edge and coloured every vertex, and not half of
        them 1.  The graph must be made with `search` set."""
        n = len(self.vertices)
        return self.stop is None and len(self.painted) == n and 2 * self.ones != n

    def hamiltonian(self) -> bool:
        """`has_hamiltonian_cycle` of the graph as it stands, which must be
        made with `search` set."""
        if len(self.vertices) < 3:
            raise ValueError("Hamiltonicity needs at least 3 vertices")
        return not self.refuted() and _search(self.vertices, self.edges, self.incident)


def has_hamiltonian_cycle(vertices: Sequence[int],
                          edges: Sequence[tuple[int, int]]) -> bool:
    """Decide Hamiltonicity of a graph on integer ids (ascending
    `vertices`): refute it at once when it is bipartite with sides of
    different sizes, and else backtrack with forced-edge propagation.

    The refutation holds for every graph: a Hamiltonian cycle alternates
    between the two sides of a bipartite graph, so they have the same
    size.  One pass along `edges` 2-colours the graph from its first
    vertex, each edge giving its uncoloured end the colour its other end
    lacks.  It stops at an edge with two uncoloured ends, or with two
    ends of one colour (an odd cycle); only a pass that gets through
    every edge and colours every vertex, which is then a proper
    2-colouring of a connected graph, refutes anything.  In this
    package's ascending edge order every corner of a polyomino but the
    first meets a side from a smaller corner, so the pass colours the
    grid graph of every word.

    The search: a vertex with two chosen edges excludes its remaining
    ones; a vertex with exactly two edges not excluded forces both in (at
    the start: both edges at every degree-2 vertex); closing a cycle
    before all vertices are covered is a dead end.  Branching takes the
    first undecided edge in the order of `edges`, chosen first, so the
    search is deterministic.  Decisions go on a trail; a dead end pops the
    latest pending branch, undoes the trail back to it and decides its
    edge out.  It is one loop, with no recursion limit, and copies nothing
    (Knuth, TAOCP 7.2.2, Algorithm B).

    Both run on a `_Graph` of `vertices` and `edges` built in one go;
    `sweep_stats` runs them on the `_Graph` it keeps per line, whose
    incidence lists and colouring the search reads as they stand.
    """
    return _Graph.of(vertices, edges, True).hamiltonian()


def _search(vertices: Sequence[int], edges: Sequence[tuple[int, int]],
            incident: Sequence[Sequence[tuple[int, int]]]) -> bool:
    """The backtracking of `has_hamiltonian_cycle` on a graph of ascending
    `vertices`: `incident[v]` lists v's edges as (edge, other end) pairs
    in the order of `edges`.  Its arrays span the ids up to the last
    vertex, made afresh on each call."""
    n = len(vertices)
    size = vertices[-1] + 1
    state = [_UNDECIDED] * (len(edges) + 1)  # and a sentinel after the last edge
    chosen_at = [0] * size                # chosen edges at each vertex
    open_at = list(map(len, incident[:size]))  # undecided edges at each vertex
    end = list(range(size))  # at an end of a chosen path: its other end
    trail: list[int] = []    # decided edges, in order
    links: list[int] = []    # (vertex, its previous end) pairs, flattened
    chosen = 0
    # pending branches: the edge tried _IN, and len(trail), len(links), chosen before
    stack: list[tuple[int, int, int, int]] = []
    branch = 0
    # The loop decides `val` on each undecided (edge, far end) pair of
    # `todo`, edges at vertex w, queueing each far end; then it pops the
    # next vertex w of `queue` at which a forcing rule applies, and so
    # on.  A branch is the one pair of its edge, from its first end, with
    # that end queued first, so both ends get settled.  At the start a
    # rule applies only at vertices of degree 2 or less; any other vertex
    # is queued again once an edge at it is decided.
    queue = [v for v in vertices if open_at[v] <= 2]
    todo: Sequence[tuple[int, int]] = ()
    w = val = 0
    while True:
        consistent = True
        while True:
            for e, x in todo:
                if state[e]:  # decided already: _UNDECIDED is 0
                    continue
                state[e] = val
                trail.append(e)
                open_at[w] -= 1
                open_at[x] -= 1
                if val == _IN:
                    chosen += 1
                    chosen_at[w] += 1
                    chosen_at[x] += 1
                    if chosen_at[w] > 2 or chosen_at[x] > 2:
                        consistent = False
                        break
                    a, b = end[w], end[x]
                    if a == x:  # w, x are the two ends of one chosen path
                        if chosen == n:  # the cycle it closes covers every vertex
                            return True
                        consistent = False
                        break
                    links += (a, end[a], b, end[b])
                    end[a] = b
                    end[b] = a
                queue.append(x)
            if not consistent or not queue:
                break
            w = queue.pop()
            have, free = chosen_at[w], open_at[w]
            todo = ()
            if have + free < 2:
                consistent = False
                break
            if not free:
                continue
            if have == 2:
                val = _OUT
            elif have + free == 2:
                val = _IN
            else:
                continue
            todo = incident[w]
        if consistent:
            # edges before the last branch edge are all decided
            branch = state.index(_UNDECIDED, branch)
            if branch < len(edges):
                stack.append((branch, len(trail), len(links), chosen))
                w, x = edges[branch]
                queue, todo, val = [w], ((branch, x),), _IN
                continue
            # every vertex has at most two chosen edges, so n of them
            # means exactly two at each: one cycle through all vertices
            if chosen == n:
                return True
        if not stack:
            return False
        branch, to_trail, to_links, chosen = stack.pop()
        for e in trail[to_trail:]:
            u, v = edges[e]
            open_at[u] += 1
            open_at[v] += 1
            if state[e] == _IN:
                chosen_at[u] -= 1
                chosen_at[v] -= 1
            state[e] = _UNDECIDED
        del trail[to_trail:]
        for i in range(len(links) - 2, to_links - 1, -2):
            end[links[i]] = links[i + 1]
        del links[to_links:]
        w, x = edges[branch]
        queue, todo, val = [w], ((branch, x),), _OUT


# The odd-run rule as a DFA on the letters 0 and 1: state 0 is outside a
# run of 1's, 1 and 2 are inside a run of odd and of even length, and 3
# follows an even run (dead).  ODD_RUN_STEP[s][b] is the state after
# reading b in state s; ODD_RUN_ACCEPT[s] says whether a word that ends
# in state s has every run of 1's odd.  `frontier.check_ham_rule` reads
# these same tables, so its proof covers `hamiltonian_by_odd_runs`.
ODD_RUN_STEP = ((0, 1), (0, 2), (3, 1), (3, 3))
ODD_RUN_ACCEPT = (True, True, False, False)


def hamiltonian_by_odd_runs(w: Word) -> bool:
    """Whether the grid graph of a nonempty word has a Hamiltonian cycle,
    by the rule "every maximal run of 1's has odd length", in O(n).  The
    rule holds for every binary word (`frontier.check_ham_rule`), so for
    every k; `has_hamiltonian_cycle` is its independent oracle."""
    if not w.bits:
        raise ValueError("the empty word has no polyomino")
    state = 0
    for b in w.bits:
        state = ODD_RUN_STEP[state][b]
    return ODD_RUN_ACCEPT[state]


def is_hamiltonian(g: GridGraph) -> bool:
    """Whether `g` has a Hamiltonian cycle, decided by `has_hamiltonian_cycle`.

    The vertices are relabelled to their ranks in sorted (x, y) order, so
    the search branches on edges in sorted (x, y) endpoint order, chosen
    first.
    """
    vertices, edges, _ = _relabel(g)
    return has_hamiltonian_cycle(vertices, edges)


@dataclass(frozen=True)
class WordStats:
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
    Hamiltonicity is searched for only when `ham` is set."""
    nv, ne = len(g.vertices), len(g.edges)
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
    shares with the previous word, and its record reads the counts and
    the search reads the incidence lists and colouring kept per line.
    The search still makes its own arrays, over the word's ids, per call."""
    g = _Graph(ham)
    for w in _build_each(words, g):
        yield w, _record(g, ham)


def to_dot(g: GridGraph, name: str = "G") -> str:
    """DOT rendering for external graph viewers."""
    lines = [f"graph {name} {{"]
    for x, y in sorted(g.vertices):
        lines.append(f'  "{x},{y}" [pos="{x},{y}!"];')
    for (ux, uy), (vx, vy) in sorted(g.edges):
        lines.append(f'  "{ux},{uy}" -- "{vx},{vy}";')
    lines.append("}")
    return "\n".join(lines)
