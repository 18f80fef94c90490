"""Grid graphs of bargraph polyominoes: cell corners are vertices, cell
sides are edges.  All vertices have degree 2, 3 or 4.

The degree profile, the Hamiltonicity search and the mirror x -> n - x
have one implementation each, on integer vertex ids: `degree_counts`,
`has_hamiltonian_cycle` and `mirrored`.  The first two read a private
`_Graph`, the vertex and edge lists of `polyomino._Lines` built line by
line by `polyomino._add_lines`, which also keeps per line each vertex's
incidence list, the counts of finished vertices by degree, and two
parity counts: the odd ids, and the edges from an odd id to an even
one.  One private record builder reads a word's statistics off
it, each from the grid graph (area and semiperimeter by Euler's
formula): `sweep_stats` takes a sequence of words on one `_Graph`, which
`polyomino._build_each` cuts back to the letters a word shares with the
previous one and extends from there, so all of these are reused for the
kept lines; `word_stats` is the sweep of one word, and `degree_counts`
and `has_hamiltonian_cycle` build a `_Graph` in one go.  The `GridGraph`
functions relabel their (x, y) vertices to ids with the parity of x + y
first.  The search refutes a graph whose ids of one parity are joined
only to ids of the other, in sets of different sizes, before it
backtracks, which holds for every graph.
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


def _relabel(g: GridGraph) -> tuple[list[int], list[tuple[int, int]],
                                    Callable[[int], Vertex]]:
    """`g` on the integer ids h (x - x0) + (y - y0), where (x0, y0) is the
    least x and least y and h the least odd number above every y - y0:
    ids order as the (x, y) pairs do, and two ids have the same parity
    iff their vertices' x + y do, so every side of the grid joins an odd
    id to an even one.  Returns the ids, ascending, the edges as id pairs
    in ascending (that is, sorted `g.edges`) order, and the map back."""
    x0 = min((x for x, _ in g.vertices), default=0)
    y0 = min((y for _, y in g.vertices), default=0)
    h = max((y - y0 for _, y in g.vertices), default=0) + 1 | 1
    label = {(x, y): h * (x - x0) + y - y0 for x, y in g.vertices}
    return (sorted(label.values()), sorted((label[u], label[v]) for u, v in g.edges),
            lambda i: (i // h + x0, i % h + y0))


def degree_counts(vertices: Sequence[int], edges: Sequence[tuple[int, int]],
                  corner: Callable[[int], Vertex] = lambda v: divmod(v, 3),
                  ) -> tuple[int, int, int]:
    """Counts of vertices of degree 2, 3 and 4 of a graph on integer ids
    (distinct, non-negative and ascending `vertices`, as
    `has_hamiltonian_cycle` takes them); `corner` names a vertex in an
    error, by default as the (x, y) of id 3x + y."""
    return _Graph.of(vertices, edges).degrees(corner)


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
    in `tally[0]`.  `odd` counts the odd ids and `cross` the edges from
    an odd id to an even one, which `refuted` reads.  `of` builds a graph
    of any vertices and edges as one line; a sweep's graph equals the one
    `of` builds from its lists."""

    def __init__(self) -> None:
        super().__init__()
        self.incident: list[list[tuple[int, int]]] = []
        self.tally = [0] * 5
        self.odd = 0
        self.cross = 0

    @classmethod
    def of(cls, vertices: Sequence[int], edges: Sequence[tuple[int, int]]) -> _Graph:
        """The graph of `vertices`, distinct non-negative int ids in
        ascending order, and `edges`, pairs of them, as one line; any
        other input is a `ValueError`."""
        ids = list(vertices)
        if (any(type(v) is not int for v in ids) or ids != sorted(set(ids))
                or ids and ids[0] < 0):
            raise ValueError("vertex ids must be distinct non-negative ints in ascending order")
        listed = set(ids)
        if not all(type(u) is type(v) is int and u in listed and v in listed
                   for u, v in edges):
            raise ValueError("every edge end must be a listed vertex id")
        g = cls()
        g.cut(0, ids[-1] + 1 if ids else 0)
        g.add(0, ids, edges)
        g.finish(0, 0)
        return g

    def cut(self, x: int, size: int) -> None:
        nv, ne = self.marks[x]
        incident, tally = self.incident, self.tally
        odd = self.odd
        for v in self.vertices[nv:]:
            d = len(incident[v])
            tally[d if d < 5 else 0] -= 1
            odd -= v & 1
        cross = self.cross
        for u, v in self.edges[ne:]:
            incident[u].pop()
            incident[v].pop()
            cross -= (u ^ v) & 1
        self.odd, self.cross = odd, cross
        super().cut(x, size)
        if len(incident) < size:
            incident += [[] for _ in range(size - len(incident))]

    def finish(self, first: int, i: int) -> None:
        incident, cross = self.incident, self.cross
        for u, v in self.edges[i:]:
            incident[u].append((i, v))
            incident[v].append((i, u))
            cross += (u ^ v) & 1
            i += 1
        self.cross = cross
        tally, odd = self.tally, self.odd
        for v in self.vertices[first:]:
            d = len(incident[v])
            tally[d if d < 5 else 0] += 1
            odd += v & 1
        self.odd = odd

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
        """Whether the id parity refutes a Hamiltonian cycle: every edge
        joins an odd id to an even one, and the odd ids are not half the
        vertices (`has_hamiltonian_cycle`)."""
        return self.cross == len(self.edges) and 2 * self.odd != len(self.vertices)

    def hamiltonian(self) -> bool:
        """`has_hamiltonian_cycle` of the graph as it stands."""
        if len(self.vertices) < 3:
            raise ValueError("Hamiltonicity needs at least 3 vertices")
        return not self.refuted() and _search(self.vertices, self.edges, self.incident)


def has_hamiltonian_cycle(vertices: Sequence[int],
                          edges: Sequence[tuple[int, int]]) -> bool:
    """Decide Hamiltonicity of a graph on integer ids (distinct,
    non-negative and ascending `vertices`; every edge end one of them,
    else a `ValueError`): refute it at once by the parity of its ids, and
    else backtrack with forced-edge propagation.

    The refutation holds for every graph.  When every edge joins an odd
    id to an even one, the odd and the even ids are the two sides of a
    bipartite graph, and a Hamiltonian cycle alternates between them, so
    the odd ids are then half the vertices or there is no cycle.  Where
    an edge joins two ids of one parity, nothing is refuted and the
    search decides.  Every grid graph here meets the rule: a side joins
    (x, y) to (x + 1, y) or (x, y + 1), so its ends' x + y differ by 1,
    and the ids 3x + y of `polyomino` and those of `_relabel` both have
    the parity of x + y (3 and h are odd).  A word's grid graph is
    connected, so its parity classes are its only two sides, and no
    other 2-colouring refutes more.

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
    parity counts and incidence lists they read as they stand.
    """
    return _Graph.of(vertices, edges).hamiltonian()


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
    shares with the previous word, and its record reads the degree
    counts, the refutation the parity counts and the search the incidence
    lists, all kept per line.  The search still makes its own arrays,
    over the word's ids, per call."""
    g = _Graph()
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
