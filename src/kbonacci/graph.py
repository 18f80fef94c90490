"""Grid graphs of bargraph polyominoes: cell corners are vertices, cell
sides are edges.  All vertices have degree 2, 3 or 4.

The degree profile, the Hamiltonicity search and the mirror x -> n - x
have one implementation each, on integer vertex ids: `degree_counts`,
`has_hamiltonian_cycle` and `mirrored`.  One private record builder feeds
the first two a word's `polyomino` geometry and is the one source of
every per-word statistic, each read off the grid graph (area and
semiperimeter by Euler's formula): `word_stats` builds one word's
geometry, and `sweep_stats` takes a sequence of words on
`polyomino.geometries`, which rebuilds only the lines past the letters a
word shares with the previous one.  The `GridGraph` functions relabel
their (x, y) vertices to their ranks first.  The search refutes a
bipartite graph with sides of different sizes before it backtracks,
which holds for every graph.  Hamiltonicity also has one O(n) fast path,
`hamiltonian_by_odd_runs`, which `frontier.check_ham_rule` proves equal
to the search on every word; the search stays as its independent oracle.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from .polyomino import Geometry, Polyomino, from_word, geometries, geometry
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
    deg = [0] * (vertices[-1] + 1) if vertices else []
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    counts = [0] * 5
    for v in vertices:
        d = deg[v]
        if d < 2 or d > 4:
            raise ValueError(f"vertex {corner(v)} has degree {d}, outside {{2,3,4}}")
        counts[d] += 1
    return counts[2], counts[3], counts[4]


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
    """
    n = len(vertices)
    if n < 3:
        raise ValueError("Hamiltonicity needs at least 3 vertices")
    size = vertices[-1] + 1
    side = [-1] * size
    side[vertices[0]] = 0
    for u, v in edges:
        a, b = side[u], side[v]
        if a == b:  # two uncoloured ends, or an odd cycle
            break
        if a < 0:
            side[u] = 1 - b
        elif b < 0:
            side[v] = 1 - a
    else:
        ones = side.count(1)
        if side.count(0) + ones == n and 2 * ones != n:
            return False

    # each vertex's edges as (edge, its other end) pairs
    incident: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for i, (u, v) in enumerate(edges):
        incident[u].append((i, v))
        incident[v].append((i, u))

    state = [_UNDECIDED] * (len(edges) + 1)  # and a sentinel after the last edge
    chosen_at = [0] * size                # chosen edges at each vertex
    open_at = [len(f) for f in incident]  # undecided edges at each vertex
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


def _record(geo: Geometry, ham: bool) -> WordStats:
    """The statistics of a polyomino, all read off its grid graph (area
    and semiperimeter by Euler's formula, `Geometry`); Hamiltonicity is
    searched for only when `ham` is set."""
    vertices, edges = geo.vertices, geo.edges
    return WordStats(geo.area, geo.semiperimeter, len(vertices), len(edges),
                     *degree_counts(vertices, edges),
                     int(has_hamiltonian_cycle(vertices, edges)) if ham else None)


def word_stats(w: Word, ham: bool) -> WordStats:
    """The statistics of a nonempty word, read off the grid graph of its
    polyomino; Hamiltonicity is searched for only when `ham` is set."""
    return _record(geometry(from_word(w)), ham)


def sweep_stats(words: Iterable[Word], ham: bool) -> Iterator[tuple[Word, WordStats]]:
    """Each nonempty word of `words` with its statistics, equal to
    `word_stats(w, ham)`, built on `polyomino.geometries`: a word rebuilds
    only the lines past the letters it shares with the previous word."""
    for w, geo in geometries(words):
        yield w, _record(geo, ham)


def to_dot(g: GridGraph, name: str = "G") -> str:
    """DOT rendering for external graph viewers."""
    lines = [f"graph {name} {{"]
    for x, y in sorted(g.vertices):
        lines.append(f'  "{x},{y}" [pos="{x},{y}!"];')
    for (ux, uy), (vx, vy) in sorted(g.edges):
        lines.append(f'  "{ux},{uy}" -- "{vx},{vy}";')
    lines.append("}")
    return "\n".join(lines)
