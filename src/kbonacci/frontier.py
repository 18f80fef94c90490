"""Hamiltonicity of the grid graphs as a regular language: a frontier
automaton built from `polyomino`'s line table, and a proof that it
accepts exactly the words of `graph.hamiltonian_by_odd_runs`.

`polyomino.geometry` builds a word's grid graph line by line: line x
(x = 0..n) holds the corners (x, y), the vertical sides between them and
the horizontal sides of the column to its right, at the offsets of
`polyomino._LINES[left, right]` (the heights of the columns on either
side; 0: none) shifted by the id 3x.  A corner of line x touches only
sides of line x and horizontal sides of line x - 1.  So a set of sides
is a Hamiltonian cycle iff every corner of every line has exactly two
of them and they form one cycle, and a scan from left to right can
decide that knowing, after line x, only which horizontal sides of line
x are on the cycle and how they pair up as the two ends of one path
through the lines before (the frontier of Knuth's SIMPATH, TAOCP 7.1.4;
the transfer-matrix method for Hamiltonian circuits of grid graphs,
Stoyan and Strehl 1996).

A frontier state is (h, labels): h is the height of the column right of
the line, and labels[y] for y = 0..h is 0 when the horizontal side at
height y is not on the cycle, else a label that the two ends of one path
share, numbered 1, 2, ... from the bottom up.  The start state (0, ())
precedes line 0.  The letter b reads the line whose right column has
height b + 1, and the word is accepted when its closing line (right
height 0) can close one cycle and so return to (0, ()).  No cycle may
close before that line, so an accepting run is a Hamiltonian cycle and
each Hamiltonian cycle is one accepting run: the automaton accepts
exactly the nonempty words whose grid graph has a Hamiltonian cycle.
A line may admit several choices of sides, so the automaton is
nondeterministic and is compared through its subset automaton.

The comparison searches breadth first, letter 0 before 1, over the
reachable pairs (set of frontier states, state of the odd-run DFA).
Both automata are finite, so if every reached pair accepts alike, the
two agree on every word of every length, and so for every k.  The empty
word's start pair is excepted: the empty word has no polyomino.  The
first pair that does not accept alike is reached by a shortest word,
the least of those in lexicographic order.  Nothing is built at import;
`check_ham_rule` builds the automaton from the tables as they are when
it is called.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

from . import graph, polyomino

State = tuple[int, tuple[int, ...]]
START: State = (0, ())

# a side (u, v) of a line joins two of its corners, or, when v = u + 3,
# the corner at height u to the corner at height u of the next line; in a
# choice of sides the next line's corners are the nodes 3 + y
_NEXT = 3


def _successors(lines: dict, state: State, right: int) -> set[State]:
    """The states after the line between the state's column and one of
    height `right`: one for each choice of that line's sides that gives
    every corner on it exactly two sides of the cycle and closes no
    cycle, except one cycle through everything on the closing line."""
    left, labels = state
    if (left, right) not in lines:
        return set()
    corners, sides = lines[left, right]
    ends = {y: label for y, label in enumerate(labels) if label}
    if not ends.keys() <= set(corners):
        return set()
    # each path through the lines before joins its two ends
    links = [tuple(y for y in ends if ends[y] == label) for label in set(ends.values())]
    out = set()
    for chosen in product((False, True), repeat=len(sides)):
        edges = links + [side for side, c in zip(sides, chosen) if c]
        degree = dict.fromkeys(corners, 0)
        for u, v in edges:
            for node in (u, v):
                if node in degree:
                    degree[node] += 1
        if any(d != 2 for d in degree.values()):
            continue
        root = {node: node for edge in edges for node in edge}

        def find(node: int) -> int:
            while root[node] != node:
                node = root[node]
            return node

        for u, v in edges:
            root[find(u)] = find(v)
        head = {node: find(node) for node in root}
        # a node of the next line ends one side, so its component is a
        # path; a component of corners alone, each with two sides, is a cycle
        paths = {head[node] for node in head if node >= _NEXT}
        cycles = len(set(head.values())) - len(paths)
        if right == 0:
            if cycles == 1 and not paths:
                out.add(START)
        elif not cycles:
            numbers: dict[int, int] = {}
            out.add((right, tuple(
                numbers.setdefault(head[_NEXT + y], len(numbers) + 1)
                if _NEXT + y in head else 0 for y in range(right + 1))))
    return out


@dataclass(frozen=True)
class RuleCheck:
    """The outcome of `check_ham_rule`: the frontier states and the
    (state set, DFA state) pairs reached, and the shortest word on which
    the frontier automaton and the odd-run DFA disagree (None: they
    agree on every nonempty word, which proves the rule)."""

    states: frozenset[State]
    pairs: int
    counterexample: str | None


def check_ham_rule() -> RuleCheck:
    """Compare the frontier automaton of `polyomino._LINES` with the DFA
    `graph.ODD_RUN_STEP`/`ODD_RUN_ACCEPT` over all their reachable pairs."""
    lines = polyomino._LINES
    step, accept = graph.ODD_RUN_STEP, graph.ODD_RUN_ACCEPT
    start = (frozenset([START]), 0)
    words = {start: ""}
    queue = deque([start])
    states: set[State] = set()
    while queue:
        pair = queue.popleft()
        subset, s = pair
        states |= subset
        word = words[pair]
        closes = any(START in _successors(lines, f, 0) for f in subset)
        if word and closes != accept[s]:
            return RuleCheck(frozenset(states), len(words), word)
        for b in (0, 1):
            after = (frozenset(t for f in subset for t in _successors(lines, f, b + 1)),
                     step[s][b])
            if after not in words:
                words[after] = word + str(b)
                queue.append(after)
    return RuleCheck(frozenset(states), len(words), None)
