"""The odd-run rule proved on the Hamiltonicity DP itself:
`graph.check_ham_rule` runs the DP's step, `graph._step`, over the line
table as a finite automaton, whose verdict on each word is the sweep's,
and proves it equal to the rule of `graph.hamiltonian_by_odd_runs`."""

from kbonacci import graph, polyomino
from kbonacci.words import Word

START = ((), frozenset([()]))
# the frontiers after a line, on ids relative to its base (the corners
# 3, 4, ... of the next line), each with its states: per frontier vertex
# the other end of its chosen path
SEVEN_FRONTIERS = {
    START,
    ((3, 4), frozenset({(4, 3)})),  # one path with both ends on a height-1 line
    # ... and the cycle of the first cell closed early, after "00"; the
    # mark dies at the next line
    ((3, 4), frozenset({(4, 3), graph._CLOSED})),
    ((3, 4, 5), frozenset({(5, 4, 3)})),
    ((3, 4, 5), frozenset({(3, 5, 4), (4, 3, 5)})),
    ((3, 4), frozenset()),  # no state left: after an even run ("110")
    ((3, 4, 5), frozenset()),  # the same on a height-2 line ("1101")
}


def accepted(max_n: int) -> dict[tuple[int, ...], bool]:
    """Whether `_step`, run over the current line table as
    `check_ham_rule` runs it, closes a cycle on the closing line of each
    nonempty binary word of length <= max_n."""
    lines = polyomino._LINES
    out = {}
    level = {(): (0, START)}
    for _ in range(max_n):
        level = {bits + (b,): (b + 1, graph._step(f, 3 if left else 0, *lines[left, b + 1]))
                 for bits, (left, f) in level.items() for b in (0, 1)}
        for bits, (left, f) in level.items():
            out[bits] = graph._CLOSED in graph._step(f, 3, *lines[left, 0])[1]
    return out


def searched(bits: tuple[int, ...]) -> bool:
    """The DP on the geometry built from the current line table, read as
    one line (`has_hamiltonian_cycle`), not line by line."""
    geo = polyomino.geometry(polyomino.Polyomino(tuple(b + 1 for b in bits), 2))
    return graph.has_hamiltonian_cycle(geo.vertices, geo.edges)


def test_the_rule_is_proved_over_seven_frontiers():
    check = graph.check_ham_rule()
    assert check.counterexample is None
    assert check.frontiers == SEVEN_FRONTIERS
    assert check.pairs == 7


def test_the_automaton_accepts_exactly_the_hamiltonian_words():
    verdicts = accepted(9)
    assert len(verdicts) == 2 ** 10 - 2
    swept = {w.bits: s.ham for w, s in graph.sweep_stats(
        (Word(bits, 11) for bits in verdicts), True)}
    for bits, closes in verdicts.items():
        assert closes is searched(bits), bits
        assert swept[bits] == closes, bits
        assert closes is graph.hamiltonian_by_odd_runs(Word(bits, 11)), bits


def test_the_automaton_follows_the_line_table(monkeypatch):
    """Each side dropped from the table changes the automaton as it changes
    the graph.  The proof fails for 21 of the 28 drops, each time naming a
    word on which the rule and the one-line DP differ, the shortest and
    lexicographically least; the other 7 leave every word's Hamiltonicity
    as it was, as far as the DP sees."""
    table = dict(polyomino._LINES)
    failing = 0
    for key, (corners, sides) in table.items():
        for i in range(len(sides)):
            mutated = {**table, key: (corners, sides[:i] + sides[i + 1:])}
            monkeypatch.setattr(polyomino, "_LINES", mutated)
            verdicts = accepted(6)
            for bits, closes in verdicts.items():
                assert closes is searched(bits), (key, sides[i], bits)
            found = graph.check_ham_rule().counterexample
            # the words of length <= 6 on which the rule fails, shortest
            # first, then in lexicographic order
            wrong = sorted((len(bits), bits) for bits, closes in verdicts.items()
                           if closes is not graph.hamiltonian_by_odd_runs(Word(bits, 7)))
            if found is None:
                assert not wrong, (key, sides[i])
            else:
                failing += 1
                bits = tuple(map(int, found))
                assert searched(bits) is not graph.hamiltonian_by_odd_runs(Word(bits, 7))
                assert len(found) > 6 if not wrong else bits == wrong[0][1]
    assert failing == 21


def test_the_counterexample_is_the_least_of_the_shortest_words(monkeypatch):
    # a DFA that accepts no word: both "0" and "1" are Hamiltonian
    monkeypatch.setattr(graph, "ODD_RUN_ACCEPT", (False,) * 4)
    assert graph.check_ham_rule().counterexample == "0"


def test_a_start_that_cannot_close_is_not_accepted():
    # the empty word: there is no line between two missing columns, so
    # the start node, where the sweep starts too, is excepted from the
    # proof although the DFA accepts in its start state
    assert (0, 0) not in polyomino._LINES
    assert graph._Graph().frontiers == [(0, START)]
    assert graph._CLOSED not in START[1]
    assert graph.ODD_RUN_ACCEPT[0] is True
    assert graph.check_ham_rule().counterexample is None
