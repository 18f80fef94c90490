"""The frontier automaton of `kbonacci.frontier`: it is built from the line
table, accepts exactly the words whose grid graph the frontier DP finds
Hamiltonian, and proves the odd-run rule of `graph.hamiltonian_by_odd_runs`."""

from kbonacci import frontier, graph, polyomino
from kbonacci.words import Word

# the states named by the frontier method: (height of the column right of
# the line, which of its horizontal sides are on the cycle, paired by label)
FIVE_STATES = {(0, ()), (1, (1, 1)), (2, (0, 1, 1)), (2, (1, 0, 1)), (2, (1, 1, 0))}


def accepted(max_n: int) -> dict[tuple[int, ...], bool]:
    """Whether the frontier automaton of the current line table accepts
    each nonempty binary word of length <= max_n, run on the state sets
    of its prefixes."""
    lines = polyomino._LINES
    out = {}
    level = {(): frozenset([frontier.START])}
    for _ in range(max_n):
        level = {bits + (b,): frozenset(t for f in subset
                                        for t in frontier._successors(lines, f, b + 1))
                 for bits, subset in level.items() for b in (0, 1)}
        for bits, subset in level.items():
            out[bits] = any(frontier.START in frontier._successors(lines, f, 0)
                            for f in subset)
    return out


def searched(bits: tuple[int, ...]) -> bool:
    """The Hamiltonicity DP on the geometry built from the current line table."""
    geo = polyomino.geometry(polyomino.Polyomino(tuple(b + 1 for b in bits), 2))
    return graph.has_hamiltonian_cycle(geo.vertices, geo.edges)


def test_the_rule_is_proved_over_five_states():
    check = frontier.check_ham_rule()
    assert check.counterexample is None
    assert check.states == FIVE_STATES
    assert check.pairs == 5


def test_the_automaton_accepts_exactly_the_hamiltonian_words():
    verdicts = accepted(9)
    assert len(verdicts) == 2 ** 10 - 2
    for bits, closes in verdicts.items():
        assert closes is searched(bits), bits
        assert closes is graph.hamiltonian_by_odd_runs(Word(bits, 11)), bits


def test_the_automaton_follows_the_line_table(monkeypatch):
    """Each side dropped from the table changes the automaton as it changes
    the graph.  The proof fails for 21 of the 28 drops, each time naming a
    word on which the rule and the search differ; the other 7 leave every
    word's Hamiltonicity as it was, as far as the search sees."""
    table = dict(polyomino._LINES)
    failing = 0
    for key, (corners, sides) in table.items():
        for i in range(len(sides)):
            mutated = {**table, key: (corners, sides[:i] + sides[i + 1:])}
            monkeypatch.setattr(polyomino, "_LINES", mutated)
            verdicts = accepted(6)
            for bits, closes in verdicts.items():
                assert closes is searched(bits), (key, sides[i], bits)
            found = frontier.check_ham_rule().counterexample
            rule_holds = all(closes is graph.hamiltonian_by_odd_runs(Word(bits, 7))
                             for bits, closes in verdicts.items())
            if found is None:
                assert rule_holds, (key, sides[i])
            else:
                failing += 1
                bits = tuple(map(int, found))
                assert searched(bits) is not graph.hamiltonian_by_odd_runs(Word(bits, 7))
                assert len(found) > 6 or not rule_holds
    assert failing == 21


def test_a_start_that_cannot_close_is_not_accepted():
    # the empty word: there is no line between two missing columns
    assert frontier._successors(polyomino._LINES, frontier.START, 0) == set()
