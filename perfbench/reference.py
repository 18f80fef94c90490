"""Independent reference values that the benchmark checks kbonacci against.

Nothing here imports kbonacci.  The statistics come from one table of
local contributions: a word's bargraph is a row of columns of height 1 or
2, and every statistic is a sum over columns plus a sum over the vertical
lines between neighbouring columns (including the two outer sides), each
term depending only on the one or two heights involved.  The same table
gives per-word values (for brute-force polynomials at small n) and a
transfer-matrix dynamic program (for exact totals at any n).

Hamiltonicity uses the odd-run rule: a word's grid graph has a
Hamiltonian cycle iff every maximal run of 1's has odd length.  The
self-tests check the rule against kbonacci's backtracker.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import product

FAMILY_VARS = {
    "poly": ("p", "q"),            # semiperimeter, area
    "graph": ("p", "q"),           # edges, vertices
    "degree": ("q2", "q3", "q4"),  # vertices of degree 2, 3, 4
    "ham": ("q",),                 # 1 iff the grid graph is Hamiltonian
}

# additive statistics, in the order of the contribution vectors below;
# "perimeter" is accumulated as the full perimeter and halved at the end
STATS = ("area", "perimeter", "vertices", "edges", "deg2", "deg3", "deg4")
TOTALS = STATS + ("ham",)


def _column(h: int) -> tuple[int, ...]:
    # h cells, bottom and top sides on the boundary, h + 1 horizontal edges
    return (h, 2, 0, h + 1, 0, 0, 0)


def _side(a: int, b: int) -> tuple[int, ...]:
    """Contribution of the vertical line between a column of height a and
    one of height b (0 stands for no column)."""
    m = max(a, b)
    deg = [0] * 5
    for y in range(m + 1):
        d = (0 < a and y <= a) + (0 < b and y <= b) + (y >= 1) + (y < m)
        deg[d] += 1
    return (0, abs(a - b), m + 1, m, deg[2], deg[3], deg[4])


def _add(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(u, v))


_COLUMN = {h: _column(h) for h in (1, 2)}
_SIDE = {(a, b): _side(a, b) for a in (0, 1, 2) for b in (0, 1, 2) if a or b}


def count_words(n: int, k: int) -> int:
    """Number of binary words of length n with no run of k 1's: F(n+2, k),
    by a running sum over a window of the last k values."""
    window = deque([0] * (k - 1) + [1])  # F(2-k) .. F(1)
    total = 1                            # sum of the window
    for _ in range(n + 1):               # F(2) .. F(n+2)
        new = total
        total += new - window.popleft()
        window.append(new)
    return window[-1]


def words(n: int, k: int) -> list[str]:
    """All valid words of length n in lexicographic order (0 < 1)."""
    bad = "1" * k
    return [w for w in ("".join(b) for b in product("01", repeat=n)) if bad not in w]


def is_hamiltonian(word: str) -> bool:
    """The odd-run rule."""
    return all(len(run) % 2 == 1 for run in word.split("0") if run)


def word_stats(word: str) -> dict[str, int]:
    """Area, semiperimeter ("perimeter"), vertex and edge counts, degree
    counts and Hamiltonicity (0/1) of one nonempty word."""
    heights = [int(c) + 1 for c in word]
    vec = (0,) * len(STATS)
    for a, b in zip([0] + heights, heights + [0]):
        vec = _add(vec, _SIDE[a, b])
    for h in heights:
        vec = _add(vec, _COLUMN[h])
    stats = dict(zip(STATS, vec))
    stats["perimeter"] //= 2
    stats["ham"] = int(is_hamiltonian(word))
    return stats


def monomial(family: str, stats: dict[str, int]) -> tuple[int, ...]:
    if family == "poly":
        return (stats["perimeter"], stats["area"])
    if family == "graph":
        return (stats["edges"], stats["vertices"])
    if family == "degree":
        return (stats["deg2"], stats["deg3"], stats["deg4"])
    if family == "ham":
        return (stats["ham"],)
    raise ValueError(f"unknown family {family!r}")


class Oracle:
    """Reference values for one benchmark run, each computed once."""

    def __init__(self) -> None:
        self._polys: dict[tuple[str, int, int], dict[tuple[int, ...], int]] = {}
        self._totals: dict[int, list[dict[str, int]]] = {}
        self._counts: dict[tuple[int, int], int] = {}
        self._stats: dict[tuple[int, int], list[tuple[str, dict[str, int]]]] = {}

    def count(self, n: int, k: int) -> int:
        if (n, k) not in self._counts:
            self._counts[n, k] = count_words(n, k)
        return self._counts[n, k]

    def word_table(self, n: int, k: int) -> list[tuple[str, dict[str, int]]]:
        """Every valid word of length n with its statistics, in order."""
        if (n, k) not in self._stats:
            self._stats[n, k] = [(w, word_stats(w)) for w in words(n, k)]
        return self._stats[n, k]

    def poly(self, family: str, k: int, n: int) -> dict[tuple[int, ...], int]:
        """Brute-force x^n coefficient of a family's generating function."""
        key = (family, k, n)
        if key not in self._polys:
            self._polys[key] = dict(Counter(
                monomial(family, s) for _, s in self.word_table(n, k)))
        return self._polys[key]

    def totals(self, k: int, n: int) -> dict[str, int]:
        """Totals of every statistic over all length-n words (n >= 1)."""
        table = self._totals.get(k, [])
        if len(table) <= n:
            table = _dp_totals(k, max(n, 2 * len(table)))
            self._totals[k] = table
        return table[n]


def _dp_totals(k: int, n_max: int) -> list[dict[str, int]]:
    """Totals for n = 0..n_max by a transfer matrix over the trailing run
    of 1's (state r = 0..k-1, plus the empty word).

    cnt[s] counts words ending in state s, tot[s] sums their statistic
    vectors without the right outer side, and ham[s] counts those whose
    closed runs of 1's are all odd.
    """
    start = k                                # the empty word
    height = [1] + [2] * (k - 1) + [0]       # last column's height per state
    cnt = [0] * (k + 1)
    tot = [(0,) * len(STATS) for _ in range(k + 1)]
    ham = [0] * (k + 1)
    cnt[start] = ham[start] = 1
    out = [dict.fromkeys(TOTALS, 0)]
    for _ in range(n_max):
        ncnt = [0] * (k + 1)
        ntot = [(0,) * len(STATS) for _ in range(k + 1)]
        nham = [0] * (k + 1)
        for s in range(k + 1):
            if not cnt[s]:
                continue
            run = 0 if s == start else s
            for bit in (0, 1):
                r = run + 1 if bit else 0
                if r >= k:
                    continue
                h = bit + 1
                step = _add(_COLUMN[h], _SIDE[height[s], h])
                ncnt[r] += cnt[s]
                ntot[r] = tuple(t + u + cnt[s] * c
                                for t, u, c in zip(ntot[r], tot[s], step))
                if bit or run % 2 == 1 or run == 0:
                    nham[r] += ham[s]
        cnt, tot, ham = ncnt, ntot, nham
        vec = [0] * len(STATS)
        for s in range(k):
            right = _SIDE[height[s], 0]
            for i in range(len(STATS)):
                vec[i] += tot[s][i] + cnt[s] * right[i]
        row = dict(zip(STATS, vec))
        row["perimeter"] //= 2
        row["ham"] = sum(ham[s] for s in range(k) if s == 0 or s % 2 == 1)
        out.append(row)
    return out
