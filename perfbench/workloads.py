"""The benchmark's workloads: fixed operation lists, perturbed by a seed.

An operation is a dict: {"kind": "cli", "argv": [...]} runs
`kbonacci.cli.main(argv)`, and {"kind": "brute_totals", "n": n, "k": k}
calls `kbonacci.verify.brute_totals(n, k)`.  The seed picks each k, n and
--terms from a range chosen so that a repetition's work stays within
about +-10 % of the default seed's; the program only ever sees the
generated arguments.
"""

from __future__ import annotations

import random

WHY = {
    "oracle": "brute-force sweeps: per-word geometry and Hamiltonicity do "
              "the work, series expansion none",
    "series": "multivariate series expansion and formatting do the work, "
              "many terms with small coefficients; no word is enumerated",
    "verify": "the user's gate command: every layer, with the same sweeps "
              "and expansions repeated across suites",
    "large-n": "exact big integers at large n: counting windows, asymptotics "
               "tables, one-term series with huge coefficients",
}
NAMES = tuple(WHY)


def _cli(*argv: object) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def _near(rng: random.Random, value: int, spread: int) -> int:
    return rng.randint(value - spread, value + spread)


def _oracle(rng: random.Random) -> list[dict]:
    # words of length <= 10 that contain a run of 5 or 6 ones are few, so
    # k = 5, 6 and 7 differ by 3 % in words swept
    top = rng.choice((5, 6, 7))
    ops = [{"kind": "brute_totals", "n": n, "k": k}
           for k in (2, 3, 4, top) for n in range(1, 11)]
    ops.append(_cli("enumerate", "--n", 11, "--k", rng.choice((5, 6, 7)),
                    "--with-stats", "--format", "csv"))
    return ops


def _series(rng: random.Random) -> list[dict]:
    # expansion cost grows like terms^3, so terms move by at most 1.5 %;
    # the graph expansion sets the peak memory (1.7 % more per term) and
    # the degree expansion a large share of the time (5 % more per term),
    # so their terms stay fixed
    return [
        _cli("series", "--family", "poly", "--k", 3, "--terms", _near(rng, 75, 1)),
        _cli("series", "--family", "graph", "--k", 3, "--terms", 75, "--format", "json"),
        _cli("series", "--family", "degree", "--k", 5, "--terms", 60),
        _cli("series", "--family", "ham", "--k", rng.choice((4, 5, 6)),
             "--terms", _near(rng, 600, 10)),
        _cli("series", "--family", "poly", "--k", 4, "--terms", _near(rng, 60, 1),
             "--vars-at-1", "p"),
    ]


def _verify(rng: random.Random) -> list[dict]:
    # ham-cap below max-n turns the longest Hamiltonicity checks into
    # skips; a cap of 6 rather than 7 saves about 6 % of the work
    return [_cli("verify", "--suite", "all", "--max-n", 8, "--max-k", 4,
                 "--ham-cap", rng.choice((6, 7)), "--format", "json")]


def _large_n(rng: random.Random) -> list[dict]:
    degree = rng.choice((2, 3, 4))
    return [
        # both answers exceed 4,300 digits, the default int-to-str limit
        _cli("count", "--n", _near(rng, 30000, 1000), "--k", 2),
        _cli("count", "--n", _near(rng, 15750, 250), "--k", _near(rng, 80, 2)),
        _cli("count", "--n", _near(rng, 4000, 100), "--k", 3),
        # the degree-ratio table is sized to the next power of two above n,
        # so n stays inside one power-of-two bracket per operation
        _cli("asymptotics", "--degree", degree, "--n", _near(rng, 3000, 900)),
        _cli("asymptotics", "--degree", 6 - degree, "--n", _near(rng, 1500, 400)),
        _cli("series", "--family", "deg4-total", "--k", _near(rng, 5, 1),
             "--terms", _near(rng, 2500, 40)),
        _cli("series", "--family", "ham-total", "--k", _near(rng, 6, 1),
             "--terms", _near(rng, 2500, 40)),
        _cli("series", "--family", "edges-total", "--k", _near(rng, 4, 1),
             "--terms", _near(rng, 2500, 40), "--format", "json"),
    ]


_BUILDERS = {"oracle": _oracle, "series": _series, "verify": _verify,
             "large-n": _large_n}


def operations(workload: str, seed: int) -> list[dict]:
    """The operation list of one repetition of `workload` under `seed`."""
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"))


def describe(op: dict) -> str:
    if op["kind"] == "cli":
        return "kbonacci " + " ".join(op["argv"])
    return f"brute_totals(n={op['n']}, k={op['k']})"
