"""Exact enumeration of binary words avoiding k consecutive 1's, their
bargraph polyominoes and grid graphs, with generating-function expansion
and brute-force verification throughout."""

from .words import (
    Word,
    count_words,
    enumerate_words,
    generalized_fibonacci,
    is_kbonacci,
    iter_words,
    reverse,
)
from .polyomino import Polyomino, area, from_word, semiperimeter, semiperimeter_closed
from .graph import (
    WordStats,
    build_graph,
    degree_profile,
    grid_hamiltonian_rule,
    is_hamiltonian,
    word_stats,
)
from .series import (
    MultiPoly,
    RationalGF,
    expand,
    expand_ints,
    gf_degree,
    gf_graph,
    gf_hamiltonian,
    gf_named_total,
    gf_polyomino,
    total_weight_series,
)

__version__ = "0.1.0"

__all__ = [
    "Word", "count_words", "enumerate_words", "generalized_fibonacci",
    "is_kbonacci", "iter_words", "reverse",
    "Polyomino", "area", "from_word", "semiperimeter", "semiperimeter_closed",
    "WordStats", "build_graph", "degree_profile", "grid_hamiltonian_rule",
    "is_hamiltonian", "word_stats",
    "MultiPoly", "RationalGF", "expand", "expand_ints", "gf_degree",
    "gf_graph", "gf_hamiltonian", "gf_named_total", "gf_polyomino",
    "total_weight_series",
    "__version__",
]
