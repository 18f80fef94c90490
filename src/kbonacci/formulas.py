"""Closed-form sequences, recurrences, identities, telescoping-certificate
checks, and the exact asymptotic degree proportions for the k = 2 family.

Each k = 2 fact is held once: one table of recurrences (`_RULES`), read
by the per-n `RECURRENCES` functions and by `recurrence_sides`, with
`CLOSED_FORMS` and `series_sides`, for the five polynomial families t, v,
d2, d3 and d4, and `DEGREES` for the degree index j, which `verify`'s
formula suite loops over.  The suite reads each recurrence from one walk
(`recurrence_sides`) and decides the degree partition for every n by
cross-multiplying generating functions (`degree_partition_break`).  An
identity's functions each return one evaluation, so a disagreement is a
failing verify row, not an exception.

Binomial convention: C(m, r) = 0 unless 0 <= r <= m, with one extension
on the Pascal diagonal: C(m, m) = 1 also for negative m.  The
degree-count closed-form sums hit C(-1, -1) at n = 1 and the extension is
what makes them agree with the recurrences there; no other operation is
affected (their sums never touch the negative diagonal).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .series import MultiPoly, expand, gf_degree, gf_graph, gf_named_total, gf_polyomino
# read by no code here since the partition check stopped expanding; kept
# bound because perfbench's install check looks it up (ROADMAP item 3)
from .series import expand_ints  # noqa: F401
from .words import check_n, enumerate_words, generalized_fibonacci

PQ = ("p", "q")
Q = ("q",)


def binom(m: int, r: int) -> int:
    """C(m, r), zero outside 0 <= r <= m except C(m, m) = 1 on the diagonal."""
    if m == r:
        return 1
    if r < 0 or m < 0 or r > m:
        return 0
    return math.comb(m, r)


def fibonacci(n: int) -> int:
    """Classical Fibonacci numbers, F(1) = F(2) = 1, F(n) = 0 for n <= 0:
    F(n, 2) of `words.generalized_fibonacci`, by doubling."""
    return generalized_fibonacci(n, 2)


def _check_n(n: int, low: int = 1) -> None:
    """Reject an index n that is not an int (`words.check_n`) or is
    below `low`."""
    check_n(n)
    if n < low:
        raise ValueError(f"index must be >= {low}, got {n}")


class _Recurrence(NamedTuple):
    """a_m = X1 a_{m-1} + X2 a_{m-2} for m >= 3, over `variables`: a_1 and
    a_2 as {exponent vector: coefficient}, and the exponent vectors of
    the monomials X1 and X2, whose coefficients are 1."""

    variables: tuple[str, ...]
    first: dict[tuple[int, ...], int]
    second: dict[tuple[int, ...], int]
    shift1: tuple[int, ...]
    shift2: tuple[int, ...]


def _walk(rule: _Recurrence, n_max: int) -> Iterator[Callable[[], MultiPoly]]:
    """a_1..a_n_max of `rule` in one pass forward from m = 1, with no
    recursion and nothing kept between calls.  Each a_m is yielded as a
    function of no arguments that builds its `MultiPoly`, so only the a_m
    a caller reads become polynomials; the walk itself steps on dicts.

    Exponent vectors are packed into ints: variable i takes bits
    [width*i, width*(i+1)), and width bits hold every exponent up to
    a_n_max's, so no field overflows and multiplying monomials adds keys.
    Each a_m is an offset and a dict of terms keyed by packed exponents
    less that offset.  Multiplying by X1 then only moves the offset, so a
    step copies a_{m-1}'s dict and adds a_{m-2}'s terms into it."""
    variables, first, second, shift1, shift2 = rule
    bound = (max(e for a in (first, second) for exps in a for e in exps)
             + n_max * max(*shift1, *shift2))
    width = max(bound.bit_length(), 1)
    fields = range(0, width * len(variables), width)
    mask = (1 << width) - 1

    def pack(exps: tuple[int, ...]) -> int:
        return sum(e << s for e, s in zip(exps, fields))

    def unpack(off: int, terms: dict[int, int]) -> MultiPoly:
        return MultiPoly(variables, {tuple((key + off) >> s & mask for s in fields): c
                                     for key, c in terms.items()})

    s1, s2 = pack(shift1), pack(shift2)
    initial = [(0, {pack(e): c for e, c in a.items()}) for a in (first, second)]
    prev = cur = None
    for m in range(1, n_max + 1):
        if m <= 2:
            prev, cur = cur, initial[m - 1]
        else:
            (prev_off, prev_terms), (cur_off, cur_terms) = prev, cur
            off = cur_off + s1
            terms = cur_terms.copy()
            get = terms.get
            delta = prev_off + s2 - off
            for key, c in prev_terms.items():
                key += delta
                terms[key] = get(key, 0) + c
            prev, cur = cur, (off, terms)
        yield partial(unpack, *cur)


# The k = 2 polynomial families' recurrences, keyed and ordered as
# `RECURRENCES`, whose functions read them, as `recurrence_sides` does.
# The initial values are oracle-verified (see the test suite's erratum
# fixtures).
_RULES = {
    "t": _Recurrence(PQ, {(2, 1): 1, (3, 2): 1}, {(3, 2): 1, (4, 3): 2}, (1, 1), (3, 3)),
    "v": _Recurrence(PQ, {(4, 4): 1, (7, 6): 1}, {(7, 6): 1, (10, 8): 2}, (3, 2), (9, 6)),
    "d2": _Recurrence(Q, {(4,): 2}, {(4,): 1, (5,): 2}, (0,), (2,)),
    "d3": _Recurrence(Q, {(2,): 1, (0,): 1}, {(2,): 3}, (2,), (2,)),
    "d4": _Recurrence(Q, {(0,): 2}, {(0,): 1, (1,): 2}, (0,), (2,)),
}


def _nth(name: str, n: int) -> MultiPoly:
    """a_n of the family `name`'s recurrence: the last a_m of one walk,
    the only one built as a `MultiPoly`."""
    _check_n(n)
    for a in _walk(_RULES[name], n):
        pass
    return a()


def recurrence_sides(n_max: int) -> dict[str, list[MultiPoly]]:
    """a_0..a_n_max of each family's recurrence, one walk per family, keyed
    as `RECURRENCES`: the counterpart of `series_sides`.  a_0 is the zero
    polynomial, the x^0 coefficient of sum_{n>=1} a_n x^n, so both sides
    index by n alike."""
    _check_n(n_max, 0)
    return {name: [MultiPoly.zero(rule.variables), *(a() for a in _walk(rule, n_max))]
            for name, rule in _RULES.items()}


# ---------------------------------------------------------------------
# Fibonacci-polyomino weight polynomials t_n(p, q): p marks semiperimeter,
# q marks area, over all words of length n with k = 2.

def t_poly(n: int) -> MultiPoly:
    """t_n by the recurrence t_n = pq t_{n-1} + p^3 q^3 t_{n-2}."""
    return _nth("t", n)


def t_poly_closed(n: int) -> MultiPoly:
    """t_n as the binomial sum of C(n+1-i, i) p^(n+i+1) q^(n+i)."""
    _check_n(n)
    return MultiPoly(PQ, {(n + i + 1, n + i): binom(n + 1 - i, i)
                          for i in range((n + 1) // 2 + 1)})


# ---------------------------------------------------------------------
# Fibonacci-graph weight polynomials v_n(p, q): p marks edges, q vertices.

def v_poly(n: int) -> MultiPoly:
    """v_n by the recurrence v_n = p^3 q^2 v_{n-1} + p^9 q^6 v_{n-2}.

    The second initial value is the oracle-verified p^7 q^6 + 2 p^10 q^8.
    """
    return _nth("v", n)


def v_poly_closed(n: int) -> MultiPoly:
    """v_n as the binomial sum of C(n+1-i, i) p^(3n+1+3i) q^(2n+2+2i)."""
    _check_n(n)
    return MultiPoly(PQ, {(3 * n + 1 + 3 * i, 2 * n + 2 + 2 * i): binom(n + 1 - i, i)
                          for i in range((n + 1) // 2 + 1)})


# ---------------------------------------------------------------------
# Degree-count polynomials for k = 2: d_{n,j}(q) = sum over length-n words
# of q^(number of degree-j vertices), j in {2, 3, 4}.

def d2_poly(n: int) -> MultiPoly:
    """d_{n,2} by the recurrence d_n = d_{n-1} + q^2 d_{n-2}."""
    return _nth("d2", n)


def d2_poly_closed(n: int) -> MultiPoly:
    _check_n(n)
    return MultiPoly(Q, {(i + 3,): binom(n - 1 - i // 2, (i - 1) // 2)
                         + binom(n - 2 - (i - 1) // 2, (i - 2) // 2)
                         for i in range(1, n + 1)})


def d3_poly(n: int) -> MultiPoly:
    """d_{n,3} by the recurrence d_n = q^2 d_{n-1} + q^2 d_{n-2}."""
    return _nth("d3", n)


def d3_poly_closed(n: int) -> MultiPoly:
    """Binomial form of d_{n,3}: (1 + q^2) g_{n-1} + (2q^2 - q^4) g_{n-2},
    where g_m = sum_i C(m-i, i) q^(2(m-i)) is the Fibonacci-polynomial
    solution of g_m = q^2 (g_{m-1} + g_{m-2})."""
    _check_n(n)
    terms: dict[tuple[int, ...], int] = {}
    for m, factor in ((n - 1, ((0, 1), (2, 1))), (n - 2, ((2, 2), (4, -1)))):
        for i in range(max(m, 0) + 1):
            c = binom(m - i, i)
            for shift, f in factor:
                key = (2 * (m - i) + shift,)
                terms[key] = terms.get(key, 0) + f * c
    return MultiPoly(Q, terms)


def d4_poly(n: int) -> MultiPoly:
    """d_{n,4} by the recurrence d_n = d_{n-1} + q^2 d_{n-2}."""
    return _nth("d4", n)


def d4_poly_closed(n: int) -> MultiPoly:
    """Binomial form of d_{n,4}; terms with i < 3 vanish under the
    binomial convention, so no negative q exponents arise."""
    _check_n(n)
    terms: dict[tuple[int, ...], int] = {}
    for i in range(n + 3):
        c = (binom(n - 1 - (i - 2) // 2, (i - 3) // 2)
             + binom(n - 2 - (i - 3) // 2, (i - 4) // 2))
        if c:
            if i < 3:
                raise ArithmeticError(f"negative exponent term survived at i={i}")
            terms[(i - 3,)] = c
    return MultiPoly(Q, terms)


# The k = 2 polynomial families in report order: name -> recurrence and
# name -> binomial closed form.
RECURRENCES = {"t": t_poly, "v": v_poly, "d2": d2_poly, "d3": d3_poly, "d4": d4_poly}
CLOSED_FORMS = {"t": t_poly_closed, "v": v_poly_closed, "d2": d2_poly_closed,
                "d3": d3_poly_closed, "d4": d4_poly_closed}


def degree_poly(j: int, n: int) -> MultiPoly:
    """d_{n,j}(q) for j in {2, 3, 4}."""
    _degree(j)
    return RECURRENCES[f"d{j}"](n)


def series_sides(n_max: int) -> dict[str, list[MultiPoly]]:
    """Coefficients 0..n_max of each family's generating function, keyed
    as `RECURRENCES`: t from gf_polyomino(2), v from gf_graph(2), and d_j
    from gf_degree(2) with the two other degree markers set to 1 before it
    expands, so that expansion runs in (x, q_j) alone, and q_j renamed q."""
    check_n(n_max)
    degree = gf_degree(2)
    sides = {"t": expand(gf_polyomino(2), n_max), "v": expand(gf_graph(2), n_max)}
    for j in DEGREES:
        others = {f"q{i}": 1 for i in DEGREES if i != j}
        sides[f"d{j}"] = [c.rename({f"q{j}": "q"})
                          for c in expand(degree.specialize(others), n_max)]
    return sides


# ---------------------------------------------------------------------
# Integer sequences and identities.

def total_area_closed(n: int) -> int:
    """Total area over all length-n words with k = 2, via the Fibonacci
    closed form (6n F(n+2) + (n+2) F(n)) / 5.  The numerator is always
    divisible by 5; a failed division signals a transcription bug."""
    _check_n(n)
    v = 6 * n * fibonacci(n + 2) + (n + 2) * fibonacci(n)
    if v % 5:
        raise ArithmeticError(f"total-area numerator {v} not divisible by 5 at n={n}")
    return v // 5


def fib_convolution(n: int) -> int:
    """c(n) = sum_i F(i) F(n-i), summed directly."""
    _check_n(n, 0)
    return sum(fibonacci(i) * fibonacci(n - i) for i in range(n + 1))


def fib_convolution_closed(n: int) -> Fraction:
    """The closed form ((n-1) F(n) + 2n F(n-1)) / 5 of `fib_convolution`,
    exactly, so a wrong closed form gives an unequal value, not an error."""
    _check_n(n, 0)
    return Fraction((n - 1) * fibonacci(n) + 2 * n * fibonacci(n - 1), 5)


def narayana(n: int) -> int:
    """Narayana's cows sequence b_n = b_{n-1} + b_{n-3} in the indexing of
    its generating function 1/(1 - x - x^3): b_0 = b_1 = b_2 = 1, so
    b_6 = 6; by the recurrence."""
    _check_n(n, 0)
    seq = [1, 1, 1]
    for m in range(3, n + 1):
        seq.append(seq[-1] + seq[-3])
    return seq[n]


def narayana_binomial(n: int) -> int:
    """`narayana(n)` as the binomial sum of C(n-2i, i)."""
    _check_n(n, 0)
    return sum(binom(n - 2 * i, i) for i in range(n // 3 + 1))


def degree_partition_break(n_max: int) -> int | None:
    """The first n <= n_max at which the totals of degree-2, 3 and 4
    vertices over length-n words with k = 2 do not sum to the vertex
    total, by their named generating functions, or None.

    Decided for every n at once by cross-multiplying, with no expansion.
    With N_i/D_i the four named GFs, sum_j N_j/D_j - N_v/D_v is P over
    D_2 D_3 D_4 D_v, where P = sum_j N_j D_v prod_{i != j} D_i -
    N_v D_2 D_3 D_4.  That product has constant term 1, as every D_i has,
    so the series of the difference starts at P's lowest power of x; no
    numerator has an x^0 term, so that power is the first n >= 1 at which
    the counts differ."""
    check_n(n_max)
    sides = [(1, gf_named_total(f"deg{j}", 2)) for j in DEGREES]
    sides.append((-1, gf_named_total("vertices", 2)))
    gap = sum((sign * gf.numerator * math.prod(other.denominator
                                               for _, other in sides if other is not gf)
               for sign, gf in sides), MultiPoly.zero(("x",)))
    first = min((exps[0] for exps in gap.terms), default=None)
    return first if first is not None and first <= n_max else None


def polyomino_counts_by_area(max_area: int) -> list[int]:
    """counts[a] = the number of k = 2 polyominoes (any length) with
    exactly a cells, for a = 0..max_area, counted by one sweep of the
    words.  Each column holds at least one cell, so only word lengths up
    to max_area can contribute."""
    check_n(max_area)
    if max_area < 1:
        raise ValueError(f"area must be >= 1, got {max_area}")
    counts = [0] * (max_area + 1)
    for n in range(1, max_area + 1):
        for w in enumerate_words(n, 2):
            a = n + sum(w.bits)
            if a <= max_area:
                counts[a] += 1
    return counts


def count_polyominoes_by_area(a: int) -> int:
    """Number of k = 2 polyominoes (any length) with exactly a cells,
    counted by direct enumeration."""
    return polyomino_counts_by_area(a)[a]


# ---------------------------------------------------------------------
# Asymptotic degree proportions for k = 2.

class QuadraticConstant(NamedTuple):
    """The exact value (a + b*sqrt(5)) / c with integer a, b and c > 0."""

    a: int
    b: int
    c: int

    def enclosure(self, digits: int = 40) -> tuple[Fraction, Fraction]:
        """A rational interval [lo, hi] containing the value, of width
        about 10^-digits."""
        scale = 10 ** digits
        root_lo = Fraction(math.isqrt(5 * scale * scale), scale)
        root_hi = root_lo + Fraction(1, scale)
        lo, hi = sorted((self.a + self.b * r) / self.c for r in (root_lo, root_hi))
        return lo, hi

    def abs_diff_below(self, r: Fraction, eps: Fraction) -> bool:
        """Certify |value - r| < eps using a rational enclosure."""
        lo, hi = self.enclosure()
        return r - eps < lo and hi < r + eps

    def gap_upper_bound(self, r: Fraction) -> Fraction:
        """A rational upper bound on |value - r|."""
        lo, hi = self.enclosure()
        return max(abs(r - lo), abs(r - hi))

    def decimal(self, digits: int = 10) -> str:
        """Decimal rendering to `digits` significant digits (display only)."""
        lo, _ = self.enclosure(digits + 15)
        return format_fraction(lo, digits)


def format_fraction(f: Fraction, digits: int) -> str:
    """Round a rational to `digits` significant digits, halves away from
    zero, in positional notation."""
    if f == 0:
        return "0"
    d = Context(prec=digits, rounding=ROUND_HALF_UP).divide(f.numerator, f.denominator)
    # an exact quotient may be shorter: pad it to `digits` digits
    return format(d.quantize(Decimal(1).scaleb(d.adjusted() + 1 - digits)), "f")


# DEGREES: j -> (the limit of the degree-j share of the vertices, and
# (a, b, c, d) such that 5 x the degree-j total over all length-n words
# with k = 2 is (a n + b) F(n) + (c n + d) F(n+1) for n >= 1), the
# partial-fraction form of the named totals, whose denominator is
# ((1 - x)(1 - x - x^2))^2 at k = 2; the tests check it against their
# series.  The vertex total has the same form.
_K2_VERTEX_TOTAL = (14, 14, 12, 10)
DEGREES = {
    2: (QuadraticConstant(7, -1, 22), (4, 14, 2, 20)),
    3: (QuadraticConstant(4, 1, 11), (6, 6, 8, -10)),
    4: (QuadraticConstant(7, -1, 22), (4, -6, 2, 0)),
}


def _degree(j: int) -> tuple[QuadraticConstant, tuple[int, int, int, int]]:
    """The `DEGREES` entry of j: the one check of a degree index."""
    try:
        return DEGREES[j]
    except KeyError:
        raise ValueError(f"degree must be 2, 3 or 4, got {j}") from None


def degree_proportion_limit(j: int) -> QuadraticConstant:
    """Limit of (total degree-j vertices) / (total vertices) over the
    k = 2 family: (7 - sqrt5)/22 for j = 2 and j = 4, (4 + sqrt5)/11 for
    j = 3."""
    return _degree(j)[0]


def empirical_degree_ratio(j: int, n: int) -> Fraction:
    """Exact rational (total degree-j vertices) / (total vertices) over
    all length-n words with k = 2."""
    degree_total = _degree(j)[1]
    _check_n(n)
    f, g = fibonacci(n), fibonacci(n + 1)

    def total(a: int, b: int, c: int, d: int) -> int:
        return (a * n + b) * f + (c * n + d) * g

    return Fraction(total(*degree_total), total(*_K2_VERTEX_TOTAL))


# ---------------------------------------------------------------------
# Telescoping-certificate verification for the two binomial closed forms.
# Both identities are checked as exact polynomial equalities (rational
# coefficients), so a pass is a proof of the identity at that (n, i).

def _rel1_F(n: int, i: int) -> dict[tuple[int, int], Fraction]:
    c = binom(n + 1 - i, i)
    return {} if c == 0 else {(n + i + 1, n + i): Fraction(c)}


def _rel1_G(n: int, i: int) -> dict[tuple[int, int], Fraction] | None:
    den = (n + 2 - 2 * i) * (n + 3 - 2 * i)
    if den == 0:
        return None
    ratio = Fraction(-i * (2 - i + n), den)
    return {(pe + 2, qe + 2): c * ratio for (pe, qe), c in _rel1_F(n, i).items() if c * ratio}


def _rel2_F(n: int, i: int) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for e, c in ((2 * i + 3, 2 * binom(n - i - 1, i - 1)),
                 (2 * i + 2, binom(n - i, i - 1)),
                 (2 * i + 2, binom(n - i - 1, i - 2))):
        if c:
            out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _rel2_G(n: int, i: int) -> dict[int, Fraction]:
    # R(n, i) * F(n, i) with the q-linear factor of R's denominator
    # cancelled against F's factorial form; only called on the support
    # i >= 1, n - 2i + 1 >= 0, n - i - 1 >= 0.
    pref = Fraction((n - i) * (i - 1) * math.factorial(n - i - 1),
                    (n + 2 - 2 * i) * (n + 3 - 2 * i)
                    * math.factorial(i - 1) * math.factorial(n - 2 * i + 1))
    out: dict[int, Fraction] = {}
    for e, c in ((2 * i + 3, 4 * i - 6 - 2 * n), (2 * i + 2, 1 - n)):
        v = pref * c
        if v:
            out[e] = out.get(e, Fraction(0)) + v
    return out


def _diff(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, Fraction(0)) - v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def verify_certificate(which: str, n: int, i: int) -> bool | None:
    """Check one instance of a telescoping-certificate identity exactly.

    Returns True/False for an admissible (n, i), or None (skip) when a
    certificate denominator vanishes or, for rel2, when (n, i) lies
    outside the factorial-form support (i >= 1 and n >= 2i + 1).
    """
    check_n(n)
    check_n(i)
    if which == "rel1":
        gs = [_rel1_G(n, i), _rel1_G(n, i + 1)]
        if any(g is None for g in gs):
            return None
        lhs = _diff(_rel1_F(n + 2, i),
                    {(pe + 1, qe + 1): c for (pe, qe), c in _rel1_F(n + 1, i).items()})
        lhs = _diff(lhs, {(pe + 3, qe + 3): c for (pe, qe), c in _rel1_F(n, i).items()})
        rhs = _diff(gs[1], gs[0])
        return lhs == rhs
    if which == "rel2":
        if i < 1 or n < 2 * i + 1:
            return None
        lhs = _diff(_rel2_F(n + 2, i), _rel2_F(n + 1, i))
        lhs = _diff(lhs, {e + 2: c for e, c in _rel2_F(n, i).items()})
        rhs = _diff(_rel2_G(n, i + 1), _rel2_G(n, i))
        return lhs == rhs
    raise ValueError(f"unknown certificate {which!r}; expected rel1 or rel2")

