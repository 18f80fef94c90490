"""Exact sparse multivariate polynomials and rational generating functions.

Coefficients are arbitrary-precision integers; a polynomial is a map from
exponent vectors to nonzero coefficients.  Rational generating functions
are numerator/denominator pairs whose first variable is the length marker
``x``; series expansion is linear-recurrence long division on the x-slices.

A polynomial's `terms` always iterate in graded-lex order of its declared
variables: by total degree, then by exponent tuple.  The order is made
once, where terms are made: the checked constructor, `+`, `*` and
`specialize` order their results, and each expanded coefficient is
unpacked from one sort of its packed integer keys.  Unary `-`, scalar
`*` and `rename` keep their operand's order, and `to_text` and every
other reader iterate `terms` as they are, with no sort of their own.

`iter_expand`, `iter_text` and `iter_json_terms` read one coefficient
stream, `_coefficients`: each coefficient leaves the recurrence once, as
soon as it is made, as its exponent columns (one list per marker) and
its coefficient list, in graded-lex order, and only the recurrence
window is held.  A gf with markers runs on packed exponent keys
(`_iter_packed`: each denominator term negated, as the multiplier that
c_n gains, added without a multiply when it is +1 or -1, and cancelled
terms deleted in place), a gf in x alone on plain ints (`_iter_ints`).
`iter_expand` zips the columns into a `MultiPoly` (`expand` is its
list); `iter_text` and `iter_json_terms`, which `kbonacci series`
prints, render them through `_text` (which `to_text` calls too) and
`_json_terms`, with no per-term tuple, polynomial or dict between.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache, partial
from itertools import compress, repeat, starmap
from operator import not_
from typing import Iterable, Iterator, Mapping, Sequence

from .words import check_k, check_n


class _Factors(dict):
    """One variable's factors in a term of the text form, by exponent,
    each with its leading "*": "" at exponent 0, "*p" at 1, "*p^3" above.
    A factor is made at its first lookup; a table that reaches 4,096
    factors starts again empty."""

    __slots__ = ("variable",)

    def __init__(self, variable: str):
        self.variable = variable

    def __missing__(self, exponent: int) -> str:
        if len(self) >= 4096:
            self.clear()
        v = self.variable
        factor = self[exponent] = ("" if exponent == 0 else "*" + v if exponent == 1
                                   else f"*{v}^{exponent}")
        return factor


@lru_cache(maxsize=64)
def _factors(variable: str) -> _Factors:
    """The factor table of `variable`, kept for the last 64 names used."""
    return _Factors(variable)


def _text(variables: tuple[str, ...], columns: Iterable[Iterable[int]],
          coefs: Iterable[int]) -> str:
    """The text form of the polynomial over `variables` whose terms, in
    order, have the exponent `columns` (one per variable) and the
    coefficients `coefs`: "0" with no terms, else e.g. "p^2*q - 3*q^4".
    The factor strings ("*p^2*q") are looked up one column at a time;
    only the sign and the unit coefficient are decided term by term."""
    factors = [map(_factors(v).__getitem__, col) for v, col in zip(variables, columns)]
    text = "".join([f" + {c}{f}" if c > 1 else f" - {-c}{f}" if c < -1
                    else (" + " if c == 1 else " - ") + (f[1:] if f else "1")
                    for f, c in zip(map("".join, zip(*factors)) if factors else repeat(""),
                                    coefs)])
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _json_terms(columns: Iterable[Iterable[int]], coefs: Iterable[int]) -> str:
    """`json.dumps` of the terms, each {"exp": [...], "coef": "<int>"}, of
    the polynomial with the exponent `columns` and the coefficients
    `coefs`, written by one format per term, with no per-term dict."""
    columns = list(columns)
    term = '{{"exp": [' + ", ".join(["{}"] * len(columns)) + '], "coef": "{}"}}'
    return "[" + ", ".join(map(term.format, *columns, coefs)) + "]"


def _graded(terms: Mapping[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """`terms` with the zero coefficients dropped, in graded-lex order: by
    total degree, then by exponent tuple.  Exponent tuples are distinct,
    so the coefficients are never compared."""
    return {e: c for _, e, c in sorted(zip(map(sum, terms), terms, terms.values())) if c}


def _names(variables: Iterable[str]) -> tuple[str, ...]:
    """`variables` as a tuple, checked to be distinct nonempty strs."""
    variables = tuple(variables)
    if any(type(v) is not str or not v for v in variables):
        raise ValueError(f"variable names {variables} are not all nonempty strs")
    if len(set(variables)) != len(variables):
        raise ValueError(f"repeated variable name in {variables}")
    return variables


class MultiPoly:
    """Immutable sparse polynomial over named variables, whose `terms`
    iterate in graded-lex order."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str],
                 terms: Mapping[tuple[int, ...], int] | None = None):
        variables = _names(variables)
        object.__setattr__(self, "variables", variables)
        terms = terms or {}
        arity = len(variables)
        for exps, coef in terms.items():
            if type(exps) is not tuple or len(exps) != arity:
                raise ValueError(f"exponent vector {exps!r} is not a tuple of arity {arity}")
            if any(type(e) is not int or e < 0 for e in exps):
                raise ValueError(f"exponent in {exps} is negative or not an int")
            if type(coef) is not int:
                raise ValueError(f"coefficient {coef!r} of {exps} is not an int")
        object.__setattr__(self, "terms", _graded(terms))

    @classmethod
    def _trusted(cls, variables: tuple[str, ...],
                 terms: dict[tuple[int, ...], int]) -> "MultiPoly":
        """A polynomial that stores its arguments as given, unchecked and
        uncopied: `variables` a tuple of distinct names, `terms` a dict
        from exponent tuples of their arity, none negative, to nonzero
        ints, in graded-lex order.  Only the producers in this module
        whose terms come from valid polynomials call it; everything else
        goes through `MultiPoly(...)`."""
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value: int) -> "MultiPoly":
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def monomial(cls, variables: Sequence[str], coef: int = 1,
                 **exps: int) -> "MultiPoly":
        variables = tuple(variables)
        unknown = [v for v in exps if v not in variables]
        if unknown:
            raise ValueError(f"unknown variables {unknown}")
        key = tuple(exps.get(v, 0) for v in variables)
        return cls(variables, {key: coef})

    # -- ring operations ----------------------------------------------
    # an operand neither a MultiPoly nor an int gives NotImplemented, hence a TypeError

    def _check_same(self, other: "MultiPoly") -> None:
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.constant(self.variables, other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return MultiPoly._trusted(self.variables, _graded(terms))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly | int") -> "MultiPoly":
        return self + (-other) if isinstance(other, (int, MultiPoly)) else NotImplemented

    def __rsub__(self, other: int) -> "MultiPoly":
        return (-self).__add__(other)

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            if not other:
                return MultiPoly.zero(self.variables)
            return MultiPoly._trusted(self.variables,
                                      {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same(other)
        out: dict[tuple[int, ...], int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return MultiPoly._trusted(self.variables, _graded(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if type(exponent) is not int or exponent < 0:
            raise ValueError(f"power {exponent!r} is not a non-negative int")
        result = MultiPoly.constant(self.variables, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:  # the last bit needs no further square
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MultiPoly)
                and self.variables == other.variables
                and self.terms == other.terms)

    __hash__ = None  # mutable-looking equality; not hashable

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- structure ----------------------------------------------------

    def specialize(self, values: Mapping[str, int]) -> "MultiPoly":
        """Substitute integers for some variables; the rest remain."""
        unknown = [v for v in values if v not in self.variables]
        if unknown:
            raise ValueError(f"unknown variables {unknown}")
        if not values:
            return self
        if any(type(value) is not int for value in values.values()):
            raise ValueError(f"values {dict(values)} are not all ints")
        keep = [i for i, v in enumerate(self.variables) if v not in values]
        # setting a variable to 1 leaves every coefficient as it is
        scale = [(i, values[v]) for i, v in enumerate(self.variables)
                 if values.get(v, 1) != 1]
        out: dict[tuple[int, ...], int] = {}
        for exps, coef in self.terms.items():
            for i, value in scale:
                coef *= value ** exps[i]
            key = tuple([exps[i] for i in keep])
            out[key] = out.get(key, 0) + coef
        return MultiPoly._trusted(tuple(self.variables[i] for i in keep), _graded(out))

    def rename(self, mapping: Mapping[str, str]) -> "MultiPoly":
        """The same terms, in the same order, over renamed variables."""
        return MultiPoly._trusted(_names(mapping.get(v, v) for v in self.variables),
                                  dict(self.terms))

    def as_int(self) -> int:
        """The value of a variable-free (or constant) polynomial."""
        extra = [e for e in self.terms if any(e)]
        if extra:
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * len(self.variables), 0)

    def weighted_total(self, var: str) -> int:
        """Sum of (exponent of var) * coefficient over all terms, i.e. the
        derivative in var evaluated with every variable set to 1."""
        idx = self.variables.index(var)
        return sum(e[idx] * c for e, c in self.terms.items())

    # -- serialization ------------------------------------------------

    def to_text(self) -> str:
        return _text(self.variables, zip(*self.terms), self.terms.values())

    def __repr__(self) -> str:
        return f"MultiPoly({self.variables!r}, {self.to_text()!r})"


class RationalGF:
    """Quotient of two polynomials whose first variable is the series
    variable ``x``; the denominator's x^0 slice must be the constant 1
    (D(0) = 1), which is what `expand`'s recurrence needs."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: MultiPoly, denominator: MultiPoly):
        if numerator.variables != denominator.variables:
            raise ValueError("numerator and denominator must share variables")
        if not numerator.variables or numerator.variables[0] != "x":
            raise ValueError("the first variable must be the series variable x")
        x0_slice = {e: c for e, c in denominator.terms.items() if not e[0]}
        if x0_slice != {(0,) * len(denominator.variables): 1}:
            raise ValueError("denominator's x^0 slice must be the constant 1")
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RationalGF is immutable")

    @property
    def variables(self) -> tuple[str, ...]:
        return self.numerator.variables

    @property
    def aux_variables(self) -> tuple[str, ...]:
        return self.variables[1:]

    def specialize(self, values: Mapping[str, int]) -> "RationalGF":
        """Substitute integers for some auxiliary variables in the
        numerator and the denominator; an unknown name, or x, is a
        `ValueError`.  Substitution is a ring map that fixes x and
        constants, so it leaves the denominator's x^0 slice the constant
        1, and expanding the result equals specializing every
        coefficient of this gf's expansion."""
        # without x the result fails RationalGF's own first-variable check
        return RationalGF(self.numerator.specialize(values),
                          self.denominator.specialize(values))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RationalGF)
                and self.numerator == other.numerator
                and self.denominator == other.denominator)

    __hash__ = None

    def __repr__(self) -> str:
        return f"RationalGF(({self.numerator.to_text()}) / ({self.denominator.to_text()}))"


def expand(gf: RationalGF, n_max: int) -> list[MultiPoly]:
    """Coefficients of x^0..x^n_max as polynomials in the other variables:
    the list of `iter_expand(gf, n_max)`."""
    return list(iter_expand(gf, n_max))


def iter_expand(gf: RationalGF, n_max: int) -> Iterator[MultiPoly]:
    """Coefficients of x^0..x^n_max as polynomials in the other variables,
    yielded in order, each as soon as it is made, with its terms in
    graded-lex order.

    With numerator slices N_j and denominator slices D_j (D_0 = 1), the
    coefficients satisfy c_n = N_n - sum_{j>=1} D_j c_{n-j}.  Each c_n is
    the `MultiPoly` view, built by `MultiPoly._trusted` with no checks, of
    the columns and coefficients it leaves `_coefficients` as (a gf in x
    alone has no column, and its term has the key ()).

    `n_max` is checked at the call, not at the first `next()`.
    """
    aux = gf.aux_variables
    return (MultiPoly._trusted(aux, dict(zip(zip(*columns) if columns else repeat(()), coefs)))
            for columns, coefs in _coefficients(gf, n_max))


def iter_text(gf: RationalGF, n_max: int) -> Iterator[str]:
    """`c.to_text()` for each c of `iter_expand(gf, n_max)`, in order,
    rendered straight from the exponent columns of `_coefficients`,
    building no `MultiPoly`."""
    return starmap(partial(_text, gf.aux_variables), _coefficients(gf, n_max))


def iter_json_terms(gf: RationalGF, n_max: int) -> Iterator[str]:
    """The JSON list of the terms of each c of `iter_expand(gf, n_max)`,
    in order, written straight from the exponent columns of
    `_coefficients` (`_json_terms`), building no `MultiPoly` and no
    per-term dict."""
    return starmap(_json_terms, _coefficients(gf, n_max))


def _coefficients(gf: RationalGF, n_max: int) -> Iterator[tuple[list[list[int]], list[int]]]:
    """Each c_n of x^0..x^n_max once, in order, as the (exponent columns,
    coefficients) pair of `_iter_packed`; a gf in x alone runs `_iter_ints`,
    and c leaves as `([], [c])`, or `([], [])` when c = 0.  `n_max` is
    checked here, at the call."""
    check_n(n_max, 0, "n_max")
    if gf.aux_variables:
        return _iter_packed(gf, n_max)
    return (([], [c] if c else []) for c in _iter_ints(gf, n_max))


def _iter_packed(gf: RationalGF, n_max: int) -> Iterator[tuple[list[list[int]], list[int]]]:
    """The recurrence of `iter_expand` on packed exponent keys, for a gf
    with auxiliary variables and an `n_max` already checked.  Each c_n is
    yielded once, as soon as it is made, and only the last `depth` are
    kept, as empty dicts before c_0 (`depth` the largest x-degree <= n_max
    of a denominator term, as in `_iter_ints`).  It leaves as a pair: its
    exponent columns, one list per auxiliary variable, and its list of
    nonzero coefficients, all in the graded-lex order of its terms.  Term
    i of c_n has exponents (columns[0][i], ..., columns[m-1][i]) and
    coefficient coefs[i].  No other module reads this format.

    With m auxiliary variables, the key of exponents (e_1, ..., e_m) holds
    e_i in bits [width*(m-i), width*(m-i+1)) and the total degree
    e_1 + ... + e_m above bit width*m, so the first variable has the most
    significant fixed-width field, and integer order is graded-lex order.
    Packing is linear, so multiplying monomials adds keys.  No exponent of
    c_n exceeds maxN + n*maxD (each D_j has j >= 1), and width bits hold
    that bound at n = n_max, so no fixed-width field overflows; the
    degree field has no field above it and needs no bound.  Each c_n is
    unpacked from one sort of its int keys, a column at a time.

    A denominator term of x-degree j is held as (key, m), m its
    coefficient negated: c_n gains m times each term of c_{n-j}.  The
    loops for m = +1 and m = -1, all that the families have, add or
    subtract with no multiply.  Cancelled terms are few, so the zeros of
    c_n are collected at C speed and deleted in place."""
    aux = gf.aux_variables
    num_terms = gf.numerator.terms
    den_terms = gf.denominator.terms
    width = 0
    for v in range(1, len(aux) + 1):
        bound = (max((e[v] for e in num_terms), default=0)
                 + n_max * max(e[v] for e in den_terms))
        width = max(width, bound.bit_length())
    shifts = [width * i for i in reversed(range(len(aux)))]
    degree_shift = width * len(aux)
    mask = (1 << width) - 1

    def pack(exps: tuple[int, ...]) -> int:
        aux_exps = exps[1:]
        return sum(aux_exps) << degree_shift | sum(e << s for e, s in zip(aux_exps, shifts))

    num: dict[int, dict[int, int]] = {}
    for exps, coef in num_terms.items():
        if exps[0] <= n_max:
            num.setdefault(exps[0], {})[pack(exps)] = coef
    den: dict[int, list[tuple[int, int]]] = {}
    for exps, coef in den_terms.items():
        if 0 < exps[0] <= n_max:
            den.setdefault(exps[0], []).append((pack(exps), -coef))
    den_slices = sorted(den.items())
    depth = den_slices[-1][0] if den_slices else 0

    def unpack(packed: dict[int, int]) -> tuple[list[list[int]], list[int]]:
        keys = sorted(packed)
        return ([[(key >> s) & mask for key in keys] for s in shifts],
                list(map(packed.__getitem__, keys)))

    # c_{n-depth}..c_{n-1}, packed, with empty dicts (zeros) before c_0
    window = deque([{}] * depth, maxlen=depth)
    for n in range(n_max + 1):
        c = dict(num.get(n, ()))
        for j, dj in den_slices:
            prev = window[-j]
            for dkey, m in dj:
                if not c:  # the first contribution: distinct keys, none zero
                    c = dict(zip(map(dkey.__add__, prev),
                                 prev.values() if m == 1 else map(m.__mul__, prev.values())))
                    continue
                get = c.get
                if m == 1:
                    for key, coef in prev.items():
                        key += dkey
                        c[key] = get(key, 0) + coef
                elif m == -1:
                    for key, coef in prev.items():
                        key += dkey
                        c[key] = get(key, 0) - coef
                else:
                    for key, coef in prev.items():
                        key += dkey
                        c[key] = get(key, 0) + m * coef
        if 0 in c.values():  # cancelled terms: few, found and deleted at C speed
            for key in list(compress(c, map(not_, c.values()))):
                del c[key]
        yield unpack(c)
        window.append(c)


def _iter_ints(gf: RationalGF, n_max: int) -> Iterator[int]:
    """The recurrence of `iter_expand` on ints, for a gf in x alone and an
    `n_max` already checked: each c_n is yielded as it is made, and only
    the last `depth` are kept, as zeros before c_0.  `depth` is the
    largest x-degree j <= n_max of a denominator term D_j: a term of
    higher degree never reaches c_0..c_{n_max}, so the window does not
    grow with it."""
    num = {e: coef for (e,), coef in gf.numerator.terms.items()}
    # (i, D_j) with i = -j, by increasing j as terms in x alone iterate:
    # c_{n-j} is window[i]
    den = [(-e, coef) for (e,), coef in gf.denominator.terms.items() if 0 < e <= n_max]
    depth = -den[-1][0] if den else 0
    window = deque([0] * depth, maxlen=depth)  # c_{n-depth}..c_{n-1}
    for n in range(n_max + 1):
        c = num.get(n, 0)
        for i, dj in den:
            c -= dj * window[i]
        yield c
        window.append(c)


def expand_ints(gf: RationalGF, n_max: int) -> list[int]:
    """expand() for a univariate gf, coefficients as plain integers: the
    list of the recurrence `_iter_ints`."""
    if gf.aux_variables:
        raise ValueError("expand_ints requires a gf in x alone")
    check_n(n_max, 0, "n_max")
    return list(_iter_ints(gf, n_max))


def total_weight_series(gf: RationalGF, var: str, n_max: int) -> list[int]:
    """For each n <= n_max, the total of the statistic marked by `var`:
    sum over terms of (exponent of var) * coefficient, all other
    auxiliary variables set to 1."""
    if var == "x":
        raise ValueError("x is the series variable, not a statistic marker")
    if var not in gf.aux_variables:
        raise ValueError(f"unknown variable {var!r}")
    return [c.weighted_total(var) for c in iter_expand(gf, n_max)]


# ---------------------------------------------------------------------
# Family constructors.  Each builds the closed rational form directly;
# the verify module checks every coefficient against brute force.

def _build(variables: Sequence[str],
           terms: Iterable[tuple[int, tuple[int, ...]]]) -> MultiPoly:
    out: dict[tuple[int, ...], int] = {}
    for coef, exps in terms:
        out[exps] = out.get(exps, 0) + coef
    return MultiPoly(variables, out)


def gf_polyomino(k: int) -> RationalGF:
    """Generating function in (x, p, q): x marks word length, p the
    semiperimeter and q the area of the polyomino."""
    check_k(k)
    v = ("x", "p", "q")
    num = _build(v, [
        (1, (1, 2, 1)), (1, (1, 3, 2)),
        (-1, (2, 3, 3)), (1, (2, 4, 3)),
        (-1, (k, k + 2, 2 * k)), (-1, (k + 1, k + 3, 2 * k + 1)),
    ])
    den = _build(v, [
        (1, (0, 0, 0)),
        (-1, (1, 1, 1)), (-1, (1, 1, 2)),
        (1, (2, 2, 3)), (-1, (2, 3, 3)),
        (1, (k + 1, k + 2, 2 * k + 1)),
    ])
    return RationalGF(num, den)


def gf_graph(k: int) -> RationalGF:
    """Generating function in (x, p, q): p marks edges, q marks vertices
    of the grid graph."""
    check_k(k)
    v = ("x", "p", "q")
    num = _build(v, [
        (1, (1, 4, 4)), (1, (1, 7, 6)),
        (-1, (2, 9, 7)), (1, (2, 10, 8)),
        (-1, (k, 5 * k + 2, 3 * k + 3)), (-1, (k + 1, 5 * k + 5, 3 * k + 5)),
    ])
    den = _build(v, [
        (1, (0, 0, 0)),
        (-1, (1, 3, 2)), (-1, (1, 5, 3)),
        (1, (2, 8, 5)), (-1, (2, 9, 6)),
        (1, (k + 1, 5 * k + 4, 3 * k + 3)),
    ])
    return RationalGF(num, den)


def gf_degree(k: int) -> RationalGF:
    """Generating function in (x, q2, q3, q4): qd marks the number of
    degree-d vertices.  The closed form carries a global 1/q4 whose
    factor is present in every numerator term; it is cancelled here so
    all exponents stay non-negative."""
    check_k(k)
    v = ("x", "q2", "q3", "q4")
    num = _build(v, [
        (1, (1, 4, 2, 0)), (1, (1, 4, 0, 0)),
        (-1, (2, 4, 2, 1)), (2, (2, 5, 2, 1)), (-1, (2, 4, 4, 0)),
        (-1, (k, 4, 2 * k, k - 1)),
        (1, (k + 1, 4, 2 * k + 2, k - 1)), (-2, (k + 1, 5, 2 * k, k)),
    ])
    den = _build(v, [
        (1, (0, 0, 0, 0)),
        (-1, (1, 0, 2, 0)), (-1, (1, 0, 2, 1)),
        (1, (2, 0, 4, 1)), (-1, (2, 2, 2, 2)),
        (1, (k + 1, 2, 2 * k, k + 1)),
    ])
    return RationalGF(num, den)


def gf_hamiltonian(k: int) -> RationalGF:
    """Generating function in (x, q): q marks whether the grid graph has a
    Hamiltonian cycle (exponent 1) or not (exponent 0)."""
    check_k(k)
    v = ("x", "q")
    a = 2 * ((k - 1) // 2)
    b = 2 * (k // 2)
    x = MultiPoly.monomial(v, 1, x=1)
    q = MultiPoly.monomial(v, 1, q=1)
    one = MultiPoly.constant(v, 1)
    xp = lambda e: MultiPoly.monomial(v, 1, x=e)
    num = x * ((one - x) * x * (one - xp(a))
               - q * (one + x) * (one - 2 * x + xp(k + 1)) * (x + xp(b) - 2))
    den = (one - 2 * x + xp(k + 1)) * (one - x - 2 * x * x + xp(3) + xp(b + 2))
    return RationalGF(num, den)


def gf_named_total(name: str, k: int) -> RationalGF:
    """Univariate generating function of a statistic's total over all
    words of each length: area, perimeter, vertices, edges, deg2, deg3,
    deg4 (vertex-degree counts) or ham (number of Hamiltonian graphs)."""
    check_k(k)
    v = ("x",)
    # numerator terms (coefficient, x-exponent) over (1 - 2x + x^(k+1))^2
    num_terms = {
        "area": [(3, 1), (-2 * k, k), (-2 * (2 - k), k + 1), (1, 2 * k + 1)],
        "perimeter": [(5, 1), (-5, 2), (-(2 + k), k), (-(1 - k), k + 1),
                      (4, k + 2), (-1, 2 * k + 2)],
        "vertices": [(10, 1), (-9, 2), (-3 * (1 + k), k), (-(4 - 3 * k), k + 1),
                     (8, k + 2), (-2, 2 * k + 2)],
        "edges": [(11, 1), (-5, 2), (-(2 + 5 * k), k), (-(9 - 5 * k), k + 1),
                  (4, k + 2), (2, 2 * k + 1), (-1, 2 * k + 2)],
        "deg2": [(8, 1), (-14, 2), (-4, k), (2, k + 1), (14, k + 2),
                 (-2, 2 * k + 1), (-4, 2 * k + 2)],
        "deg3": [(2, 1), (2, 2), (-2 * k, k), (-2 * (1 - k), k + 1),
                 (-4, k + 2), (2, 2 * k + 2)],
        "deg4": [(3, 2), (1 - k, k), (-(4 - k), k + 1), (-2, k + 2),
                 (2, 2 * k + 1)],
    }
    if name == "ham":
        b = 2 * (k // 2)
        x = MultiPoly.monomial(v, 1, x=1)
        one = MultiPoly.constant(v, 1)
        xp = lambda e: MultiPoly.monomial(v, 1, x=e)
        num = x * (one + x) * (2 - x - xp(b))
        den = one - x - 2 * x * x + xp(3) + xp(b + 2)
        return RationalGF(num, den)
    if name not in num_terms:
        raise ValueError(f"unknown total {name!r}; expected one of {(*num_terms, 'ham')}")
    num = _build(v, [(c, (e,)) for c, e in num_terms[name]])
    den = _build(v, [(1, (0,)), (-2, (1,)), (1, (k + 1,))]) ** 2
    return RationalGF(num, den)


def gf_deg4_alternate(k: int) -> RationalGF:
    """The rejected candidate for the degree-4 total: same numerator but
    denominator (1 - 2x + 2x^(k+1))^2.  Kept only so the adjudication
    test can show where it first disagrees with brute force."""
    check_k(k)
    adopted = gf_named_total("deg4", k)
    v = ("x",)
    den = _build(v, [(1, (0,)), (-2, (1,)), (2, (k + 1,))]) ** 2
    return RationalGF(adopted.numerator, den)
