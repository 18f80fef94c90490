import json
import operator
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kbonacci import series
from kbonacci.series import (
    MultiPoly,
    RationalGF,
    expand,
    expand_ints,
    gf_deg4_alternate,
    gf_degree,
    gf_graph,
    gf_hamiltonian,
    gf_named_total,
    gf_polyomino,
    iter_expand,
    iter_json_terms,
    iter_text,
    total_weight_series,
)
from kbonacci.verify import FAMILIES, TOTALS
from kbonacci.words import count_words

PQ = ("p", "q")


def pq(text_terms):
    """Shorthand: {(pe, qe): coef} -> MultiPoly in p, q."""
    return MultiPoly(PQ, text_terms)


def small_polys(variables=("x",), max_terms=4, max_exp=4, max_coef=9):
    term = st.tuples(
        st.tuples(*([st.integers(0, max_exp)] * len(variables))),
        st.integers(-max_coef, max_coef),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda ts: MultiPoly(variables, {e: c for e, c in ts}))


class TestMultiPolyAlgebra:
    def test_additive_identity(self):
        assert pq({(1, 1): 1}) + MultiPoly.zero(PQ) == pq({(1, 1): 1})

    def test_difference_of_squares(self):
        x = ("x",)
        one_plus = MultiPoly(x, {(0,): 1, (1,): 1})
        one_minus = MultiPoly(x, {(0,): 1, (1,): -1})
        assert one_plus * one_minus == MultiPoly(x, {(0,): 1, (2,): -1})

    def test_exponent_addition(self):
        assert pq({(2, 1): 1}) * pq({(1, 2): 1}) == pq({(3, 3): 1})

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pq({(1, 1): 1}) + MultiPoly(("x",), {(1,): 1})
        with pytest.raises(ValueError):
            MultiPoly(PQ, {(1,): 1})

    @pytest.mark.parametrize("key", [1, "ab", "a", frozenset({1})])
    def test_key_must_be_a_tuple(self, key):
        with pytest.raises(ValueError, match="is not a tuple of arity 1"):
            MultiPoly(("x",), {key: 1})

    @pytest.mark.parametrize("power", [2.5, 2.0, True, -1, "2", None])
    def test_power_must_be_a_non_negative_int(self, power):
        with pytest.raises(ValueError, match="is not a non-negative int"):
            MultiPoly(("x",), {(1,): 1}) ** power

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly(PQ, {(-1, 0): 1})

    @pytest.mark.parametrize("exps", [(1.0, 2), (1, 2.5), (True, 0), (0, False)])
    def test_non_int_exponent_rejected(self, exps):
        with pytest.raises(ValueError, match="negative or not an int"):
            MultiPoly(("x", "q"), {exps: 3})
        with pytest.raises(ValueError, match="negative or not an int"):
            MultiPoly(("x", "q"), {exps: 0})

    @pytest.mark.parametrize("variables", [("",), (1,), ("p", None), ("p", ("q",))])
    def test_variable_names_must_be_nonempty_strs(self, variables):
        exps = (1,) * len(variables)
        with pytest.raises(ValueError, match="not all nonempty strs"):
            MultiPoly(variables, {exps: 1})
        with pytest.raises(ValueError, match="not all nonempty strs"):
            MultiPoly.zero(variables)

    def test_repeated_variable_name_rejected(self):
        with pytest.raises(ValueError, match="repeated variable"):
            MultiPoly(("p", "p"), {(1, 2): 3})
        with pytest.raises(ValueError, match="repeated variable"):
            MultiPoly(("p", "q", "p"))
        with pytest.raises(ValueError, match="repeated variable"):
            MultiPoly.zero(("x", "x"))

    @pytest.mark.parametrize("coef", [0.5, 2.0, Fraction(1, 2), Fraction(2), "3", True, None])
    def test_non_int_coefficient_rejected(self, coef):
        with pytest.raises(ValueError, match="not an int"):
            MultiPoly(("p",), {(1,): coef})
        with pytest.raises(ValueError, match="not an int"):
            MultiPoly.constant(PQ, coef)

    def test_zero_terms_pruned(self):
        p = pq({(1, 1): 1}) - pq({(1, 1): 1})
        assert p.terms == {} and p.is_zero

    def test_integer_operands_and_power(self):
        x = MultiPoly(("x",), {(1,): 1})
        assert (1 - x) * (1 + x) == 1 - x ** 2
        assert x ** 0 == MultiPoly.constant(("x",), 1)
        assert 3 * x == x + x + x
        with pytest.raises(ValueError):
            x ** -1

    @pytest.mark.parametrize("other", [1.5, Fraction(1, 2), None],
                             ids=["float", "Fraction", "None"])
    def test_an_operand_neither_polynomial_nor_int_is_a_type_error(self, other):
        x = MultiPoly(("x",), {(1,): 1})
        for op in (operator.add, operator.sub, operator.mul):
            for left, right in ((x, other), (other, x)):
                with pytest.raises(TypeError, match="unsupported operand"):
                    op(left, right)

    @given(small_polys(PQ), small_polys(PQ))
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(small_polys(PQ), small_polys(PQ), small_polys(PQ))
    @settings(max_examples=40)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c


class TestMultiPolyStructure:
    def test_specialize(self):
        p = pq({(2, 1): 1, (0, 3): 2})
        assert p.specialize({"p": 1}) == MultiPoly(("q",), {(1,): 1, (3,): 2})
        assert p.specialize({"p": 2, "q": 1}).as_int() == 4 + 2
        with pytest.raises(ValueError):
            p.specialize({"z": 1})

    def test_specialize_drops_cancelled_terms(self):
        p = pq({(1, 2): 3, (0, 2): 3, (0, 1): 1})
        assert p.specialize({"p": -1}) == MultiPoly(("q",), {(1,): 1})
        assert p.specialize({"p": 0, "q": 0}).is_zero
        with pytest.raises(ValueError, match="not all ints"):
            p.specialize({"p": 0.5})

    def test_specialize_nothing_is_identity(self):
        p = pq({(2, 1): 1, (0, 3): 2})
        assert p.specialize({}) is p

    def test_as_int_requires_constant(self):
        with pytest.raises(ValueError):
            pq({(1, 0): 1}).as_int()
        assert MultiPoly.zero(PQ).as_int() == 0

    def test_weighted_total(self):
        p = pq({(2, 3): 4, (1, 0): 5})
        assert p.weighted_total("q") == 3 * 4
        assert p.weighted_total("p") == 2 * 4 + 1 * 5

    def test_rename(self):
        p = MultiPoly(("q2",), {(3,): 1})
        assert p.rename({"q2": "q"}) == MultiPoly(("q",), {(3,): 1})

    def test_rename_onto_another_variable_rejected(self):
        with pytest.raises(ValueError, match="repeated variable"):
            pq({(1, 2): 3}).rename({"p": "q"})

    def test_monomial_unknown_variable(self):
        with pytest.raises(ValueError):
            MultiPoly.monomial(PQ, 1, z=2)


class TestTextForm:
    def test_required_ordering(self):
        p = pq({(6, 5): 1, (5, 4): 3, (4, 3): 1, (5, 5): 2})
        assert p.to_text() == "p^4*q^3 + 3*p^5*q^4 + 2*p^5*q^5 + p^6*q^5"

    def test_zero_and_constants(self):
        assert MultiPoly.zero(PQ).to_text() == "0"
        assert MultiPoly.constant(PQ, 7).to_text() == "7"
        assert MultiPoly.constant(PQ, -7).to_text() == "-7"

    def test_unit_coefficients_and_signs(self):
        assert pq({(1, 1): -1, (0, 2): 1}).to_text() == "q^2 - p*q"
        assert pq({(1, 0): 1, (0, 0): -2}).to_text() == "-2 + p"

    def test_json_terms_round_trip_order(self):
        p = pq({(2, 0): 12345678901234567890, (0, 1): -1})
        assert json.loads(series._json_terms(zip(*p.terms), p.terms.values())) == [
            {"exp": [0, 1], "coef": "-1"},
            {"exp": [2, 0], "coef": "12345678901234567890"},
        ]


def _reference_sorted_terms(p):
    return sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]))


def _reference_to_text(p):
    """`MultiPoly.to_text` as it was written before factors were cached:
    the reference its output must equal byte for byte."""
    if not p.terms:
        return "0"
    parts = []
    for exps, coef in _reference_sorted_terms(p):
        factors = []
        for v, e in zip(p.variables, exps):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        mag = abs(coef)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        parts.append(("-" if coef < 0 else "+", body))
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _reference_to_json_terms(p):
    return [{"exp": list(e), "coef": str(c)} for e, c in _reference_sorted_terms(p)]


@st.composite
def any_polys(draw):
    """Polynomials over 0..4 distinct variables, with unit, small and
    huge coefficients of both signs and exponents from 0 up to large."""
    variables = tuple(draw(st.lists(st.sampled_from(("x", "p", "q", "q2", "q3", "q4")),
                                    unique=True, max_size=4)))
    exps = st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 10 ** 4))
                       for _ in variables])
    coefs = st.one_of(st.sampled_from((-1, 1)), st.integers(-20, 20),
                      st.integers(-10 ** 80, 10 ** 80))
    return MultiPoly(variables, draw(st.dictionaries(exps, coefs, max_size=12)))


class TestTextFormAgainstReference:
    @given(any_polys())
    @settings(max_examples=300)
    def test_random_polynomials(self, p):
        assert p.to_text() == _reference_to_text(p)

    @given(any_polys())
    @settings(max_examples=300)
    def test_column_renderers(self, p):
        # what `kbonacci series` prints for a gf with markers, from the
        # exponent columns that the recurrence yields
        assert series._text(p.variables, zip(*p.terms), p.terms.values()) \
            == _reference_to_text(p)
        assert series._json_terms(zip(*p.terms), p.terms.values()) \
            == json.dumps(_reference_to_json_terms(p))

    def test_factor_tables_stay_bounded(self):
        p = MultiPoly(("p", "q"), {(e, 1): 1 for e in range(5000)})
        assert p.to_text() == _reference_to_text(p)
        assert len(series._factors("p")) <= 4096

    def test_edge_cases(self):
        polys = [
            MultiPoly.zero(()), MultiPoly.zero(PQ),
            MultiPoly.constant((), 1), MultiPoly.constant((), -1),
            MultiPoly.constant((), -10 ** 200), MultiPoly.constant(PQ, 1),
            pq({(0, 0): -1, (1, 0): -1, (0, 1): 1, (7, 11): -10 ** 50}),
            pq({(1, 0): 1, (0, 1): 1}), pq({(0, 0): 1}) * -1,
        ]
        for p in polys:
            assert p.to_text() == _reference_to_text(p), p.terms
            assert series._json_terms(zip(*p.terms), p.terms.values()) \
                == json.dumps(_reference_to_json_terms(p)), p.terms


class TestTrustedOutputs:
    """`expand`, `specialize` and the ring operations build polynomials
    with no checks; each must equal the checked constructor's result on
    the same data, so it only ever holds what validation accepts."""

    @staticmethod
    def assert_valid(c):
        assert type(c.variables) is tuple and type(c.terms) is dict
        assert c == MultiPoly(c.variables, c.terms)

    def gfs(self, k):
        yield from (family.gf(k) for family in FAMILIES.values())
        yield from (gf_named_total(name, k) for name in TOTALS)
        yield gf_deg4_alternate(k)

    def test_expand_and_specialize(self):
        for k in range(2, 6):
            for gf in self.gfs(k):
                aux = gf.aux_variables
                substitutions = [{v: 1 for v in aux[:i]} for i in range(1, len(aux) + 1)]
                substitutions += [{v: value} for v in aux for value in (-1, 0, 2)]
                for c in expand(gf, 20):
                    self.assert_valid(c)
                    for values in substitutions:
                        self.assert_valid(c.specialize(values))

    @given(small_polys(PQ, max_coef=2), small_polys(PQ, max_coef=2), st.integers(-2, 2))
    def test_ring_operations(self, a, b, m):
        for c in (a + b, a - b, -a, a * b, a * m, m * a, a + m, m - a, a ** 2,
                  a.rename({"p": "z"})):
            self.assert_valid(c)


class TestRationalGF:
    def test_first_variable_must_be_x(self):
        one = MultiPoly.constant(PQ, 1)
        with pytest.raises(ValueError):
            RationalGF(one, one)

    def test_non_unit_constant_rejected(self):
        # every coefficient is divisible by the constant term; still refused
        x = ("x",)
        for const in (2, -1):
            with pytest.raises(ValueError, match=r"x\^0 slice must be the constant 1"):
                RationalGF(MultiPoly(x, {(1,): 2}), MultiPoly(x, {(0,): const, (1,): -4}))

    def test_zero_constant_rejected(self):
        x = ("x",)
        with pytest.raises(ValueError):
            RationalGF(MultiPoly(x, {(1,): 1}), MultiPoly(x, {(1,): 1}))

    def test_non_divisible_constant_rejected(self):
        x = ("x",)
        with pytest.raises(ValueError):
            RationalGF(MultiPoly(x, {(1,): 1}), MultiPoly(x, {(0,): 2, (1,): 1}))


class TestExpand:
    def test_first_coefficient_of_polyomino_family(self):
        assert expand(gf_polyomino(2), 1)[1] == pq({(2, 1): 1, (3, 2): 1})

    def test_denominator_one_returns_numerator_slices(self):
        v = ("x", "q")
        num = MultiPoly(v, {(1, 2): 5, (3, 0): -1})
        gf = RationalGF(num, MultiPoly.constant(v, 1))
        coeffs = expand(gf, 3)
        assert coeffs[1] == MultiPoly(("q",), {(2,): 5})
        assert coeffs[2].is_zero
        assert coeffs[3] == MultiPoly(("q",), {(0,): -1})

    def test_hamiltonian_total_fibonacci(self):
        assert expand_ints(gf_named_total("ham", 2), 4)[1:] == [2, 3, 5, 8]

    def test_expand_ints_requires_univariate(self):
        with pytest.raises(ValueError, match="requires a gf in x alone"):
            expand_ints(gf_polyomino(2), 3)
        with pytest.raises(ValueError, match="requires a gf in x alone"):
            expand_ints(gf_polyomino(2), -1)

    def test_expand_ints_rejects_negative_n_max(self):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            expand_ints(gf_named_total("area", 2), -1)

    @pytest.mark.parametrize("n_max", [2.0, 2.5, True, "3", None])
    def test_non_int_n_max_rejected(self, n_max):
        # each is a one-line ValueError: 2.0 once raised an AttributeError
        # in `expand` and a TypeError in `expand_ints`, and True ran as 1
        for gf, f in ((gf_polyomino(2), expand), (gf_named_total("vertices", 2), expand),
                      (gf_named_total("vertices", 2), expand_ints)):
            with pytest.raises(ValueError, match="n must be an int, got"):
                f(gf, n_max)

    def test_expand_ints_equals_expand(self):
        # `expand` and `expand_ints` run the same int recurrence for a gf
        # in x alone, so both are compared with the independent reference
        for k in range(2, 9):
            for name in ("area", "perimeter", "vertices", "edges",
                         "deg2", "deg3", "deg4", "ham"):
                gf = gf_named_total(name, k)
                assert expand_ints(gf, 300) == _reference_ints(gf, 300), (name, k)

    def test_expand_ints_edge_cases(self):
        gf = gf_named_total("ham", 3)
        assert expand_ints(gf, 0) == _reference_ints(gf, 0) == [0]
        v = ("x",)
        beyond = RationalGF(MultiPoly(v, {(0,): 3, (1,): 2, (5,): 7, (9,): -1}),
                            MultiPoly(v, {(0,): 1, (1,): -1, (2,): 3}))
        # denominator 1: a recurrence window of depth 0
        polynomial = RationalGF(MultiPoly(v, {(0,): 3, (2,): -5, (7,): 1, (20,): 2}),
                                MultiPoly.constant(v, 1))
        for n_max in (0, 1, 4, 5, 8, 12):
            assert expand_ints(beyond, n_max) == _reference_ints(beyond, n_max)
            assert expand_ints(polynomial, n_max) == _reference_ints(polynomial, n_max)

    @given(small_polys(), small_polys(), small_polys(max_terms=3, max_exp=3))
    @settings(max_examples=30)
    def test_linearity(self, a, b, d):
        den = MultiPoly(("x",), {(0,): 1}) + MultiPoly(
            ("x",), {e: c for e, c in d.terms.items() if e != (0,)})
        ga = RationalGF(a, den)
        gb = RationalGF(b, den)
        gab = RationalGF(a + b, den)
        ca, cb, cab = expand(ga, 6), expand(gb, 6), expand(gab, 6)
        assert all(ca[n] + cb[n] == cab[n] for n in range(7))


class TestIterExpand:
    """`iter_expand` is the one recurrence, yielded a coefficient at a
    time; `expand` is its list."""

    @pytest.mark.parametrize("n_max", [2.0, True, -1])
    def test_arguments_checked_at_the_call(self, n_max):
        # a generator body runs only at its first next(): the checks must not
        for gf in (gf_polyomino(2), gf_named_total("vertices", 2)):
            for iterate in (iter_expand, iter_text, iter_json_terms):
                with pytest.raises(ValueError, match="n must be an int|n_max must be >= 0"):
                    iterate(gf, n_max)

    @staticmethod
    def gfs(k):
        """Every family plain and with each marker at 1 and at 2, and
        every named total."""
        for family in FAMILIES.values():
            gf = family.gf(k)
            yield gf
            for v in gf.aux_variables:
                yield gf.specialize({v: 1})
                yield gf.specialize({v: 2})
        yield from (gf_named_total(name, k) for name in TOTALS)

    def test_list_is_expand(self):
        for k in range(2, 6):
            for gf in self.gfs(k):
                coeffs = iter_expand(gf, 25)
                assert not isinstance(coeffs, list)
                assert list(coeffs) == expand(gf, 25), (k, gf)

    def test_equals_the_reference(self):
        # denominator 1 (a polynomial), in x alone and with a marker: a
        # recurrence window of depth 0
        polynomials = [RationalGF(MultiPoly(v, num), MultiPoly.constant(v, 1)) for v, num in (
            (("x",), {(0,): 3, (2,): -5, (7,): 1, (20,): 2}),
            (("x", "p"), {(1, 2): 5, (3, 0): -1, (9, 1): 4, (20, 3): 2}))]
        for gf in (*(gf for k in range(2, 6) for gf in self.gfs(k)), *polynomials):
            assert list(iter_expand(gf, 15)) == _expand_reference(gf, 15), gf

    @pytest.mark.parametrize("iterate", [iter_text, iter_json_terms, iter_expand])
    def test_holds_only_the_window(self, iterate):
        # the stream holds the last 2k + 2 coefficients and the one it
        # yields (about 13 KB); the list of all 5,001 takes 1.76 MB.  At
        # k = 10^6 the window is 4 deep, not 2k + 3: the denominator has
        # no term of x-degree 5..5000
        for gf in (gf_named_total("edges", 4), gf_hamiltonian(10**6)):
            tracemalloc.start()
            try:
                for _ in iterate(gf, 5000):
                    pass
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 100_000, gf

    def test_each_coefficient_leaves_as_soon_as_it_is_made(self):
        # the first next() at k = 60 computes c_0 alone (4 KB at peak), not
        # c_0..c_60 with c_0 held until the window behind it fills (2.1 MB)
        coeffs = iter_text(gf_polyomino(60), 200)
        tracemalloc.start()
        try:
            assert next(coeffs) == "0"
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_rendered_streams(self):
        for k in range(2, 6):
            for gf in self.gfs(k):
                coeffs = expand(gf, 15)
                assert list(iter_text(gf, 15)) == [c.to_text() for c in coeffs]
                assert list(iter_json_terms(gf, 15)) == [
                    json.dumps(_reference_to_json_terms(c)) for c in coeffs]

    def test_a_prefix_needs_no_more_terms(self):
        # n_max sets the packing width; the first coefficients do not depend on it
        for gf in (gf_graph(3), gf_degree(4), gf_named_total("ham", 3)):
            coeffs = iter_expand(gf, 200)
            assert [next(coeffs) for _ in range(6)] == expand(gf, 5)

    def test_n_max_zero_yields_one_coefficient(self):
        for gf in (gf_polyomino(2), gf_named_total("area", 2)):
            assert [c.is_zero for c in iter_expand(gf, 0)] == [True]


def _reference_ints(gf, n_max):
    return [c.as_int() for c in _expand_reference(gf, n_max)]


def _expand_reference(gf, n_max):
    """The recurrence in plain MultiPoly arithmetic on the x-slices, with
    no packing: the reference that expand() must equal exactly."""
    def x_slices(p):
        slices = {}
        for exps, coef in p.terms.items():
            slices.setdefault(exps[0], {})[exps[1:]] = coef
        return {d: MultiPoly(gf.aux_variables, t) for d, t in slices.items()}

    num, den = x_slices(gf.numerator), x_slices(gf.denominator)
    assert den.get(0) == MultiPoly.constant(gf.aux_variables, 1)
    zero = MultiPoly.zero(gf.aux_variables)
    coeffs = []
    for n in range(n_max + 1):
        c = num.get(n, zero)
        for j, dj in den.items():
            if 1 <= j <= n:
                c = c - dj * coeffs[n - j]
        coeffs.append(c)
    return coeffs


class TestUnivariateKernel:
    """`expand` of a gf in x alone runs on the int recurrence that
    `expand_ints` lists; these compare it with `_expand_reference`, which
    shares no code with either."""

    def test_the_window_does_not_grow_with_k(self):
        # at k = 10^6 the denominators reach x^(2k + 2) and x^(k + 1); a
        # window that deep would take tens of MB, though c_0..c_3 read
        # only the terms of x-degree <= 3.  Words of length <= 3 tell no
        # k >= 4 apart.
        big = (gf_named_total("area", 10**6),
               gf_polyomino(10**6).specialize({"p": 1, "q": 1}))
        small = (gf_named_total("area", 4), gf_polyomino(4).specialize({"p": 1, "q": 1}))
        for gf, reference in zip(big, small):
            tracemalloc.start()
            try:
                coeffs = expand_ints(gf, 3)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert coeffs == expand_ints(reference, 3) != [0] * 4
            assert peak < 100_000

    def test_every_named_total_equals_the_reference(self):
        for k in range(2, 9):
            for name in TOTALS:
                gf = gf_named_total(name, k)
                assert expand(gf, 300) == _expand_reference(gf, 300), (name, k)

    def test_coefficients_are_constants_in_no_variables(self):
        coeffs = expand(gf_named_total("deg4", 3), 8)
        assert all(c.variables == () for c in coeffs)
        assert coeffs[0].terms == {} and coeffs[0].to_text() == "0"
        assert [c.as_int() for c in coeffs] == expand_ints(gf_named_total("deg4", 3), 8)

    def test_edge_cases(self):
        v = ("x",)
        den = MultiPoly(v, {(0,): 1, (1,): -1, (2,): 3})
        cases = [
            gf_named_total("ham", 3),
            RationalGF(MultiPoly.zero(v), den),
            RationalGF(MultiPoly(v, {(0,): 3, (1,): 2, (5,): 7, (9,): -1}), den),
            RationalGF(MultiPoly(v, {(0,): 5}), MultiPoly.constant(v, 1)),
            # (6x - 3x^2) / (-3 + 6x + 9x^3), divided through by -3
            RationalGF(MultiPoly(v, {(1,): -2, (2,): 1}),
                       MultiPoly(v, {(0,): 1, (1,): -2, (3,): -3})),
        ]
        for gf in cases:
            for n_max in (0, 1, 4, 5, 8, 12):
                assert expand(gf, n_max) == _expand_reference(gf, n_max), (gf, n_max)
        assert expand(cases[1], 6) == [MultiPoly.zero(())] * 7
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            expand(cases[0], -1)


class TestSpecializeBeforeExpanding:
    """Substitution is a ring map fixing x, and every denominator's x^0
    slice is the constant 1, so specializing a gf commutes with expanding
    it."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_commutes_with_expand(self, family):
        for k in range(2, 6):
            gf = FAMILIES[family].gf(k)
            coeffs = expand(gf, 14)
            aux = gf.aux_variables
            for mask in range(1, 2 ** len(aux)):
                names = [v for i, v in enumerate(aux) if mask >> i & 1]
                for value in (1, -1, 2, 0):
                    values = dict.fromkeys(names, value)
                    assert expand(gf.specialize(values), 14) == [
                        c.specialize(values) for c in coeffs], (family, k, values)

    def test_all_markers_give_a_gf_in_x_alone(self):
        gf = gf_degree(3).specialize({"q2": 1, "q3": 1, "q4": 1})
        assert gf.variables == ("x",)
        assert [c.as_int() for c in expand(gf, 10)] == [0] + [
            count_words(n, 3) for n in range(1, 11)]

    def test_empty_values_leave_the_gf(self):
        gf = gf_graph(3)
        assert gf.specialize({}) == gf

    def test_rejects_x_and_unknown_names(self):
        gf = gf_polyomino(2)
        with pytest.raises(ValueError, match="series variable x"):
            gf.specialize({"x": 1})
        with pytest.raises(ValueError, match="series variable x"):
            gf.specialize({"x": 1, "p": 1})
        with pytest.raises(ValueError, match="series variable x"):
            gf_named_total("area", 3).specialize({"x": 2})
        with pytest.raises(ValueError, match="unknown variables"):
            gf.specialize({"r": 1})


def random_gfs(aux=("p", "q"), max_exp=60):
    """Random num/den over (x, *aux) with D(0) = 1 and aux exponents up to
    max_exp, so the packed fields are wide and their sums near the bound."""
    def terms(min_x):
        exps = st.tuples(st.integers(min_x, 4),
                         *([st.integers(0, max_exp)] * len(aux)))
        return st.dictionaries(exps, st.integers(-9, 9), max_size=5)

    variables = ("x",) + aux
    one = {(0,) * len(variables): 1}
    return st.tuples(terms(0), terms(1)).map(lambda nd: RationalGF(
        MultiPoly(variables, nd[0]), MultiPoly(variables, {**nd[1], **one})))


@st.composite
def unchecked_gf_terms(draw):
    """Numerator and denominator term dicts over (x,), (x, p) or (x, p, q)
    that RationalGF may refuse: the denominator's x^0 slice is the
    constant 1, 0, 2 or -1, sometimes with a marker term beside it, and
    a term may carry a float or bool exponent."""
    variables = draw(st.sampled_from((("x",), ("x", "p"), ("x", "p", "q"))))
    aux_exps = [st.integers(0, 6)] * (len(variables) - 1)
    coefs = st.integers(-9, 9)
    num = draw(st.dictionaries(st.tuples(st.integers(0, 4), *aux_exps), coefs, max_size=5))
    den = draw(st.dictionaries(st.tuples(st.integers(1, 4), *aux_exps), coefs, max_size=5))
    den[(0,) * len(variables)] = draw(st.sampled_from((1, 1, 1, 0, 2, -1)))
    if len(variables) > 1 and draw(st.integers(0, 3)) == 0:
        den[(0, *draw(st.tuples(st.integers(1, 3), *aux_exps[1:])))] = draw(
            st.sampled_from((1, -1, 4)))
    if draw(st.integers(0, 3)) == 0:
        exps = list(draw(st.tuples(st.integers(0, 4), *aux_exps)))
        exps[draw(st.integers(0, len(exps) - 1))] = draw(
            st.sampled_from((0.0, 1.0, 2.5, True, False)))
        draw(st.sampled_from((num, den)))[tuple(exps)] = draw(coefs)
    return variables, num, den


def _acceptable(variables, num, den):
    """RationalGF's preconditions, stated independently of series.py."""
    if any(type(e) is not int for exps in (*num, *den) for e in exps):
        return False
    return {e: c for e, c in den.items() if e[0] == 0 and c} == {(0,) * len(variables): 1}


class TestConstructionIsTheOnlyFailurePoint:
    """Whatever RationalGF accepts, both kernels expand exactly; whatever
    they could not expand, construction refuses with a ValueError."""

    @given(unchecked_gf_terms(), st.integers(0, 8))
    @settings(max_examples=300, deadline=None)
    def test_accepted_gfs_expand_like_the_reference(self, terms, n_max):
        variables, num, den = terms
        try:
            gf = RationalGF(MultiPoly(variables, num), MultiPoly(variables, den))
        except ValueError:
            assert not _acceptable(variables, num, den)
            return
        assert _acceptable(variables, num, den)
        assert expand(gf, n_max) == _expand_reference(gf, n_max)
        if not gf.aux_variables:
            assert expand_ints(gf, n_max) == _reference_ints(gf, n_max)


class TestExpandEquivalence:
    def test_family_constructors(self):
        for k in range(2, 7):
            gfs = [gf_polyomino(k), gf_graph(k), gf_degree(k), gf_hamiltonian(k),
                   gf_deg4_alternate(k)]
            gfs += [gf_named_total(name, k) for name in
                    ("area", "perimeter", "vertices", "edges",
                     "deg2", "deg3", "deg4", "ham")]
            for gf in gfs:
                assert expand(gf, 40) == _expand_reference(gf, 40), (k, gf)

    def test_widest_family_field(self):
        # p^34 at x^7: the largest aux exponent of any family's denominator
        gf = gf_graph(6)
        assert max(e[1] for e in gf.denominator.terms) == 5 * 6 + 4
        assert expand(gf, 120) == _expand_reference(gf, 120)

    def test_field_filled_exactly(self):
        # c_n = p^(13 + 5n) q^n: at n = 10 the p exponent is 63, every bit
        # of a 6-bit field, with q packed right above it
        v = ("x", "p", "q")
        gf = RationalGF(MultiPoly(v, {(0, 13, 0): 1}),
                        MultiPoly(v, {(0, 0, 0): 1, (1, 5, 1): -1}))
        coeffs = expand(gf, 10)
        assert coeffs == _expand_reference(gf, 10)
        assert coeffs[10] == MultiPoly(("p", "q"), {(63, 10): 1})

    def test_zero_terms(self):
        gf = gf_degree(3)
        assert expand(gf, 0) == _expand_reference(gf, 0) == [
            MultiPoly.zero(gf.aux_variables)]

    def test_numerator_beyond_n_max(self):
        v = ("x", "p")
        num = MultiPoly(v, {(1, 3): 2, (5, 1): 7, (9, 2): -1})
        den = MultiPoly(v, {(0, 0): 1, (1, 1): -1, (2, 0): 3})
        gf = RationalGF(num, den)
        for n_max in (0, 1, 3, 4, 8):
            assert expand(gf, n_max) == _expand_reference(gf, n_max)

    def test_constant_denominator(self):
        v = ("x", "p", "q")
        gf = RationalGF(MultiPoly(v, {(0, 0, 0): 4, (2, 5, 1): -3, (3, 0, 9): 1}),
                        MultiPoly.constant(v, 1))
        assert expand(gf, 5) == _expand_reference(gf, 5)

    def test_non_unit_denominator_constant_rejected(self):
        v = ("x", "p")
        with pytest.raises(ValueError, match=r"x\^0 slice must be the constant 1"):
            RationalGF(MultiPoly(v, {(1, 2): 6, (2, 0): -3}),
                       MultiPoly(v, {(0, 0): -3, (1, 1): 6, (3, 4): 9}))

    def test_x0_slice_must_be_one(self):
        v = ("x", "p")
        with pytest.raises(ValueError, match=r"x\^0 slice must be the constant 1"):
            RationalGF(MultiPoly(v, {(1, 0): 1}),
                       MultiPoly(v, {(0, 0): 1, (0, 1): 1}))

    @given(random_gfs(), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_random_multivariate(self, gf, n_max):
        assert expand(gf, n_max) == _expand_reference(gf, n_max)

    @given(random_gfs(aux=("q2", "q3", "q4")), st.integers(0, 8))
    @settings(max_examples=25, deadline=None)
    def test_random_three_aux(self, gf, n_max):
        assert expand(gf, n_max) == _expand_reference(gf, n_max)


def _in_graded_order(p):
    return list(p.terms) == sorted(p.terms, key=lambda e: (sum(e), e))


PQR = ("p", "q", "r")


class TestGradedOrder:
    """Every producer yields its terms in graded-lex order: by total
    degree, then by exponent tuple.  Renderers read them as they are."""

    @given(st.dictionaries(st.tuples(*[st.integers(0, 40)] * 3),
                           st.integers(-3, 3), max_size=12))
    def test_checked_constructor(self, terms):
        p = MultiPoly(PQR, terms)
        assert _in_graded_order(p)
        assert p.terms == {e: c for e, c in terms.items() if c}
        assert _in_graded_order(MultiPoly.monomial(PQR, 3, q=2, r=5))
        assert _in_graded_order(MultiPoly.constant(PQR, 4))

    @given(small_polys(PQR, max_exp=9, max_coef=3), small_polys(PQR, max_exp=9, max_coef=3),
           st.integers(-3, 3), st.integers(0, 3))
    def test_ring_operations(self, a, b, m, e):
        for c in (a + b, a - b, a * b, a ** e, -a, a * m, m * a, a + m, m - a):
            assert _in_graded_order(c), c.terms

    @given(small_polys(PQR, max_terms=8, max_exp=9, max_coef=3),
           st.dictionaries(st.sampled_from(PQR), st.integers(-2, 2)))
    def test_specialize_and_rename(self, p, values):
        assert _in_graded_order(p.specialize(values))
        assert _in_graded_order(p.rename({"p": "z", "r": "p"}))

    @given(st.sampled_from((("p",), ("p", "q"), ("q2", "q3", "q4"))).flatmap(random_gfs),
           st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_expanded_coefficients(self, gf, n_max):
        assert all(map(_in_graded_order, iter_expand(gf, n_max)))

    def test_family_coefficients(self):
        for family in FAMILIES.values():
            assert all(map(_in_graded_order, iter_expand(family.gf(4), 30)))


def _expand_tuples(gf, n_max):
    """The recurrence c_n = N_n - sum_{j>=1} D_j c_{n-j} on dicts keyed by
    exponent tuples, with no packing and no MultiPoly arithmetic: the
    reference for the field layout of `expand`'s packed keys."""
    num, den = {}, {}
    for exps, coef in gf.numerator.terms.items():
        num.setdefault(exps[0], {})[exps[1:]] = coef
    for exps, coef in gf.denominator.terms.items():
        if exps[0]:
            den.setdefault(exps[0], {})[exps[1:]] = coef
    coeffs = []
    for n in range(n_max + 1):
        c = dict(num.get(n, {}))
        for j, dj in den.items():
            if j <= n:
                for dexps, dcoef in dj.items():
                    for exps, coef in coeffs[n - j].items():
                        key = tuple(a + b for a, b in zip(dexps, exps))
                        c[key] = c.get(key, 0) - dcoef * coef
        coeffs.append({exps: coef for exps, coef in c.items() if coef})
    return coeffs


class TestPackedKeysAgainstTuples:
    """`expand` packs the total degree above one fixed-width field per
    marker; these compare it with `_expand_tuples`, which packs nothing,
    far beyond the n <= 10 that brute force reaches."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_families(self, family):
        for k in range(2, 7):
            gf = FAMILIES[family].gf(k)
            assert [c.terms for c in expand(gf, 40)] == _expand_tuples(gf, 40), k

    @given(st.sampled_from((("p",), ("p", "q"), ("q2", "q3", "q4"))).flatmap(
               lambda aux: random_gfs(aux, max_exp=10 ** 6)),
           st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_large_exponents(self, gf, n_max):
        assert [c.terms for c in expand(gf, n_max)] == _expand_tuples(gf, n_max)

    @pytest.mark.parametrize("gf, n_max", [(gf_degree(5), 60), (gf_polyomino(3), 75),
                                           (gf_graph(3), 75)])
    def test_benchmark_sizes(self, gf, n_max):
        # the largest expansions that `kbonacci series` is timed on
        assert [c.terms for c in expand(gf, n_max)] == _expand_tuples(gf, n_max)


XPQ = ("x", "p", "q")


def _with_x_sign(terms, sign):
    """The polynomial over x, p, q with `terms`, x replaced by sign*x."""
    return MultiPoly(XPQ, {e: c * sign ** e[0] for e, c in terms.items()})


class TestUnitMultipliersAndCancellation:
    """The packed recurrence adds each earlier coefficient by one of three
    loops, for the multipliers +1, -1 and any other, and deletes the terms
    that cancel.  D = 1 + xp - xq + 3xpq - x^2p^2q + 2x^3q^4 has all three
    multipliers under both signs of x; (D*F)/D = F cancels every term past
    F's degree in x."""

    D = {(0, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): -1, (1, 1, 1): 3, (2, 2, 1): -1,
         (3, 0, 4): 2}
    F = {(0, 0, 0): 1, (1, 2, 0): -4, (2, 1, 3): 5, (4, 0, 1): 1}

    @pytest.mark.parametrize("sign", [1, -1])
    def test_product_over_denominator_is_the_numerator(self, sign):
        d, f = _with_x_sign(self.D, sign), _with_x_sign(self.F, sign)
        gf = RationalGF(d * f, d)
        slices = [MultiPoly(PQ, {e[1:]: c for e, c in f.terms.items() if e[0] == n})
                  for n in range(41)]
        coeffs = expand(gf, 40)
        assert coeffs == slices
        assert all(c.is_zero for c in coeffs[5:])
        assert [c.terms for c in coeffs] == _expand_tuples(gf, 40)
        assert list(iter_text(gf, 40)) == list(map(_reference_to_text, slices))
        assert list(iter_json_terms(gf, 40)) == [
            json.dumps(_reference_to_json_terms(c)) for c in slices]
        assert not any(0 in coefs for _, coefs in series._coefficients(gf, 40))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_quotient(self, sign):
        # F/D: past F's degree each c_n starts from its first contribution
        gf = RationalGF(_with_x_sign(self.F, sign), _with_x_sign(self.D, sign))
        assert [c.terms for c in expand(gf, 40)] == _expand_tuples(gf, 40)
        assert not any(0 in coefs for _, coefs in series._coefficients(gf, 40))


class TestFamilyConstructors:
    @pytest.mark.parametrize("k", [1, 2.0, 2.5, True])
    def test_k_must_be_an_int_of_at_least_two(self, k):
        for build in (gf_polyomino, gf_graph, gf_degree, gf_hamiltonian, gf_deg4_alternate,
                      lambda k: gf_named_total("vertices", k)):
            with pytest.raises(ValueError, match="must be an int >= 2"):
                build(k)

    def test_polyomino_coefficients(self):
        coeffs = expand(gf_polyomino(3), 3)
        assert coeffs[1] == pq({(2, 1): 1, (3, 2): 1})
        assert coeffs[3] == pq({(4, 3): 1, (5, 4): 3, (5, 5): 2, (6, 5): 1})
        assert expand(gf_polyomino(2), 2)[2] == pq({(3, 2): 1, (4, 3): 2})

    def test_graph_coefficients(self):
        coeffs = expand(gf_graph(3), 3)
        assert coeffs[1] == pq({(7, 6): 1, (4, 4): 1})
        assert coeffs[3] == pq({(16, 12): 1, (15, 11): 2, (13, 10): 3, (10, 8): 1})

    def test_degree_coefficients(self):
        v = ("q2", "q3", "q4")
        coeffs = expand(gf_degree(3), 3)
        assert coeffs[1] == MultiPoly(v, {(4, 2, 0): 1, (4, 0, 0): 1})
        assert coeffs[3] == MultiPoly(v, {
            (6, 4, 2): 1, (6, 2, 2): 1, (5, 4, 2): 2, (5, 4, 1): 2, (4, 4, 0): 1})

    def test_degree_x1_counts_two_words(self):
        for k in (2, 3, 5):
            c = expand(gf_degree(k), 1)[1]
            assert c.specialize({"q2": 1, "q3": 1, "q4": 1}).as_int() == 2

    def test_hamiltonian_coefficients(self):
        c2 = expand(gf_hamiltonian(3), 2)[2]
        assert c2.terms.get((0,), 0) == 1  # only the 2x2 block fails
        for k in (2, 4):
            coeffs = expand(gf_hamiltonian(k), 8)
            for n in range(1, 9):
                q1 = coeffs[n].specialize({"q": 1}).as_int()
                assert q1 == count_words(n, k)

    def test_k2_marks_every_graph_hamiltonian(self):
        coeffs = expand(gf_hamiltonian(2), 8)
        for n in range(1, 9):
            assert coeffs[n].terms.get((0,), 0) == 0
            assert coeffs[n].terms.get((1,), 0) == count_words(n, 2)

    def test_aux_at_one_recovers_counts(self):
        for k in (2, 3, 4):
            for gf in (gf_polyomino(k), gf_graph(k), gf_degree(k), gf_hamiltonian(k)):
                coeffs = expand(gf, 8)
                ones = {v: 1 for v in gf.aux_variables}
                for n in range(1, 9):
                    assert coeffs[n].specialize(ones).as_int() == count_words(n, k)

    def test_parameter_validation(self):
        for builder in (gf_polyomino, gf_graph, gf_degree, gf_hamiltonian):
            with pytest.raises(ValueError):
                builder(1)


class TestNamedTotals:
    def test_area_values(self):
        assert expand_ints(gf_named_total("area", 2), 2)[1:] == [3, 8]

    def test_deg3_first_value(self):
        assert expand_ints(gf_named_total("deg3", 2), 1)[1] == 2

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            gf_named_total("girth", 2)

    def test_alternate_deg4_shares_numerator(self):
        assert gf_deg4_alternate(3).numerator == gf_named_total("deg4", 3).numerator
        assert gf_deg4_alternate(3).denominator != gf_named_total("deg4", 3).denominator


class TestTotalWeightSeries:
    def test_area_totals(self):
        assert total_weight_series(gf_polyomino(2), "q", 2)[1:] == [3, 8]

    def test_perimeter_total_length_one(self):
        assert total_weight_series(gf_polyomino(2), "p", 1)[1:] == [5]

    def test_absent_variable_gives_zeros(self):
        v = ("x", "q")
        gf = RationalGF(MultiPoly(v, {(1, 0): 1}),
                        MultiPoly(v, {(0, 0): 1, (1, 0): -1}))
        assert total_weight_series(gf, "q", 5) == [0] * 6

    def test_reads_the_coefficients_as_they_come(self, monkeypatch):
        # one weighted sum per coefficient: the whole list is never built
        wanted = [c.weighted_total("q") for c in expand(gf_graph(3), 30)]
        monkeypatch.setattr(series, "expand", None)
        assert total_weight_series(gf_graph(3), "q", 30) == wanted

    def test_x_rejected(self):
        with pytest.raises(ValueError):
            total_weight_series(gf_polyomino(2), "x", 3)
        with pytest.raises(ValueError):
            total_weight_series(gf_polyomino(2), "q4", 3)
