from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplax.ncalg import (SYMBOLS, CoeffPoly, CommutationTable, NCPoly,
                         commutator, quasi_ccr_table, sum_of_products)

LAM = CoeffPoly.symbol("lambda")
EPS = CoeffPoly.symbol("eps")


# -- strategies -------------------------------------------------------------

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)

symbol_names = st.sampled_from(("lambda", "eps", "omega", "a", "p0", "r"))
few_names = st.sampled_from(("eps", "p0", "r"))


@st.composite
def coeff_polys(draw, names=symbol_names):
    n = draw(st.integers(0, 3))
    poly = CoeffPoly.zero()
    for _ in range(n):
        powers = draw(st.dictionaries(names,
                                      st.integers(-2, 3), max_size=3))
        poly = poly + CoeffPoly.monomial(draw(fractions), powers)
    return poly


TABLE = quasi_ccr_table(("P", "Q"))

words = st.lists(st.sampled_from(("P", "Q")), max_size=4).map(tuple)


@st.composite
def nc_polys(draw):
    n = draw(st.integers(0, 3))
    poly = NCPoly.zero(TABLE)
    for _ in range(n):
        poly = poly + NCPoly(TABLE, {draw(words):
                                     CoeffPoly.number(draw(fractions))})
    return poly


QPPQ_TABLE = quasi_ccr_table(("q", "p", "P", "Q"))


@st.composite
def table_polys(draw, table):
    """An NCPoly over table: up to three words of up to three letters, each
    with a coeff_polys coefficient."""
    letters = st.lists(st.sampled_from(table.letters), max_size=3).map(tuple)
    return NCPoly(table, draw(st.dictionaries(letters, coeff_polys(),
                                              max_size=3)))


# -- scalar ring --------------------------------------------------------------


def substitute_term_by_term(poly, mapping):
    """CoeffPoly.substitute as first written: every power by repeated
    multiplication, every term added to a fresh copy of the sum."""
    values = {SYMBOLS.index(name): val if isinstance(val, CoeffPoly)
              else CoeffPoly.number(val) for name, val in mapping.items()}
    out = CoeffPoly.zero()
    for exps, coeff in poly.terms.items():
        kept = list(exps)
        factor = CoeffPoly.number(coeff)
        for idx, val in values.items():
            e = kept[idx]
            if e == 0:
                continue
            kept[idx] = 0
            factor = factor * (val ** e)
        out = out + factor * CoeffPoly({tuple(kept): 1})
    return out


# positive, negative and zero exponents of eps, omega, p0 and r
MIXED = (CoeffPoly.monomial(3, {"eps": 2, "p0": -1})
         + CoeffPoly.monomial(Fraction(-1, 2), {"eps": 1, "r": 1})
         + CoeffPoly.monomial(2, {"p0": 1, "omega": -2})
         + CoeffPoly.monomial(-1, {"r": 1, "a": 1})
         + CoeffPoly.number(5))


class TestCoeffPoly:
    def test_constructors(self):
        assert CoeffPoly.zero().is_zero
        assert CoeffPoly.number(0).is_zero
        assert CoeffPoly.one().constant_value() == 1
        exps, = CoeffPoly.symbol("omega").terms
        assert exps[SYMBOLS.index("omega")] == 1

    def test_r_squared_reduces(self):
        r = CoeffPoly.symbol("r")
        two_p0 = CoeffPoly.monomial(2, {"p0": 1})
        assert r * r == two_p0
        assert r ** 3 == two_p0 * r
        assert r ** -2 == two_p0._inverse()

    def test_inverse_of_r(self):
        r = CoeffPoly.symbol("r")
        inv = CoeffPoly.symbol("r", -1)
        assert r * inv == CoeffPoly.one()
        # 1/r = r / (2 p0) in canonical form
        assert inv == r * CoeffPoly.monomial(Fraction(1, 2), {"p0": -1})

    def test_division_and_pow(self):
        p = CoeffPoly.symbol("omega", 2) / CoeffPoly.symbol("p0")
        assert p == CoeffPoly.monomial(1, {"omega": 2, "p0": -1})
        assert p ** 0 == CoeffPoly.one()
        assert (p ** -1) * p == CoeffPoly.one()

    def test_non_monomial_inverse_rejected(self):
        with pytest.raises(ValueError):
            (CoeffPoly.one() + CoeffPoly.symbol("a"))._inverse()

    def test_division_by_zero(self):
        a = CoeffPoly.symbol("a")
        assert a / 2 == CoeffPoly.monomial(Fraction(1, 2), {"a": 1})
        for divide in (lambda: a / 0, lambda: a / Fraction(0),
                       lambda: a / CoeffPoly.zero(),
                       lambda: CoeffPoly.zero() ** -1):
            with pytest.raises(ZeroDivisionError):
                divide()

    def test_constant_value_domain(self):
        with pytest.raises(ValueError):
            CoeffPoly.symbol("a").constant_value()

    def test_substitute(self):
        p = LAM * LAM * CoeffPoly.symbol("p0", -1)
        out = p.substitute({"lambda": Fraction(1, 2), "p0": 2})
        assert out.constant_value() == Fraction(1, 8)

    def test_substitute_by_poly(self):
        p = CoeffPoly.symbol("eps")
        out = p.substitute(
            {"eps": CoeffPoly.symbol("omega")
             * CoeffPoly.monomial(Fraction(1, 2), {"p0": -1})})
        assert out == CoeffPoly.monomial(Fraction(1, 2),
                                         {"omega": 1, "p0": -1})

    def test_substitute_reduces_r_and_drops_cancelled_terms(self):
        r = CoeffPoly.symbol("r")
        assert (r * EPS).substitute({"eps": r}).terms \
            == CoeffPoly.monomial(2, {"p0": 1}).terms
        p0 = CoeffPoly.symbol("p0")
        assert (EPS + p0).substitute({"eps": -p0}).terms == {}

    def test_render_deterministic(self):
        p = CoeffPoly.monomial(Fraction(1, 32),
                               {"lambda": 2, "omega": 2, "Delta": 1,
                                "p0": -4})
        assert p.render() == "1/32*lambda^2*omega^2*Delta/p0^4"

    def test_render_zero_and_sign(self):
        assert CoeffPoly.zero().render() == "0"
        assert (-CoeffPoly.one()).render() == "-1"

    def test_unknown_symbol(self):
        with pytest.raises(KeyError):
            CoeffPoly.monomial(1, {"nope": 1})

    def test_coordinate_symbols_retired(self):
        """The determinant is the one symbol Delta: the nine coordinate
        symbols x1..z3 are not in the scalar ring."""
        assert len(SYMBOLS) == 8
        with pytest.raises(KeyError):
            CoeffPoly.symbol("x1")
        with pytest.raises(KeyError):
            CoeffPoly.monomial(1, {"z3": 1})
        with pytest.raises(KeyError):
            CoeffPoly.one().substitute({"y2": 1})

    def test_constant_hashes_like_its_value(self):
        assert len({CoeffPoly.number(1), 1}) == 1
        assert hash(CoeffPoly.number(Fraction(3, 2))) == hash(Fraction(3, 2))
        assert hash(CoeffPoly.zero()) == hash(0)

    @given(coeff_polys(), coeff_polys(), coeff_polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + CoeffPoly.zero() == a
        assert a * CoeffPoly.one() == a
        assert a - a == CoeffPoly.zero()

    @given(coeff_polys(few_names),
           st.dictionaries(few_names,
                           st.one_of(st.just(0), fractions,
                                     coeff_polys(few_names)),
                           max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_substitute_matches_term_by_term(self, poly, mapping):
        """Same terms in the same order as the term-by-term algorithm; few
        symbols, so that products meet r^2 and terms cancel."""
        try:
            want = substitute_term_by_term(poly, mapping)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)):
                poly.substitute(mapping)
            return
        got = poly.substitute(mapping)
        assert list(got.terms.items()) == list(want.terms.items())
        assert_canonical(got)

    @pytest.mark.parametrize("mapping", (
        {"eps": 0},
        {"p0": Fraction(-2, 3), "eps": 0},
        {"r": 0, "omega": 3},
        {"omega": Fraction(1, 2), "r": EPS + 1, "p0": 4},
    ))
    def test_substitute_numbers_match_term_by_term(self, mapping):
        """Numbers, 0 among them, for symbols with negative and positive
        exponents: the terms of the term-by-term algorithm in its order."""
        got = MIXED.substitute(mapping)
        want = substitute_term_by_term(MIXED, mapping)
        assert list(got.terms.items()) == list(want.terms.items())

    @pytest.mark.parametrize("mapping", (
        {"omega": 0}, {"eps": 0, "omega": 0}, {"r": EPS + 1, "omega": 0}))
    def test_substitute_zero_for_negative_power(self, mapping):
        with pytest.raises(ZeroDivisionError):
            MIXED.substitute(mapping)

    def test_integral_coefficients_stay_int(self):
        """Where int arithmetic would give a float, the coefficient stays
        exact: an int when it is integral, else a Fraction."""
        cases = (
            # _canon_term halves an odd int (3/r^2 = 3/(2 p0)) and shifts
            # an even one
            (CoeffPoly.monomial(3, {"r": -2}),
             {"p0": -1}, Fraction(3, 2)),
            (CoeffPoly.monomial(3 ** 40, {"r": -2}),
             {"p0": -1}, Fraction(3 ** 40, 2)),
            (CoeffPoly.monomial(4, {"r": -2, "a": 1}),
             {"p0": -1, "a": 1}, 2),
            # an int to a negative power (1 ** -1) would be the float 1.0
            (CoeffPoly.monomial(3, {"eps": -1, "a": 1}).substitute(
                {"eps": 1}), {"a": 1}, 3),
            (CoeffPoly.monomial(2, {"eps": -1}).substitute({"eps": 3}),
             {}, Fraction(2, 3)),
            # 1 / int is a float
            (CoeffPoly.monomial(2, {"a": 1})._inverse(),
             {"a": -1}, Fraction(1, 2)),
            (CoeffPoly.monomial(4, {"a": 1}) / 2, {"a": 1}, 2),
            (CoeffPoly.monomial(4, {"a": 1}) / CoeffPoly.number(8),
             {"a": 1}, Fraction(1, 2)),
            (CoeffPoly.monomial(Fraction(1, 2), {"a": 1}) * 2, {"a": 1}, 1),
        )
        for poly, powers, coeff in cases:
            (got,) = poly.terms.values()
            assert poly == CoeffPoly.monomial(coeff, powers)
            assert type(got) is type(coeff) and got == coeff, poly
            assert_canonical(poly)

    def test_float_coefficients_rejected(self):
        """A float is not converted to the binary fraction it rounds to:
        as a number, a monomial's coefficient or a substituted value it
        raises, while ints and Fractions build the same polynomials as
        before."""
        eps = CoeffPoly.symbol("eps")
        for build in (CoeffPoly.number,
                      lambda x: CoeffPoly.monomial(x, {"p0": 1}),
                      lambda x: eps.substitute({"eps": x})):
            with pytest.raises(TypeError):
                build(0.5)
        assert CoeffPoly.number(3).terms == {(0,) * len(SYMBOLS): 3}
        assert CoeffPoly.monomial(Fraction(4, 2), {"p0": 1}) \
            == CoeffPoly.monomial(2, {"p0": 1})
        assert eps.substitute({"eps": Fraction(1, 2)}) \
            == CoeffPoly.number(Fraction(1, 2))
        assert eps.substitute({"eps": 2}) == CoeffPoly.number(2)

    @given(coeff_polys())
    @settings(max_examples=60, deadline=None)
    def test_r_exponent_canonical(self, a):
        from oplax.ncalg import _R
        for exps in a.terms:
            assert exps[_R] in (0, 1)


# -- the kernel against a dense reference ------------------------------------

R, P0 = SYMBOLS.index("r"), SYMBOLS.index("p0")
KERNEL_SYMBOLS = tuple(SYMBOLS.index(n)
                       for n in ("lambda", "p0", "r", "Delta"))

raw_terms = st.dictionaries(
    st.tuples(*(st.integers(-3, 3) for _ in KERNEL_SYMBOLS)),
    fractions, max_size=4)


def full_exps(small):
    exps = [0] * len(SYMBOLS)
    for i, e in zip(KERNEL_SYMBOLS, small):
        exps[i] = e
    return tuple(exps)


def dense_canon(pairs):
    """Sum (exps, coeff) pairs with r^2 = 2 p0 applied; zeros dropped."""
    out = defaultdict(Fraction)
    for exps, coeff in pairs:
        exps = list(exps)
        half = exps[R] // 2
        exps[R] -= 2 * half
        exps[P0] += half
        out[tuple(exps)] += coeff * Fraction(2) ** half
    return {e: c for e, c in out.items() if c != 0}


def dense_mul(a, b):
    return dense_canon((tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
                       for e1, c1 in a.items() for e2, c2 in b.items())


def dense_add(a, b):
    return dense_canon(list(a.items()) + list(b.items()))


def assert_canonical(poly):
    """Reduced r-exponents, no zero, and each coefficient an int or a
    Fraction that is not integral (never a float)."""
    for exps, coeff in poly.terms.items():
        assert coeff != 0
        assert exps[R] in (0, 1)
        assert type(coeff) is int \
            or (type(coeff) is Fraction and coeff.denominator > 1), coeff


class TestKernelAgainstDenseReference:
    @given(raw_terms, raw_terms)
    @settings(max_examples=150, deadline=None)
    def test_sum_and_product(self, raw1, raw2):
        raw1 = {full_exps(e): c for e, c in raw1.items()}
        raw2 = {full_exps(e): c for e, c in raw2.items()}
        a, b = CoeffPoly(raw1), CoeffPoly(raw2)
        ref_a, ref_b = dense_canon(raw1.items()), dense_canon(raw2.items())
        assert a.terms == ref_a and b.terms == ref_b
        for value, ref in ((a + b, dense_add(ref_a, ref_b)),
                           (a * b, dense_mul(ref_a, ref_b)),
                           (a - b, dense_add(ref_a, {e: -c for e, c
                                                     in ref_b.items()}))):
            assert value.terms == ref
            assert_canonical(value)

    @given(raw_terms)
    @settings(max_examples=100, deadline=None)
    def test_units_and_negation(self, raw):
        a = CoeffPoly({full_exps(e): c for e, c in raw.items()})
        one, zero = CoeffPoly.one(), CoeffPoly.zero()
        for value in (a * 1, 1 * a, a * one, one * a,
                      a + 0, 0 + a, a + zero, zero + a):
            assert value == a and value.terms == a.terms
            assert_canonical(value)
        assert (a + (-a)).terms == {}
        assert ((-a) + a).terms == {}


# -- rewriting ----------------------------------------------------------------


class TestCommutationTable:
    def test_quasi_ccr_rule(self):
        x = NCPoly(TABLE, {("Q", "P"): 1})
        expected = NCPoly(TABLE, {("P", "Q"): 1, (): -(LAM * EPS)})
        assert x == expected

    def test_rule_must_reduce_order(self):
        with pytest.raises(ValueError):
            CommutationTable(("P", "Q"), {("P", "Q"): CoeffPoly.one()})

    def test_rule_type_check(self):
        with pytest.raises(TypeError):
            CommutationTable(("P", "Q"), {("Q", "P"): 1})

    def test_free_letters_commute(self):
        t = quasi_ccr_table(("q", "p", "P", "Q"))
        assert NCPoly(t, {("p", "q"): 1}) == NCPoly(t, {("q", "p"): 1})
        assert NCPoly(t, {("P", "q"): 1}) == NCPoly(t, {("q", "P"): 1})

    def test_long_word_terminates_and_orders(self):
        x = NCPoly(TABLE, {("Q", "Q", "P", "P"): 1})
        for word in x.terms:
            assert list(word) == sorted(word, key=TABLE.order.__getitem__)

    def test_unknown_letter(self):
        with pytest.raises(KeyError):
            NCPoly(TABLE, {("Z",): 1})


# -- quotient algebra -------------------------------------------------------


class TestNCPoly:
    def test_commutator_PQ(self):
        P = NCPoly.letter(TABLE, "P")
        Q = NCPoly.letter(TABLE, "Q")
        # [P, Q] = PQ - QP = lambda * eps
        assert commutator(P, Q) == NCPoly.scalar(TABLE, LAM * EPS)

    def test_scalar_part(self):
        s = NCPoly.scalar(TABLE, LAM)
        assert s.scalar_part() == LAM
        with pytest.raises(ValueError):
            NCPoly.letter(TABLE, "P").scalar_part()

    def test_truth_is_nonzero(self):
        """Like CoeffPoly, a zero NCPoly is falsy."""
        assert not NCPoly.zero(TABLE)
        assert not NCPoly.scalar(TABLE, 0)
        assert NCPoly.letter(TABLE, "P")
        assert NCPoly.scalar(TABLE, LAM)

    def test_table_mismatch(self):
        other = quasi_ccr_table(("P", "Q"))
        with pytest.raises(ValueError):
            NCPoly.letter(TABLE, "P") + NCPoly.letter(other, "P")

    def test_substitute_symbols(self):
        x = NCPoly.scalar(TABLE, LAM * EPS)
        out = x.substitute_symbols({"eps": Fraction(1, 3)})
        assert out == NCPoly.scalar(TABLE, LAM * Fraction(1, 3))

    @given(nc_polys(), nc_polys(), nc_polys())
    @settings(max_examples=40, deadline=None)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c

    @given(nc_polys(), nc_polys())
    @settings(max_examples=40, deadline=None)
    def test_commutator_antisymmetry(self, a, b):
        assert commutator(a, b) == -commutator(b, a)

    @given(nc_polys(), nc_polys(), nc_polys())
    @settings(max_examples=25, deadline=None)
    def test_commutator_jacobi(self, a, b, c):
        total = (commutator(a, commutator(b, c))
                 + commutator(b, commutator(c, a))
                 + commutator(c, commutator(a, b)))
        assert total.is_zero

    @given(nc_polys())
    @settings(max_examples=40, deadline=None)
    def test_normal_ordering_idempotent(self, a):
        again = NCPoly(TABLE, dict(a.terms))
        assert again == a
        for word in a.terms:
            assert list(word) == sorted(word, key=TABLE.order.__getitem__)


class TestSumOfProducts:
    """The kernel of every product: one dict of raw words, normal-ordered
    once, equals the sum of the separately normal-ordered products."""

    @pytest.mark.parametrize("table", (TABLE, QPPQ_TABLE),
                             ids=("PQ", "qpPQ"))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_folded_products(self, table, data):
        polys = table_polys(table)
        pairs = data.draw(st.lists(st.tuples(polys, polys), max_size=4))
        folded = NCPoly.zero(table)
        for u, v in pairs:
            folded = folded + u * v
        assert sum_of_products(table, pairs) == folded

    def test_raw_words_are_rewritten(self):
        P, Q = NCPoly.letter(TABLE, "P"), NCPoly.letter(TABLE, "Q")
        # Q P -> P Q - lambda eps, gathered with the raw P Q
        assert sum_of_products(TABLE, [(Q, P), (P, Q)]) == NCPoly(
            TABLE, {("P", "Q"): 2, (): -(LAM * EPS)})

    def test_cancelling_pairs_give_zero(self):
        P, Q = NCPoly.letter(TABLE, "P"), NCPoly.letter(TABLE, "Q")
        one = NCPoly.scalar(TABLE, 1)
        # raw cancellation, and [P, Q] - lambda eps cancelled by rewriting
        for pairs in ([(P, Q), (-P, Q)],
                      [(P, Q), (-Q, P), (NCPoly.scalar(TABLE, -(LAM * EPS)),
                                         one)]):
            out = sum_of_products(TABLE, pairs)
            assert not out and out == NCPoly.zero(TABLE)

    def test_empty_list_is_zero(self):
        for table in (TABLE, QPPQ_TABLE):
            out = sum_of_products(table, [])
            assert out == NCPoly.zero(table) and out.table is table

    def test_table_mismatch(self):
        P = NCPoly.letter(TABLE, "P")
        other = NCPoly.letter(QPPQ_TABLE, "P")
        for pairs in ([(P, other)], [(other, P)], [(P, P), (other, other)]):
            with pytest.raises(ValueError, match="different commutation"):
                sum_of_products(TABLE, pairs)
        with pytest.raises(ValueError, match="different commutation"):
            P * other
