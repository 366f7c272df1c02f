import math
from fractions import Fraction
from itertools import product

import pytest

from oplax import qjacobi as qj
from oplax.bianchi import _PARAMS, BianchiType, UnsupportedLabelError
from oplax.lax import antisymmetry_break
from oplax.ncalg import SYMBOLS, CoeffPoly, NCPoly, commutator
from oplax.suites import _spectrum_delta

from test_gates import broken_mu, fresh_caches, returning

LAM = CoeffPoly.symbol("lambda")
EPS = CoeffPoly.symbol("eps")
# the exponent of the symbol a in a CoeffPoly's terms
A_INDEX = SYMBOLS.index("a")

LABELS = (BianchiType.VIIA, BianchiType.IIIA1, BianchiType.VIA)


class TestAlphabets:
    def test_table_for(self):
        assert qj.table_for("PQ") is qj.PQ_TABLE
        assert qj.table_for("qpPQ") is qj.QPPQ_TABLE
        with pytest.raises(ValueError):
            qj.table_for("xyz")

    def test_momentum_poly_two_letter(self):
        p = qj.momentum_poly(qj.PQ_TABLE)
        expected = NCPoly(qj.PQ_TABLE, {("P", "P"): Fraction(1, 2),
                                        ("Q", "Q"): Fraction(-1, 2)})
        assert p == expected

    def test_momentum_poly_four_letter(self):
        p = qj.momentum_poly(qj.QPPQ_TABLE)
        assert p == NCPoly.letter(qj.QPPQ_TABLE, "p")

    def test_omega_q_poly_normal_orders(self):
        # (PQ + QP)/2 = PQ - (lambda eps)/2 once normal-ordered
        wq = qj.omega_q_poly(qj.PQ_TABLE)
        expected = NCPoly(qj.PQ_TABLE,
                          {("P", "Q"): CoeffPoly.one(),
                           (): -(LAM * EPS) * Fraction(1, 2)})
        assert wq == expected


class TestQStructure:
    @pytest.mark.parametrize("btype", LABELS)
    @pytest.mark.parametrize("alphabet", ("PQ", "qpPQ"))
    def test_antisymmetry(self, btype, alphabet):
        qsc = qj.q_structure(btype, qj.table_for(alphabet))
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert qsc[i][j][k] == -qsc[i][k][j]

    def test_type_ii_rejected(self):
        with pytest.raises(UnsupportedLabelError):
            qj.q_structure(BianchiType.II)

    def test_iiia1_drops_a(self):
        qsc = qj.q_structure(BianchiType.IIIA1)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for coeff in qsc[i][j][k].terms.values():
                        assert all(exps[A_INDEX] == 0
                                   for exps in coeff.terms)

    def test_n3_sign(self):
        viia = qj.q_structure(BianchiType.VIIA)
        via = qj.q_structure(BianchiType.VIA)
        assert viia[2][0][1].scalar_part().constant_value() == 1
        assert via[2][0][1].scalar_part().constant_value() == -1

    @pytest.mark.parametrize("n3", (1, -2))
    def test_follows_the_table(self, fresh_caches, monkeypatch, n3):
        """VIa's mu^3_12 in _PARAMS as +1 or -2: with only q_structure's
        cache emptied, the structure follows, as row_params solves afresh."""
        before = qj.q_structure(BianchiType.VIA)
        monkeypatch.setitem(_PARAMS, BianchiType.VIA,
                            _PARAMS[BianchiType.VIA][:3] + (n3,))
        qj.q_structure.cache_clear()
        mutated = qj.q_structure(BianchiType.VIA)
        assert mutated != before
        assert mutated[2][0][1].scalar_part().constant_value() == n3


def q_bracket(x: tuple, y: tuple, qsc, conv: str = "left") -> tuple:
    """The quantum bracket [x, y] with components sum_{jk} mu^i_{jk} x^j y^k
    for 3-tuples x, y; conv fixes the placement of the structure constant
    against the component product.  The reference that q_jacobiator's
    tensor contraction is checked against."""
    table = qsc[0][0][1].table
    comps = []
    for i in range(3):
        acc = NCPoly.zero(table)
        for j in range(3):
            for k in range(3):
                m = qsc[i][j][k]
                if m.is_zero:
                    continue
                prod = x[j] * y[k]
                acc = acc + (m * prod if conv == "left" else prod * m)
        comps.append(acc)
    return tuple(comps)


def unit_vectors(table):
    """e1, e2, e3 as 3-tuples of scalar NCPolys."""
    return tuple(tuple(NCPoly.scalar(table, int(i == j)) for j in range(3))
                 for i in range(3))


# the smallest rotation of each orbit of (a, b, c) under rotation
ORBITS = ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 1, 2), (0, 2, 1),
          (0, 2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2))

CONFIGS = tuple((btype, conv, alphabet) for btype in LABELS
                for conv in ("left", "right") for alphabet in ("PQ", "qpPQ"))


def nested_jacobiator(x, y, z, qsc, conv):
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]] from nested q_bracket calls."""
    total = None
    for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
        term = q_bracket(u, q_bracket(v, w, qsc, conv), qsc, conv)
        total = term if total is None else tuple(
            a + b for a, b in zip(total, term))
    return total


def scaled_nested_e123(qsc, conv, table) -> tuple:
    """32 p0 times the nested-bracket Jacobiator of e1, e2, e3: the scale of
    q_jacobiator."""
    scale = CoeffPoly.monomial(32, {"p0": 1})
    return tuple(comp * scale for comp in
                 nested_jacobiator(*unit_vectors(table), qsc, conv))


class TestBracketAndJacobiator:
    def test_convention_domain(self):
        qsc = qj.q_structure(BianchiType.VIIA)
        with pytest.raises(ValueError):
            qj.q_jacobiator(qsc, conv="middle")

    def test_bracket_antisymmetric_on_scalars(self):
        qsc = qj.q_structure(BianchiType.VIA)
        e = unit_vectors(qj.PQ_TABLE)
        for a in range(3):
            for b in range(3):
                for u, v in zip(q_bracket(e[a], e[b], qsc),
                                q_bracket(e[b], e[a], qsc)):
                    assert u == -v

    @pytest.mark.parametrize("btype, conv, alphabet", CONFIGS)
    def test_jacobiator_vanishes_on_repeated_arguments(self, btype, conv,
                                                       alphabet):
        """The divisibility verdict rests on alternation, which the nested
        brackets of q_structure's mu show on all 11 orbits: zero on every
        orbit with a repeated index, and odd under the transposition of
        (1, 2, 3)."""
        table = qj.table_for(alphabet)
        qsc = qj.q_structure(btype, table)
        e = unit_vectors(table)
        J = {abc: nested_jacobiator(*(e[i] for i in abc), qsc, conv)
             for abc in ORBITS}
        for orbit, comps in J.items():
            if len(set(orbit)) < 3:
                assert all(c.is_zero for c in comps), orbit
        for u, v in zip(J[0, 2, 1], J[0, 1, 2]):
            assert not v.is_zero and u == -v


class TestJacobiatorContraction:
    """J(e1, e2, e3) equals the nested brackets of the basis vectors, at
    its scale 32 p0."""

    @pytest.mark.parametrize("btype, conv, alphabet", CONFIGS)
    def test_matches_nested_brackets(self, btype, conv, alphabet):
        table = qj.table_for(alphabet)
        qsc = qj.q_structure(btype, table)
        assert qj.q_jacobiator(qsc, conv) == scaled_nested_e123(qsc, conv,
                                                                table)

    @pytest.mark.parametrize("btype, conv, alphabet", CONFIGS)
    def test_scaled_contraction_is_integral(self, btype, conv, alphabet):
        """4r mu and 32 p0 J have only int coefficients, so the contraction
        runs on Python ints; a coefficient such as 1/3 in q_structure
        would fail here rather than fall back to Fractions unseen."""
        table = qj.table_for(alphabet)
        qsc = qj.q_structure(btype, table)
        four_r = CoeffPoly.monomial(4, {"r": 1})
        scaled_mu = [m * four_r for plane in qsc for row in plane for m in row]
        scaled_J = list(qj.q_jacobiator(qsc, conv))
        coeffs = [c for value in scaled_mu + scaled_J
                  for poly in value.terms.values()
                  for c in poly.terms.values()]
        assert coeffs and all(type(c) is int for c in coeffs)

    @pytest.mark.parametrize("btype, conv, alphabet", CONFIGS)
    def test_non_antisymmetric_mu_matches_nested_brackets(self, btype, conv,
                                                          alphabet):
        """A mu broken at one transposed entry (mu^1_21 = +mu^1_12) goes
        through the same products, and J(e1, e2, e3) still equals the
        nested brackets; those no longer alternate, as an orbit with a
        repeated index shows."""
        table = qj.table_for(alphabet)
        qsc = [[list(row) for row in plane]
               for plane in qj.q_structure(btype, table)]
        qsc[0][1][0] = -qsc[0][1][0]
        assert antisymmetry_break(qsc) == (0, 0, 1)
        assert qj.q_jacobiator(qsc, conv) == scaled_nested_e123(qsc, conv,
                                                                table)
        e = unit_vectors(table)
        assert any(not c.is_zero for abc in ORBITS if len(set(abc)) < 3
                   for c in nested_jacobiator(*(e[i] for i in abc), qsc,
                                              conv))

    @pytest.mark.parametrize("btype, conv, alphabet", CONFIGS)
    def test_eighteen_operator_products(self, monkeypatch, btype, conv,
                                        alphabet):
        """J(e1, e2, e3) of an antisymmetric mu: 3 components, 3 rotations,
        and the two k != x with mu^i_xk mu^k_yz nonzero, 18 operator
        products per call, passed to the kernel as (u, v) pairs, one call
        per component."""
        qsc = qj.q_structure(btype, qj.table_for(alphabet))
        real = qj.sum_of_products
        calls = []

        def counting(table, pairs):
            calls.append(len(pairs))
            return real(table, pairs)

        monkeypatch.setattr(qj, "sum_of_products", counting)
        qj.q_jacobiator(qsc, conv)
        assert len(calls) == 3 and sum(calls) == 18


class TestTheorem:
    @pytest.mark.parametrize("btype", LABELS)
    @pytest.mark.parametrize("alphabet", ("PQ", "qpPQ"))
    def test_left_convention_certifies_exactly(self, btype, alphabet):
        rep = qj.verify_theorem_q(btype, "left", alphabet)
        assert rep.all_exact, rep.residuals

    @pytest.mark.parametrize("btype", LABELS)
    @pytest.mark.parametrize("conv", ("left", "right"))
    @pytest.mark.parametrize("alphabet", ("PQ", "qpPQ"))
    def test_delta_divisibility_all_conventions(self, btype, conv, alphabet):
        rep = qj.verify_theorem_q(btype, conv, alphabet)
        assert rep.delta_divisible is True

    @pytest.mark.parametrize("btype, conv, alphabet", CONFIGS)
    def test_residual_is_nested_difference_times_delta(self, btype, conv,
                                                        alphabet):
        """Each residual is the nested-bracket Jacobiator of e1, e2, e3
        minus the closed form at determinant 1, times the determinant
        symbol Delta: zero where the theorem holds, and in the right
        convention neither Delta^2 nor another power of p0."""
        table = qj.table_for(alphabet)
        qsc = qj.q_structure(btype, table)
        delta = CoeffPoly.symbol("Delta")
        nested = nested_jacobiator(*unit_vectors(table), qsc, conv)
        closed = qj.claimed_jacobi(btype, qj.xi_polys(table), delta)
        rep = qj.verify_theorem_q(btype, conv, alphabet)
        assert rep.residuals == tuple(j * delta - c
                                      for j, c in zip(nested, closed))

    def test_right_convention_leaves_residual(self):
        rep = qj.verify_theorem_q(BianchiType.VIIA, "right", "PQ")
        assert not rep.all_exact
        assert any(not r.is_zero for r in rep.residuals)

    def test_residuals_are_order_lambda(self):
        # the two conventions differ only by commutator terms
        rep = qj.verify_theorem_q(BianchiType.VIA, "right", "PQ")
        for res in rep.residuals:
            lam_free = res.substitute_symbols({"lambda": 0})
            assert lam_free.is_zero


class TestSemiclassical:
    def test_xi_exact_identities(self):
        xi1, xi2 = qj.xi_polys(qj.PQ_TABLE)
        h1, h2 = qj.xi_hform()
        assert qj.expand_energy_symbol(h1) == xi1
        assert qj.expand_energy_symbol(h2) == xi2

    def test_xi1_explicit_normal_form(self):
        xi1, xi2 = qj.xi_polys(qj.PQ_TABLE)
        p0 = CoeffPoly.symbol("p0")
        expected1 = NCPoly(qj.PQ_TABLE, {
            ("P", "P", "P"): Fraction(1, 2),
            ("P", "Q", "Q"): Fraction(1, 2),
            ("Q",): (LAM * EPS) * Fraction(1, 2),
            ("P",): -p0,
        })
        expected2 = NCPoly(qj.PQ_TABLE, {
            ("P", "P", "Q"): Fraction(1, 2),
            ("Q", "Q", "Q"): Fraction(1, 2),
            ("P",): -(LAM * EPS) * Fraction(3, 2),
            ("Q",): -p0,
        })
        assert xi1 == expected1
        assert xi2 == expected2

    def test_expand_energy_symbol_powers(self):
        """h^0, h^1 and h^2 in one element: each term times h_op to its
        power on the right, as repeated products."""
        t = qj.PQ_TABLE
        P, Q = NCPoly.letter(t, "P"), NCPoly.letter(t, "Q")
        h_op = (P * P + Q * Q) * Fraction(1, 2)
        x = NCPoly(t, {("Q",): CoeffPoly.symbol("h", 2) * LAM + 3,
                       ("P", "Q"): CoeffPoly.symbol("h")})
        expected = Q * h_op * h_op * LAM + Q * 3 + P * Q * h_op
        assert qj.expand_energy_symbol(x) == expected

    def test_expand_energy_symbol_rejects_negative_powers(self):
        bad = NCPoly.scalar(qj.PQ_TABLE, CoeffPoly.symbol("h", -1))
        with pytest.raises(ValueError):
            qj.expand_energy_symbol(bad)

    @pytest.mark.parametrize("btype", LABELS)
    def test_hform_expands_to_semiclassical(self, btype):
        hform = qj.semiclassical_jacobi_hform(btype)
        direct = qj.semiclassical_jacobi(btype)
        for h, d in zip(hform, direct):
            assert qj.expand_energy_symbol(h) == d

    def test_type_ii_rejected(self):
        with pytest.raises(UnsupportedLabelError):
            qj.semiclassical_jacobi(BianchiType.II)
        with pytest.raises(UnsupportedLabelError):
            qj.semiclassical_jacobi_hform(BianchiType.II)


class TestCorollaryHE:
    @pytest.mark.parametrize("btype", LABELS)
    def test_closed_forms(self, btype):
        cor = qj.corollary_HE(btype)
        a = CoeffPoly.one() if btype is BianchiType.IIIA1 \
            else CoeffPoly.symbol("a")
        coef = (LAM * a * CoeffPoly.symbol("Delta") * CoeffPoly.symbol("omega")
                * CoeffPoly.monomial(Fraction(1, 4), {"r": -1, "p0": -2}))
        assert cor[0] == NCPoly(qj.PQ_TABLE, {("Q",): -coef})
        assert cor[1] == NCPoly(qj.PQ_TABLE, {("P",): coef})
        j3 = (LAM * a * a * CoeffPoly.symbol("Delta")
              * CoeffPoly.symbol("omega")
              * CoeffPoly.monomial(Fraction(1, 2), {"p0": -2}))
        assert cor[2] == NCPoly.scalar(qj.PQ_TABLE, j3)


class TestDerivativeAlgebra:
    @pytest.mark.parametrize("btype", LABELS)
    def test_heisenberg_reduction(self, btype):
        da = qj.derivative_algebra(qj.corollary_HE(btype))
        expected_C = (LAM * LAM * CoeffPoly.symbol("omega", 2)
                      * CoeffPoly.symbol("Delta")
                      * CoeffPoly.monomial(Fraction(1, 32), {"p0": -4}))
        assert da.C == expected_C
        assert all(exps[A_INDEX] == 0 for exps in da.C.terms)
        assert da.beta_sq == -(da.C * CoeffPoly.symbol("Delta"))
        assert da.heisenberg is True

    def test_commuting_input_is_not_heisenberg(self):
        """[J1, J1] = 0 gives beta^2 = 0, the abelian algebra: reported as
        no Heisenberg identification, not raised as a division by zero."""
        j1, _, j3 = qj.corollary_HE(BianchiType.VIIA)
        da = qj.derivative_algebra([j1, j1, j3])
        assert da.beta_sq.is_zero
        assert da.heisenberg is False

    def test_zero_j3_leaves_c_undefined(self):
        j1, j2, j3 = qj.corollary_HE(BianchiType.VIIA)
        da = qj.derivative_algebra([j1, j2, j3 * 0])
        assert da == (None, None, False) and da.rendered("C") == "undefined"

    def test_commutators_directly(self):
        """The three brackets that hold by construction once C is defined,
        so that the Heisenberg verdict is beta^2 != 0."""
        j1, j2, j3 = qj.corollary_HE(BianchiType.VIIA)
        reduce = qj._reduce_he
        assert reduce(commutator(j1, j3)).is_zero
        assert reduce(commutator(j2, j3)).is_zero
        br12 = reduce(commutator(j1, j2))
        da = qj.derivative_algebra([j1, j2, j3])
        assert br12 == j3 * da.C


class TestSpectrum:
    def test_values(self):
        for n in range(11):
            assert qj.spectrum_determinant(n) == pytest.approx(
                4 * math.sqrt(2) * (2 * n + 1), rel=1e-15)

    def test_ground_state(self):
        assert qj.spectrum_determinant(0) == pytest.approx(4 * math.sqrt(2))

    def test_domain(self):
        with pytest.raises(ValueError):
            qj.spectrum_determinant(-1)

    def test_spectrum_delta_is_exact(self):
        """The suite reads Delta^2 = 32 (2n+1)^2 as an int or a Fraction,
        never a float, also where 1/k is integral."""
        for btype in LABELS:
            beta_sq = qj.derivative_algebra(qj.corollary_HE(btype)).beta_sq
            for n in range(11):
                delta_sq = _spectrum_delta(beta_sq, n)
                assert type(delta_sq) in (int, Fraction), (btype, n)
                assert delta_sq == 32 * (2 * n + 1) ** 2, (btype, n)
        # times 32, k = 1/(2n+1)^2 is the int 1 at n = 0
        delta_sq = _spectrum_delta(beta_sq * 32, 0)
        assert type(delta_sq) in (int, Fraction) and delta_sq == 1


class TestQuantumSuiteGates:
    """The divisibility verdict, mu broken entry by entry (see test_gates)."""

    @pytest.mark.parametrize("alphabet", ("PQ", "qpPQ"))
    def test_broken_mu_fails_divisibility(self, monkeypatch, alphabet):
        """A mu that is not antisymmetric has no alternating Jacobiator to
        divide by Delta: broken at any one of its 27 entries, no component is
        divisible and none certifies.  The verdict reads mu alone, so the
        left and right conventions share it, broken or not."""
        for btype in LABELS:
            for entry in (None, *product(range(3), repeat=3)):
                with monkeypatch.context() as m:
                    if entry is not None:
                        m.setattr(qj, "q_structure",
                                  broken_mu(entry)(qj.q_structure))
                    left, right = (qj.verify_theorem_q(btype, conv, alphabet)
                                   for conv in ("left", "right"))
                assert left.delta_divisible is right.delta_divisible \
                    is (entry is None), (btype, entry)
                assert left.all_exact is (entry is None), (btype, entry)


def as_lists(mu) -> list:
    return [[list(row) for row in plane] for plane in mu]


def as_tuples(mu) -> tuple:
    return tuple(tuple(map(tuple, plane)) for plane in mu)


class TestDerivedStructure:
    """4r mu and mu's antisymmetry verdict are derived once per structure,
    keyed by its value: a broken mu is derived afresh, and the real one
    reads its own entry again."""

    @pytest.mark.parametrize("nested", (as_lists, as_tuples))
    def test_broken_mu_reads_no_stale_entry(self, monkeypatch, nested):
        verdicts = []
        for entry in (None, *product(range(3), repeat=3), None):
            factory = (lambda real: real) if entry is None \
                else broken_mu(entry)
            with monkeypatch.context() as m:
                m.setattr(qj, "q_structure",
                          returning(nested)(factory(qj.q_structure)))
                rep = qj.verify_theorem_q(BianchiType.VIIA, "left", "PQ")
            verdicts.append("exact" if rep.all_exact
                            else "divisible" if rep.delta_divisible
                            else "not divisible")
        assert verdicts == ["exact"] + ["not divisible"] * 27 + ["exact"]

    def test_one_entry_per_label_and_table(self):
        qj._derived.cache_clear()
        for _ in range(2):
            for btype, conv, alphabet in CONFIGS:
                qj.verify_theorem_q(btype, conv, alphabet)
            assert qj._derived.cache_info().currsize == 6
