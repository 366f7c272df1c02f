import math
from fractions import Fraction
from itertools import product

import pytest

from oplax import qjacobi as qj
from oplax.bianchi import BianchiType, UnsupportedLabelError
from oplax.cli import main
from oplax.lax import SLOTS, antisymmetry_break
from oplax.ncalg import SYMBOLS, CoeffPoly, NCPoly, commutator
from oplax.suites import _spectrum_delta, quantum_suite

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
        products per call."""
        qsc = qj.q_structure(btype, qj.table_for(alphabet))
        real = NCPoly.__mul__
        products = 0

        def counting(self, other):
            nonlocal products
            products += isinstance(other, NCPoly)
            return real(self, other)

        monkeypatch.setattr(NCPoly, "__mul__", counting)
        qj.q_jacobiator(qsc, conv)
        assert products == 18


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
    """Each gate fails when the pipeline it checks is broken."""

    @staticmethod
    def case_passed(case_id: str) -> bool:
        return next(c.passed for c in quantum_suite().cases
                    if c.case_id == case_id)

    @pytest.mark.parametrize("broken", ("left_inexact", "right_lambda_free"))
    def test_machine_check_can_fail(self, monkeypatch, broken):
        real = qj.verify_theorem_q

        def fake(btype, conv, alphabet):
            rep = real(btype, conv, alphabet)
            if broken == "left_inexact" and conv == "left":
                return rep._replace(exact=(False, True, True))
            if broken == "right_lambda_free" and conv == "right":
                res = rep.residuals
                bumped = res[0] + NCPoly.scalar(res[0].table, 1)
                return rep._replace(residuals=(bumped,) + res[1:])
            return rep

        monkeypatch.setattr(qj, "verify_theorem_q", fake)
        assert not self.case_passed("jacobi_theorem_machine_check")

    def test_claimed_jacobi_checked_from_both_sides(self, monkeypatch):
        """A wrong J^3 in the one closed form fails both the contraction
        (at D) and the semiclassical H = E reduction (at Delta)."""
        real = qj.claimed_jacobi

        def doubled(btype, xi, det):
            j1, j2, j3 = real(btype, xi, det)
            return [j1, j2, j3 * 2]

        monkeypatch.setattr(qj, "claimed_jacobi", doubled)
        cases = {c.case_id: c.passed for c in quantum_suite().cases}
        assert not cases["jacobi_theorem_machine_check"]
        assert not cases["corollary_HE_VIIa"]

    def test_zero_j3_fails_derivative_cases(self, monkeypatch, capsys):
        """With J^3 = 0 there is no C to divide out: the derivative cases
        fail and the suite, and `oplax verify`, still return a report."""
        real = qj.claimed_jacobi

        def zero_j3(btype, xi, det):
            j1, j2, j3 = real(btype, xi, det)
            return [j1, j2, j3 * 0]

        monkeypatch.setattr(qj, "claimed_jacobi", zero_j3)
        cases = {c.case_id: c.passed for c in quantum_suite().cases}
        derivative = [k for k in cases if k.startswith("derivative_")]
        assert len(derivative) == 2 * len(LABELS)
        assert not any(cases[k] for k in derivative)
        assert not cases["spectrum_determinant"]
        assert main(["verify", "--target", "quantum"]) == 1
        out, err = capsys.readouterr()
        assert "case=derivative_C_VIIa detail=undefined pass=false" in out
        assert "Traceback" not in err

    @staticmethod
    def delta_cases(cases: dict) -> list:
        delta = [k for k in cases if k.startswith("jacobi_delta_divisible_")]
        assert len(delta) == 2 * len(LABELS)
        return delta

    @staticmethod
    def broken_structure(entry):
        """q_structure with the scalar 1 added to mu at one 0-based entry,
        which breaks its antisymmetry."""
        real = qj.q_structure

        def broken(btype, table=qj.PQ_TABLE):
            mu = [[list(row) for row in plane]
                  for plane in real(btype, table)]
            i, j, k = entry
            mu[i][j][k] = mu[i][j][k] + NCPoly.scalar(table, 1)
            return mu

        return broken

    @pytest.mark.parametrize("alphabet", ("PQ", "qpPQ"))
    def test_broken_mu_fails_divisibility(self, monkeypatch, alphabet):
        """A mu that is not antisymmetric has no alternating Jacobiator to
        divide by Delta: broken at any one of its 27 entries, no component is
        divisible and none certifies.  The verdict reads mu alone, so the
        left and right conventions share it, broken or not, and the suite
        reports one divisibility case per label and alphabet.  Broken at one
        entry, every divisibility case of the suite and the machine check
        fail."""
        for btype in LABELS:
            for entry in (None, *product(range(3), repeat=3)):
                with monkeypatch.context() as m:
                    if entry is not None:
                        m.setattr(qj, "q_structure",
                                  self.broken_structure(entry))
                    left, right = (qj.verify_theorem_q(btype, conv, alphabet)
                                   for conv in ("left", "right"))
                assert left.delta_divisible is right.delta_divisible \
                    is (entry is None), (btype, entry)
                assert left.all_exact is (entry is None), (btype, entry)
        monkeypatch.setattr(qj, "q_structure",
                            self.broken_structure((0, 1, 2)))
        cases = {c.case_id: c.passed for c in quantum_suite().cases}
        assert not cases["jacobi_theorem_machine_check"]
        assert not any(cases[k] for k in self.delta_cases(cases))

    def test_symmetric_structure_fails_theorem(self, monkeypatch, request):
        """A mu with +value at the transposed slots is not antisymmetric:
        neither the closed form nor the divisibility by Delta holds.
        q_structure is cached, so the cache is emptied before the mutation
        and again after it."""
        def symmetric(values, zero=0):
            mu = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
            for (i, j, k), value in zip(SLOTS, values, strict=True):
                mu[i][j][k] = mu[i][k][j] = value
            return mu

        qj.q_structure.cache_clear()
        request.addfinalizer(qj.q_structure.cache_clear)
        monkeypatch.setattr(qj, "antisymmetric", symmetric)
        cases = {c.case_id: c.passed for c in quantum_suite().cases}
        assert not cases["jacobi_theorem_machine_check"]
        assert not any(cases[k] for k in self.delta_cases(cases))

    @staticmethod
    def heisenberg_cases(monkeypatch, mutate) -> list:
        """The verdicts of the heisenberg_identification cases, one per
        label, with corollary_HE's components replaced by
        mutate(j1, j2, j3)."""
        real = qj.corollary_HE
        monkeypatch.setattr(qj, "corollary_HE",
                            lambda btype: mutate(*real(btype)))
        cases = {c.case_id: c.passed for c in quantum_suite().cases}
        return [cases[f"heisenberg_identification_{b.value}"]
                for b in LABELS]

    def test_commuting_components_fail_heisenberg(self, monkeypatch):
        """(J1, J1, J3) keeps all three brackets ([J1, J1] = 0 = 0 J3) but
        gives beta^2 = 0, the abelian algebra: the identification fails."""
        assert not any(self.heisenberg_cases(
            monkeypatch, lambda j1, j2, j3: (j1, j1, j3)))

    def test_non_scalar_j3_fails_heisenberg(self, monkeypatch):
        P = NCPoly.letter(qj.PQ_TABLE, "P")
        assert not any(self.heisenberg_cases(
            monkeypatch, lambda j1, j2, j3: (j1, j2, j3 + P)))

    @staticmethod
    def skewed_beta_sq_cases(monkeypatch, factor) -> dict:
        """The quantum suite's verdicts with derivative_algebra's beta^2
        multiplied by factor."""
        real = qj.derivative_algebra

        def skewed(components):
            da = real(components)
            return da._replace(beta_sq=da.beta_sq * factor)

        monkeypatch.setattr(qj, "derivative_algebra", skewed)
        return {c.case_id: c.passed for c in quantum_suite().cases}

    @pytest.mark.parametrize("factor", (2, -1, LAM))
    def test_spectrum_determinant_follows_beta_sq(self, monkeypatch, factor):
        cases = self.skewed_beta_sq_cases(monkeypatch, factor)
        assert not cases["spectrum_determinant"]

    def test_beta_sq_scaled_by_omega_over_p0_fails_only_beta_sq(
            self, monkeypatch):
        """The spectrum is read at omega = p0, where omega/p0 = 1, so only
        the derivative_beta_sq cases see this scaling."""
        cases = self.skewed_beta_sq_cases(
            monkeypatch, CoeffPoly.monomial(1, {"omega": 1, "p0": -1}))
        assert not any(cases[f"derivative_beta_sq_{b.value}"]
                       for b in LABELS)
        assert cases["spectrum_determinant"]
