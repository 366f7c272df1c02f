import math
from fractions import Fraction

import pytest

from oplax import qjacobi as qj
from oplax.bianchi import BianchiType, UnsupportedLabelError
from oplax.cli import main
from oplax.lax import SLOTS
from oplax.ncalg import CoeffPoly, NCPoly, commutator
from oplax.suites import quantum_suite

LAM = CoeffPoly.symbol("lambda")
EPS = CoeffPoly.symbol("eps")

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
                        assert not coeff.contains("a")

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


class TestBracketAndJacobiator:
    def test_convention_domain(self):
        qsc = qj.q_structure(BianchiType.VIIA)
        x, y, _ = qj.symbolic_coordinates(qj.PQ_TABLE)
        with pytest.raises(ValueError):
            qj.q_jacobiator(x, y, y, qsc, conv="middle")

    def test_bracket_antisymmetric_on_scalars(self):
        qsc = qj.q_structure(BianchiType.VIA)
        x, y, _ = qj.symbolic_coordinates(qj.PQ_TABLE)
        xy = q_bracket(x, y, qsc)
        yx = q_bracket(y, x, qsc)
        for a, b in zip(xy, yx):
            assert a == -b

    def test_jacobiator_vanishes_on_repeated_arguments(self):
        qsc = qj.q_structure(BianchiType.VIIA)
        x, y, _ = qj.symbolic_coordinates(qj.PQ_TABLE)
        collapse = {"y1": CoeffPoly.symbol("x1"),
                    "y2": CoeffPoly.symbol("x2"),
                    "y3": CoeffPoly.symbol("x3")}
        for c in qj.q_jacobiator(x, y, y, qsc):
            # setting y = x kills the determinant factor and the component
            assert c.substitute_symbols(collapse).is_zero
        for c in qj.q_jacobiator(x, x, x, qsc):
            assert c.is_zero


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


class TestJacobiatorContraction:
    """The tensor contraction equals the nested brackets it replaces."""

    @pytest.mark.parametrize("btype, conv, alphabet", CONFIGS)
    def test_matches_nested_brackets(self, btype, conv, alphabet):
        table = qj.table_for(alphabet)
        qsc = qj.q_structure(btype, table)
        x, y, z = qj.symbolic_coordinates(table)
        for args in ((x, y, z), (x, y, y), (x, x, x)):
            contracted = qj.q_jacobiator(*args, qsc, conv)
            assert contracted == nested_jacobiator(*args, qsc, conv)

    def test_operator_component_rejected(self):
        table = qj.PQ_TABLE
        qsc = qj.q_structure(BianchiType.VIIA, table)
        x, y, z = qj.symbolic_coordinates(table)
        P = NCPoly.letter(table, "P")
        bad = (P,) + x[1:]
        for args in ((bad, y, z), (x, bad, z), (x, y, bad)):
            with pytest.raises(ValueError):
                qj.q_jacobiator(*args, qsc)


class TestDeterminant:
    def test_unit_coords_give_one(self):
        assert qj.det_poly().substitute(qj._UNIT_COORDS).constant_value() == 1

    def test_six_terms_and_signs(self):
        D = qj.det_poly()
        assert len(D.terms) == 6
        swap = {"x1": CoeffPoly.symbol("y1"), "y1": CoeffPoly.symbol("x1"),
                "x2": CoeffPoly.symbol("y2"), "y2": CoeffPoly.symbol("x2"),
                "x3": CoeffPoly.symbol("y3"), "y3": CoeffPoly.symbol("x3")}
        assert D.substitute(swap) == -D


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
        assert all(rep.delta_divisible)

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
        assert not da.C.contains("a")
        assert da.beta_sq == -(da.C * CoeffPoly.symbol("Delta"))
        assert da.bracket_13_zero and da.bracket_23_zero
        assert da.bracket_12_matches
        assert da.basis_brackets_ok
        assert da.rescaled_mu23_1 == 1
        assert da.heisenberg_ok

    def test_commutators_directly(self):
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
        assert len(derivative) == 4 * len(LABELS)
        assert not any(cases[k] for k in derivative)
        assert not cases["spectrum_determinant"]
        assert main(["verify", "--target", "quantum"]) == 1
        out, err = capsys.readouterr()
        assert "case=derivative_C_VIIa detail=undefined pass=false" in out
        assert "Traceback" not in err

    @staticmethod
    def delta_cases(cases: dict) -> list:
        delta = [k for k in cases if k.startswith("jacobi_delta_divisible_")]
        assert len(delta) == 4 * len(LABELS)
        return delta

    def test_wrong_determinant_fails_divisibility(self, monkeypatch):
        """D with the sign of one transposition (x1 y3 z2) flipped divides
        no Jacobiator."""
        wrong = qj.det_poly() \
            + 2 * CoeffPoly.monomial(1, {"x1": 1, "y3": 1, "z2": 1})
        monkeypatch.setattr(qj, "det_poly", lambda: wrong)
        cases = {c.case_id: c.passed for c in quantum_suite().cases}
        assert not any(cases[k] for k in self.delta_cases(cases))

    def test_symmetric_structure_fails_theorem(self, monkeypatch, request):
        """A mu with +value at the transposed slots: the Jacobiator is
        multiplied out in full, and neither the closed form nor the
        divisibility by D holds.  q_structure is cached, so the cache is
        emptied before the mutation and again after it."""
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

    @pytest.mark.parametrize("factor", (2, LAM))
    def test_spectrum_determinant_follows_beta_sq(self, monkeypatch, factor):
        real = qj.derivative_algebra

        def skewed(components):
            da = real(components)
            return da._replace(beta_sq=da.beta_sq * factor)

        monkeypatch.setattr(qj, "derivative_algebra", skewed)
        assert not self.case_passed("spectrum_determinant")
