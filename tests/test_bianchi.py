import math
from fractions import Fraction

import numpy as np
import pytest

from oplax import suites
from oplax.bianchi import (BianchiLabel, BianchiType, StructureConstants,
                           UnsupportedLabelError, classical_jacobiator,
                           deformation_closed_form, dynamical_deformation,
                           label_params, structure_constants)
from oplax.cli import main
from oplax.lax import _exact_sqrt, build_mu, solve_C
from oplax.oscillator import HOParams, PhasePoint, trajectory
from oplax.suites import CHUNK, _chunked, bianchi_suite

# stack sizes of the stacked checks; the last needs two chunks
BATCHES = (1, 2, 7, CHUNK + 1)

DEFORMABLE = [
    BianchiLabel(BianchiType.VIIA, 0.7),
    BianchiLabel(BianchiType.VIIA, 2.0),
    BianchiLabel(BianchiType.IIIA1),
    BianchiLabel(BianchiType.VIA, 0.5),
    BianchiLabel(BianchiType.VIA, 3.0),
]


class TestLabel:
    def test_parameter_required(self):
        with pytest.raises(ValueError):
            BianchiLabel(BianchiType.VIIA)
        with pytest.raises(ValueError):
            BianchiLabel(BianchiType.VIA)

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            BianchiLabel(BianchiType.VIIA, -1.0)
        with pytest.raises(ValueError):
            BianchiLabel(BianchiType.VIA, 1.0)

    def test_parameter_forbidden(self):
        with pytest.raises(ValueError):
            BianchiLabel(BianchiType.IIIA1, 2.0)
        with pytest.raises(ValueError):
            BianchiLabel(BianchiType.II, 1.0)

    def test_a_value(self):
        assert BianchiLabel(BianchiType.IIIA1).a_value == 1
        assert BianchiLabel(BianchiType.VIA, 2.5).a_value == 2.5


class TestStructureConstants:
    def test_shape_guard(self):
        with pytest.raises(ValueError):
            StructureConstants(np.zeros((3, 3)))

    def test_component_is_one_based(self):
        sc = structure_constants(BianchiLabel(BianchiType.II))
        # Heisenberg: [e2, e3] = e1 only, so mu^1_23 = 1 sits at [0, 1, 2]
        assert sc.array[..., 0, 1, 2] == 1
        assert sc.array[..., 0, 2, 1] == -1
        assert np.count_nonzero(sc.array) == 2

    @pytest.mark.parametrize("label", DEFORMABLE)
    def test_antisymmetry(self, label):
        arr = structure_constants(label).array
        assert np.array_equal(arr, -np.swapaxes(arr, 1, 2))

    def test_viia_rows(self):
        sc = structure_constants(BianchiLabel(BianchiType.VIIA, 0.7))
        # [e1,e2] = -a e2 + e3, [e2,e3] = 0, [e3,e1] = e2 + a e3
        assert sc.array[..., 1, 0, 1] == -0.7
        assert sc.array[..., 2, 0, 1] == 1
        assert sc.array[..., 0, 1, 2] == 0
        assert sc.array[..., 1, 2, 0] == 1
        assert sc.array[..., 2, 2, 0] == 0.7

    def test_via_vs_iiia1(self):
        # III_{a=1} is VI_a continued to a = 1
        via = structure_constants(BianchiLabel(BianchiType.VIA, 2.0)).array
        iii = structure_constants(BianchiLabel(BianchiType.IIIA1)).array
        via_at_1 = np.where(np.abs(via) == 2.0, np.sign(via), via)
        assert np.array_equal(via_at_1, iii)


class TestDeformations:
    def test_type_ii_not_deformable(self):
        params = HOParams(omega=1.0, p0=1.0)
        label = BianchiLabel(BianchiType.II)
        with pytest.raises(UnsupportedLabelError):
            label_params(label, 1.0)
        with pytest.raises(UnsupportedLabelError):
            deformation_closed_form(label, params, 0.0)

    @pytest.mark.parametrize("label", DEFORMABLE + [
        BianchiLabel(BianchiType.VIIA, 2),
        BianchiLabel(BianchiType.VIA, Fraction(1, 2))])
    def test_label_params_reads_the_structure_tensor(self, label):
        """label_params builds no array, yet solves the tensor that
        structure_constants holds: the same types, signed zeros included."""
        for p0 in (0.9, Fraction(9, 8)):
            expected = solve_C(structure_constants(label).array.tolist(), p0)
            assert repr(label_params(label, p0)) == repr(expected)

    @pytest.mark.parametrize("label", DEFORMABLE)
    def test_initial_value(self, label):
        params = HOParams(omega=1.3, p0=0.9)
        sc0 = structure_constants(label).array.astype(float)
        gen = dynamical_deformation(label, params, 0.0).array
        closed = deformation_closed_form(label, params, 0.0).array
        assert np.allclose(gen, sc0, atol=1e-12)
        assert np.allclose(closed, sc0, atol=1e-12)

    @pytest.mark.parametrize("label", DEFORMABLE)
    def test_generated_matches_closed_form(self, label):
        for w, p0 in ((1.3, 0.9), (0.5, 2.0)):
            params = HOParams(omega=w, p0=p0)
            for t in np.linspace(0.0, 4 * math.pi / w, 50):
                gen = dynamical_deformation(label, params, float(t)).array
                closed = deformation_closed_form(label, params,
                                                 float(t)).array
                assert np.max(np.abs(gen - closed)) <= 1e-12

    @pytest.mark.parametrize("label", DEFORMABLE)
    def test_periodicity(self, label):
        params = HOParams(omega=1.3, p0=0.9)
        period = 4 * math.pi / params.omega  # Q, P have half the q,p frequency
        for t in (0.0, 0.7, 2.1):
            d0 = dynamical_deformation(label, params, t).array
            d1 = dynamical_deformation(label, params, t + period).array
            assert np.allclose(d0, d1, atol=1e-9)

    @pytest.mark.parametrize("p0", [Fraction(1, 2), Fraction(2),
                                    Fraction(8), Fraction(9, 2)])
    def test_exact_roundtrip_bianchi_rows(self, p0):
        r = _exact_sqrt(2 * p0)
        ho = HOParams(omega=Fraction(1), p0=p0)
        pt = PhasePoint(t=Fraction(0), q=Fraction(0), p=p0,
                        Q=Fraction(0), P=r, H=p0 * p0 / 2)
        for label in (BianchiLabel(BianchiType.VIIA, Fraction(3, 4)),
                      BianchiLabel(BianchiType.IIIA1),
                      BianchiLabel(BianchiType.VIA, Fraction(5, 2))):
            sc = structure_constants(label).array.tolist()
            C = solve_C(sc, p0)
            assert build_mu(C, ho, pt) == sc


class TestClassicalJacobiator:
    def test_lie_algebra_rows_satisfy_jacobi(self):
        rng = np.random.default_rng(21)
        labels = DEFORMABLE + [BianchiLabel(BianchiType.II)]
        for label in labels:
            sc = structure_constants(label)
            for _ in range(20):
                x, y, z = rng.uniform(-2, 2, size=(3, 3))
                assert np.max(np.abs(classical_jacobiator(sc, x, y, z))) \
                    <= 1e-12

    @pytest.mark.parametrize("label", DEFORMABLE)
    def test_jacobi_preserved_along_flow(self, label):
        rng = np.random.default_rng(22)
        params = HOParams(omega=1.3, p0=0.9)
        for t in np.linspace(0.0, 9.0, 12):
            sc = dynamical_deformation(label, params, float(t))
            for _ in range(5):
                x, y, z = rng.uniform(-2, 2, size=(3, 3))
                norms = (np.linalg.norm(x) * np.linalg.norm(y)
                         * np.linalg.norm(z))
                res = np.max(np.abs(classical_jacobiator(sc, x, y, z)))
                assert res <= 1e-10 * max(1.0, norms)

    def test_alternating(self):
        sc = structure_constants(BianchiLabel(BianchiType.VIIA, 1.5))
        rng = np.random.default_rng(23)
        x, y = rng.uniform(-1, 1, size=(2, 3))
        assert np.allclose(classical_jacobiator(sc, x, x, y), 0.0,
                           atol=1e-13)

    def test_trilinear(self):
        sc = structure_constants(BianchiLabel(BianchiType.VIA, 2.0))
        rng = np.random.default_rng(24)
        x, y, z, x2 = rng.uniform(-1, 1, size=(4, 3))
        lhs = classical_jacobiator(sc, 2.0 * x + x2, y, z)
        rhs = (2.0 * classical_jacobiator(sc, x, y, z)
               + classical_jacobiator(sc, x2, y, z))
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestStacked:
    """A stack of samples, also one the suites split into chunks, gives
    each sample's result bit for bit as a call with that sample alone."""

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("label", DEFORMABLE[1:4])
    def test_deformation_closed_form(self, batch, label):
        rng = np.random.default_rng(batch)
        params = HOParams(omega=1.3, p0=0.9)
        t = rng.uniform(0.0, 12.0, size=batch)
        stacked = _chunked(
            lambda t: deformation_closed_form(label, params, t).array, t)
        assert stacked.shape == (batch, 3, 3, 3)
        for ti, arr in zip(t, stacked):
            alone = deformation_closed_form(label, params, float(ti)).array
            assert alone.shape == (3, 3, 3)
            assert np.array_equal(arr, alone), ti

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("label", DEFORMABLE[1:4])
    def test_dynamical_deformation(self, batch, label):
        """Each time of a stack gives its tensor as alone, and as the nested
        lists build_mu makes at that time's trajectory point."""
        rng = np.random.default_rng(batch)
        params = HOParams(omega=1.3, p0=0.9)
        C = label_params(label, params.p0)
        t = rng.uniform(0.0, 12.0, size=batch)
        stacked = _chunked(
            lambda t: dynamical_deformation(label, params, t).array, t)
        assert stacked.shape == (batch, 3, 3, 3)
        for ti, arr in zip(t, stacked):
            alone = dynamical_deformation(label, params, float(ti)).array
            assert alone.shape == (3, 3, 3)
            assert np.array_equal(arr, alone), ti
            reference = build_mu(C, params, trajectory(params, float(ti)))
            # bit for bit, the signs of zeros included
            assert alone.tobytes() == np.array(reference, float).tobytes()

    @pytest.mark.parametrize("batch", BATCHES)
    def test_classical_jacobiator(self, batch):
        rng = np.random.default_rng(batch)
        label = DEFORMABLE[0]
        params = HOParams(omega=1.3, p0=0.9)
        t = rng.uniform(0.0, 12.0, size=batch)
        x, y, z = rng.uniform(-5.0, 5.0, size=(3, batch, 3))

        def jacobiator(t, x, y, z):
            return classical_jacobiator(
                dynamical_deformation(label, params, t), x, y, z)

        stacked = _chunked(jacobiator, t, x, y, z)
        for b in range(batch):
            m = dynamical_deformation(label, params, float(t[b])).array
            alone = classical_jacobiator(StructureConstants(m), x[b], y[b],
                                         z[b])
            # the contraction of one sample, without batch axes
            reference = np.zeros(3)
            for u, v, w in ((x[b], y[b], z[b]), (y[b], z[b], x[b]),
                            (z[b], x[b], y[b])):
                reference += np.einsum("ijs,j,skl,k,l->i", m, u, m, v, w)
            assert np.array_equal(stacked[b], alone), b
            assert np.array_equal(alone, reference), b

    @pytest.mark.parametrize("chunk", (1, 7, 1 << 20))
    def test_suite_report_does_not_depend_on_chunk(self, monkeypatch, chunk):
        """One sample per call, a few, or every stack in one call: the same
        report, byte for byte."""
        expected = bianchi_suite(seed=5).render_json()
        monkeypatch.setattr(suites, "CHUNK", chunk)
        assert bianchi_suite(seed=5).render_json() == expected


class TestBianchiSuiteGates:
    """The stacked cases of the bianchi suite fail when their check
    breaks."""

    def test_no_samples_fails_closed_form_case(self, monkeypatch):
        """At T_SAMPLES = 0 deformation_closed_forms checks nothing, and
        fails without a residual; the other cases keep their samples."""
        monkeypatch.setattr(suites, "T_SAMPLES", 0)
        cases = {c.case_id: c for c in bianchi_suite().cases}
        case = cases.pop("deformation_closed_forms")
        assert (case.passed, case.residual, case.detail) \
            == (False, None, "samples=0")
        assert all(c.passed for c in cases.values())
        monkeypatch.setattr(suites, "T_SAMPLES", 1)
        assert bianchi_suite().passed

    def test_closed_form_sign_flip_fails(self, monkeypatch, capsys):
        real = suites.deformation_closed_form

        def flipped(label, params, t):
            arr = real(label, params, t).array.copy()
            # mu^2_12 = -a P / sqrt(2 p0) with its sign flipped
            arr[..., 1, 0, 1] *= -1
            arr[..., 1, 1, 0] *= -1
            return StructureConstants(arr)

        monkeypatch.setattr(suites, "deformation_closed_form", flipped)
        cases = {c.case_id: c.passed for c in bianchi_suite().cases}
        assert not cases["deformation_closed_forms"]
        assert all(passed for case, passed in cases.items()
                   if case != "deformation_closed_forms")
        assert main(["verify", "--target", "bianchi"]) == 1
        out, err = capsys.readouterr()
        assert "case=deformation_closed_forms" in out
        assert "Traceback" not in err
