import math
from fractions import Fraction

import numpy as np
import pytest

from oplax import lax
from oplax.bianchi import (BianchiLabel, BianchiType, UnsupportedLabelError,
                           _row_tensor, classical_jacobiator,
                           deformation_closed_form, dynamical_deformation,
                           family_a, label_params)
from oplax.lax import SLOTS, _exact_sqrt, build_mu, phase_points, solve_C
from oplax.oscillator import HOParams, PhasePoint, trajectory
from oplax.suites import CHUNK, _chunked

# stack sizes of the stacked checks; the last needs two chunks
BATCHES = (1, 2, 7, CHUNK + 1)

DEFORMABLE = [
    BianchiLabel(BianchiType.VIIA, 0.7),
    BianchiLabel(BianchiType.VIIA, 2.0),
    BianchiLabel(BianchiType.IIIA1),
    BianchiLabel(BianchiType.VIA, 0.5),
    BianchiLabel(BianchiType.VIA, 3.0),
]


def closed_form(label, params, t):
    """The paper's table at time t over floats, in SLOTS order."""
    pt = trajectory(params, t)
    return deformation_closed_form(
        label.type, float(family_a(label.type, label.a)), params.p0,
        math.sqrt(2 * params.p0), params.omega * pt.q, pt.p, pt.Q, pt.P)


def random_antisymmetric(rng):
    """A tensor antisymmetric in its lower indices with integer entries in
    [-3, 3], as floats: in general no Lie algebra, so its J is not 0."""
    return np.array(lax.antisymmetric(rng.integers(-3, 4, size=9).tolist()),
                    float)


def nested_brackets(mu, x, y, z):
    """[x, [y, z]] + [y, [z, x]] + [z, [x, y]] for the bracket
    [u, v]^i = mu^i_jk u^j v^k, by loops over the indices."""
    def bracket(u, v):
        return [sum(mu[i][j][k] * u[j] * v[k]
                    for j in range(3) for k in range(3)) for i in range(3)]

    return [sum(terms) for terms in zip(*(
        bracket(u, bracket(v, w))
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y))))]


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

    def test_family_a(self):
        assert family_a(BianchiType.IIIA1, None) == 1
        assert family_a(BianchiType.VIA, 2.5) == 2.5


class TestStructureConstants:
    def test_component_is_one_based(self):
        sc = np.array(_row_tensor(BianchiType.II, None))
        # Heisenberg: [e2, e3] = e1 only, so mu^1_23 = 1 sits at [0, 1, 2]
        assert sc[..., 0, 1, 2] == 1
        assert sc[..., 0, 2, 1] == -1
        assert np.count_nonzero(sc) == 2

    @pytest.mark.parametrize("label", DEFORMABLE)
    def test_antisymmetry(self, label):
        arr = np.array(_row_tensor(*label))
        assert np.array_equal(arr, -np.swapaxes(arr, 1, 2))

    def test_viia_rows(self):
        sc = np.array(_row_tensor(BianchiType.VIIA, 0.7))
        # [e1,e2] = -a e2 + e3, [e2,e3] = 0, [e3,e1] = e2 + a e3
        assert sc[..., 1, 0, 1] == -0.7
        assert sc[..., 2, 0, 1] == 1
        assert sc[..., 0, 1, 2] == 0
        assert sc[..., 1, 2, 0] == 1
        assert sc[..., 2, 2, 0] == 0.7

    def test_via_vs_iiia1(self):
        # III_{a=1} is VI_a continued to a = 1
        via = np.array(_row_tensor(BianchiType.VIA, 2.0))
        iii = np.array(_row_tensor(BianchiType.IIIA1, None))
        via_at_1 = np.where(np.abs(via) == 2.0, np.sign(via), via)
        assert np.array_equal(via_at_1, iii)


class TestDeformations:
    def test_type_ii_not_deformable(self):
        label = BianchiLabel(BianchiType.II)
        with pytest.raises(UnsupportedLabelError):
            label_params(label, 1.0)
        with pytest.raises(UnsupportedLabelError):
            deformation_closed_form(label.type, 1.0, 1.0, math.sqrt(2.0),
                                    0.0, 1.0, 0.0, math.sqrt(2.0))

    @pytest.mark.parametrize("label", DEFORMABLE + [
        BianchiLabel(BianchiType.VIIA, 2),
        BianchiLabel(BianchiType.VIA, Fraction(1, 2))])
    def test_label_params_reads_the_structure_tensor(self, label):
        """label_params builds no array, yet solves the tensor that a numpy
        array of the row holds: the same types, signed zeros included."""
        for p0 in (0.9, Fraction(9, 8)):
            expected = solve_C(np.array(_row_tensor(*label)).tolist(), p0)
            assert repr(label_params(label, p0)) == repr(expected)

    @pytest.mark.parametrize("label", [
        BianchiLabel(BianchiType.VIIA, Fraction(1, 2)),
        BianchiLabel(BianchiType.IIIA1),
        BianchiLabel(BianchiType.VIA, Fraction(5, 2))])
    def test_exact_p0_gives_exact_params(self, label):
        """A row of ints and Fractions over a Fraction p0 solves to ints and
        Fractions: c1 and c4 halve exactly, not to floats."""
        C = label_params(label, Fraction(9, 8))
        assert all(isinstance(c, (int, Fraction)) for c in C), C
        assert (C.c1, C.c4) == (0, Fraction(-1, 2))

    @pytest.mark.parametrize("label", DEFORMABLE)
    def test_initial_value(self, label):
        params = HOParams(omega=1.3, p0=0.9)
        sc0 = np.array(_row_tensor(*label), float)
        C = label_params(label, params.p0)
        gen = dynamical_deformation(C, params, 0.0)
        closed = closed_form(label, params, 0.0)
        assert np.allclose(gen, sc0, atol=1e-12)
        assert np.allclose(closed, [sc0[s] for s in SLOTS], atol=1e-12)

    @pytest.mark.parametrize("label", DEFORMABLE)
    def test_generated_matches_closed_form(self, label):
        for w, p0 in ((1.3, 0.9), (0.5, 2.0)):
            params = HOParams(omega=w, p0=p0)
            C = label_params(label, p0)
            for t in np.linspace(0.0, 4 * math.pi / w, 50):
                gen = dynamical_deformation(C, params, float(t))
                closed = closed_form(label, params, float(t))
                assert max(abs(gen[s] - c)
                           for s, c in zip(SLOTS, closed)) <= 1e-12

    @pytest.mark.parametrize("label", DEFORMABLE)
    def test_periodicity(self, label):
        params = HOParams(omega=1.3, p0=0.9)
        period = 4 * math.pi / params.omega  # Q, P have half the q,p frequency
        C = label_params(label, params.p0)
        for t in (0.0, 0.7, 2.1):
            d0 = dynamical_deformation(C, params, t)
            d1 = dynamical_deformation(C, params, t + period)
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
            sc = _row_tensor(*label)
            C = solve_C(sc, p0)
            assert build_mu(C, ho, pt) == sc


class TestClassicalJacobiator:
    def test_lie_algebra_rows_satisfy_jacobi(self):
        rng = np.random.default_rng(21)
        labels = DEFORMABLE + [BianchiLabel(BianchiType.II)]
        for label in labels:
            sc = _row_tensor(*label)
            for _ in range(20):
                x, y, z = rng.uniform(-2, 2, size=(3, 3))
                assert np.max(np.abs(classical_jacobiator(sc, x, y, z))) \
                    <= 1e-12

    @pytest.mark.parametrize("label", DEFORMABLE)
    def test_jacobi_preserved_along_flow(self, label):
        rng = np.random.default_rng(22)
        params = HOParams(omega=1.3, p0=0.9)
        C = label_params(label, params.p0)
        for t in np.linspace(0.0, 9.0, 12):
            sc = dynamical_deformation(C, params, float(t))
            for _ in range(5):
                x, y, z = rng.uniform(-2, 2, size=(3, 3))
                norms = (np.linalg.norm(x) * np.linalg.norm(y)
                         * np.linalg.norm(z))
                res = np.max(np.abs(classical_jacobiator(sc, x, y, z)))
                assert res <= 1e-10 * max(1.0, norms)

    def test_alternating(self):
        """J vanishes when two arguments agree and changes sign when two
        are swapped, on a tensor where it does not vanish; so it is the
        determinant of (x, y, z) times J(e1, e2, e3), which the bianchi
        suite reads.  Integer data, so every sum is exact."""
        rng = np.random.default_rng(23)
        mu = random_antisymmetric(rng)
        x, y, z = rng.integers(-3, 4, size=(3, 3))
        J = classical_jacobiator(mu, x, y, z)
        assert np.any(J != 0)
        assert np.array_equal(J, nested_brackets(mu, x, y, z))
        for args in ((x, x, z), (x, z, x), (z, x, x)):
            assert not np.any(classical_jacobiator(mu, *args)), args
        assert np.array_equal(classical_jacobiator(mu, y, x, z), -J)
        at_basis = classical_jacobiator(mu, *np.eye(3))
        assert np.array_equal(J, np.dot(x, np.cross(y, z)) * at_basis)

    def test_trilinear(self):
        """Linear in each argument, on a tensor where J does not vanish;
        integer data, so every sum is exact."""
        rng = np.random.default_rng(24)
        mu = random_antisymmetric(rng)
        x, y, z, w = rng.integers(-3, 4, size=(4, 3))
        J = classical_jacobiator(mu, x, y, z)
        assert np.any(J != 0)
        assert np.array_equal(J, nested_brackets(mu, x, y, z))
        for slot in range(3):
            args, other = [x, y, z], [x, y, z]
            args[slot] = 2 * args[slot] + w
            other[slot] = w
            assert np.array_equal(
                classical_jacobiator(mu, *args),
                2 * J + classical_jacobiator(mu, *other)), slot


class TestStacked:
    """A stack of samples, also one split into chunks of CHUNK samples,
    gives each sample's result bit for bit as a call with that sample
    alone."""

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("label", DEFORMABLE[1:4])
    def test_deformation_closed_form(self, batch, label):
        """The table over arrays of trajectory points gives each time's
        nine values as the table over that time's floats alone."""
        rng = np.random.default_rng(batch)
        params = HOParams(omega=1.3, p0=0.9)
        t = rng.uniform(0.0, 12.0, size=batch)

        def table(t):
            pt = phase_points(params, t)
            slots = deformation_closed_form(
                label.type, float(family_a(label.type, label.a)), params.p0,
                math.sqrt(2 * params.p0), params.omega * pt.q, pt.p, pt.Q,
                pt.P)
            return np.stack(np.broadcast_arrays(*slots), axis=-1)

        stacked = _chunked(table, t)
        assert stacked.shape == (batch, len(SLOTS))
        for ti, row in zip(t, stacked):
            alone = closed_form(label, params, float(ti))
            assert all(type(v) is float for v in alone), ti
            # bit for bit, the signs of zeros included
            assert row.tobytes() == np.array(alone).tobytes(), ti

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
            lambda t: dynamical_deformation(C, params, t), t)
        assert stacked.shape == (batch, 3, 3, 3)
        for ti, arr in zip(t, stacked):
            alone = dynamical_deformation(C, params, float(ti))
            assert alone.shape == (3, 3, 3)
            assert np.array_equal(arr, alone), ti
            reference = build_mu(C, params, trajectory(params, float(ti)))
            # bit for bit, the signs of zeros included
            assert alone.tobytes() == np.array(reference, float).tobytes()

    @pytest.mark.parametrize("batch", BATCHES)
    def test_classical_jacobiator(self, batch):
        rng = np.random.default_rng(batch)
        params = HOParams(omega=1.3, p0=0.9)
        C = label_params(DEFORMABLE[0], params.p0)
        t = rng.uniform(0.0, 12.0, size=batch)
        x, y, z = rng.uniform(-5.0, 5.0, size=(3, batch, 3))

        def jacobiator(t, x, y, z):
            return classical_jacobiator(
                dynamical_deformation(C, params, t), x, y, z)

        stacked = _chunked(jacobiator, t, x, y, z)
        for b in range(batch):
            m = dynamical_deformation(C, params, float(t[b]))
            alone = classical_jacobiator(m, x[b], y[b], z[b])
            # the contraction of one sample, without batch axes
            reference = np.zeros(3)
            for u, v, w in ((x[b], y[b], z[b]), (y[b], z[b], x[b]),
                            (z[b], x[b], y[b])):
                reference += np.einsum("ijs,j,skl,k,l->i", m, u, m, v, w)
            assert np.array_equal(stacked[b], alone), b
            assert np.array_equal(alone, reference), b
