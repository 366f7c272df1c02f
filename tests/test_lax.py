import json
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from oplax import lax, suites
from oplax.cli import main
from oplax.lax import (SLOTS, NotRepresentableError, OperadicParams,
                       _exact_sqrt, antisymmetric, build_L, build_M, build_mu,
                       mu_time_derivative, operadic_lax_residual,
                       phase_points, solve_C, verify_matrix_lax,
                       verify_operadic_lax)
from oplax.operad import MultiOp, gerstenhaber
from oplax.oscillator import HOParams, PhasePoint, trajectory
from oplax.suites import lax_suite

from test_gates import refuse

# stack sizes of the stacked checks, the last above any stack of the suites
BATCHES = (1, 2, 7, 152)


def random_params(rng) -> OperadicParams:
    while True:
        C = OperadicParams(*rng.uniform(-2, 2, size=9))
        if C.admissible:
            return C


class TestOperadicParams:
    def test_eight_values_rejected(self):
        with pytest.raises(TypeError):
            OperadicParams(*range(8))

    def test_admissibility(self):
        only_c9 = OperadicParams(0, 0, 0, 0, 0, 0, 0, 0, 1.0)
        assert not only_c9.admissible
        assert OperadicParams(0, 1, 0, 0, 0, 0, 0, 0, 0).admissible


class TestMatrixLax:
    def test_L_symmetric_traceless_block(self):
        params = HOParams(omega=1.1, p0=0.7)
        L = build_L(params, trajectory(params, 0.4))
        assert np.allclose(L, L.T)
        assert L[0, 0] + L[1, 1] == pytest.approx(0.0, abs=1e-15)
        assert L[2, 2] == 1.0

    def test_M_antisymmetric(self):
        M = build_M(2.0)
        assert np.allclose(M, -M.T)
        assert M[1, 0] == 1.0

    def test_lax_equation_grid(self):
        for w in (0.5, 1.0, 2.0):
            for E in (0.5, 1.0, 2.0):
                params = HOParams.from_energy(omega=w, energy=E)
                for t in np.linspace(0.0, 4 * math.pi / w, 25):
                    residual = verify_matrix_lax(params, float(t))
                    assert residual <= 1e-6, residual

    def test_isospectrality(self):
        params = HOParams(omega=1.7, p0=1.3)
        ref = np.sort(np.linalg.eigvalsh(build_L(params,
                                                 trajectory(params, 0.0))))
        for t in np.linspace(0.0, 10.0, 21):
            ev = np.sort(np.linalg.eigvalsh(
                build_L(params, trajectory(params, float(t)))))
            assert np.allclose(ev, ref, atol=1e-12)


class TestBuildMu:
    def test_antisymmetric_slots(self):
        mu = np.array(antisymmetric(range(1, 10)))
        assert [mu[slot] for slot in SLOTS] == list(range(1, 10))
        # transposed slots negated, so the j = k diagonal is zero
        assert np.array_equal(mu, -mu.transpose(0, 2, 1))
        assert np.count_nonzero(mu) == 18

    def test_numpy_scalars_are_not_a_stack(self):
        """numpy scalars have a shape too, but only arrays make a stack."""
        values = [np.float64(v) for v in range(1, 10)]
        mu = antisymmetric(values)
        assert isinstance(mu, list) and mu[0][1][0] == -1.0
        stack = antisymmetric(values[:8] + [np.arange(3.0)])
        assert stack.shape == (3, 3, 3, 3)
        assert stack[2, 2, 2, 0] == 2.0 and stack[1, 0, 0, 1] == 1.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        params = HOParams(omega=1.2, p0=0.8)
        C = random_params(rng)
        mu = build_mu(C, params, trajectory(params, 0.7))
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert mu[i][j][k] == -mu[i][k][j]

    def test_constant_c9_component(self):
        params = HOParams(omega=1.2, p0=0.8)
        C = OperadicParams(0, 0, 0, 0, 0, 0, 0, 0, 4.5)
        for t in (0.0, 0.3, 2.1):
            mu = build_mu(C, params, trajectory(params, t))
            assert mu[2][0][1] == 4.5


class TestSolveC:
    def test_roundtrip_float(self):
        rng = np.random.default_rng(5)
        params = HOParams(omega=1.4, p0=1.1)
        point = trajectory(params, 0.0)
        for _ in range(50):
            C = random_params(rng)
            mu0 = build_mu(C, params, point)
            C2 = solve_C(mu0, params.p0)
            assert np.allclose(C, C2, atol=1e-12)

    def test_roundtrip_exact_fractions(self):
        # p0 with perfect-square 2 p0 makes the whole loop exact
        p0 = Fraction(9, 2)
        r = _exact_sqrt(2 * p0)
        assert r == 3
        params = HOParams(omega=Fraction(1), p0=p0)
        point = PhasePoint(t=Fraction(0), q=Fraction(0), p=p0, Q=Fraction(0),
                           P=r, H=p0 * p0 / 2)
        C = OperadicParams(*[Fraction(k, 7) for k in range(1, 10)])
        mu0 = build_mu(C, params, point)
        C2 = solve_C(mu0, p0)
        assert C2 == C
        mu1 = build_mu(C2, params, point)
        assert mu1 == mu0

    def test_rejects_non_antisymmetric(self):
        mu = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        mu[0][0][0] = 1
        with pytest.raises(NotRepresentableError):
            solve_C(mu, 1.0)

    def test_names_first_broken_entry(self):
        """A tensor broken at any one entry, transposed or not, is named by
        the first of the 27 ordered entries that fails, as a full scan
        finds: the smaller of the entry and its transpose."""
        for i, j, k in product(range(3), repeat=3):
            mu = antisymmetric(range(1, 10))
            mu[i][j][k] += 1
            first = next((a + 1, b + 1, c + 1)
                         for a, b, c in product(range(3), repeat=3)
                         if mu[a][b][c] != -mu[a][c][b])
            assert first == (i + 1, min(j, k) + 1, max(j, k) + 1)
            with pytest.raises(NotRepresentableError,
                               match=r"^mu\^%d_\{%d%d\} breaks" % first):
                solve_C(mu, 1.0)

    def test_rejects_bad_p0(self):
        mu = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        with pytest.raises(ValueError):
            solve_C(mu, 0.0)

    def test_exact_sqrt_rejects_non_square(self):
        with pytest.raises(ValueError):
            _exact_sqrt(Fraction(3))


class TestOperadicLax:
    def test_analytic_matches_fd(self):
        rng = np.random.default_rng(7)
        params = HOParams(omega=0.9, p0=1.6)
        C = random_params(rng)
        for t in np.linspace(0.0, 6.0, 7):
            d_an = np.asarray(mu_time_derivative(C, params,
                                                 trajectory(params, float(t))),
                              dtype=float)
            dt = 1e-6
            mp = np.asarray(build_mu(C, params,
                                     trajectory(params, float(t) + dt)),
                            dtype=float)
            mm = np.asarray(build_mu(C, params,
                                     trajectory(params, float(t) - dt)),
                            dtype=float)
            assert np.max(np.abs(d_an - (mp - mm) / (2 * dt))) < 1e-6

    def test_lax_equation_analytic(self):
        """mu_time_derivative against the bracket at random float C on the
        trajectory: equal up to rounding."""
        rng = np.random.default_rng(9)
        for _ in range(20):
            params = HOParams(omega=float(rng.uniform(0.5, 2.0)),
                              p0=float(rng.uniform(0.5, 2.0)))
            C = random_params(rng)
            point = phase_points(params, rng.uniform(0.0, 10.0, size=5))
            residual = operadic_lax_residual(
                C, params, point, mu_time_derivative(C, params, point))
            assert residual.shape == (5,)
            assert residual.max() <= 1e-12, residual

    def test_lax_equation_fd(self):
        params = HOParams(omega=1.3, p0=0.8)
        C = OperadicParams(0.2, -1.0, 0.5, 0.1, 0.7, -0.3, 0.9, 0.4, -0.6)
        for t in np.linspace(0.0, 8.0, 9):
            residual = verify_operadic_lax(C, params, float(t))
            assert residual <= 1e-6, residual

    def test_bracket_matches_direct_contraction(self):
        # [M, mu]^i_jk = M^i_s mu^s_jk - mu^i_sk M^s_j - mu^i_js M^s_k
        rng = np.random.default_rng(11)
        params = HOParams(omega=1.1, p0=1.0)
        C = random_params(rng)
        mu = np.asarray(build_mu(C, params, trajectory(params, 1.3)),
                        dtype=float)
        M = build_M(params.omega)
        direct = (np.einsum("is,sjk->ijk", M, mu)
                  - np.einsum("isk,sj->ijk", mu, M)
                  - np.einsum("ijs,sk->ijk", mu, M))
        bracket = gerstenhaber(MultiOp(1, 3, M), MultiOp(2, 3, mu)).coeffs
        assert np.allclose(direct, bracket, atol=1e-14)


def reference_operadic_lax(C, params, t):
    """The finite-difference operadic Lax residual of one sample by the
    per-sample route: nested lists at trajectory points and the MultiOp
    bracket."""
    dt = 1e-5
    mp = np.asarray(build_mu(C, params, trajectory(params, t + dt)),
                    dtype=float)
    mm = np.asarray(build_mu(C, params, trajectory(params, t - dt)),
                    dtype=float)
    lhs = (mp - mm) / (2 * dt)
    mu = np.asarray(build_mu(C, params, trajectory(params, t)), dtype=float)
    rhs = gerstenhaber(MultiOp(1, 3, build_M(params.omega)),
                       MultiOp(2, 3, mu)).coeffs
    return float(np.max(np.abs(lhs - rhs)))


def reference_matrix_lax(params, t):
    """The matrix Lax residual of one sample, from trajectory points."""
    def L(pt):
        wq = params.omega * pt.q
        return np.array([[pt.p, wq, 0.0], [wq, -pt.p, 0.0], [0.0, 0.0, 1.0]])

    dt = 1e-5
    dL = (L(trajectory(params, t + dt)) - L(trajectory(params, t - dt))) \
        / (2 * dt)
    L0 = L(trajectory(params, t))
    M = build_M(params.omega)
    return float(np.max(np.abs(dL - (M @ L0 - L0 @ M))))


class TestStacked:
    """A stack of samples gives each sample's residual bit for bit as a
    call with that sample alone and as the per-sample reference."""

    @pytest.mark.parametrize("batch", BATCHES)
    def test_operadic_lax(self, batch):
        rng = np.random.default_rng(batch)
        params = HOParams(omega=1.1, p0=1.4)
        c = rng.uniform(-2.0, 2.0, size=(batch, 9))
        t = rng.uniform(0.0, 10.0, size=batch)
        stacked = verify_operadic_lax(OperadicParams(*c.T), params, t)
        samples = [(OperadicParams(*ci), float(ti))
                   for ci, ti in zip(c, t)]
        alone = [verify_operadic_lax(C, params, ti) for C, ti in samples]
        assert all(isinstance(r, float) for r in alone)
        assert np.array_equal(stacked, alone)
        assert np.array_equal(stacked, [
            reference_operadic_lax(C, params, ti) for C, ti in samples])

    @pytest.mark.parametrize("batch", BATCHES)
    def test_matrix_lax(self, batch):
        rng = np.random.default_rng(batch)
        params = HOParams.from_energy(0.5, 2.0)
        t = rng.uniform(0.0, 4 * math.pi, size=batch)
        stacked = verify_matrix_lax(params, t)
        alone = [verify_matrix_lax(params, float(ti)) for ti in t]
        assert all(isinstance(r, float) for r in alone)
        assert np.array_equal(stacked, alone)
        assert np.array_equal(stacked, [reference_matrix_lax(params, float(ti))
                                        for ti in t])

    def test_empty_stack_gives_empty_residuals(self):
        """No time checks nothing: an empty array, which the suites report
        as samples=0."""
        params = HOParams(omega=1.1, p0=1.4)
        t = np.empty(0)
        C = OperadicParams(*np.empty((9, 0)))
        for residual in (verify_matrix_lax(params, t),
                         verify_operadic_lax(C, params, t)):
            assert isinstance(residual, np.ndarray)
            assert residual.shape == (0,)

    def test_nan_time_gives_nan_residual(self):
        C = OperadicParams(0, 1, 0, 0, 0, 0, 0, 0, 0)
        residual = verify_operadic_lax(C, HOParams(1, 1), math.nan)
        assert math.isnan(residual) and not residual <= 1e-12


class TestLaxSuiteGates:
    """How the lax suite reports an empty or a NaN case (see test_gates)."""

    def test_no_samples_fails_sampled_cases(self, monkeypatch):
        """At T_SAMPLES = 0 the two cases on the time grid check nothing,
        and fail without a residual, in the text report too; one sample is
        enough to pass."""
        monkeypatch.setattr(suites, "T_SAMPLES", 0)
        report = lax_suite()
        cases = {c.case_id: c for c in report.cases}
        for case_id in ("phase_constraints", "matrix_lax_fd"):
            assert not cases[case_id].passed
            assert cases[case_id].residual is None
            assert cases[case_id].detail == "samples=0"
        text = report.render_text()
        assert text.count(" detail=samples=0 pass=false\n") == 2
        assert text.endswith(" cases=7 failures=2 seed=42 pass=false")
        monkeypatch.setattr(suites, "T_SAMPLES", 1)
        assert lax_suite().passed

    def test_nan_residual_fails_its_case(self, monkeypatch, capsys):
        """A NaN after finite residuals fails the case, and the JSON report
        stays JSON."""
        real = suites.verify_matrix_lax

        def nan_last(*args, **kwargs):
            residual = real(*args, **kwargs).copy()
            residual[-1] = math.nan
            return residual

        monkeypatch.setattr(suites, "verify_matrix_lax", nan_last)
        assert main(["verify", "--target", "lax", "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        cases = {c["case"]: c
                 for c in json.loads(out, parse_constant=refuse)["cases"]}
        assert cases["matrix_lax_fd"]["pass"] is False
        assert cases["matrix_lax_fd"]["residual"] == "nan"
        assert all(c["pass"] for k, c in cases.items() if k != "matrix_lax_fd")

    # mu^3_12 = c9 is left out: a constant that the rotation leaves
    # invariant, so its negative solves the Lax equation too
    @pytest.mark.parametrize("slot", [s for s in range(len(SLOTS)) if s != 2],
                             ids=lambda s: "mu%d_%d%d" % tuple(
                                 n + 1 for n in SLOTS[s]))
    def test_grid_sees_each_flipped_slot(self, monkeypatch, slot):
        """One mu slot negated, in mu and in its time derivative alike:
        operadic_lax_analytic fails on its grid with a residual above 0."""
        real = lax.mu_slots

        def flipped(*args):
            values = list(real(*args))
            values[slot] = -values[slot]
            return tuple(values)

        monkeypatch.setattr(lax, "mu_slots", flipped)
        case = {c.case_id: c
                for c in lax_suite().cases}["operadic_lax_analytic"]
        assert not case.passed
        assert case.residual > 0
