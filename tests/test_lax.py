import json
import math
from fractions import Fraction

import numpy as np
import pytest

from oplax import lax, suites
from oplax.cli import main
from oplax.lax import (SLOTS, NotRepresentableError, OperadicParams,
                       _exact_sqrt, antisymmetric, build_L, build_M, build_mu,
                       mu_time_derivative, solve_C,
                       verify_matrix_lax, verify_operadic_lax)
from oplax.operad import MultiOp, gerstenhaber
from oplax.oscillator import HOParams, PhasePoint, trajectory
from oplax.suites import CHUNK, _chunked, lax_suite

# stack sizes of the stacked checks; the last needs two chunks
BATCHES = (1, 2, 7, CHUNK + 1)


def random_params(rng) -> OperadicParams:
    while True:
        C = OperadicParams.from_sequence(rng.uniform(-2, 2, size=9))
        if C.admissible:
            return C


class TestOperadicParams:
    def test_from_sequence_roundtrip(self):
        vals = tuple(float(i) for i in range(1, 10))
        assert OperadicParams.from_sequence(vals) == vals

    def test_from_sequence_length(self):
        with pytest.raises(ValueError):
            OperadicParams.from_sequence(range(8))

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
                    rep = verify_matrix_lax(params, float(t))
                    assert rep.passed, rep

    def test_isospectrality(self):
        params = HOParams(omega=1.7, p0=1.3)
        ref = np.sort(np.linalg.eigvalsh(build_L(params,
                                                 trajectory(params, 0.0))))
        for t in np.linspace(0.0, 10.0, 21):
            ev = np.sort(np.linalg.eigvalsh(
                build_L(params, trajectory(params, float(t)))))
            assert np.allclose(ev, ref, atol=1e-12)

    def test_dt_domain(self):
        with pytest.raises(ValueError):
            verify_matrix_lax(HOParams(omega=1, p0=1), 0.0, dt=0.0)


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
        rng = np.random.default_rng(9)
        for _ in range(20):
            params = HOParams(omega=float(rng.uniform(0.5, 2.0)),
                              p0=float(rng.uniform(0.5, 2.0)))
            C = random_params(rng)
            for t in rng.uniform(0.0, 10.0, size=5):
                rep = verify_operadic_lax(C, params, float(t))
                assert rep.passed and rep.tol == 1e-12, rep

    def test_lax_equation_fd(self):
        params = HOParams(omega=1.3, p0=0.8)
        C = OperadicParams(0.2, -1.0, 0.5, 0.1, 0.7, -0.3, 0.9, 0.4, -0.6)
        for t in np.linspace(0.0, 8.0, 9):
            rep = verify_operadic_lax(C, params, float(t), mode="fd")
            assert rep.passed and rep.tol == 1e-6, rep

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

    def test_mode_domain(self):
        params = HOParams(omega=1.0, p0=1.0)
        C = OperadicParams(0, 1, 0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            verify_operadic_lax(C, params, 0.0, mode="exact")
        with pytest.raises(ValueError):
            verify_operadic_lax(C, params, 0.0, mode="fd", dt=-1.0)


def reference_operadic_lax(C, params, t, mode):
    """The operadic Lax residual of one sample by the per-sample route:
    nested lists at trajectory points and the MultiOp bracket."""
    point = trajectory(params, t)
    if mode == "analytic":
        lhs = np.asarray(mu_time_derivative(C, params, point), dtype=float)
    else:
        dt = 1e-5
        mp = np.asarray(build_mu(C, params, trajectory(params, t + dt)),
                        dtype=float)
        mm = np.asarray(build_mu(C, params, trajectory(params, t - dt)),
                        dtype=float)
        lhs = (mp - mm) / (2 * dt)
    mu = np.asarray(build_mu(C, params, point), dtype=float)
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
    """A stack of samples, also one the suites split into chunks, gives
    each sample's residual bit for bit as a call with that sample alone and
    as the per-sample reference."""

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("mode", ("analytic", "fd"))
    def test_operadic_lax(self, batch, mode):
        rng = np.random.default_rng(batch)
        params = HOParams(omega=1.1, p0=1.4)
        c = rng.uniform(-2.0, 2.0, size=(batch, 9))
        t = rng.uniform(0.0, 10.0, size=batch)
        stacked = _chunked(
            lambda c, t: verify_operadic_lax(
                OperadicParams.from_sequence(c.T), params, t,
                mode=mode).residual, c, t)
        samples = [(OperadicParams.from_sequence(ci), float(ti))
                   for ci, ti in zip(c, t)]
        alone = [verify_operadic_lax(C, params, ti, mode=mode).residual
                 for C, ti in samples]
        assert all(isinstance(r, float) for r in alone)
        assert np.array_equal(stacked, alone)
        assert np.array_equal(stacked, [
            reference_operadic_lax(C, params, ti, mode) for C, ti in samples])

    @pytest.mark.parametrize("batch", BATCHES)
    def test_matrix_lax(self, batch):
        rng = np.random.default_rng(batch)
        params = HOParams.from_energy(0.5, 2.0)
        t = rng.uniform(0.0, 4 * math.pi, size=batch)
        stacked = _chunked(lambda t: verify_matrix_lax(params, t).residual, t)
        alone = [verify_matrix_lax(params, float(ti)).residual for ti in t]
        assert all(isinstance(r, float) for r in alone)
        assert np.array_equal(stacked, alone)
        assert np.array_equal(stacked, [reference_matrix_lax(params, float(ti))
                                        for ti in t])

    @pytest.mark.parametrize("chunk", (1, 7, 1 << 20))
    def test_suite_report_does_not_depend_on_chunk(self, monkeypatch, chunk):
        """One sample per call, a few, or every stack in one call: the same
        report, byte for byte."""
        expected = lax_suite(seed=5).render_json()
        monkeypatch.setattr(suites, "CHUNK", chunk)
        assert lax_suite(seed=5).render_json() == expected

    def test_nan_time_gives_nan_residual(self):
        C = OperadicParams(0, 1, 0, 0, 0, 0, 0, 0, 0)
        rep = verify_operadic_lax(C, HOParams(1, 1), math.nan)
        assert math.isnan(rep.residual) and not rep.passed


class TestLaxSuiteGates:
    """The stacked cases of the lax suite fail when their check breaks."""

    def test_no_samples_fails_sampled_cases(self):
        """At t_samples=0 the two cases on the time grid check nothing, and
        fail without a residual; the other cases keep their samples."""
        cases = {c.case_id: c for c in lax_suite(t_samples=0).cases}
        empty = {"phase_constraints", "matrix_lax_fd"}
        for case_id in empty:
            assert not cases[case_id].passed
            assert cases[case_id].residual is None
            assert cases[case_id].detail == "samples=0"
        assert all(c.passed for k, c in cases.items() if k not in empty)
        assert lax_suite(t_samples=1).passed

    def test_c8_sign_flip_fails_analytic_case(self, monkeypatch, capsys):
        real = lax.mu_time_derivative

        def flipped(C, params, point):
            d = real(C, params, point)
            # the C8 term of mu^3_23 with its sign flipped
            term = params.omega / 2 * C.c8 * point.Q
            d[..., 2, 1, 2] -= 2 * term
            d[..., 2, 2, 1] += 2 * term
            return d

        monkeypatch.setattr(lax, "mu_time_derivative", flipped)
        cases = {c.case_id: c.passed for c in lax_suite().cases}
        assert not cases["operadic_lax_analytic"]
        assert cases["operadic_lax_fd"]
        assert main(["verify", "--target", "lax"]) == 1
        out, err = capsys.readouterr()
        assert "case=operadic_lax_analytic" in out
        assert "Traceback" not in err

    def test_nan_residual_fails_its_case(self, monkeypatch, capsys):
        """A NaN after finite residuals fails the case, and the JSON report
        stays JSON."""
        real = suites.verify_matrix_lax

        def nan_last(*args, **kwargs):
            rep = real(*args, **kwargs)
            residual = rep.residual.copy()
            residual[-1] = math.nan
            return rep._replace(residual=residual)

        monkeypatch.setattr(suites, "verify_matrix_lax", nan_last)
        assert main(["verify", "--target", "lax", "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert "Traceback" not in err

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        cases = {c["case"]: c
                 for c in json.loads(out, parse_constant=refuse)["cases"]}
        assert cases["matrix_lax_fd"]["pass"] is False
        assert cases["matrix_lax_fd"]["residual"] == "nan"
        assert all(c["pass"] for k, c in cases.items() if k != "matrix_lax_fd")
