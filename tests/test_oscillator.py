import math

import numpy as np
import pytest

from oplax.oscillator import (BranchPointError, HOParams, poisson_bracket,
                              quasi_from_phase, trajectory)


@pytest.fixture
def params():
    return HOParams(omega=1.3, p0=0.9)


class TestHOParams:
    def test_energy_relation(self, params):
        assert params.energy == pytest.approx(params.p0 ** 2 / 2, rel=0)

    def test_from_energy(self):
        p = HOParams.from_energy(2.0, 0.5)
        assert p.p0 == pytest.approx(1.0)

    @pytest.mark.parametrize("omega,p0", [(0.0, 1.0), (-1.0, 1.0),
                                          (math.inf, 1.0), (math.nan, 1.0),
                                          (1.0, 0.0), (1.0, -2.0)])
    def test_domain(self, omega, p0):
        with pytest.raises(ValueError):
            HOParams(omega=omega, p0=p0)


class TestTrajectory:
    def test_initial_conditions(self, params):
        pt = trajectory(params, 0.0)
        root = math.sqrt(2 * params.p0)
        assert (pt.q, pt.p, pt.Q, pt.P) == (0.0, params.p0, 0.0, root)

    def test_half_period(self, params):
        pt = trajectory(params, math.pi / params.omega)
        root = math.sqrt(2 * params.p0)
        assert pt.q == pytest.approx(0.0, abs=1e-15)
        assert pt.p == pytest.approx(-params.p0)
        assert pt.Q == pytest.approx(root)
        assert pt.P == pytest.approx(0.0, abs=1e-15)

    def test_energy_is_constant(self, params):
        for t in np.linspace(-7, 7, 29):
            assert trajectory(params, float(t)).H == params.energy

    def test_constraints_along_flow(self, params):
        w = params.omega
        for t in np.linspace(0, 4 * math.pi / w, 100):
            pt = trajectory(params, float(t))
            assert pt.P ** 2 - pt.Q ** 2 == pytest.approx(2 * pt.p,
                                                          rel=1e-10,
                                                          abs=1e-10)
            assert pt.Q * pt.P == pytest.approx(w * pt.q, rel=1e-10,
                                                abs=1e-10)
            assert pt.P ** 2 + pt.Q ** 2 == pytest.approx(
                2 * math.sqrt(2 * pt.H), rel=1e-10)

    def test_quasi_canonical_velocities(self, params):
        # dQ/dt = (w/2) P and dP/dt = -(w/2) Q, by differentiating the
        # defining constraints
        w, dt = params.omega, 1e-6
        for t in np.linspace(0.0, 9.0, 37):
            lo = trajectory(params, float(t) - dt)
            hi = trajectory(params, float(t) + dt)
            mid = trajectory(params, float(t))
            assert (hi.Q - lo.Q) / (2 * dt) == pytest.approx(
                w / 2 * mid.P, abs=1e-6)
            assert (hi.P - lo.P) / (2 * dt) == pytest.approx(
                -w / 2 * mid.Q, abs=1e-6)


class TestQuasiFromPhase:
    def test_initial_point(self, params):
        Q, P = quasi_from_phase(params, 0.0, params.p0)
        assert (Q, P) == (0.0, math.sqrt(2 * params.p0))

    def test_matches_trajectory_first_half_turn(self, params):
        w = params.omega
        for t in np.linspace(-0.95 * math.pi / w, 0.95 * math.pi / w, 41):
            pt = trajectory(params, float(t))
            Q, P = quasi_from_phase(params, pt.q, pt.p)
            # reconstruction fixes P >= 0; compare up to the overall sign
            sign = 1.0 if pt.P >= 0 else -1.0
            assert Q == pytest.approx(sign * pt.Q, abs=1e-9)
            assert P == pytest.approx(sign * pt.P, abs=1e-9)

    def test_defining_constraints_hold(self, params):
        rng = np.random.default_rng(12)
        for _ in range(50):
            q, p = rng.uniform(-2, 2), rng.uniform(-0.5, 2)
            H = (p ** 2 + params.omega ** 2 * q ** 2) / 2
            if math.sqrt(2 * H) + p < 1e-3:
                continue
            Q, P = quasi_from_phase(params, q, p)
            assert P ** 2 - Q ** 2 == pytest.approx(2 * p, abs=1e-10)
            assert Q * P == pytest.approx(params.omega * q, abs=1e-10)

    def test_branch_point(self, params):
        with pytest.raises(BranchPointError):
            quasi_from_phase(params, 0.0, -params.p0)


class TestPoissonBracket:
    def test_pq_is_one(self, params):
        val = poisson_bracket(lambda q, p: p, lambda q, p: q, (0.3, -1.2))
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_self_bracket_vanishes(self, params):
        def P(q, p):
            return quasi_from_phase(params, q, p)[1]

        assert poisson_bracket(P, P, (0.2, 1.1)) == pytest.approx(
            0.0, abs=1e-8)

    def test_PQ_at_initial_point(self, params):
        def P(q, p):
            return quasi_from_phase(params, q, p)[1]

        def Q(q, p):
            return quasi_from_phase(params, q, p)[0]

        val = poisson_bracket(P, Q, (0.0, params.p0), step=1e-6)
        assert val == pytest.approx(params.omega / (2 * params.p0), abs=1e-6)

    def test_poisson_theorem_random_points(self):
        # {P, Q} = omega / (2 sqrt(2H)) away from the branch point
        rng = np.random.default_rng(13)
        for _ in range(100):
            w = float(rng.uniform(0.5, 2.0))
            params = HOParams(omega=w, p0=1.0)
            H = float(rng.uniform(0.1, 10.0))
            s = math.sqrt(2 * H)
            theta = float(rng.uniform(-0.85 * math.pi, 0.85 * math.pi))
            q, p = s * math.sin(theta) / w, s * math.cos(theta)

            def P(q_, p_):
                return quasi_from_phase(params, q_, p_)[1]

            def Q(q_, p_):
                return quasi_from_phase(params, q_, p_)[0]

            assert poisson_bracket(P, Q, (q, p)) == pytest.approx(
                w / (2 * s), abs=1e-5)

    def test_step_domain(self):
        with pytest.raises(ValueError):
            poisson_bracket(lambda q, p: p, lambda q, p: q, (0, 1), step=0.0)
