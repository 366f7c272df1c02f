"""Harmonic-oscillator phase flow and quasi-canonical coordinates.

The exact solution with q(0) = 0, p(0) = p0 > 0 is used throughout; no ODE
integration.  Quasi-canonical coordinates (Q, P) are defined by

    P^2 - Q^2 = 2p,    Q P = omega * q,

which force P^2 + Q^2 = 2 sqrt(2H).  Along the flow the closed forms

    Q = sqrt(2 p0) sin(omega t / 2),    P = sqrt(2 p0) cos(omega t / 2)

satisfy all three constraints globally (they rotate at half the oscillator
frequency and change sign smoothly past |omega t| = pi).  flow states them
once; trajectory (one time), lax.phase_points (a stack of times, as arrays,
for the verification routines) and the CLI tables read them from there.

Poisson convention: {f, g} = f_p g_q - f_q g_p, i.e. {p, q} = +1.  This is
the convention under which {P, Q} = omega / (2 sqrt(2H)) comes out positive.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable


class BranchPointError(ValueError):
    """(q, p) lies on the P = 0 branch (the p0 < 0 family, unsupported)."""


class HOParams(namedtuple("HOParams", "omega p0")):
    """Oscillator parameters; energy E = p0^2 / 2 so that p0 = sqrt(2E)."""

    __slots__ = ()

    def __new__(cls, omega: float, p0: float):
        if not 0 < omega < math.inf:
            raise ValueError(f"omega must be finite and > 0, got {omega}")
        if not 0 < p0 < math.inf:
            raise ValueError(f"p0 must be finite and > 0, got {p0}")
        return super().__new__(cls, omega, p0)

    # _replace builds through _make, which skips __new__: validate there too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def energy(self) -> float:
        return self.p0 * self.p0 / 2

    @property
    def amplitudes(self) -> tuple[float, float, float]:
        """(p0/omega, p0, sqrt(2 p0)), the amplitudes of q, p and Q, P in
        flow: bounds on |q|, |p| and |Q|, |P| on every row, since |sin|,
        |cos| <= 1 and rounding is monotone."""
        p0 = self.p0
        return p0 / self.omega, p0, math.sqrt(2 * p0)

    @classmethod
    def from_energy(cls, omega: float, energy: float) -> "HOParams":
        if not energy > 0:
            raise ValueError(f"energy must be > 0, got {energy}")
        return cls(omega=omega, p0=math.sqrt(2 * energy))


class PhasePoint(namedtuple("PhasePoint", "t q p Q P H")):
    """Oscillator state with derived quasi-canonical coordinates."""

    __slots__ = ()


def flow(params: HOParams, times):
    """Exact flow from (q, p)(0) = (0, p0): a (t, q, p, Q, P) tuple for each
    t of times.  This is the one statement of the closed forms."""
    w = params.omega
    q_amp, p0, root = params.amplitudes
    for t in times:
        wt = w * t
        yield (t, q_amp * math.sin(wt), p0 * math.cos(wt),
               root * math.sin(wt / 2), root * math.cos(wt / 2))


def trajectory(params: HOParams, t: float) -> PhasePoint:
    """The phase point of flow at one time t."""
    return PhasePoint(*next(flow(params, (t,))), H=params.energy)


def quasi_from_phase(params: HOParams, q: float,
                     p: float) -> tuple[float, float]:
    """Reconstruct (Q, P) from (q, p), taking the P > 0 root.

    Valid away from the branch point sqrt(2H) + p = 0; there the P = 0
    family (p0 < 0 initial data) starts and we refuse.
    """
    w = params.omega
    H = (p * p + w * w * q * q) / 2
    s = math.sqrt(2 * H)
    if s + p <= 1e-12:
        raise BranchPointError(
            f"sqrt(2H) + p = {s + p} <= 1e-12; point is on the P = 0 branch"
        )
    P = math.sqrt(s + p)
    Q = w * q / P
    return Q, P


PhaseFunction = Callable[[float, float], float]

# central-difference step of poisson_bracket
DIFF_STEP = 1e-6


def poisson_bracket(f: PhaseFunction, g: PhaseFunction,
                    at: tuple[float, float]) -> float:
    """Central-difference {f, g} = f_p g_q - f_q g_p at (q, p)."""
    q, p = at
    step = DIFF_STEP
    fq = (f(q + step, p) - f(q - step, p)) / (2 * step)
    fp = (f(q, p + step) - f(q, p - step)) / (2 * step)
    gq = (g(q + step, p) - g(q - step, p)) / (2 * step)
    gp = (g(q, p + step) - g(q, p - step)) / (2 * step)
    return fp * gq - fq * gp
