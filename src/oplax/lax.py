"""Matrix and operadic Lax pairs for the harmonic oscillator.

The matrix pair is

    L = [[p, w q, 0], [w q, -p, 0], [0, 0, 1]],
    M = (w/2) [[0, -1, 0], [1, 0, 0], [0, 0, 0]],

with dL/dt = ML - LM along the flow.  The operadic pair replaces L by a
binary operation mu on R^3 whose 27 coordinates are affine in (q, p, Q, P)
through nine real parameters C1..C9; it satisfies dmu/dt = [M, mu] with the
Gerstenhaber bracket.  solve_C inverts the t = 0 values of mu for the
parameters, so any antisymmetric initial tensor round-trips exactly.

mu_slots states the nine components once; build_mu (the full tensor),
mu_time_derivative (mu is affine in the phase point, so its derivative along
the flow is mu_slots at the velocity minus mu_slots at the origin), the
CLI's deform table and its overflow check (mu_slots at the corners of the
amplitudes) and qjacobi.q_structure (mu_slots over quasi-CCR operators, C
from solve_C's formula over central symbols) read them from there.
mu_slots, antisymmetric, build_mu, solve_C and mu_time_derivative use plain
Python arithmetic and work with floats or exact Fractions alike, without
loading numpy; the numpy layer only enters in the verification routines:
build_M, build_L, phase_points, operadic_lax_residual and the two verify_*
routines load it on first use.  On arrays (phase_points, C with array
fields) the same arithmetic gives a stack of samples.
operadic_lax_residual states max |dmu - [M, mu]| once, for a stack and a
given time derivative: verify_operadic_lax's central differences, or
mu_time_derivative on the lax suite's grid of points.  The verify_*
routines take a 1-D stack of times (a scalar is a stack of one) and return
each sample's residual bitwise as alone: a float for a scalar time, an
array for a stack.  They judge nothing: the suite case that reads a
residual states its tolerance.  Their finite differences are central, with
the one step FD_STEP.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction

from ._lazy import LazyNumpy
from .operad import _bracket
from .oscillator import HOParams, PhasePoint, flow

np = LazyNumpy(globals())


class NotRepresentableError(ValueError):
    """Initial tensor is not antisymmetric in its lower indices."""


class OperadicParams(namedtuple("OperadicParams",
                                "c1 c2 c3 c4 c5 c6 c7 c8 c9")):
    """The nine parameters of the operadic Lax family."""

    __slots__ = ()

    @property
    def admissible(self) -> bool:
        s = (self.c2 * self.c2 + self.c3 * self.c3 + self.c5 * self.c5
             + self.c6 * self.c6 + self.c7 * self.c7 + self.c8 * self.c8)
        return s != 0


def build_M(omega: float) -> np.ndarray:
    """Constant rotation generator in the 1-2 plane, scaled by omega/2."""
    return (omega / 2) * np.array([[0.0, -1.0, 0.0],
                                   [1.0, 0.0, 0.0],
                                   [0.0, 0.0, 0.0]])


def build_L(params: HOParams, point: PhasePoint) -> np.ndarray:
    """The Lax matrix at point, a stack of them for a stack of points."""
    p, wq, zero = point.p, params.omega * point.q, np.zeros_like(point.p)
    return np.stack([p, wq, zero, wq, -p, zero, zero, zero, zero + 1.0],
                    axis=-1).reshape(np.shape(p) + (3, 3))


def phase_points(params: HOParams, times) -> PhasePoint:
    """oscillator.trajectory at each of times (a number is a stack of one),
    as one PhasePoint of 1-D float arrays."""
    rows = np.array(list(flow(params, np.reshape(times, -1).tolist())))
    return PhasePoint(*rows.reshape(-1, 5).T, H=params.energy)


# the time step of the central differences in the verify_* routines and of
# the lax suite's velocity check
FD_STEP = 1e-5


def verify_matrix_lax(params: HOParams, t) -> float | np.ndarray:
    """Max-norm of central-difference dL/dt minus (ML - LM) at time t."""
    Lp = build_L(params, phase_points(params, t + FD_STEP))
    Lm = build_L(params, phase_points(params, t - FD_STEP))
    dL = (Lp - Lm) / (2 * FD_STEP)
    L = build_L(params, phase_points(params, t))
    M = build_M(params.omega)
    residual = np.abs(dL - (M @ L - L @ M)).max(axis=(1, 2))
    return residual.reshape(np.shape(t))[()]


# The nine independent components mu^i_{jk}, 0-based, in table order:
# mu^1_12, mu^2_12, mu^3_12, mu^1_23, mu^2_23, mu^3_23, mu^1_31, mu^2_31,
# mu^3_31.
SLOTS = ((0, 0, 1), (1, 0, 1), (2, 0, 1),
         (0, 1, 2), (1, 1, 2), (2, 1, 2),
         (0, 2, 0), (1, 2, 0), (2, 2, 0))


def antisymmetric(values, zero=0) -> list | np.ndarray:
    """3x3x3 nested list holding the nine values at SLOTS, their negatives
    at the transposed slots mu^i_{kj}, and zero everywhere else; for array
    values (a stack) a C-contiguous float array, shape stack + (3, 3, 3)."""
    values = tuple(values)
    # no value is an ndarray before numpy is loaded; not .shape, which a
    # numpy scalar has too
    numpy = sys.modules.get("numpy")
    stacks = [v.shape for v in values
              if numpy is not None and isinstance(v, numpy.ndarray)]
    mu = (np.zeros((3, 3, 3) + np.broadcast_shapes(*stacks)) if stacks
          else [[[zero] * 3 for _ in range(3)] for _ in range(3)])
    for (i, j, k), value in zip(SLOTS, values, strict=True):
        mu[i][j][k] = value
        mu[i][k][j] = -value
    return np.moveaxis(mu, (0, 1, 2), (-3, -2, -1)).copy() if stacks else mu


def antisymmetry_break(m) -> tuple | None:
    """The first (i, j, k) with m^i_jk != -m^i_kj, or None: the test is
    symmetric in (j, k), so each pair j < k and diagonal j = k is run once."""
    return next(((i, j, k) for i in range(3) for j in range(3)
                 for k in range(j, 3) if m[i][j][k] != -m[i][k][j]), None)


def mu_slots(C: OperadicParams, w, q, p, Q, P) -> tuple:
    """The nine independent components of mu, in SLOTS order, at the phase
    point (q, p, Q, P) of an oscillator with frequency w.

    This is the one statement of the operadic family: each component is
    affine in (q, p, Q, P).  Scalar types of C and the point are preserved
    (floats or Fractions).  C may also be a plain tuple of the nine values.
    """
    # one unpacking, not 20 field lookups: the deform table calls this once
    # a row
    c1, c2, c3, c4, c5, c6, c7, c8, c9 = C
    return (
        c5 * P + c6 * Q,                 # mu^1_12
        c5 * Q - c6 * P,                 # mu^2_12
        c9,                              # mu^3_12
        c2 * p - c3 * w * q - c4,        # mu^1_23
        c2 * w * q + c3 * p + c1,        # mu^2_23
        c7 * Q - c8 * P,                 # mu^3_23
        c2 * w * q + c3 * p - c1,        # mu^1_31
        -(c2 * p - c3 * w * q + c4),     # mu^2_31
        -(c7 * P + c8 * Q),              # mu^3_31
    )


def build_mu(C: OperadicParams, params: HOParams,
             point: PhasePoint) -> list | np.ndarray:
    """27-component tensor mu[i][j][k] of the binary operadic Lax operation:
    mu_slots at SLOTS, their negatives at the antisymmetric partners and
    zero everywhere else.

    The non-degeneracy constraint on C (OperadicParams.admissible) is only
    a triviality guard: constant mu, e.g. C9 alone, still satisfies the Lax
    equation, so it is not enforced here.
    """
    return antisymmetric(mu_slots(C, params.omega, point.q, point.p,
                                  point.Q, point.P))


def _exact_sqrt(x: Fraction) -> Fraction:
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError(f"{x} has no exact rational square root")
    return Fraction(rn, rd)


def solve_C(initial_mu, p0) -> OperadicParams:
    """Invert the t = 0 tensor for C1..C9 (p0 > 0 branch).

    initial_mu is any 3x3x3 tensor antisymmetric in the lower indices; a
    non-antisymmetric input (e.g. nonzero mu^1_11) is rejected.  With
    Fraction inputs and a rational sqrt(2 p0) the result is exact.
    """
    if not p0 > 0:
        raise ValueError(f"p0 must be > 0, got {p0}")
    if (broken := antisymmetry_break(initial_mu)) is not None:
        i, j, k = broken
        raise NotRepresentableError(
            f"mu^{i+1}_{{{j+1}{k+1}}} breaks antisymmetry; "
            "tensor is outside the operadic ansatz")
    r = _exact_sqrt(2 * p0) if isinstance(p0, Fraction) else math.sqrt(2 * p0)
    return _params_of(initial_mu, p0, r)


def _params_of(m, p0, r) -> OperadicParams:
    """solve_C's formula with r = sqrt(2 p0) given, for any scalars that
    divide: floats, Fractions, or the central symbols of ncalg, from which
    qjacobi builds the quantum structure.  1/2 is taken in p0's type
    (p0 / p0 is one), so int entries over a Fraction p0 give exact c1 and
    c4, where int / 2 would be a float; over a float p0, x * 0.5 is x / 2
    bit for bit."""
    mu31_1 = m[0][2][0]
    mu13_2 = m[1][0][2]
    mu23_1 = m[0][1][2]
    mu23_2 = m[1][1][2]
    half = p0 / p0 / 2
    return OperadicParams(
        c1=(mu23_2 - mu31_1) * half,
        c2=(mu13_2 + mu23_1) / (2 * p0),
        c3=(mu23_2 + mu31_1) / (2 * p0),
        c4=(mu13_2 - mu23_1) * half,
        c5=m[0][0][1] / r,
        c6=-m[1][0][1] / r,
        c7=m[2][0][2] / r,
        c8=-m[2][1][2] / r,
        c9=m[2][0][1],
    )


def mu_time_derivative(C: OperadicParams, params: HOParams,
                       point: PhasePoint) -> list | np.ndarray:
    """d(mu)/dt along the flow.  mu is affine in (q, p, Q, P), so this is
    mu_slots at the velocity qdot = p, pdot = -w^2 q, Qdot = (w/2) P,
    Pdot = -(w/2) Q minus mu_slots at the origin."""
    w = params.omega
    q, p, Q, P = point.q, point.p, point.Q, point.P
    at_velocity = mu_slots(C, w, p, -w * w * q, (w / 2) * P, -(w / 2) * Q)
    at_origin = mu_slots(C, w, 0, 0, 0, 0)
    return antisymmetric(v - o for v, o in zip(at_velocity, at_origin))


def operadic_lax_residual(C: OperadicParams, params: HOParams,
                          point: PhasePoint, dmu) -> np.ndarray:
    """Per-sample max |dmu - [M, mu]| over a stack of samples (the point's
    fields as long as the stack, C's too or numbers), mu at point: the
    residual of the operadic Lax equation for the time derivative dmu."""
    mu = build_mu(C, params, point)
    M = np.broadcast_to(build_M(params.omega), mu.shape[:1] + (3, 3))
    return np.abs(dmu - _bracket(M, 1, mu, 2)).max(axis=(1, 2, 3))


def verify_operadic_lax(C: OperadicParams, params: HOParams,
                        t) -> float | np.ndarray:
    """Residual of dmu/dt = [M, mu] at time t (C's fields as long as t),
    with dmu/dt by central differences over trajectory time."""
    mp = build_mu(C, params, phase_points(params, t + FD_STEP))
    mm = build_mu(C, params, phase_points(params, t - FD_STEP))
    residual = operadic_lax_residual(C, params, phase_points(params, t),
                                     (mp - mm) / (2 * FD_STEP))
    return residual.reshape(np.shape(t))[()]
