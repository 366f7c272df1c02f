"""Bianchi types II, VII_a, III_{a=1}, VI_{a!=1} and their dynamical
deformations along the oscillator flow.

The three-dimensional structure equations are parameterized as

    [e1, e2] = -alpha e2 + n3 e3,  [e2, e3] = n1 e1,
    [e3, e1] = n2 e2 + alpha e3.

Deformations come from the 9-parameter operadic family (solve_C, then
build_mu along the trajectory).  deformation_closed_form is the paper's
table of them, stated once for any scalars that divide; the bianchi suite
checks it exactly against lax.mu_slots at the rows' C over symbols, the C
of qjacobi.q_structure.  Type II (Heisenberg) is data-only: it has no
deformation row.  structure_constants, dynamical_deformation and
classical_jacobiator return or take numpy stacks of shape (..., 3, 3, 3)
and load numpy on first use; label_params (the CLI's deform table) and
deformation_closed_form do not.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from ._lazy import LazyNumpy
from .lax import (OperadicParams, antisymmetric, build_mu, phase_points,
                  solve_C)
from .oscillator import HOParams

np = LazyNumpy(globals())


class UnsupportedLabelError(ValueError):
    """No deformation exists for this Bianchi type."""


class BianchiType(Enum):
    II = "II"
    VIIA = "VIIa"
    IIIA1 = "IIIa1"
    VIA = "VIa"


class BianchiLabel(namedtuple("BianchiLabel", "type a")):
    """Bianchi type plus the parameter a where the family needs one."""

    __slots__ = ()

    def __new__(cls, type: BianchiType, a: float | None = None):
        if type in (BianchiType.VIIA, BianchiType.VIA):
            if a is None:
                raise ValueError(f"type {type.value} requires parameter a")
            if not a > 0:
                raise ValueError(f"parameter a must be > 0, got {a}")
            if type is BianchiType.VIA and a == 1:
                raise ValueError("type VIa requires a != 1")
        elif a is not None:
            raise ValueError(f"type {type.value} takes no parameter a")
        return super().__new__(cls, type, a)

    # _replace builds through _make, which skips __new__: validate there too
    _make = classmethod(lambda cls, fields: cls(*fields))


def family_a(btype: BianchiType, a):
    """The parameter a of the type's family: 1 for III_{a=1}, else a (a
    number, or the symbol a).  It does not read _PARAMS, so the closed forms
    that take it still check the rows."""
    return 1 if btype is BianchiType.IIIA1 else a


# (alpha, n1, n2, n3) with a the family parameter where applicable
_PARAMS = {
    BianchiType.II: (0, 1, 0, 0),
    BianchiType.VIIA: ("a", 0, 1, 1),
    BianchiType.IIIA1: (1, 0, 1, -1),
    BianchiType.VIA: ("a", 0, 1, -1),
}


def _row_tensor(btype: BianchiType, a) -> list:
    """The structure tensor of the type at t = 0 as a 3x3x3 nested list,
    with alpha = a where the family has a parameter (a number, or the
    symbol a of the quantum structure); with a float a every entry is a
    float, as in a numpy array of them (its zeros +0.0)."""
    alpha, n1, n2, n3 = _PARAMS[btype]
    if alpha == "a":
        alpha = a
    mu = antisymmetric((0, -alpha, n3, n1, 0, 0, 0, n2, alpha))
    if isinstance(alpha, float):
        mu = [[[float(x) for x in row] for row in plane] for plane in mu]
    return mu


def structure_constants(label: BianchiLabel) -> np.ndarray:
    """The structure tensor of the given Bianchi type at t = 0."""
    return np.array(_row_tensor(*label))


DEFORMABLE = (BianchiType.VIIA, BianchiType.IIIA1, BianchiType.VIA)


def require_deformable(btype: BianchiType) -> None:
    """Raise UnsupportedLabelError unless the type has a deformation row."""
    if btype not in DEFORMABLE:
        raise UnsupportedLabelError(
            f"type {btype.value} has no dynamical deformation"
        )


def label_params(label: BianchiLabel, p0) -> OperadicParams:
    """Operadic parameters whose t = 0 tensor is the Bianchi row."""
    require_deformable(label.type)
    return solve_C(_row_tensor(*label), p0)


def dynamical_deformation(C: OperadicParams, params: HOParams,
                          t) -> np.ndarray:
    """Deformed structure tensor at time t, generated via the operadic
    family from C, such as label_params(label, params.p0) of a Bianchi row
    (a stack of them for a stack of times)."""
    mu = build_mu(C, params, phase_points(params, t))
    return mu.reshape(np.shape(t) + (3, 3, 3))


def deformation_closed_form(btype: BianchiType, a, p0, r, wq, p, Q,
                            P) -> tuple:
    """The paper's table: the nine deformed components in SLOTS order at
    the phase point with omega*q = wq, for r = sqrt(2 p0) and a = 1 for
    III_{a=1}, apart from the operadic family and _PARAMS.  Any scalars
    that divide: floats, Fractions, CoeffPolys or sympy (n3 in p0's type)."""
    require_deformable(btype)
    n3 = (1 if btype is BianchiType.VIIA else -1) * (p0 / p0)
    two_p0 = 2 * p0
    return (
        a * Q / r,               # mu^1_12
        -a * P / r,              # mu^2_12
        n3,                      # mu^3_12
        (p0 - p) / two_p0,       # mu^1_23
        -wq / two_p0,            # mu^2_23
        -a * Q / r,              # mu^3_23
        -wq / two_p0,            # mu^1_31
        (p + p0) / two_p0,       # mu^2_31
        a * P / r,               # mu^3_31
    )


def classical_jacobiator(mu: np.ndarray, x, y, z) -> np.ndarray:
    """J^i = mu^i_{js} x^j mu^s_{kl} y^k z^l + cyclic permutations of x,y,z
    (per sample for a stack, x, y and z then one vector each)."""
    m = np.asarray(mu, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    out = np.zeros(m.shape[:-2])
    for u, v, w_ in ((x, y, z), (y, z, x), (z, x, y)):
        out += np.einsum("...ijs,...j,...skl,...k,...l->...i",
                         m, u, m, v, w_)
    return out
