"""Bianchi types II, VII_a, III_{a=1}, VI_{a!=1} and their dynamical
deformations along the oscillator flow.

The three-dimensional structure equations are parameterized as

    [e1, e2] = -alpha e2 + n3 e3,  [e2, e3] = n1 e1,  [e3, e1] = n2 e2 + alpha e3.

Deformations are produced two independent ways: through the 9-parameter
operadic family (solve_C then build_mu along the trajectory) and through
stored closed forms; the test suite asserts the two agree.  Type II
(Heisenberg) is data-only: it has no deformation row.  StructureConstants,
dynamical_deformation, deformation_closed_form and classical_jacobiator
take stacks of samples and load numpy on first use; label_params (the
CLI's deform table) does not.
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

    @property
    def a_value(self):
        """Effective a: the declared parameter, or 1 for III_{a=1}."""
        return 1 if self.type is BianchiType.IIIA1 else self.a


class StructureConstants(namedtuple("StructureConstants", "array")):
    """3x3x3 tensor mu^i_{jk}, antisymmetric in (j, k) (or a stack)."""

    __slots__ = ()

    def __new__(cls, array: np.ndarray):
        arr = np.asarray(array)
        if arr.shape[-3:] != (3, 3, 3):
            raise ValueError(f"expected shape (..., 3, 3, 3), got {arr.shape}")
        return super().__new__(cls, arr)

    # _replace builds through _make, which skips __new__: validate there too
    _make = classmethod(lambda cls, fields: cls(*fields))


# (alpha, n1, n2, n3) with a the family parameter where applicable
_PARAMS = {
    BianchiType.II: (0, 1, 0, 0),
    BianchiType.VIIA: ("a", 0, 1, 1),
    BianchiType.IIIA1: (1, 0, 1, -1),
    BianchiType.VIA: ("a", 0, 1, -1),
}


def _row_tensor(label: BianchiLabel) -> list:
    """The structure tensor at t = 0 as a 3x3x3 nested list; with a float a
    every entry is a float, as in a numpy array of them (its zeros +0.0)."""
    alpha, n1, n2, n3 = _PARAMS[label.type]
    if alpha == "a":
        alpha = label.a
    mu = antisymmetric((0, -alpha, n3, n1, 0, 0, 0, n2, alpha))
    if isinstance(alpha, float):
        mu = [[[float(x) for x in row] for row in plane] for plane in mu]
    return mu


def structure_constants(label: BianchiLabel) -> StructureConstants:
    """The structure tensor of the given Bianchi type at t = 0."""
    return StructureConstants(np.array(_row_tensor(label)))


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
    return solve_C(_row_tensor(label), p0)


def dynamical_deformation(label: BianchiLabel, params: HOParams,
                          t) -> StructureConstants:
    """Deformed structure tensor at time t, generated via the operadic
    family (a stack of them for a stack of times)."""
    C = label_params(label, params.p0)
    mu = build_mu(C, params, phase_points(params, t))
    return StructureConstants(mu.reshape(np.shape(t) + (3, 3, 3)))


def deformation_closed_form(label: BianchiLabel, params: HOParams,
                            t) -> StructureConstants:
    """Deformed structure tensor from the stored closed forms (independent
    of the operadic generation path)."""
    require_deformable(label.type)
    a = label.a_value
    n3 = 1 if label.type is BianchiType.VIIA else -1
    pt = phase_points(params, t)
    p0 = params.p0
    root = np.sqrt(2 * p0)
    w = params.omega
    return StructureConstants(antisymmetric((
        a * pt.Q / root,             # mu^1_12
        -a * pt.P / root,            # mu^2_12
        float(n3),                   # mu^3_12
        (p0 - pt.p) / (2 * p0),      # mu^1_23
        -w * pt.q / (2 * p0),        # mu^2_23
        -a * pt.Q / root,            # mu^3_23
        -w * pt.q / (2 * p0),        # mu^1_31
        (pt.p + p0) / (2 * p0),      # mu^2_31
        a * pt.P / root,             # mu^3_31
    )).reshape(np.shape(t) + (3, 3, 3)))


def classical_jacobiator(sc: StructureConstants, x, y, z) -> np.ndarray:
    """J^i = mu^i_{js} x^j mu^s_{kl} y^k z^l + cyclic permutations of x,y,z
    (per sample for a stack, x, y and z then one vector each)."""
    m = np.asarray(sc.array, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    out = np.zeros(m.shape[:-2])
    for u, v, w_ in ((x, y, z), (y, z, x), (z, x, y)):
        out += np.einsum("...ijs,...j,...skl,...k,...l->...i",
                         m, u, m, v, w_)
    return out
