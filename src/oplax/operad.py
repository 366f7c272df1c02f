"""Endomorphism-operad calculus on a finite-dimensional real space.

A degree-n operation is a multilinear map f: V^(x)n -> V stored as the
dense coordinate tensor c[i, j1, ..., jn].  Partial composition inserts one
operation into a slot of another with the Koszul sign (-1)^(i*|g|), where
|f| = deg f - 1 is the reduced degree.  The Gerstenhaber bracket is the
graded commutator of total compositions and makes the operations a graded
Lie algebra.

Each partial composition is one matrix product whose axis permutations are
planned once per (deg f, deg g, slot); it does exactly the arithmetic of
np.tensordot, so results are bitwise those of the textbook contraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class DimensionMismatchError(ValueError):
    """Operations live on spaces of different dimension."""


class InvalidOperationError(ValueError):
    """Degree, dimension, or slot index out of range."""


@dataclass(frozen=True)
class MultiOp:
    """A multilinear operation V^(x)n -> V as a coordinate tensor.

    coeffs has shape (dim,) * (degree + 1); axis 0 is the output index.
    Immutable after construction.
    """

    degree: int
    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.degree < 1:
            raise InvalidOperationError(f"degree must be >= 1, got {self.degree}")
        if self.dim < 1:
            raise InvalidOperationError(f"dim must be >= 1, got {self.dim}")
        c = np.asarray(self.coeffs, dtype=float)
        expected = (self.dim,) * (self.degree + 1)
        if c.shape != expected:
            raise InvalidOperationError(
                f"coeffs shape {c.shape} != expected {expected}"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def reduced_degree(self) -> int:
        return self.degree - 1


def identity_op(d: int) -> MultiOp:
    """The identity 1_V as a degree-1 operation."""
    if d < 1:
        raise InvalidOperationError(f"dimension must be >= 1, got {d}")
    return MultiOp(1, d, np.eye(d))


def apply_op(f: MultiOp, *vectors: np.ndarray) -> np.ndarray:
    """Evaluate f on degree-many vectors."""
    if len(vectors) != f.degree:
        raise InvalidOperationError(
            f"expected {f.degree} vectors, got {len(vectors)}"
        )
    out = f.coeffs
    for v in vectors:
        # contract the first input axis (axis 1 after the output axis)
        out = np.tensordot(out, np.asarray(v, dtype=float), axes=([1], [0]))
    return out


def _check_dims(f: MultiOp, g: MultiOp):
    if f.dim != g.dim:
        raise DimensionMismatchError(f"dim mismatch: {f.dim} != {g.dim}")


@lru_cache(maxsize=None)
def _plan(nf: int, ng: int, i: int) -> tuple:
    """Axis permutations for f o_i g with deg f = nf, deg g = ng.

    The first moves input slot i of f (tensor axis i+1) last.  The product
    then has axes [out, a_1..a_i, a_(i+2)..a_nf, b_1..b_ng]; the second puts
    the g-block right after the first i surviving f-inputs.
    """
    perm_f = tuple(k for k in range(nf + 1) if k != i + 1) + (i + 1,)
    perm_out = (tuple(range(i + 1)) + tuple(range(nf, nf + ng))
                + tuple(range(i + 1, nf)))
    return perm_f, perm_out


def _partial(fc: np.ndarray, nf: int, gc: np.ndarray, ng: int, i: int,
             d: int) -> np.ndarray:
    """Coefficients of f o_i g from the bare tensors of f and g."""
    perm_f, perm_out = _plan(nf, ng, i)
    res = np.dot(fc.transpose(perm_f).reshape(d ** nf, d),
                 gc.reshape(d, d ** ng))
    res = res.reshape((d,) * (nf + ng)).transpose(perm_out)
    return -res if (i * (ng - 1)) % 2 else res


def _total(fc: np.ndarray, nf: int, gc: np.ndarray, ng: int,
           d: int) -> np.ndarray:
    """Coefficients of the sum of f o_i g over i = 0..nf-1, in slot order."""
    acc = _partial(fc, nf, gc, ng, 0, d)
    for i in range(1, nf):
        acc = acc + _partial(fc, nf, gc, ng, i, d)
    return acc


def partial_compose(f: MultiOp, g: MultiOp, i: int) -> MultiOp:
    """f o_i g = (-1)^(i|g|) f o (1^i (x) g (x) 1^(|f|-i)), 0 <= i <= |f|."""
    _check_dims(f, g)
    if not 0 <= i <= f.reduced_degree:
        raise InvalidOperationError(
            f"slot {i} out of range 0..{f.reduced_degree}"
        )
    return MultiOp(f.degree + g.reduced_degree, f.dim,
                   _partial(f.coeffs, f.degree, g.coeffs, g.degree, i, f.dim))


def total_compose(f: MultiOp, g: MultiOp) -> MultiOp:
    """Sum of f o_i g over all slots i = 0..|f|."""
    _check_dims(f, g)
    return MultiOp(f.degree + g.reduced_degree, f.dim,
                   _total(f.coeffs, f.degree, g.coeffs, g.degree, f.dim))


def gerstenhaber(f: MultiOp, g: MultiOp) -> MultiOp:
    """Graded commutator [f, g] = f o g - (-1)^(|f||g|) g o f."""
    _check_dims(f, g)
    nf, ng, d = f.degree, g.degree, f.dim
    fg = _total(f.coeffs, nf, g.coeffs, ng, d)
    gf = _total(g.coeffs, ng, f.coeffs, nf, d)
    odd = (f.reduced_degree * g.reduced_degree) % 2
    return MultiOp(nf + g.reduced_degree, d, fg + gf if odd else fg - gf)
