"""Endomorphism-operad calculus on a finite-dimensional real space.

A degree-n operation is a multilinear map f: V^(x)n -> V stored as the
dense coordinate tensor c[i, j1, ..., jn].  Partial composition inserts one
operation into a slot of another with the Koszul sign (-1)^(i*|g|), where
|f| = deg f - 1 is the reduced degree.  The Gerstenhaber bracket is the
graded commutator of total compositions and makes the operations a graded
Lie algebra.

One kernel does all composition.  _partial, _total and the bare bracket
_bracket take coefficient tensors with any number of leading batch axes (a
stack of samples, each stack of one dimension and degree) and compose each
entry on its own with one np.matmul per slot over the whole stack; the axis
permutations are planned once per (deg f, deg g, slot, batch axes).  The
MultiOp functions call the same kernel with no batch axis, and
graded_lie_residuals checks the graded Lie identities on whole stacks.  Each
product does exactly the arithmetic of np.tensordot, so results are bitwise
those of the textbook contraction, stacked or not; that depends on the BLAS
and is pinned by the TestBitwise tests.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from ._lazy import LazyNumpy

np = LazyNumpy(globals())


class DimensionMismatchError(ValueError):
    """Operations live on spaces of different dimension."""


class InvalidOperationError(ValueError):
    """Degree, dimension, or slot index out of range."""


class MultiOp(namedtuple("MultiOp", "degree dim coeffs")):
    """A multilinear operation V^(x)n -> V as a coordinate tensor.

    coeffs has shape (dim,) * (degree + 1); axis 0 is the output index.
    Immutable after construction.
    """

    __slots__ = ()

    def __new__(cls, degree: int, dim: int, coeffs: np.ndarray):
        if degree < 1:
            raise InvalidOperationError(f"degree must be >= 1, got {degree}")
        if dim < 1:
            raise InvalidOperationError(f"dim must be >= 1, got {dim}")
        c = np.asarray(coeffs, dtype=float)
        expected = (dim,) * (degree + 1)
        if c.shape != expected:
            raise InvalidOperationError(
                f"coeffs shape {c.shape} != expected {expected}"
            )
        c = c.copy()
        c.setflags(write=False)
        return super().__new__(cls, degree, dim, c)

    # _replace builds through _make, which skips __new__: validate there too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def reduced_degree(self) -> int:
        return self.degree - 1


def _check_dims(f: MultiOp, g: MultiOp):
    if f.dim != g.dim:
        raise DimensionMismatchError(f"dim mismatch: {f.dim} != {g.dim}")


@lru_cache(maxsize=None)
def _plan(nf: int, ng: int, i: int, nb: int) -> tuple:
    """Axis permutations for f o_i g with deg f = nf, deg g = ng, behind nb
    batch axes.

    The first moves input slot i of f (tensor axis nb+i+1) last.  The
    product then has axes [batch, out, a_1..a_i, a_(i+2)..a_nf, b_1..b_ng];
    the second puts the g-block right after the first i surviving f-inputs.
    """
    batch = tuple(range(nb))
    slot = nb + i + 1
    perm_f = (batch + tuple(k for k in range(nb, nb + nf + 1) if k != slot)
              + (slot,))
    perm_out = batch + tuple(nb + k for k in (
        tuple(range(i + 1)) + tuple(range(nf, nf + ng))
        + tuple(range(i + 1, nf))))
    return perm_f, perm_out


def _partial(fc: np.ndarray, nf: int, gc: np.ndarray, ng: int,
             i: int) -> np.ndarray:
    """Coefficients of f o_i g from the bare tensors of f and g.

    Axes before the last nf + 1 of fc (ng + 1 of gc) are batch axes, the
    same in both; each batch entry is composed on its own.
    """
    d = fc.shape[-1]
    batch = fc.shape[:fc.ndim - nf - 1]
    perm_f, perm_out = _plan(nf, ng, i, len(batch))
    res = np.matmul(fc.transpose(perm_f).reshape(batch + (d ** nf, d)),
                    gc.reshape(batch + (d, d ** ng)))
    if (i * (ng - 1)) % 2:
        np.negative(res, out=res)
    return res.reshape(batch + (d,) * (nf + ng)).transpose(perm_out)


def _total(fc: np.ndarray, nf: int, gc: np.ndarray, ng: int) -> np.ndarray:
    """Coefficients of the sum of f o_i g over i = 0..nf-1, in slot order.

    The sum is kept C-contiguous: adding a transposed partial into it is
    much faster than adding two transposed views of different layouts.
    """
    acc = np.ascontiguousarray(_partial(fc, nf, gc, ng, 0))
    for i in range(1, nf):
        acc += _partial(fc, nf, gc, ng, i)
    return acc


def _bracket(fc: np.ndarray, nf: int, gc: np.ndarray,
             ng: int) -> np.ndarray:
    """Coefficients of [f, g] = f o g - (-1)^(|f||g|) g o f."""
    fg = _total(fc, nf, gc, ng)
    gf = _total(gc, ng, fc, nf)
    if ((nf - 1) * (ng - 1)) % 2:
        fg += gf
    else:
        fg -= gf
    return fg


def partial_compose(f: MultiOp, g: MultiOp, i: int) -> MultiOp:
    """f o_i g = (-1)^(i|g|) f o (1^i (x) g (x) 1^(|f|-i)), 0 <= i <= |f|."""
    _check_dims(f, g)
    if not 0 <= i <= f.reduced_degree:
        raise InvalidOperationError(
            f"slot {i} out of range 0..{f.reduced_degree}"
        )
    return MultiOp(f.degree + g.reduced_degree, f.dim,
                   _partial(f.coeffs, f.degree, g.coeffs, g.degree, i))


def total_compose(f: MultiOp, g: MultiOp) -> MultiOp:
    """Sum of f o_i g over all slots i = 0..|f|."""
    _check_dims(f, g)
    return MultiOp(f.degree + g.reduced_degree, f.dim,
                   _total(f.coeffs, f.degree, g.coeffs, g.degree))


def gerstenhaber(f: MultiOp, g: MultiOp) -> MultiOp:
    """Graded commutator [f, g] = f o g - (-1)^(|f||g|) g o f."""
    _check_dims(f, g)
    return MultiOp(f.degree + g.reduced_degree, f.dim,
                   _bracket(f.coeffs, f.degree, g.coeffs, g.degree))


def _absmax(x: np.ndarray) -> np.ndarray:
    """Largest |entry| of each sample (axis 0), without a temporary |x|."""
    axes = tuple(range(1, x.ndim))
    return np.maximum(x.max(axis=axes), -x.min(axis=axes))


def graded_lie_residuals(F: np.ndarray, G: np.ndarray,
                         H: np.ndarray) -> tuple[bool, float, float]:
    """Graded antisymmetry and graded Jacobi on stacks of operations.

    F, G and H hold samples f, g, h along axis 0, all of one dimension and
    each stack of one degree.  Returns whether the total composition f o g
    and every bracket had the degree the grading gives; the largest entry
    of |[f,g] + (-1)^(|f||g|) [g,f]|; and the largest entry of |J| divided
    by max(1, largest entry of its three terms), where J is
    (-1)^(|f||h|) [f,[g,h]] + (-1)^(|g||f|) [g,[h,f]]
    + (-1)^(|h||g|) [h,[f,g]] summed in that order.  Each is a maximum over
    per-sample values, so it does not depend on how samples are stacked.
    """
    n, d = F.shape[0], F.shape[-1]
    degrees_ok = True

    def bracket(x, y):
        nonlocal degrees_ok
        nx, ny = x.ndim - 2, y.ndim - 2
        xy = _bracket(x, nx, y, ny)
        degrees_ok &= xy.shape == (n,) + (d,) * (nx + ny)
        return xy

    def odd(x, y):
        return (x.ndim - 3) * (y.ndim - 3) % 2

    nf, ng = F.ndim - 2, G.ndim - 2
    degrees_ok &= _total(F, nf, G, ng).shape == (n,) + (d,) * (nf + ng)
    fg = bracket(F, G)
    gf = bracket(G, F)
    anti = float(np.max(_absmax(fg - gf if odd(F, G) else fg + gf)))
    del gf

    jac = scale = None
    for k, (x, y, z) in enumerate(((F, G, H), (G, H, F), (H, F, G))):
        term = bracket(x, fg if k == 2 else bracket(y, z))
        if jac is None:
            jac, scale = term, _absmax(term)
            if odd(x, z):
                np.negative(jac, out=jac)
        else:
            scale = np.maximum(scale, _absmax(term))
            if odd(x, z):
                jac -= term
            else:
                jac += term
        del term
    relative = _absmax(jac) / np.maximum(scale, 1.0)
    return degrees_ok, anti, float(np.max(relative))
