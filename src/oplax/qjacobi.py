"""Quantum Bianchi algebras, the quantum Jacobi operator, and its
semiclassical reductions.

Structure constants become operator-valued: the deformation entries keep
their closed forms with (q, p, Q, P) promoted to letters of the quasi-CCR
algebra.  Two alphabet conventions exist:

  * "PQ"   -- two letters; the operator momentum and position enter through
              p := (P^2 - Q^2)/2 and omega*q := (PQ + QP)/2 read as
              definitions (the semiclassical constraints);
  * "qpPQ" -- four letters with q, p commuting with P, Q.

The quantum bracket [x, y] has components mu^i_{jk} x^j y^k; since the
inner bracket of a nested Jacobiator is operator-valued, the placement of
the structure constant against it matters, so both "left" and "right"
conventions are implemented and compared against the claimed closed forms.

The Jacobiator is evaluated on vectors with central (scalar) components
only, as the contraction of the Jacobiator tensor with the coordinates:
J^i = sum_abc x^a y^b z^c (T^i_abc + T^i_bca + T^i_cab) with
T^i_abc = sum_k mu^i_ak mu^k_bc in the left convention and
sum_k mu^k_bc mu^i_ak in the right one (see q_jacobiator).

Scalars sqrt(2H) and omega/(2 sqrt(2H)) are the central symbols h and eps;
sqrt(2 p0) is the radical r with r^2 = 2 p0.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction
from itertools import permutations, product

from .bianchi import BianchiType, require_deformable
from .lax import antisymmetric
from .ncalg import (SYMBOLS, CoeffPoly, CommutationTable, NCPoly, commutator,
                    quasi_ccr_table)

PQ_TABLE = quasi_ccr_table(("P", "Q"))
QPPQ_TABLE = quasi_ccr_table(("q", "p", "P", "Q"))

_TABLES = {"PQ": PQ_TABLE, "qpPQ": QPPQ_TABLE}


def table_for(alphabet: str) -> CommutationTable:
    try:
        return _TABLES[alphabet]
    except KeyError:
        raise ValueError(f"unknown alphabet {alphabet!r}") from None


def _sym(name: str) -> CoeffPoly:
    return CoeffPoly.symbol(name)


def momentum_poly(table: CommutationTable) -> NCPoly:
    """The operator p: the letter itself, or (P^2 - Q^2)/2."""
    if "p" in table.order:
        return NCPoly.letter(table, "p")
    return NCPoly(table, {("P", "P"): Fraction(1, 2),
                          ("Q", "Q"): Fraction(-1, 2)})


def omega_q_poly(table: CommutationTable) -> NCPoly:
    """The operator omega*q: omega times the letter, or (PQ + QP)/2."""
    if "q" in table.order:
        return NCPoly(table, {("q",): _sym("omega")})
    return NCPoly(table, {("P", "Q"): Fraction(1, 2),
                          ("Q", "P"): Fraction(1, 2)})


def _a_factor(btype: BianchiType) -> CoeffPoly:
    if btype is BianchiType.IIIA1:
        return CoeffPoly.one()
    return _sym("a")


@functools.cache
def q_structure(btype: BianchiType, table: CommutationTable = PQ_TABLE):
    """3x3x3 nested tuple of NCPoly operator structure constants, built
    once per process, label and table."""
    require_deformable(btype)
    a = _a_factor(btype)
    n3 = 1 if btype is BianchiType.VIIA else -1
    inv2p0 = CoeffPoly.monomial(Fraction(1, 2), {"p0": -1})
    inv_r = CoeffPoly.monomial(1, {"r": -1})
    P = NCPoly.letter(table, "P")
    Q = NCPoly.letter(table, "Q")
    p_op = momentum_poly(table)
    wq_op = omega_q_poly(table)
    half = NCPoly.scalar(table, Fraction(1, 2))

    mu = antisymmetric((
        Q * (a * inv_r),                     # mu^1_12 = a Q / r
        -(P * (a * inv_r)),                  # mu^2_12 = -a P / r
        NCPoly.scalar(table, n3),            # mu^3_12
        half - p_op * inv2p0,                # mu^1_23 = (p0 - p)/(2p0)
        -(wq_op * inv2p0),                   # mu^2_23
        -(Q * (a * inv_r)),                  # mu^3_23
        -(wq_op * inv2p0),                   # mu^1_31
        p_op * inv2p0 + half,                # mu^2_31 = (p + p0)/(2p0)
        P * (a * inv_r),                     # mu^3_31
    ), zero=NCPoly.zero(table))
    return tuple(tuple(map(tuple, plane)) for plane in mu)


def q_jacobiator(x: tuple, y: tuple, z: tuple, qsc,
                 conv: str = "left") -> tuple:
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]] with the quantum bracket, for
    3-tuples with central (scalar) components.

    Central coordinates factor out of every product, so the Jacobiator is
    the contraction of the Jacobiator tensor with them:

        J^i = sum_abc x^a y^b z^c (T^i_abc + T^i_bca + T^i_cab),
        T^i_abc = sum_k mu^i_ak mu^k_bc      (left convention),
        T^i_abc = sum_k mu^k_bc mu^i_ak      (right convention).

    The product is bilinear, so T is antisymmetric in (b, c) when mu is in
    its lower indices: T^i_acb is then taken as -T^i_abc, not multiplied
    out again.  Whether mu is antisymmetric is checked exactly on each
    call; a mu that is not gets every T^i_abc multiplied out.

    A component that is not a scalar raises ValueError.
    """
    if conv not in ("left", "right"):
        raise ValueError(f"unknown convention {conv!r}")
    xs, ys, zs = ([c.scalar_part() for c in e] for e in (x, y, z))
    zero = NCPoly.zero(qsc[0][0][1].table)
    # q_structure's mu is always antisymmetric, but without this check a mu
    # that is not would pass each jacobi_delta_divisible_* case by construction
    skew = all(qsc[k][c][b] == -qsc[k][b][c]
               for k, b, c in product(range(3), repeat=3))
    T = {}
    for i, a, b, c in product(range(3), repeat=4):
        if skew and b > c:
            T[i, a, b, c] = -T[i, a, c, b]
            continue
        acc = zero
        for k in range(3):
            outer, inner = qsc[i][a][k], qsc[k][b][c]
            if outer.is_zero or inner.is_zero:
                continue
            acc = acc + (outer * inner if conv == "left" else inner * outer)
        T[i, a, b, c] = acc
    # the cyclic sum is the same for the three rotations of (a, b, c), so
    # it is scaled once by their coordinate monomials summed
    coords = {}
    for a, b, c in product(range(3), repeat=3):
        orbit = min((a, b, c), (b, c, a), (c, a, b))
        coords[orbit] = (coords.get(orbit, CoeffPoly.zero())
                          + xs[a] * ys[b] * zs[c])
    comps = []
    for i in range(3):
        acc = zero
        for (a, b, c), coord in coords.items():
            cyclic = T[i, a, b, c] + T[i, b, c, a] + T[i, c, a, b]
            if not cyclic.is_zero and not coord.is_zero:
                acc = acc + cyclic * coord
        comps.append(acc)
    return tuple(comps)


@functools.cache
def symbolic_coordinates(table: CommutationTable):
    """Three generic 3-tuples with central coordinate symbols, built once
    per process and table."""
    def vec(prefix):
        return tuple(NCPoly.scalar(table, _sym(f"{prefix}{i}"))
                     for i in (1, 2, 3))
    return vec("x"), vec("y"), vec("z")


@functools.cache
def det_poly() -> CoeffPoly:
    """Determinant of the coordinate rows (x, y, z) as a scalar polynomial,
    built once per process."""
    out = CoeffPoly.zero()
    for perm in permutations((1, 2, 3)):
        sign = _perm_sign(perm)
        mono = _sym(f"x{perm[0]}") * _sym(f"y{perm[1]}") * _sym(f"z{perm[2]}")
        out = out + CoeffPoly.number(sign) * mono
    return out


def _perm_sign(perm) -> int:
    inv = sum(1 for i in range(3) for j in range(i + 1, 3)
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


_UNIT_COORDS = {
    "x1": 1, "x2": 0, "x3": 0,
    "y1": 0, "y2": 1, "y3": 0,
    "z1": 0, "z2": 0, "z3": 1,
}


@functools.cache
def xi_polys(table: CommutationTable) -> tuple[NCPoly, NCPoly]:
    """xi1 = omega*q Q + (p - p0) P and xi2 = omega*q P - (p + p0) Q, built
    once per process and table."""
    P = NCPoly.letter(table, "P")
    Q = NCPoly.letter(table, "Q")
    p_op = momentum_poly(table)
    wq_op = omega_q_poly(table)
    p0 = NCPoly.scalar(table, _sym("p0"))
    xi1 = wq_op * Q + (p_op - p0) * P
    xi2 = wq_op * P - (p_op + p0) * Q
    return xi1, xi2


def claimed_jacobi(btype: BianchiType, xi: tuple[NCPoly, NCPoly],
                   det: CoeffPoly) -> list[NCPoly]:
    """The claimed closed form of the Jacobiator,

        J^1 = -(a det / (r p0)) xi1,  J^2 = -(a det / (r p0)) xi2,
        J^3 = (a^2 det / p0) [P, Q],

    in the algebra of xi = (xi1, xi2); det is the coordinate determinant
    D (det_poly) or the abstract determinant symbol Delta.
    """
    require_deformable(btype)
    a = _a_factor(btype)
    xi1, xi2 = xi
    table = xi1.table
    coef = -(a * det * CoeffPoly.monomial(1, {"r": -1, "p0": -1}))
    PQ = commutator(NCPoly.letter(table, "P"), NCPoly.letter(table, "Q"))
    return [xi1 * coef, xi2 * coef,
            PQ * (a * a * det * CoeffPoly.monomial(1, {"p0": -1}))]


class TheoremReport(namedtuple("TheoremReport",
                               "exact residuals delta_divisible")):
    """Machine comparison of the computed Jacobiator against the claimed
    closed forms, per component."""

    __slots__ = ()

    @property
    def all_exact(self) -> bool:
        return all(self.exact)


def verify_theorem_q(btype: BianchiType, conv: str = "left",
                     alphabet: str = "PQ") -> TheoremReport:
    """Compute the Jacobiator on symbolic coordinates and compare it, as an
    exact polynomial identity, with claimed_jacobi at the coordinate
    determinant D.  Also checks that every computed component is divisible
    by D with a coordinate-free quotient.
    """
    table = table_for(alphabet)
    qsc = q_structure(btype, table)
    x, y, z = symbolic_coordinates(table)
    J = q_jacobiator(x, y, z, qsc, conv)
    D = det_poly()
    expected = claimed_jacobi(btype, xi_polys(table), D)
    exact, residuals, divisible = [], [], []
    for comp, exp in zip(J, expected):
        res = comp - exp
        exact.append(res.is_zero)
        residuals.append(res)
        quotient = comp.substitute_symbols(_UNIT_COORDS)
        divisible.append(comp == quotient * D)
    return TheoremReport(exact=tuple(exact), residuals=tuple(residuals),
                         delta_divisible=tuple(divisible))


def xi_hform() -> tuple[NCPoly, NCPoly]:
    """The semiclassical xi operators with sqrt(2H) kept as the central
    symbol h:

        xi1 = (lambda/2) eps Q + P (h - p0),
        xi2 = -(lambda/2) eps P + Q (h - p0).
    """
    lam_eps_half = _sym("lambda") * _sym("eps") * Fraction(1, 2)
    h_minus_p0 = _sym("h") - _sym("p0")
    xi1 = NCPoly(PQ_TABLE, {("Q",): lam_eps_half, ("P",): h_minus_p0})
    xi2 = NCPoly(PQ_TABLE, {("P",): -lam_eps_half, ("Q",): h_minus_p0})
    return xi1, xi2


_H_INDEX = SYMBOLS.index("h")


def expand_energy_symbol(x: NCPoly) -> NCPoly:
    """Replace the central symbol h by (P^2 + Q^2)/2 multiplied on the
    RIGHT of each word (the definitional placement; h is central only as a
    symbol, so placement must be fixed before expanding)."""
    table = x.table
    h_op = NCPoly(table, {("P", "P"): Fraction(1, 2),
                          ("Q", "Q"): Fraction(1, 2)})
    out = NCPoly.zero(table)
    for word, coeff in x.terms.items():
        for exps, c in coeff.terms.items():
            k = exps[_H_INDEX]
            if k < 0:
                raise ValueError("negative h-exponent cannot be expanded")
            base = list(exps)
            base[_H_INDEX] = 0
            acc = NCPoly(table, {word: CoeffPoly({tuple(base): c})})
            for _ in range(k):
                acc = acc * h_op
            out = out + acc
    return out


def semiclassical_jacobi(btype: BianchiType) -> list[NCPoly]:
    """claimed_jacobi in the semiclassical two-letter calculus, where the
    semiclassical constraints define p and omega*q, at the abstract
    determinant symbol Delta."""
    return claimed_jacobi(btype, xi_polys(PQ_TABLE), _sym("Delta"))


def semiclassical_jacobi_hform(btype: BianchiType) -> list[NCPoly]:
    """Same components with sqrt(2H) kept central (input to the H = E
    reduction)."""
    return claimed_jacobi(btype, xi_hform(), _sym("Delta"))


_H_EQ_E = {"h": CoeffPoly.symbol("p0"),
           "eps": CoeffPoly.monomial(Fraction(1, 2),
                                     {"omega": 1, "p0": -1})}


def corollary_HE(btype: BianchiType) -> list[NCPoly]:
    """Jacobiator components under energy conservation: h -> p0 and
    eps -> omega/(2 p0)."""
    return [c.substitute_symbols(_H_EQ_E)
            for c in semiclassical_jacobi_hform(btype)]


class DerivativeAlgebraReport(namedtuple(
        "DerivativeAlgebraReport",
        "C beta_sq bracket_13_zero bracket_23_zero bracket_12_matches "
        "basis_brackets_ok rescaled_mu23_1")):
    """Commutator structure of the reduced Jacobiator components: C and
    beta_sq are CoeffPolys or None, rescaled_mu23_1 a Fraction."""

    __slots__ = ()

    @property
    def heisenberg_ok(self) -> bool:
        """The rescaled basis reproduces the Heisenberg (type II) table."""
        return (self.bracket_13_zero and self.bracket_23_zero
                and self.bracket_12_matches and self.basis_brackets_ok
                and self.rescaled_mu23_1 == 1)

    def rendered(self, field: str) -> str:
        """C or beta_sq as text; "undefined" where there is no C."""
        value = getattr(self, field)
        return "undefined" if value is None else value.render()


def _reduce_he(x: NCPoly) -> NCPoly:
    # fresh eps factors appear from QP swaps after the reduction
    return x.substitute_symbols({"eps": _H_EQ_E["eps"]})


def derivative_algebra(components: list[NCPoly]) -> DerivativeAlgebraReport:
    """Commutators of the H = E Jacobiator components.

    [J1, J3] = 0 = [J2, J3] and [J1, J2] = C J3 with
    C = lambda^2 omega^2 Delta / (32 p0^4); the basis e1 = -Delta J3,
    e2 = -Delta J1, e3 = -Delta J2 then satisfies [e2, e3] = beta^2 e1 with
    beta^2 = -C Delta, i.e. the Heisenberg table up to the beta scaling
    (removed by dividing e2, e3 by beta).  components are corollary_HE of
    the type, as the caller already computed them.  C and beta^2 are None,
    and every bracket check fails, when [J1, J2] or J3 is not a scalar or
    J3 is not an invertible (nonzero monomial) one.
    """
    j1, j2, j3 = components
    br12 = _reduce_he(commutator(j1, j2))
    br13 = _reduce_he(commutator(j1, j3))
    br23 = _reduce_he(commutator(j2, j3))
    if not (br12.is_scalar and j3.is_scalar
            and j3.scalar_part().is_monomial):
        return DerivativeAlgebraReport(
            C=None, beta_sq=None, bracket_13_zero=br13.is_zero,
            bracket_23_zero=br23.is_zero, bracket_12_matches=False,
            basis_brackets_ok=False, rescaled_mu23_1=Fraction(0))
    C = br12.scalar_part() / j3.scalar_part()
    beta_sq = -(C * _sym("Delta"))
    minus_delta = -_sym("Delta")
    e1 = j3 * minus_delta
    e2 = j1 * minus_delta
    e3 = j2 * minus_delta
    br_e23 = _reduce_he(commutator(e2, e3))
    br_e12 = _reduce_he(commutator(e1, e2))
    br_e13 = _reduce_he(commutator(e1, e3))
    basis_ok = (br_e23 == e1 * beta_sq) and br_e12.is_zero \
        and br_e13.is_zero
    if basis_ok:
        # [e2/beta, e3/beta] = e1 * (this ratio): explicit isomorphism check
        ratio = (br_e23.scalar_part()
                 / (beta_sq * e1.scalar_part())).constant_value()
    else:
        ratio = Fraction(0)
    return DerivativeAlgebraReport(
        C=C,
        beta_sq=beta_sq,
        bracket_13_zero=br13.is_zero,
        bracket_23_zero=br23.is_zero,
        bracket_12_matches=(br12 == j3 * C),
        basis_brackets_ok=basis_ok,
        rescaled_mu23_1=ratio,
    )


def spectrum_determinant(n: int) -> float:
    """|determinant| selected by the oscillator spectrum: 4 sqrt(2) (2n+1)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return 4 * math.sqrt(2) * (2 * n + 1)
