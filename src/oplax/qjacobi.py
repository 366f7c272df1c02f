"""Quantum Bianchi algebras, the quantum Jacobi operator, and its
semiclassical reductions.

Structure constants become operator-valued: q_structure is lax.mu_slots,
the one statement of the operadic family, at the Bianchi row's C (over the
central symbols a, p0 and r) with (q, p, Q, P) promoted to operators of the
quasi-CCR algebra.  Two alphabet conventions exist:

  * "PQ"   -- two letters; the operator momentum and position enter through
              p := (P^2 - Q^2)/2 and omega*q := (PQ + QP)/2 read as
              definitions (the semiclassical constraints);
  * "qpPQ" -- four letters with q, p commuting with P, Q.

The quantum bracket [x, y] has components mu^i_{jk} x^j y^k; since the
inner bracket of a nested Jacobiator is operator-valued, the placement of
the structure constant against it matters, so both "left" and "right"
conventions are implemented and compared against the claimed closed forms.

The Jacobiator is trilinear: on vectors with central (scalar) components
it is the contraction sum_abc x^a y^b z^c J^i_abc of its tensor

    J^i_abc = J(e_a, e_b, e_c)^i = T^i_abc + T^i_bca + T^i_cab,
    T^i_abc = [e_a, [e_b, e_c]]^i = sum_k mu^i_ak mu^k_bc

(mu^k_bc mu^i_ak in the right convention).  The product is bilinear, so
for mu antisymmetric in its lower indices T is antisymmetric in (b, c) and
J alternates: J_xxy = T_xxy + T_xyx + T_yxx = T_xxy - T_xxy + 0 = 0 and
J_acb = -J_abc.  The contraction is then Delta J(e1, e2, e3), Delta the
determinant of the three vectors: the theorem is read from J(e1, e2, e3)
(q_jacobiator) and the exact antisymmetry of mu.

Scalars sqrt(2H) and omega/(2 sqrt(2H)) are the central symbols h and eps;
sqrt(2 p0) is the radical r with r^2 = 2 p0.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .bianchi import (_PARAMS, BianchiType, _row_tensor, family_a,
                      require_deformable)
from .lax import (OperadicParams, _params_of, antisymmetric,
                  antisymmetry_break, mu_slots)
from .ncalg import (SYMBOLS, CoeffPoly, CommutationTable, NCPoly, commutator,
                    quasi_ccr_table, sum_of_products)

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


def row_params(btype: BianchiType) -> OperadicParams:
    """solve_C's formula at the Bianchi row over the symbols a, p0 and r,
    the C of q_structure and of the bianchi suite's closed-form check,
    solved once per label and _PARAMS entry (a changed entry afresh)."""
    require_deformable(btype)
    return _row_params(btype, _PARAMS[btype])


@functools.cache
def _row_params(btype: BianchiType, entry: tuple) -> OperadicParams:
    # entry keys the cache.  The row's ints as CoeffPolys, which the
    # symbols p0 and r can divide
    one = CoeffPoly.one()
    row = [[[one * x for x in row] for row in plane]
           for plane in _row_tensor(btype, _sym("a"))]
    return _params_of(row, _sym("p0"), _sym("r"))


@functools.cache
def q_structure(btype: BianchiType, table: CommutationTable = PQ_TABLE):
    """3x3x3 nested tuple of NCPoly operator structure constants, built
    once per process, label and table: lax.mu_slots at row_params, with the
    operators omega*q, p, Q and P for the letters (omega*q is one letter,
    so w = 1)."""
    mu = antisymmetric(mu_slots(
        [NCPoly.scalar(table, c) for c in row_params(btype)], 1,
        omega_q_poly(table), momentum_poly(table),
        NCPoly.letter(table, "Q"), NCPoly.letter(table, "P")),
        zero=NCPoly.zero(table))
    return tuple(tuple(map(tuple, plane)) for plane in mu)


def derived_structure(qsc) -> tuple:
    """(4r mu, whether mu is exactly antisymmetric), derived once per
    structure value: nested lists become tuples first, and a patched or
    broken mu is derived afresh, never read from another's entry."""
    return _derived(tuple(tuple(map(tuple, plane)) for plane in qsc))


@functools.cache
def _derived(qsc: tuple) -> tuple:
    four_r = CoeffPoly.monomial(4, {"r": 1})
    return (tuple(tuple(tuple(m * four_r for m in row) for row in plane)
                  for plane in qsc), antisymmetry_break(qsc) is None)


def q_jacobiator(qsc, conv: str = "left") -> tuple:
    """32 p0 times J(e1, e2, e3), the Jacobiator of the basis vectors, as
    its components (J^1, J^2, J^3):

        J^i = sum_k (mu^i_1k mu^k_23 + mu^i_2k mu^k_31 + mu^i_3k mu^k_12)

    in the left convention, and with each product reversed,
    mu^k_yz mu^i_xk, in the right one; each J^i is one sum_of_products over
    its pairs with no zero factor (18 pairs for an antisymmetric mu).

    It is built from 4r mu, whose coefficients are all integers (r absorbs
    the a/r entries); r^2 = 2 p0 never halves a coefficient, so its
    products run on Python ints.  That gives 32 p0 J, since (4r)^2 = 32 p0;
    the caller divides by 32 p0 where it needs J itself.
    """
    if conv not in ("left", "right"):
        raise ValueError(f"unknown convention {conv!r}")
    mu = derived_structure(qsc)[0]
    table = mu[0][0][1].table
    pairs = [[(mu[i][x][k], mu[k][y][z])
              for x, y, z in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
              for k in range(3)] for i in range(3)]
    return tuple(sum_of_products(table, [(u, v) if conv == "left" else (v, u)
                                         for u, v in row if u and v])
                 for row in pairs)


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

    in the algebra of xi = (xi1, xi2); det is the determinant of the
    arguments, the abstract symbol Delta or a value of it.
    """
    require_deformable(btype)
    a = family_a(btype, _sym("a"))
    xi1, xi2 = xi
    table = xi1.table
    coef = -(a * det * CoeffPoly.monomial(1, {"r": -1, "p0": -1}))
    PQ = commutator(NCPoly.letter(table, "P"), NCPoly.letter(table, "Q"))
    return [xi1 * coef, xi2 * coef,
            PQ * (a * a * det * CoeffPoly.monomial(1, {"p0": -1}))]


class TheoremReport(namedtuple("TheoremReport",
                               "exact residuals delta_divisible")):
    """Machine comparison of the computed Jacobiator against the claimed
    closed forms: exact and residuals per component, delta_divisible once
    (mu's antisymmetry)."""

    __slots__ = ()

    @property
    def all_exact(self) -> bool:
        return all(self.exact)


def verify_theorem_q(btype: BianchiType, conv: str = "left",
                     alphabet: str = "PQ") -> TheoremReport:
    """Compare the Jacobiator with claimed_jacobi per component, as an
    exact identity for all central coordinates.

    The Jacobiator is Delta J(e1, e2, e3) when mu is antisymmetric (see the
    module docstring), and antisymmetry is checked exactly: that verdict is
    delta_divisible, one bool for all three components.  A component is
    exact when mu is antisymmetric and J(e1, e2, e3) is the closed form at
    determinant 1 in that component.  Both sides are compared at
    q_jacobiator's scale 32 p0, on integers; a nonzero residual is reported
    times Delta / (32 p0), as (J(e1, e2, e3) - closed form) Delta, in the
    determinant symbol of the closed form.
    """
    table = table_for(alphabet)
    qsc = q_structure(btype, table)
    J = q_jacobiator(qsc, conv)
    # the closed form is linear in the determinant: 32 p0 times it at 1
    expected = claimed_jacobi(btype, xi_polys(table),
                              CoeffPoly.monomial(32, {"p0": 1}))
    per_scale = CoeffPoly.monomial(Fraction(1, 32), {"Delta": 1, "p0": -1})
    divisible = derived_structure(qsc)[1]
    res = [j - exp for j, exp in zip(J, expected)]
    return TheoremReport(
        exact=tuple(divisible and r.is_zero for r in res),
        residuals=tuple(r if r.is_zero else r * per_scale for r in res),
        delta_divisible=divisible)


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
    symbol, so placement must be fixed before expanding).  Every term
    enters one sum_of_products as the pair (h-free term, h_op^k)."""
    table = x.table
    h_op = NCPoly(table, {("P", "P"): Fraction(1, 2),
                          ("Q", "Q"): Fraction(1, 2)})
    powers = [NCPoly.scalar(table, 1)]
    pairs = []
    for word, coeff in x.terms.items():
        for exps, c in coeff.terms.items():
            k = exps[_H_INDEX]
            if k < 0:
                raise ValueError("negative h-exponent cannot be expanded")
            while len(powers) <= k:
                powers.append(powers[-1] * h_op)
            base = list(exps)
            base[_H_INDEX] = 0
            pairs.append((NCPoly(table, {word: CoeffPoly({tuple(base): c})}),
                          powers[k]))
    return sum_of_products(table, pairs)


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
        "DerivativeAlgebraReport", "C beta_sq heisenberg")):
    """Commutator structure of the reduced Jacobiator components: C and
    beta_sq are CoeffPolys or None, and heisenberg is whether the rescaled
    basis reproduces the Heisenberg (type II) table (see
    derivative_algebra)."""

    __slots__ = ()

    def rendered(self, field: str) -> str:
        """C or beta_sq as text; "undefined" where there is no C."""
        value = getattr(self, field)
        return "undefined" if value is None else value.render()


def _reduce_he(x: NCPoly) -> NCPoly:
    # fresh eps factors appear from QP swaps after the reduction
    return x.substitute_symbols({"eps": _H_EQ_E["eps"]})


def derivative_algebra(components: list[NCPoly]) -> DerivativeAlgebraReport:
    """Commutators of the H = E Jacobiator components (corollary_HE of the
    type): C = [J1, J2] / J3 = lambda^2 omega^2 Delta / (32 p0^4), None
    unless [J1, J2] and J3 are scalars and J3 a nonzero monomial, and
    beta^2 = -C Delta.  With C defined, J3 is central, so [J1, J3] = 0 =
    [J2, J3] and [J1, J2] = C J3 hold by construction, and the basis
    e1 = -Delta J3, e2 = -Delta J1, e3 = -Delta J2 has [e2, e3] = beta^2 e1
    and [e1, e2] = 0 = [e1, e3]: the Heisenberg table up to the beta
    scaling.  heisenberg is beta^2 != 0 (at 0 the algebra is abelian)."""
    j1, j2, j3 = components
    br12 = _reduce_he(commutator(j1, j2))
    C = None
    if br12.is_scalar and j3.is_scalar and j3.scalar_part().is_monomial:
        C = br12.scalar_part() / j3.scalar_part()
    beta_sq = None if C is None else -(C * _sym("Delta"))
    return DerivativeAlgebraReport(C, beta_sq, bool(beta_sq))


def spectrum_determinant(n: int) -> float:
    """|determinant| selected by the oscillator spectrum: 4 sqrt(2) (2n+1)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return 4 * math.sqrt(2) * (2 * n + 1)
