"""Every case of `oplax verify` fails under a committed mutation.

ROWS is the one table of them.  A row patches the program and names the
exact set of suite.case ids that fail under it.  A patch is an owner (a
module, class or dict), a name, and a factory that takes the real object
and returns the mutant.  test_row_fails_exactly_its_cases runs
`oplax verify --target all` under each row, and
test_every_case_fails_under_a_row keeps the table complete: a case that no
row fails, such as a new one, fails it.
"""

import json
import math
import operator
from collections import namedtuple

import pytest

from oplax import bianchi, cli, lax, operad, oscillator, suites
from oplax import qjacobi as qj
from oplax.bianchi import DEFORMABLE, BianchiType
from oplax.ncalg import CoeffPoly, NCPoly

Patch = namedtuple("Patch", "owner name factory")
Row = namedtuple("Row", "id patches fails")

# a failed case misses its tolerance by at least this factor
MARGIN = 1e3

LABELS = tuple(b.value for b in DEFORMABLE)


def each(prefix: str, tags=LABELS) -> set:
    """The quantum cases prefix_tag, one per tag."""
    return {f"quantum.{prefix}_{tag}" for tag in tags}


DIVISIBLE = each("jacobi_delta_divisible",
                 [f"{label}_{alphabet}" for label in LABELS
                  for alphabet in ("PQ", "qpPQ")])
MACHINE_CHECK = "quantum.jacobi_theorem_machine_check"
OPERADIC_LAX = {"lax.operadic_lax_analytic", "lax.operadic_lax_fd"}
# the cases that read C and beta^2 from the H = E components
DERIVED = ({"quantum.spectrum_determinant"} | each("derivative_C")
           | each("derivative_beta_sq"))


def returning(change):
    """The factory of the real function with change applied to what it
    returns."""
    return lambda real: lambda *args, **kw: change(real(*args, **kw))


def flip(slot: int):
    """The factory of a function returning a tuple: the sign of its
    slot-th value flipped."""
    return returning(lambda v: v[:slot] + (-v[slot],) + v[slot + 1:])


def c8_flipped(real):
    """mu_slots with mu^3_23 = c7 Q + c8 P: a sign typo in the C8 term."""
    def mu_slots(C, w, q, p, Q, P):
        slots = real(C, w, q, p, Q, P)
        return slots[:5] + (C[6] * Q + C[7] * P,) + slots[6:]
    return mu_slots


def velocity_sign(real):
    """mu_time_derivative with Pdot = +(w/2) Q: the point's Q negated,
    which only Pdot reads."""
    return lambda C, params, point: real(C, params,
                                         point._replace(Q=-point.Q))


def ungraded(real):
    """The bracket signed by the arities, (-1)^(nf ng), in place of the
    degrees (nf - 1)(ng - 1)."""
    def bracket(fc, nf, gc, ng):
        fg, gf = operad._total(fc, nf, gc, ng), operad._total(gc, ng, fc, nf)
        return fg + gf if (nf * ng) % 2 else fg - gf
    return bracket


def unsigned(real):
    """_partial with its Koszul sign (-1)^(i (ng - 1)) undone."""
    def partial(fc, nf, gc, ng, i):
        res = real(fc, nf, gc, ng, i)
        return -res if (i * (ng - 1)) % 2 else res
    return partial


def full_frequency(real):
    """The flow with Q and P at the full angle omega t, not omega t / 2."""
    def flow(params, times):
        w, root = params.omega, params.amplitudes[2]
        for t, q, p, _, _ in real(params, times):
            yield t, q, p, root * math.sin(w * t), root * math.cos(w * t)
    return flow


def float_halves(real):
    """solve_C's formula with c1 and c4 halved by the int 2: a float for a
    Bianchi row of ints, exactly equal to the Fraction it stands for, so
    only the check that every solved parameter is exact sees it."""
    def params_of(m, p0, r):
        return real(m, p0, r)._replace(c1=(m[1][1][2] - m[0][2][0]) / 2,
                                       c4=(m[1][0][2] - m[0][1][2]) / 2)
    return params_of


def symmetrized(mu):
    """mu made symmetric in the lower indices, mu^i_kj = mu^i_jk: a numpy
    stack over its last three axes, nested lists entry by entry."""
    for i, j, k in lax.SLOTS:
        if isinstance(mu, list):
            mu[i][k][j] = mu[i][j][k]
        else:
            mu[..., i, k, j] = mu[..., i, j, k]
    return mu


def broken_mu(entry):
    """The factory of q_structure with the scalar 1 added to mu at one
    0-based entry, which breaks its antisymmetry."""
    def broken(qsc):
        mu = [[list(row) for row in plane] for plane in qsc]
        i, j, k = entry
        mu[i][j][k] += NCPoly.scalar(mu[i][j][k].table, 1)
        return mu
    return returning(broken)


def in_convention(conv: str, change):
    """The factory of verify_theorem_q with change applied to its report in
    the convention conv alone."""
    return lambda real: lambda btype, c, alphabet: (
        change if c == conv else lambda rep: rep)(real(btype, c, alphabet))


# the left convention's J^1 reported inexact
left_inexact = in_convention(
    "left", lambda rep: rep._replace(exact=(False,) + rep.exact[1:]))
# the right convention's J^1 residual bumped by a lambda-free 1
right_lambda_free = in_convention("right", lambda rep: rep._replace(
    residuals=(rep.residuals[0] + NCPoly.scalar(rep.residuals[0].table, 1),)
    + rep.residuals[1:]))


def components(mutate):
    """The factory of a function returning the Jacobiator components, with
    (J1, J2, J3) replaced by mutate(J1, J2, J3)."""
    return returning(lambda js: list(mutate(*js)))


def beta_sq_times(factor):
    return returning(lambda da: da._replace(beta_sq=da.beta_sq * factor))


def h_on_the_left(real):
    """expand_energy_symbol with (P^2 + Q^2)/2 multiplied on the left of
    each word: real's expansion of each coefficient alone, times the
    word."""
    return lambda x: sum((real(NCPoly.scalar(x.table, coeff))
                          * NCPoly(x.table, {word: 1})
                          for word, coeff in x.terms.items()),
                         NCPoly.zero(x.table))


ROWS = (
    Row("operad_no_samples", [Patch(suites, "OPERAD_SAMPLES", lambda n: 0)],
        {"operad.graded_antisymmetry", "operad.graded_jacobi_relative"}),
    # graded_antisymmetry is exactly 0 by construction: only a bracket
    # whose sign rule differs from the suite's fails it
    Row("operad_ungraded_sign_rule", [Patch(operad, "_bracket", ungraded)],
        {"operad.graded_antisymmetry", "operad.graded_jacobi_relative",
         "lax.unary_bracket_is_commutator"}),
    Row("operad_unsigned_partial", [Patch(operad, "_partial", unsigned)],
        {"operad.graded_jacobi_relative"}),
    Row("lax_no_samples", [Patch(suites, "T_SAMPLES", lambda n: 0)],
        {"lax.phase_constraints", "lax.matrix_lax_fd"}),
    Row("lax_c8_sign", [Patch(lax, "mu_slots", c8_flipped)],
        OPERADIC_LAX | {"bianchi.solve_build_roundtrip_exact"}),
    # suites imports mu_time_derivative by name; the fd case never reads it
    Row("lax_velocity_sign",
        [Patch(suites, "mu_time_derivative", velocity_sign)],
        {"lax.operadic_lax_analytic"}),
    # lax imports flow by name
    Row("lax_full_frequency_flow",
        [Patch(oscillator, "flow", full_frequency),
         Patch(lax, "flow", full_frequency)],
        {"lax.phase_constraints", "lax.quasi_canonical_velocities",
         "lax.operadic_lax_fd", "bianchi.classical_jacobi_on_shell"}),
    # {f, g} = f_q g_p - f_p g_q
    Row("lax_other_poisson_convention",
        [Patch(suites, "poisson_bracket", returning(operator.neg))],
        {"lax.poisson_PQ"}),
    Row("lax_build_M_sign", [Patch(lax, "build_M", returning(operator.neg))],
        OPERADIC_LAX | {"lax.matrix_lax_fd"}),
    # the table's mu^2_12 and mu_slots' mu^2_23, as the case reads them
    Row("bianchi_closed_form_mu2_12_sign",
        [Patch(suites, "deformation_closed_form", flip(1))],
        {"bianchi.deformation_closed_forms"}),
    Row("bianchi_mu_slots_mu2_23_sign", [Patch(suites, "mu_slots", flip(4))],
        {"bianchi.deformation_closed_forms"}),
    Row("bianchi_c5_c6_swapped",
        [Patch(lax, "_params_of",
               returning(lambda C: C._replace(c5=C.c6, c6=C.c5)))],
        {"bianchi.solve_build_roundtrip_exact",
         "bianchi.classical_jacobi_on_shell"}),
    Row("bianchi_float_halves", [Patch(lax, "_params_of", float_halves)],
        {"bianchi.solve_build_roundtrip_exact"}),
    Row("bianchi_mu_slots_mu1_23_sign", [Patch(lax, "mu_slots", flip(3))],
        OPERADIC_LAX | {"bianchi.classical_jacobi_on_shell",
                        "bianchi.solve_build_roundtrip_exact"}),
    Row("bianchi_symmetric_mu",
        [Patch(lax, "antisymmetric", returning(symmetrized))],
        OPERADIC_LAX | {"bianchi.classical_jacobi_on_shell",
                        "bianchi.antisymmetry",
                        "bianchi.solve_build_roundtrip_exact"}),
    # VIa's mu^3_12 as +1 (VIa becomes VIIa) or -2
    *(Row(f"bianchi_n3_{n3}",
          [Patch(bianchi._PARAMS, BianchiType.VIA,
                 lambda entry, n3=n3: entry[:3] + (n3,))],
          {"bianchi.deformation_closed_forms"}) for n3 in (1, -2)),
    Row("quantum_left_inexact",
        [Patch(qj, "verify_theorem_q", left_inexact)], {MACHINE_CHECK}),
    Row("quantum_right_lambda_free",
        [Patch(qj, "verify_theorem_q", right_lambda_free)], {MACHINE_CHECK}),
    # one wrong J^3 in the closed form fails the contraction (at D) and the
    # semiclassical H = E reduction (at Delta)
    Row("quantum_doubled_j3",
        [Patch(qj, "claimed_jacobi",
               components(lambda j1, j2, j3: (j1, j2, j3 * 2)))],
        {MACHINE_CHECK} | each("corollary_HE") | DERIVED),
    # with J^3 = 0 there is no C to divide out
    Row("quantum_zero_j3",
        [Patch(qj, "claimed_jacobi",
               components(lambda j1, j2, j3: (j1, j2, j3 * 0)))],
        {MACHINE_CHECK} | each("corollary_HE") | DERIVED
        | each("heisenberg_identification")),
    # jacobi_delta_divisible_* holds by construction for q_structure: it
    # guards the construction
    Row("quantum_broken_mu", [Patch(qj, "q_structure", broken_mu((0, 1, 2)))],
        {MACHINE_CHECK} | DIVISIBLE),
    Row("quantum_symmetric_mu",
        [Patch(qj, "antisymmetric", returning(symmetrized))],
        {MACHINE_CHECK} | DIVISIBLE),
    # heisenberg_identification_* is beta^2 != 0: once C is defined, the
    # other brackets hold by construction.  (J1, J1, J3) keeps all three
    # brackets but gives beta^2 = 0, the abelian algebra
    Row("quantum_commuting_components",
        [Patch(qj, "corollary_HE",
               components(lambda j1, j2, j3: (j1, j1, j3)))],
        each("corollary_HE") | DERIVED | each("heisenberg_identification")),
    Row("quantum_non_scalar_j3",
        [Patch(qj, "corollary_HE", components(lambda j1, j2, j3: (
            j1, j2, j3 + NCPoly.letter(j3.table, "P"))))],
        each("corollary_HE") | DERIVED | each("heisenberg_identification")),
    *(Row(f"quantum_beta_sq_times_{name}",
          [Patch(qj, "derivative_algebra", beta_sq_times(factor))],
          {"quantum.spectrum_determinant"} | each("derivative_beta_sq"))
      for name, factor in (("2", 2), ("minus_1", -1),
                           ("lambda", CoeffPoly.symbol("lambda")))),
    # the spectrum is read at omega = p0, where omega/p0 = 1
    Row("quantum_beta_sq_times_omega_over_p0",
        [Patch(qj, "derivative_algebra", beta_sq_times(
            CoeffPoly.monomial(1, {"omega": 1, "p0": -1})))],
        each("derivative_beta_sq")),
    Row("quantum_h_on_the_left",
        [Patch(qj, "expand_energy_symbol", h_on_the_left)],
        {"quantum.xi1_exact_identity", "quantum.xi2_exact_identity"}),
)


@pytest.fixture
def fresh_caches():
    """Empty the real q_structure's cache (a row may patch the name) before
    and after the test, so that a mutation reaches the structure and leaves
    none of it behind; _row_params is keyed by the _PARAMS entry."""
    cache = qj.q_structure
    cache.cache_clear()
    yield
    cache.cache_clear()


def refuse(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_row_fails_exactly_its_cases(row, monkeypatch, capsys,
                                     fresh_caches):
    """verify exits 1 with strict JSON and no traceback; exactly the row's
    cases fail, each with a residual (if it has one) at least MARGIN times
    its tolerance, or above a tolerance of 0."""
    for owner, name, factory in row.patches:
        if isinstance(owner, dict):
            monkeypatch.setitem(owner, name, factory(owner[name]))
        else:
            monkeypatch.setattr(owner, name, factory(getattr(owner, name)))
    assert cli.main(["verify", "--target", "all", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    failed = {f"{report['suite']}.{case['case']}": case
              for line in out.splitlines()
              for report in [json.loads(line, parse_constant=refuse)]
              for case in report["cases"] if not case["pass"]}
    assert set(failed) == row.fails
    for case_id, case in failed.items():
        if "residual" in case:
            residual, tol = case["residual"], case["tol"]
            assert residual >= MARGIN * tol and residual > 0, case_id


def test_every_case_fails_under_a_row():
    """Each case of the four suites at seed 42 is in some row's set."""
    cases = {f"{name}.{case.case_id}" for name, suite in
             suites.ALL_SUITES.items() for case in suite(42).cases}
    assert cases - set().union(*(row.fails for row in ROWS)) == set()
