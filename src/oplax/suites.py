"""Verification suites backing the CLI and the acceptance tests.

Each suite takes only its seed.  It records one CaseResult per check and
reports worst-case residuals (a NaN fails its case) so that reruns with
the same seed are byte-identical.  Each case states its tolerance once,
where it is judged, and the report prints it.  The operad and lax suites
draw their random cases from a seeded generator, in bulk: the operad suite
draws the shapes of OPERAD_SAMPLES random triples in one call, groups them
by dim and cyclic class of the degrees, and draws the integer coefficients
of each group in one call per operand (so its residuals are exact, on any
BLAS).  The bianchi and quantum suites draw nothing: the bianchi
identities are linear or trilinear, so the bianchi suite checks them on
the basis.  The lax cases on a time grid take T_SAMPLES times.
"""

from __future__ import annotations

from fractions import Fraction

from . import qjacobi as qj
from ._lazy import LazyNumpy
from .bianchi import (DEFORMABLE, BianchiLabel, BianchiType,
                      classical_jacobiator, deformation_closed_form,
                      dynamical_deformation, family_a, label_params)
from .lax import (FD_STEP, SLOTS, OperadicParams, _exact_sqrt, antisymmetric,
                  build_mu, mu_slots, phase_points, solve_C,
                  verify_matrix_lax, verify_operadic_lax)
from .ncalg import CoeffPoly, NCPoly
from .operad import MultiOp, gerstenhaber, graded_lie_residuals
from .oscillator import (HOParams, PhasePoint, poisson_bracket,
                         quasi_from_phase)
from .report import SuiteReport

np = LazyNumpy(globals())

# random triples of the operad suite, and times of each grid of the lax
# suite
OPERAD_SAMPLES = 1000
T_SAMPLES = 100

# The operad suite draws the coefficients of all samples of one dim and
# cyclic degree class at once (at most some 30 KiB per operand) and
# composes them in stacks whose Jacobi terms stay within BATCH_BYTES (the
# largest tensors go one sample at a time), so no stacked array reaches the
# malloc mmap threshold (128 KiB).
BATCH_BYTES = 64 * 1024

# The lax suite's float checks run on stacks of at most CHUNK samples.  A
# check holds several stacks of 3x3x3 tensors at once (mu, dmu/dt, the
# bracket's partial compositions), so each is kept to half of BATCH_BYTES.
CHUNK = BATCH_BYTES // (2 * 27 * 8)


def _chunked(check, *stacks) -> np.ndarray:
    """The arrays check(*chunk) returns for consecutive chunks of at most
    CHUNK samples of the stacks (samples along axis 0), joined in sample
    order; empty stacks give an empty array."""
    parts = [check(*(stack[i:i + CHUNK] for stack in stacks))
             for i in range(0, len(stacks[0]), CHUNK)]
    return np.concatenate(parts) if parts else np.empty(0)


def _add_worst(rep: SuiteReport, case_id: str, tol: float, *residuals):
    """Add case_id with the largest entry of the residual arrays against
    tol.  A NaN anywhere fails it: Python's max(0.0, nan) is 0.0 and would
    drop the NaN.  A residual of -0.0 is reported as 0.0.  With no entry at
    all the case checked nothing, and fails."""
    if not sum(map(np.size, residuals)):
        rep.add(case_id, False, tol=tol, detail="samples=0")
        return
    worst = float(np.max([np.max(r, initial=0.0) for r in residuals],
                         initial=0.0)) + 0.0
    rep.add(case_id, worst <= tol, residual=worst, tol=tol)


def operad_suite(seed: int = 42) -> SuiteReport:
    """Graded antisymmetry and graded Jacobi on random integer operations.

    One draw gives each sample's dim and the degrees of f, g and h.  The
    degrees are rotated cyclically to their smallest base-4 code and the
    samples grouped by dim and that class: J(g, h, f) is J(f, g, h) built
    from the same three brackets, summed in another order, which is exact
    on integers.  Each group draws the coefficients of f, g and h in one
    call each, then is composed in stacks of at most BATCH_BYTES of Jacobi
    terms.  The residuals are per-sample maxima.
    """
    rng = np.random.default_rng(seed)
    rep = SuiteReport("operad", seed=seed)

    rows = rng.integers(1, 4, size=(OPERAD_SAMPLES, 4))
    # entries in 1..3, so base-4 codes sort as the rows do; each row's
    # degrees rotate to their smallest code
    codes, counts = np.unique(
        64 * rows[:, 0] + np.min([np.roll(rows[:, 1:], -k, axis=1)
                                  @ (16, 4, 1) for k in range(3)], axis=0),
        return_counts=True)
    antis, jacobis = [], []
    for code, count in zip(codes.tolist(), counts.tolist()):
        dim, *degrees = ((code >> shift) & 3 for shift in (6, 4, 2, 0))
        stacks = [rng.integers(-3, 4, size=(count,) + (dim,) * (degree + 1))
                  .astype(float) for degree in degrees]
        # a Jacobi term of degree deg f + deg g + deg h - 2
        n = max(1, BATCH_BYTES // (8 * dim ** (sum(degrees) - 1)))
        for i in range(0, count, n):
            anti, jacobi = graded_lie_residuals(
                *(stack[i:i + n] for stack in stacks))
            antis.append(anti)
            jacobis.append(jacobi)

    # integer coefficients in [-3, 3]: every entry and partial sum is an
    # integer far below 2**53 (the largest bracket entry is about 1e3), so
    # exact in any summation order, and both identities hold exactly
    _add_worst(rep, "graded_antisymmetry", 0.0, *antis)
    _add_worst(rep, "graded_jacobi_relative", 0.0, *jacobis)
    return rep


def lax_suite(seed: int = 42) -> SuiteReport:
    """Oscillator invariants plus both Lax equations."""
    rng = np.random.default_rng(seed)
    rep = SuiteReport("lax", seed=seed)

    # phase-point constraints along the flow
    residuals = []
    for w in (0.5, 1.0, 2.0):
        for E in (0.5, 1.0, 2.0):
            params = HOParams.from_energy(w, E)
            pt = phase_points(params, np.linspace(0.0, 4 * np.pi / w,
                                                  T_SAMPLES))
            scale = np.maximum(1.0, np.abs(pt.p))
            residuals += [
                np.abs(pt.P ** 2 - pt.Q ** 2 - 2 * pt.p) / scale,
                np.abs(pt.Q * pt.P - w * pt.q) / scale,
                np.abs(pt.P ** 2 + pt.Q ** 2 - 2 * np.sqrt(2 * pt.H))
                / scale,
                np.abs(pt.H - (pt.p ** 2 + w ** 2 * pt.q ** 2) / 2) / scale,
            ]
    _add_worst(rep, "phase_constraints", 1e-10, *residuals)

    # quasi-canonical velocities by finite differences
    params = HOParams(omega=1.3, p0=0.9)
    dt = FD_STEP
    t = np.linspace(0.0, 8.0, 40)
    a = phase_points(params, t - dt)
    b = phase_points(params, t + dt)
    mid = phase_points(params, t)
    _add_worst(rep, "quasi_canonical_velocities", 1e-6,
               np.abs((b.Q - a.Q) / (2 * dt) - params.omega / 2 * mid.P),
               np.abs((b.P - a.P) / (2 * dt) + params.omega / 2 * mid.Q))

    # numeric Poisson theorem {P,Q} = omega / (2 sqrt(2H))
    residuals = []
    for _ in range(100):
        w = float(rng.uniform(0.5, 2.0))
        params = HOParams(omega=w, p0=1.0)
        H = float(rng.uniform(0.1, 10.0))
        s = np.sqrt(2 * H)
        theta = float(rng.uniform(-0.85 * np.pi, 0.85 * np.pi))
        q, p = s * np.sin(theta) / w, s * np.cos(theta)

        def fP(q_, p_):
            return quasi_from_phase(params, q_, p_)[1]

        def fQ(q_, p_):
            return quasi_from_phase(params, q_, p_)[0]

        val = poisson_bracket(fP, fQ, (q, p))
        residuals.append(abs(val - w / (2 * s)))
    _add_worst(rep, "poisson_PQ", 1e-5, *residuals)

    # matrix Lax equation by finite differences
    residuals = []
    for w in (0.5, 1.0, 2.0):
        for E in (0.5, 1.0, 2.0):
            params = HOParams.from_energy(w, E)
            residuals.append(_chunked(
                lambda t: verify_matrix_lax(params, t),
                np.linspace(0.0, 2 * np.pi / w, T_SAMPLES)))
    _add_worst(rep, "matrix_lax_fd", 1e-6, *residuals)

    # operadic Lax equation, analytic and finite-difference modes: each C
    # at 20 times, and at one more by finite differences
    params = HOParams(omega=1.1, p0=1.4)
    draws = []
    for _ in range(100):
        c = rng.uniform(-2.0, 2.0, size=9)
        if OperadicParams(*c).admissible:
            draws.append((c, rng.uniform(0.0, 10.0, size=20),
                          rng.uniform(0.0, 10.0)))
    Cs, ts, ts_fd = map(np.array, zip(*draws))

    def operadic(mode):
        return lambda c, t: verify_operadic_lax(
            OperadicParams(*c.T), params, t, mode=mode)

    _add_worst(rep, "operadic_lax_analytic", 1e-12,
               _chunked(operadic("analytic"), np.repeat(Cs, 20, axis=0),
                        ts.ravel()))
    _add_worst(rep, "operadic_lax_fd", 1e-6,
               _chunked(operadic("fd"), Cs, ts_fd))

    # unary/unary Gerstenhaber bracket degenerates to the matrix commutator
    A = rng.uniform(-1.0, 1.0, size=(3, 3))
    B = rng.uniform(-1.0, 1.0, size=(3, 3))
    br = gerstenhaber(MultiOp(1, 3, A), MultiOp(1, 3, B)).coeffs
    _add_worst(rep, "unary_bracket_is_commutator", 1e-14,
               np.abs(br - (A @ B - B @ A)))
    return rep


_DEFORM_LABELS = tuple(
    BianchiLabel(btype, a)
    for btype, a_values in ((BianchiType.VIIA, (0.5, 1.0, 2.0)),
                            (BianchiType.IIIA1, (None,)),
                            (BianchiType.VIA, (0.5, 2.0)))
    for a in a_values)

_EXACT_P0 = (Fraction(1, 2), Fraction(2), Fraction(8), Fraction(9, 2))


def _exact_initial_point(p0: Fraction, r: Fraction) -> PhasePoint:
    return PhasePoint(t=Fraction(0), q=Fraction(0), p=p0,
                      Q=Fraction(0), P=r, H=p0 * p0 / 2)


def bianchi_suite(seed: int = 42) -> SuiteReport:
    """Deformation tables, exact round trips, classical Jacobi on-shell."""
    rep = SuiteReport("bianchi", seed=seed)
    params = HOParams(omega=1.3, p0=0.9)

    # the paper's table against mu_slots at the rows' C over the symbols a,
    # p0 and r: both are affine in (omega q, p, Q, P), so equality at the
    # four unit points and the origin (j = 4) is an identity
    zero, one = CoeffPoly.zero(), CoeffPoly.one()
    points = [[one if i == j else zero for i in range(4)] for j in range(5)]
    p0, r = CoeffPoly.symbol("p0"), CoeffPoly.symbol("r")
    ok = True
    for btype in DEFORMABLE:
        a = family_a(btype, CoeffPoly.symbol("a"))
        ok &= all(mu_slots(qj.row_params(btype), 1, *pt)
                  == deformation_closed_form(btype, a, p0, r, *pt)
                  for pt in points)
    rep.add("deformation_closed_forms", ok)

    # exact round trips at each p0 on the nine antisymmetric unit tensors
    # (int entries): at the initial point m -> build_mu(solve_C(m, p0)) is
    # linear in m (TestSolveC guards the linearity on non-unit tensors), so
    # they prove the round trip for every antisymmetric tensor, the Bianchi
    # rows included; every solved parameter must be exact
    units = [antisymmetric(int(j == k) for k in range(len(SLOTS)))
             for j in range(len(SLOTS))]
    ok = True
    for p0 in _EXACT_P0:
        pt = _exact_initial_point(p0, _exact_sqrt(2 * p0))
        ho = HOParams(Fraction(1), p0)
        for m in units:
            C = solve_C(m, p0)
            ok &= (all(isinstance(c, (int, Fraction)) for c in C)
                   and build_mu(C, ho, pt) == m)
    rep.add("solve_build_roundtrip_exact", ok)

    # classical Jacobi identity along the flow: per label one stack at 25
    # times, checked for exact antisymmetry.  On an antisymmetric tensor J
    # alternates, so J(x, y, z) = det(x, y, z) J(e1, e2, e3) with |det| <=
    # |x||y||z|: the residual at the basis bounds the normalised residual
    # of every triple
    times = np.linspace(0.0, 4 * np.pi / params.omega, 25)
    basis = np.eye(3)
    residuals = []
    ok = True
    for label in _DEFORM_LABELS:
        mu = dynamical_deformation(label_params(label, params.p0), params,
                                   times)
        ok &= bool(np.all(mu == -np.swapaxes(mu, -1, -2)))
        residuals.append(np.abs(classical_jacobiator(mu, *basis)))
    _add_worst(rep, "classical_jacobi_on_shell", 1e-10, *residuals)
    rep.add("antisymmetry", ok)
    return rep


def quantum_suite(seed: int = 42) -> SuiteReport:
    """Exact symbolic identities of the quantum Jacobi pipeline."""
    rep = SuiteReport("quantum", seed=seed)

    xi1, xi2 = qj.xi_polys(qj.PQ_TABLE)
    h1, h2 = qj.xi_hform()
    rep.add("xi1_exact_identity", qj.expand_energy_symbol(h1) == xi1)
    rep.add("xi2_exact_identity", qj.expand_energy_symbol(h2) == xi2)

    lam = CoeffPoly.symbol("lambda")
    delta = CoeffPoly.symbol("Delta")
    omega = CoeffPoly.symbol("omega")
    inv = CoeffPoly.monomial(Fraction(1, 4), {"r": -1, "p0": -2})
    c_expected = (lam * lam * omega * omega * delta
                  * CoeffPoly.monomial(Fraction(1, 32), {"p0": -4}))
    beta_sqs = []
    for btype in DEFORMABLE:
        tag = btype.value
        cor = qj.corollary_HE(btype)
        a = family_a(btype, CoeffPoly.symbol("a"))
        coef = lam * a * delta * omega * inv
        expect = [
            NCPoly(qj.PQ_TABLE, {("Q",): -coef}),
            NCPoly(qj.PQ_TABLE, {("P",): coef}),
            NCPoly.scalar(qj.PQ_TABLE,
                          lam * a * a * delta * omega
                          * CoeffPoly.monomial(Fraction(1, 2), {"p0": -2})),
        ]
        rep.add(f"corollary_HE_{tag}",
                all(c == e for c, e in zip(cor, expect)))

        da = qj.derivative_algebra(cor)
        rep.add(f"derivative_C_{tag}", da.C == c_expected,
                detail=da.rendered("C").replace(" ", ""))
        # the spectrum is read at omega = p0, so only this case sees a
        # beta^2 scaled by omega/p0
        rep.add(f"derivative_beta_sq_{tag}",
                da.beta_sq == -(c_expected * delta))
        rep.add(f"heisenberg_identification_{tag}", da.heisenberg)
        beta_sqs.append(da.beta_sq)

    # Delta^2 selected by the spectrum, from each distinct computed beta^2:
    # exactly 32 (2n+1)^2, the square of spectrum_determinant(n)
    rep.add("spectrum_determinant",
            all(_spectrum_delta(b, n) == 32 * (2 * n + 1) ** 2
                for b in dict.fromkeys(beta_sqs) for n in range(11)))

    # machine check of the claimed closed-form Jacobiator: exactly the left
    # convention certifies, and the right one misses it only by O(lambda).
    # Divisibility by Delta reads mu's antisymmetry, and q_structure's mu
    # does not depend on the convention: one case per label and alphabet
    # guards q_structure's construction
    ok = True
    details = []
    for btype in DEFORMABLE:
        for conv in ("left", "right"):
            for alphabet in ("PQ", "qpPQ"):
                r = qj.verify_theorem_q(btype, conv, alphabet)
                ok &= r.all_exact == (conv == "left") and all(
                    res.substitute_symbols({"lambda": 0}).is_zero
                    for res in r.residuals)
                status = "exact" if r.all_exact else "residual"
                details.append(
                    f"{btype.value}:{conv}:{alphabet}={status}")
                if conv == "left":
                    rep.add(
                        f"jacobi_delta_divisible_{btype.value}_{alphabet}",
                        r.delta_divisible)
    rep.add("jacobi_theorem_machine_check", ok, detail=",".join(details))
    return rep


def _spectrum_delta(beta_sq: CoeffPoly | None, n: int) -> Fraction | None:
    """Delta^2 = 1/k solving beta^2 = 1 at lambda^2 = -hbar^2, p0^2 = 2E =
    hbar omega (2n+1), with hbar = 1 and omega = p0 = 2n+1; None unless
    beta^2 is defined and then -k lambda^2 Delta^2 with k > 0."""
    if beta_sq is None:
        return None
    w = 2 * n + 1
    k = -(beta_sq / CoeffPoly.monomial(1, {"lambda": 2, "Delta": 2}))
    try:
        k = k.substitute({"omega": w, "p0": w}).constant_value()
    except ValueError:
        return None
    return Fraction(1, k) if k > 0 else None


ALL_SUITES = {
    "operad": operad_suite,
    "lax": lax_suite,
    "bianchi": bianchi_suite,
    "quantum": quantum_suite,
}
