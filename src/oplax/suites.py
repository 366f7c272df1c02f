"""Verification suites backing the CLI and the acceptance tests.

Each suite takes only its seed.  It draws its random cases from a seeded
generator, records one CaseResult per check, and reports worst-case
residuals (a NaN fails its case) so that reruns with the same seed are
byte-identical.  Each case states its tolerance once, where it is judged,
and the report prints it.  The operad suite draws OPERAD_SAMPLES random
triples; the lax and bianchi cases on a time grid take T_SAMPLES times.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import qjacobi as qj
from ._lazy import LazyNumpy
from .bianchi import (DEFORMABLE, BianchiLabel, BianchiType,
                      classical_jacobiator, deformation_closed_form,
                      dynamical_deformation, structure_constants)
from .lax import (OperadicParams, _exact_sqrt, build_mu, phase_points,
                  solve_C, verify_matrix_lax, verify_operadic_lax)
from .ncalg import CoeffPoly, NCPoly
from .operad import MultiOp, gerstenhaber, graded_lie_residuals
from .oscillator import (DIFF_STEP, HOParams, PhasePoint, poisson_bracket,
                         quasi_from_phase)
from .report import SuiteReport

np = LazyNumpy(globals())

# random triples of the operad suite, and times of each grid of the lax and
# bianchi suites
OPERAD_SAMPLES = 1000
T_SAMPLES = 100

# Samples wait in one queue per (dim, degrees).  A queue is composed as one
# stack before its Jacobi terms would pass BATCH_BYTES, so the largest
# tensors go one sample at a time and no stacked array reaches the malloc
# mmap threshold (128 KiB); while all queued coefficients pass twice that,
# the fullest queue goes.
BATCH_BYTES = 64 * 1024

# The lax and bianchi float checks run on stacks of at most CHUNK samples.  A
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


def _random_coeffs(rng: np.random.Generator, dim: int,
                   max_degree: int = 3) -> np.ndarray:
    degree = int(rng.integers(1, max_degree + 1))
    return rng.uniform(-1.0, 1.0, size=(dim,) * (degree + 1))


def operad_suite(seed: int = 42) -> SuiteReport:
    """Graded antisymmetry and graded Jacobi on random operations.

    Samples are drawn one at a time, queued by dim and degrees and composed
    a stack at a time (BATCH_BYTES); the residuals are per-sample maxima.
    """
    rng = np.random.default_rng(seed)
    rep = SuiteReport("operad", seed=seed)

    worst_deg = True
    antis, jacobis = [], []
    # (shape of f, g, h) -> the queued coefficients of f, g and h, flat
    queues = {}
    queued_bytes = 0

    def backlog(key):
        return sum(map(len, queues[key]))

    def flush(key):
        nonlocal worst_deg, queued_bytes
        queued_bytes -= backlog(key)
        deg_ok, anti, jacobi = graded_lie_residuals(
            *[np.frombuffer(q).reshape((-1,) + shape)
              for q, shape in zip(queues.pop(key), key)])
        worst_deg &= deg_ok
        antis.append(anti)
        jacobis.append(jacobi)

    for _ in range(OPERAD_SAMPLES):
        dim = int(rng.integers(1, 4))
        sample = [_random_coeffs(rng, dim) for _ in range(3)]
        # tuple(generator) resizes the tuple it builds, and CPython keeps
        # such 3-tuples on its free list; a list builds it at its size
        key = tuple([c.shape for c in sample])
        queue = queues.get(key)
        if queue is None:
            queue = queues[key] = (bytearray(), bytearray(), bytearray())
        for q, c in zip(queue, sample):
            q += c.tobytes()
        queued_bytes += sum(c.nbytes for c in sample)
        # a Jacobi term of degree deg f + deg g + deg h - 2
        term_bytes = 8 * dim ** (sum(c.ndim for c in sample) - 4)
        if (len(queue[0]) // sample[0].nbytes + 1) * term_bytes > BATCH_BYTES:
            flush(key)
        while queued_bytes > 2 * BATCH_BYTES:
            flush(max(queues, key=backlog))
    for key in list(queues):
        flush(key)

    rep.add("degree_bookkeeping", worst_deg and OPERAD_SAMPLES > 0,
            detail=f"samples={OPERAD_SAMPLES}")
    _add_worst(rep, "graded_antisymmetry", 1e-12, *antis)
    _add_worst(rep, "graded_jacobi_relative", 1e-9, *jacobis)
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
    dt = DIFF_STEP
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
        if OperadicParams.from_sequence(c).admissible:
            draws.append((c, rng.uniform(0.0, 10.0, size=20),
                          rng.uniform(0.0, 10.0)))
    Cs, ts, ts_fd = map(np.array, zip(*draws))

    def operadic(mode):
        return lambda c, t: verify_operadic_lax(
            OperadicParams.from_sequence(c.T), params, t, mode=mode)

    _add_worst(rep, "operadic_lax_analytic", 1e-12,
               _chunked(operadic("analytic"), np.repeat(Cs, 20, axis=0),
                        ts.ravel()))
    _add_worst(rep, "operadic_lax_fd", 1e-6,
               _chunked(operadic("fd"), Cs, ts_fd))

    # unary/unary Gerstenhaber bracket degenerates to the matrix commutator
    A = rng.uniform(-1.0, 1.0, size=(3, 3))
    B = rng.uniform(-1.0, 1.0, size=(3, 3))
    br = gerstenhaber(MultiOp(1, 3, A), MultiOp(1, 3, B)).coeffs
    res = float(np.max(np.abs(br - (A @ B - B @ A))))
    rep.add("unary_bracket_is_commutator", res <= 1e-14,
            residual=res, tol=1e-14)
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
    rng = np.random.default_rng(seed)
    rep = SuiteReport("bianchi", seed=seed)
    params = HOParams(omega=1.3, p0=0.9)

    def closed_form_gap(label):
        return lambda t: np.abs(
            dynamical_deformation(label, params, t).array
            - deformation_closed_form(label, params, t).array
        ).max(axis=(1, 2, 3))

    times = np.linspace(0.0, 4 * np.pi / params.omega, T_SAMPLES)
    _add_worst(rep, "deformation_closed_forms", 1e-12,
               *(_chunked(closed_form_gap(label), times)
                 for label in _DEFORM_LABELS))

    # exact round trips: Bianchi rows and random rational tensors
    ok = True
    for p0 in _EXACT_P0:
        r = _exact_sqrt(2 * p0)
        pt = _exact_initial_point(p0, r)
        ho = HOParams(Fraction(1), p0)
        for label in _DEFORM_LABELS:
            a_exact = None if label.a is None else Fraction(label.a)
            sc = structure_constants(
                BianchiLabel(label.type, a_exact)).array.tolist()
            ok &= (build_mu(solve_C(sc, p0), ho, pt) == sc)
        for _ in range(25):
            m = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
            for i in range(3):
                for (j, k) in ((0, 1), (0, 2), (1, 2)):
                    v = Fraction(int(rng.integers(-8, 9)),
                                 int(rng.integers(1, 5)))
                    m[i][j][k] = v
                    m[i][k][j] = -v
            ok &= (build_mu(solve_C(m, p0), ho, pt) == m)
    rep.add("solve_build_roundtrip_exact", ok)

    # classical Jacobi identity along the flow: per label 25 times and four
    # integer triples (x, y, z) at each, one stack of 100 samples (within
    # CHUNK); one draw gives the integers in the order of one draw per vector
    times = np.repeat(np.linspace(0.0, 4 * np.pi / params.omega, 25), 4)
    triples = rng.integers(-5, 6, size=(len(_DEFORM_LABELS), len(times), 3,
                                        3)).astype(float)
    residuals = []
    for label, (x, y, z) in zip(_DEFORM_LABELS, np.moveaxis(triples, 2, 1)):
        scale = np.maximum(np.linalg.norm(x, axis=1)
                           * np.linalg.norm(y, axis=1)
                           * np.linalg.norm(z, axis=1), 1.0)
        J = classical_jacobiator(dynamical_deformation(label, params, times),
                                 x, y, z)
        residuals.append(np.abs(J).max(axis=1) / scale)
    _add_worst(rep, "classical_jacobi_on_shell", 1e-10, *residuals)

    # antisymmetry of every generated tensor
    ok = True
    for label in _DEFORM_LABELS:
        arr = dynamical_deformation(label, params,
                                    rng.uniform(0.0, 12.0, size=10)).array
        ok &= bool(np.all(arr == -np.swapaxes(arr, -1, -2)))
    rep.add("antisymmetry", ok)

    # alternation and multilinearity of the Jacobiator
    sc = dynamical_deformation(BianchiLabel(BianchiType.VIIA, 2.0), params,
                               0.7)
    x = rng.uniform(-1, 1, 3)
    y = rng.uniform(-1, 1, 3)
    z = rng.uniform(-1, 1, 3)
    _add_worst(rep, "jacobiator_alternation", 1e-12,
               np.abs(classical_jacobiator(sc, x, x, z)),
               np.abs(classical_jacobiator(sc, x, y, y)))
    _add_worst(rep, "jacobiator_multilinearity", 1e-12, np.abs(
        classical_jacobiator(sc, 2 * x + y, y, z)
        - 2 * classical_jacobiator(sc, x, y, z)
        - classical_jacobiator(sc, y, y, z)))
    return rep


def quantum_suite(seed: int = 42) -> SuiteReport:
    """Exact symbolic identities of the quantum Jacobi pipeline."""
    rep = SuiteReport("quantum", seed=seed)

    xi1, xi2 = qj.xi_polys(qj.PQ_TABLE)
    h1, h2 = qj.xi_hform()
    rep.add("xi1_exact_identity", qj.expand_energy_symbol(h1) == xi1)
    rep.add("xi2_exact_identity", qj.expand_energy_symbol(h2) == xi2)

    lam = CoeffPoly.symbol("lambda")
    beta_sqs = []
    for btype in DEFORMABLE:
        tag = btype.value
        semi = qj.semiclassical_jacobi(btype)
        hform = qj.semiclassical_jacobi_hform(btype)
        rep.add(f"semiclassical_hform_{tag}",
                all(qj.expand_energy_symbol(a) == b
                    for a, b in zip(hform, semi)))

        cor = qj.corollary_HE(btype)
        a = CoeffPoly.one() if btype is BianchiType.IIIA1 \
            else CoeffPoly.symbol("a")
        delta = CoeffPoly.symbol("Delta")
        omega = CoeffPoly.symbol("omega")
        inv = CoeffPoly.monomial(Fraction(1, 4), {"r": -1, "p0": -2})
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
        c_expected = (lam * lam * CoeffPoly.symbol("omega", 2)
                      * CoeffPoly.symbol("Delta")
                      * CoeffPoly.monomial(Fraction(1, 32), {"p0": -4}))
        rep.add(f"derivative_C_{tag}", da.C == c_expected,
                detail=da.rendered("C").replace(" ", ""))
        rep.add(f"derivative_C_a_free_{tag}",
                da.C is not None and not da.C.contains("a"))
        rep.add(f"derivative_beta_sq_{tag}",
                da.beta_sq == -(c_expected * delta))
        rep.add(f"derivative_brackets_{tag}",
                da.bracket_13_zero and da.bracket_23_zero
                and da.bracket_12_matches)
        rep.add(f"heisenberg_identification_{tag}", da.heisenberg_ok)
        beta_sqs.append(da.beta_sq)

    # |Delta| selected by the spectrum, from the computed beta^2
    deltas = [(_spectrum_delta(b, n), n) for b in beta_sqs for n in range(11)]
    derived = all(d is not None for d, _ in deltas)
    worst = max(abs(d - qj.spectrum_determinant(n)) for d, n in deltas) \
        if derived else None
    rep.add("spectrum_determinant", derived and worst <= 1e-12,
            residual=worst, tol=1e-12)

    # machine check of the claimed closed-form Jacobiator: exactly the left
    # convention certifies, and the right one misses it only by O(lambda)
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
                rep.add(
                    f"jacobi_delta_divisible_{btype.value}_{conv}_{alphabet}",
                    all(r.delta_divisible))
    rep.add("jacobi_theorem_machine_check", ok, detail=",".join(details))
    return rep


def _spectrum_delta(beta_sq: CoeffPoly | None, n: int) -> float | None:
    """|Delta| solving beta^2 = 1 at lambda^2 = -hbar^2, p0^2 = 2E =
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
    return math.sqrt(1 / k) if k > 0 else None

ALL_SUITES = {
    "operad": operad_suite,
    "lax": lax_suite,
    "bianchi": bianchi_suite,
    "quantum": quantum_suite,
}
