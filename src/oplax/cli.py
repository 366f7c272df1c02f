"""Command-line front end.

Commands:
  verify      run verification suites (exit 0 all pass, 1 failure, 2 usage)
  deform      emit the dynamical deformation table along the flow
  trajectory  emit the oscillator flow with quasi-canonical coordinates
  jacobi      symbolic quantum Jacobi operator report
  spectrum    determinant values selected by the oscillator spectrum
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import re
import sys
import time

from . import qjacobi as qj
from .bianchi import (BianchiLabel, BianchiType, label_params,
                      require_deformable)
from .lax import SLOTS, mu_slots
from .oscillator import HOParams, flow
from .suites import ALL_SUITES

_LABELS = {t.value: t for t in BianchiType}


def _fail_usage(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"tolerance {text!r} is negative")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed {text!r} is negative")
    return value


# argparse takes only "-1"- and "-1.5"-style tokens for negative numbers and
# reads "-1e3" as an unknown option; this matcher also takes the exponent
# form, so "--t0 -1e3" parses like "--t0=-1e3"
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser reading negative numbers in exponent form as values;
    add_subparsers builds every subparser with this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _make_label(args) -> BianchiLabel:
    btype = _LABELS[args.label]
    try:
        require_deformable(btype)
        return BianchiLabel(btype, args.a)
    except ValueError as exc:
        _fail_usage(str(exc))


def _make_params(args) -> HOParams:
    try:
        return HOParams.from_energy(args.omega, args.energy)
    except ValueError as exc:
        _fail_usage(str(exc))


# rows written per stdout write: large enough to amortise the call, small
# enough that the joined text stays a few tens of kB
_EMIT_BATCH = 128


def _require_finite(*bounds):
    """Exit 2 unless every bound is finite: the O(1) check each table makes
    before its first row."""
    if not all(map(math.isfinite, bounds)):
        _fail_usage("the flags overflow: a row is not finite")


def _emit_rows(header, rows, fmt_name: str, constants=()):
    """Write rows (an iterable of equal-length tuples of floats or ints) as
    CSV with a header line, or as JSON lines, one %-template per line.

    constants are the values of the last len(constants) columns of header,
    the same on every row: they are formatted once into the template, and
    rows hold only the columns before them.

    CSV writes each value as "%.17g", byte-equal to report.fmt for a float
    and to str for an int below 10**17; JSON writes the keys sorted, as
    json.dumps(sort_keys=True) does, and each value as "%r", which is
    json's text for a Python float or int.  The header names are plain
    identifiers, so neither format needs quoting or escaping.

    rows is consumed _EMIT_BATCH rows at a time and never held whole.  It
    is not scanned either: before the first row the caller checks in O(1)
    that every value is finite (_require_finite).  Rounding to nearest is
    monotone, so the checks of the time grid (_times), of the trajectory
    rows and of the spectrum rows are exact; the bounds on the deform rows
    (_mu_bounds) are sound, and conservative only where no row reaches the
    amplitudes they assume.
    """
    out = sys.stdout
    varying = len(header) - len(constants)
    if fmt_name == "csv":
        out.write(",".join(header) + "\n")
        cells = ["%.17g"] * varying + ["%.17g" % c for c in constants]
        template = ",".join(cells) + "\n"
    else:
        cells = ([f'"{name}": %r' for name in header[:varying]]
                 + [f'"{name}": {c!r}'
                    for name, c in zip(header[varying:], constants)])
        keys = sorted(range(len(header)), key=header.__getitem__)
        template = "{" + ", ".join(cells[i] for i in keys) + "}\n"
        rows = map(operator.itemgetter(*(i for i in keys if i < varying)),
                   rows)
    lines = map(template.__mod__, rows)
    for text in iter(lambda: "".join(itertools.islice(lines, _EMIT_BATCH)),
                     ""):
        out.write(text)


def cmd_verify(args) -> int:
    if args.target == "all":
        names = list(ALL_SUITES)
    else:
        names = [args.target]
    all_pass = True
    for name in names:
        kwargs = {"seed": args.seed}
        if name == "lax":
            kwargs["tol_fd"] = args.tol_fd
        if name == "bianchi":
            kwargs["tol_exact_float"] = args.tol_exact_float
        start = time.monotonic()
        report = ALL_SUITES[name](**kwargs)
        elapsed = time.monotonic() - start
        if args.format == "json":
            print(report.render_json())
        else:
            print(report.render_text())
        print(f"# suite={name} wall_time={elapsed:.3f}s", file=sys.stderr)
        all_pass &= report.passed
    return 0 if all_pass else 1


def _times(args, params: HOParams):
    """The time grid t_i = t0 + (t1 - t0) * i / steps, i = 0..steps, as an
    iterator, after an O(1) check that every t_i and omega * t_i is finite.

    Rounding to nearest is monotone, and so is each step of the expression
    in i: the product (t1 - t0) * i, the quotient by steps > 0, the sum with
    t0.  So t_i runs monotonically from t_0 to t_steps, and omega * t_i
    (omega > 0) from omega * t_0 to omega * t_steps; checking the two ends
    is exact: it accepts the flags a scan of every t_i accepts.  That
    includes an infinite span t1 - t0, where t_0 = t0 + inf * 0 is NaN.
    """
    if args.steps < 1:
        _fail_usage("steps must be >= 1")
    t0, span, steps, w = args.t0, args.t1 - args.t0, args.steps, params.omega
    if not all(math.isfinite(w * (t0 + span * i / steps)) for i in (0, steps)):
        _fail_usage("the flags overflow: the time grid or omega*t "
                    "is not finite")
    return (t0 + span * i / steps for i in range(steps + 1))


def _flow_amplitudes(params: HOParams) -> tuple:
    """(p0/omega, p0, sqrt(2 p0)), as flow computes them: bounds on |q|,
    |p| and |Q|, |P| on every row, since |sin|, |cos| <= 1 and rounding is
    monotone."""
    p0 = params.p0
    return p0 / params.omega, p0, math.sqrt(2 * p0)


def _mu_bounds(C: tuple, w: float, amplitudes) -> tuple:
    """A bound on each entry of mu_slots over every row: its terms with q,
    p, Q and P replaced by their amplitudes, taken in absolute value and
    summed in mu_slots' order.  Rounding is monotone, so each bound is at
    least the computed entry, with no margin.  An intermediate such as
    c3 * w enters as computed (|c3| w is |c3 w| exactly, w > 0): if it
    overflows, so does its bound."""
    q, p, QP = amplitudes
    c1, c2, c3, c4, c5, c6, c7, c8, c9 = map(abs, C)
    c2w, c3w = c2 * w, c3 * w
    return (c5 * QP + c6 * QP,        # mu^1_12, mu^2_12
            c9,                       # mu^3_12
            c2 * p + c3w * q + c4,    # mu^1_23, mu^2_31
            c2w * q + c3 * p + c1,    # mu^2_23, mu^1_31
            c7 * QP + c8 * QP)        # mu^3_23, mu^3_31


def cmd_deform(args) -> int:
    label = _make_label(args)
    params = _make_params(args)
    w = params.omega
    # one float conversion, not one per row (c9 of IIIa1 is an int), into a
    # plain tuple: mu_slots unpacks C once a row, fastest from an exact tuple
    C = tuple(map(float, label_params(label, params.p0)))
    header = ("t", "q", "p", "Q", "P") + tuple(
        f"mu_{j + 1}{k + 1}^{i + 1}" for i, j, k in SLOTS)
    times = _times(args, params)
    amplitudes = _flow_amplitudes(params)
    _require_finite(*amplitudes, *_mu_bounds(C, w, amplitudes))
    rows = (row + mu_slots(C, w, *row[1:]) for row in flow(params, times))
    _emit_rows(header, rows, args.format)
    return 0


def cmd_trajectory(args) -> int:
    params = _make_params(args)
    times = _times(args, params)
    # exact: q = (p0/omega) sin, p, Q, P and H are finite on every row or on
    # none
    _require_finite(*_flow_amplitudes(params), params.energy)
    _emit_rows(("t", "q", "p", "Q", "P", "H"), flow(params, times),
               args.format, constants=(params.energy,))
    return 0


@functools.cache
def _label_fields(btype: BianchiType) -> tuple:
    """The fields of the jacobi report that depend on the label alone, as
    rendered text, computed once per label: the semiclassical and H = E
    components and the derivative algebra's C, beta^2 and Heisenberg
    verdict."""
    cor = qj.corollary_HE(btype)
    da = qj.derivative_algebra(cor)
    return (tuple(c.render() for c in qj.semiclassical_jacobi(btype)),
            tuple(c.render() for c in cor), da.rendered("C"),
            da.rendered("beta_sq"), da.heisenberg_ok)


def cmd_jacobi(args) -> int:
    btype = _LABELS[args.label]
    # the symbolic pipeline keeps a as a symbol; a numeric --a is only
    # validated for domain
    try:
        require_deformable(btype)
        if args.a is not None:
            BianchiLabel(btype, args.a)
    except ValueError as exc:
        _fail_usage(str(exc))
    alphabet = "PQ" if args.alphabet == "pq" else "qpPQ"
    theorem = qj.verify_theorem_q(btype, args.convention, alphabet)
    semi, cor, C, beta_sq, heisenberg = _label_fields(btype)

    obj = {
        "label": args.label,
        "convention": args.convention,
        "alphabet": alphabet,
        "theorem_exact": list(theorem.exact),
        "theorem_residuals": [r.render() for r in theorem.residuals],
        "delta_divisible": list(theorem.delta_divisible),
        "semiclassical": list(semi),
        "h_equals_e": list(cor),
        "C": C,
        "beta_sq": beta_sq,
        "heisenberg": heisenberg,
    }
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True, allow_nan=False))
        return 0
    print(f"label={args.label} convention={args.convention} "
          f"alphabet={alphabet}")
    for i in range(3):
        verdict = "exact" if theorem.exact[i] else "residual"
        print(f"J^{i + 1} theorem {verdict}"
              + ("" if theorem.exact[i]
                 else f" residual={theorem.residuals[i].render()}"))
    for i, c in enumerate(semi):
        print(f"J^{i + 1} semiclassical = {c}")
    for i, c in enumerate(cor):
        print(f"J^{i + 1} at H=E = {c}")
    print(f"C = {C}")
    print(f"beta^2 = {beta_sq}")
    print(f"heisenberg_identification={'true' if heisenberg else 'false'}")
    return 0


def _spectrum_row(n: int) -> tuple:
    return n, n + 0.5, qj.spectrum_determinant(n)


def cmd_spectrum(args) -> int:
    if args.n_max < 0:
        _fail_usage("n-max must be >= 0")
    # every column increases with n, so the last row bounds the others
    try:
        last = _spectrum_row(args.n_max)
    except OverflowError:  # n + 0.5 with n too large for a float
        last = (math.inf,)
    _require_finite(*last)
    _emit_rows(("n", "E_over_hbar_omega", "abs_det"),
               map(_spectrum_row, range(args.n_max + 1)), args.format)
    return 0


def _add_flow_flags(sub, t1_default):
    sub.add_argument("--omega", type=_finite_float, default=1.0)
    sub.add_argument("--energy", type=_finite_float, default=0.5)
    sub.add_argument("--t0", type=_finite_float, default=0.0)
    sub.add_argument("--t1", type=_finite_float, default=t1_default)
    sub.add_argument("--steps", type=int, default=100)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The oplax argument parser, built once per process."""
    parser = _Parser(
        prog="oplax",
        description="Operadic Lax pairs, Bianchi deformations, and quantum "
                    "Jacobi operator verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    v = subs.add_parser("verify", help="run verification suites")
    v.add_argument("--target", choices=("all", *ALL_SUITES), default="all")
    v.add_argument("--seed", type=_seed, default=42)
    v.add_argument("--tol-fd", type=_tolerance, default=1e-6,
                   help="finite-difference residual tolerance")
    v.add_argument("--tol-exact-float", type=_tolerance, default=1e-12,
                   help="tolerance for identities exact up to rounding")
    v.add_argument("--format", choices=("text", "json"), default="text")

    d = subs.add_parser("deform", help="dynamical deformation table")
    d.add_argument("--label", choices=tuple(_LABELS), required=True)
    d.add_argument("--a", type=_finite_float, default=None)
    _add_flow_flags(d, t1_default=2 * math.pi)

    t = subs.add_parser("trajectory", help="oscillator flow table")
    _add_flow_flags(t, t1_default=2 * math.pi)

    j = subs.add_parser("jacobi", help="quantum Jacobi operator report")
    j.add_argument("--label", choices=tuple(_LABELS), required=True)
    j.add_argument("--a", type=_finite_float, default=None)
    j.add_argument("--convention", choices=("left", "right"),
                   default="left")
    j.add_argument("--alphabet", choices=("pq", "qpPQ"), default="pq")
    j.add_argument("--format", choices=("text", "json"), default="text")

    s = subs.add_parser("spectrum", help="spectrum determinant table")
    s.add_argument("--n-max", type=int, default=10)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up by name on each call, so that the cached parser holds no
    # command function
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    raise SystemExit(main())
