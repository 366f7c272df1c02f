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


def _emit_rows(header, rows, fmt_name: str):
    """Write rows (a sequence of equal-length tuples of floats or ints) as
    CSV with a header line, or as JSON lines, one %-template per line.

    CSV writes each value as "%.17g", byte-equal to report.fmt for a float
    and to str for an int below 10**17; JSON writes the keys sorted, as
    json.dumps(sort_keys=True) does, and each value as "%r", which is
    json's text for a Python float or int.  The header names are plain
    identifiers, so neither format needs quoting or escaping.
    """
    if not all(map(math.isfinite, itertools.chain.from_iterable(rows))):
        _fail_usage("the flags overflow: a row is not finite")
    out = sys.stdout
    if fmt_name == "csv":
        out.write(",".join(header) + "\n")
        order = range(len(header))
        template = ",".join(["%.17g"] * len(header)) + "\n"
    else:
        order = sorted(range(len(header)), key=header.__getitem__)
        template = "{" + ", ".join(f'"{header[i]}": %r' for i in order) + "}\n"
    pick = operator.itemgetter(*order)
    for start in range(0, len(rows), _EMIT_BATCH):
        batch = map(pick, rows[start:start + _EMIT_BATCH])
        out.write("".join(map(template.__mod__, batch)))


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


def _times(args, params: HOParams) -> list:
    if args.steps < 1:
        _fail_usage("steps must be >= 1")
    times = [args.t0 + (args.t1 - args.t0) * i / args.steps
             for i in range(args.steps + 1)]
    if not all(math.isfinite(params.omega * t) for t in times):
        _fail_usage("the flags overflow: the time grid or omega*t "
                    "is not finite")
    return times


def cmd_deform(args) -> int:
    label = _make_label(args)
    params = _make_params(args)
    C = label_params(label, params.p0)
    w = params.omega
    header = ("t", "q", "p", "Q", "P") + tuple(
        f"mu_{j + 1}{k + 1}^{i + 1}" for i, j, k in SLOTS)
    rows = [row + tuple(map(float, mu_slots(C, w, *row[1:])))
            for row in flow(params, _times(args, params))]
    _emit_rows(header, rows, args.format)
    return 0


def cmd_trajectory(args) -> int:
    params = _make_params(args)
    header = ("t", "q", "p", "Q", "P", "H")
    H = (params.energy,)
    rows = [row + H for row in flow(params, _times(args, params))]
    _emit_rows(header, rows, args.format)
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


def cmd_spectrum(args) -> int:
    if args.n_max < 0:
        _fail_usage("n-max must be >= 0")
    header = ("n", "E_over_hbar_omega", "abs_det")
    rows = [(n, n + 0.5, qj.spectrum_determinant(n))
            for n in range(args.n_max + 1)]
    _emit_rows(header, rows, args.format)
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
