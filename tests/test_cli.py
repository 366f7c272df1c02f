import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oplax
from oplax import cli
from oplax import qjacobi as qj
from oplax.bianchi import (BianchiLabel, BianchiType, deformation_closed_form,
                           label_params)
from oplax.cli import main
from oplax.lax import SLOTS, build_mu
from oplax.oscillator import HOParams, trajectory
from oplax.report import fmt


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


@pytest.mark.parametrize("argv", (
    ("trajectory", "--omega", "inf"),
    ("deform", "--label", "VIIa", "--a", "inf", "--t1", "nan",
     "--format", "json"),
    # no tolerance is an option: each is fixed at the case that judges it,
    # so a loose one cannot turn a failing case into a pass
    ("verify", "--target", "lax", "--tol-fd", "1"),
    ("verify", "--target", "bianchi", "--tol-exact-float", "1e300"),
    ("verify", "--seed", "-1"),
    ("verify", "--target", "quantum", "--seed", "-1"),
    # finite flags whose derived p0, phase omega*t or rows overflow
    ("trajectory", "--omega", "1e308", "--t1", "1e10", "--steps", "2"),
    ("trajectory", "--energy", "1e308", "--format", "json"),
    ("trajectory", "--energy", "1e308"),
    ("trajectory", "--omega", "1e-310"),
    # type IIIa1 takes no parameter a
    ("deform", "--label", "IIIa1", "--a", "2"),
    ("verify", "--seed", "nan"),
    # mu^1_12 = (a / sqrt(2 p0)) P overflows
    ("deform", "--label", "VIIa", "--a", "1e308", "--energy", "1e-10"),
    # n + 0.5 of the last row raises OverflowError
    ("spectrum", "--n-max", "1" + "0" * 400),
))
def test_bad_number_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err


def scanned_grid(t0, t1, omega, steps):
    """The grid check the tables made before they streamed: build every t,
    then scan every omega * t.  None where the scan rejects the flags."""
    times = [t0 + (t1 - t0) * i / steps for i in range(steps + 1)]
    return times if all(math.isfinite(omega * t) for t in times) else None


MAX = sys.float_info.max
TINY = 5e-324
# extreme, subnormal and ordinary times; st.floats draws subnormals too
EXTREME_TIMES = st.one_of(
    st.sampled_from((0.0, -0.0, TINY, -TINY, 1e-310, -1e-310, 1.0, -3.5,
                     1e154, -1e154, 1e300, -1e300, MAX / 2, -MAX / 2, MAX,
                     -MAX)),
    st.floats(allow_nan=False, allow_infinity=False))
OMEGAS = st.one_of(st.sampled_from((1e-309, 1e-300, 1.0, 1e154, 1e307)),
                   st.floats(1e-310, 1e308, exclude_min=True,
                             exclude_max=True))
ENERGIES = st.one_of(st.sampled_from((1e-300, 0.5, 1e300, MAX)),
                     st.floats(TINY, MAX))


class TestBoundChecks:
    """The O(1) checks made before the first row: the grid check is
    exact, and no accepted flags print a value that is not finite."""

    @given(t0=EXTREME_TIMES, t1=EXTREME_TIMES, omega=OMEGAS,
           steps=st.integers(1, 64))
    @example(t0=-MAX, t1=MAX, omega=1.0, steps=1)       # span inf: t_0 NaN
    @example(t0=-MAX / 2, t1=MAX / 2, omega=1.0, steps=64)
    @example(t0=0.0, t1=1e300, omega=1e10, steps=3)     # omega * t1 inf
    @example(t0=1e-310, t1=-TINY, omega=1e-310, steps=64)
    @settings(max_examples=400, deadline=None)
    def test_grid_check_accepts_what_the_scan_accepts(self, t0, t1, omega,
                                                      steps):
        expected = scanned_grid(t0, t1, omega, steps)
        args = argparse.Namespace(t0=t0, t1=t1, steps=steps)
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                times = list(cli._times(args, HOParams(omega, 1.0)))
        except SystemExit as exc:
            assert exc.code == 2 and expected is None
        else:
            assert expected is not None
            assert list(map(float.hex, times)) == \
                list(map(float.hex, expected))

    @given(command=st.sampled_from((
               ("trajectory",), ("deform", "--label", "VIIa", "--a", "0.7"),
               ("deform", "--label", "IIIa1"),
               ("deform", "--label", "VIa", "--a", "1e150"))),
           t0=EXTREME_TIMES, t1=EXTREME_TIMES, omega=OMEGAS,
           energy=ENERGIES, steps=st.integers(1, 64))
    @example(command=("trajectory",), t0=-1e300, t1=1e300, omega=1e-300,
             energy=0.5, steps=64)
    @example(command=("deform", "--label", "VIa", "--a", "1e150"), t0=0.0,
             t1=1e150, omega=1e-150, energy=1e150, steps=64)
    @settings(max_examples=300, deadline=None)
    def test_accepted_flags_print_finite_values(self, command, t0, t1, omega,
                                                energy, steps):
        argv = [*command, f"--t0={t0!r}", f"--t1={t1!r}",
                f"--omega={omega!r}", f"--energy={energy!r}",
                "--steps", str(steps)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == ""
            return
        assert code == 0
        _, rows = parse_csv(out.getvalue())
        assert len(rows) == steps + 1
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    @pytest.mark.parametrize("argv", (
        # a bound of sum|C_i| times the largest factor refused these
        ("deform", "--label", "IIIa1", "--omega", "1e308", "--t1", "1"),
        ("deform", "--label", "VIIa", "--a", "1e300", "--omega", "1e10",
         "--t1", "1"),
    ))
    def test_deform_bound_follows_each_term(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        _, rows = parse_csv(out)
        assert len(rows) == 101
        assert all(math.isfinite(float(v)) for row in rows for v in row)


@pytest.mark.parametrize("code, argv", (
    (0, ("trajectory", "--t0", "-1e3", "--steps", "2")),
    (0, ("trajectory", "--t1", "-2.5E1", "--t0", "-.5e1", "--format", "json")),
    (0, ("deform", "--label", "VIa", "--a", "5e-1", "--t0", "-2e0",
         "--steps", "3")),
    (2, ("deform", "--label", "VIIa", "--a", "-5e-1")),
    (2, ("trajectory", "--omega", "-1e0")),
    (2, ("trajectory", "--energy", "-2e-1")),
    (2, ("trajectory", "--steps", "-1e1")),
    (2, ("verify", "--target", "lax", "--seed", "-1e1")),
    (2, ("deform", "--label", "IIIa1", "--energy", "-1e-1")),
    (2, ("spectrum", "--n-max", "-1e2")),
))
def test_negative_exponent_form_parses_like_equals_form(capsys, code, argv):
    joined = []
    for token in argv:
        if joined and joined[-1].startswith("--") and token.startswith("-") \
                and not token.startswith("--"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    spaced = run_cli(capsys, *argv)
    assert spaced[:2] == run_cli(capsys, *joined)[:2]
    assert spaced[0] == code and bool(spaced[1]) == (code == 0)
    assert "expected one argument" not in spaced[2]


@pytest.mark.parametrize("value", ("-inf", "-nan", "-1e999", "-Infinity"))
@pytest.mark.parametrize("flag", ("--t0", "--t1", "--omega", "--energy"))
def test_negative_non_finite_is_usage_error(capsys, flag, value):
    for argv in (("trajectory", flag, value), ("trajectory", f"{flag}={value}")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "Traceback" not in err


def test_parser_built_once_commands_looked_up_per_call(capsys, monkeypatch):
    """The parser is cached, and main still runs the command function the
    module holds at the time of the call."""
    assert cli.build_parser() is cli.build_parser()
    assert main(["spectrum", "--n-max", "0"]) == 0
    monkeypatch.setattr(cli, "cmd_spectrum", lambda args: args.n_max + 7)
    assert main(["spectrum", "--n-max", "3"]) == 10
    capsys.readouterr()


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--target", "operad")
        assert code == 0
        assert "suite=operad" in out
        assert "pass=true" in out
        assert "pass=false" not in out
        assert "case=SUMMARY" in out.strip().splitlines()[-1]

    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--target", "all")
        assert code == 0
        for name in ("operad", "lax", "bianchi", "quantum"):
            assert f"suite={name}" in out
        assert "pass=false" not in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--target", "operad",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["suite"] == "operad"
        assert obj["pass"] is True
        assert obj["failures"] == 0
        assert all(case["pass"] for case in obj["cases"])

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--target", "bianchi",
                             "--seed", "7")
        _, out2, _ = run_cli(capsys, "verify", "--target", "bianchi",
                             "--seed", "7")
        assert out1 == out2

    def test_wall_time_on_stderr_only(self, capsys):
        _, out, err = run_cli(capsys, "verify", "--target", "operad")
        assert "wall_time" in err
        assert "wall_time" not in out

    def test_unknown_target_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--target", "nonsense")
        assert code == 2


class TestTrajectory:
    def test_csv_shape_and_energy(self, capsys):
        code, out, _ = run_cli(capsys, "trajectory", "--omega", "1.0",
                               "--energy", "0.5", "--steps", "10")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "q", "p", "Q", "P", "H"]
        assert len(rows) == 11
        for row in rows:
            assert float(row[5]) == pytest.approx(0.5)

    def test_constraints_in_output(self, capsys):
        _, out, _ = run_cli(capsys, "trajectory", "--omega", "1.3",
                            "--energy", "0.8", "--steps", "20")
        _, rows = parse_csv(out)
        for row in rows:
            t, q, p, Q, P, H = map(float, row)
            assert P * P - Q * Q == pytest.approx(2 * p, abs=1e-10)
            assert Q * P == pytest.approx(1.3 * q, abs=1e-10)

    def test_json_lines(self, capsys):
        _, out, _ = run_cli(capsys, "trajectory", "--steps", "3",
                            "--format", "json")
        lines = out.strip().splitlines()
        assert len(lines) == 4
        first = json.loads(lines[0])
        assert set(first) == {"t", "q", "p", "Q", "P", "H"}

    def test_bad_steps(self, capsys):
        code, _, _ = run_cli(capsys, "trajectory", "--steps", "0")
        assert code == 2

    def test_bad_energy(self, capsys):
        code, _, err = run_cli(capsys, "trajectory", "--energy", "-1")
        assert code == 2
        assert "error" in err


class TestDeform:
    def test_columns_and_initial_row(self, capsys):
        code, out, _ = run_cli(capsys, "deform", "--label", "VIIa",
                               "--a", "0.7", "--steps", "4")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:5] == ["t", "q", "p", "Q", "P"]
        assert header[5:] == ["mu_12^1", "mu_12^2", "mu_12^3", "mu_23^1",
                              "mu_23^2", "mu_23^3", "mu_31^1", "mu_31^2",
                              "mu_31^3"]
        first = dict(zip(header, map(float, rows[0])))
        # t = 0 row reproduces the undeformed structure constants
        assert first["mu_12^2"] == pytest.approx(-0.7, abs=1e-12)
        assert first["mu_12^3"] == pytest.approx(1.0, abs=1e-12)
        assert first["mu_23^1"] == pytest.approx(0.0, abs=1e-12)
        assert first["mu_31^2"] == pytest.approx(1.0, abs=1e-12)
        assert first["mu_31^3"] == pytest.approx(0.7, abs=1e-12)

    def test_periodicity_over_two_turns(self, capsys):
        period = 4 * math.pi
        _, out, _ = run_cli(capsys, "deform", "--label", "IIIa1",
                            "--omega", "1.0", "--t1", str(period),
                            "--steps", "8")
        header, rows = parse_csv(out)
        first, last = rows[0], rows[-1]
        for name, a, b in zip(header[1:], first[1:], last[1:]):
            assert float(a) == pytest.approx(float(b), abs=1e-9), name

    @pytest.mark.parametrize("label, a", (("VIIa", 0.7), ("VIa", 2.5)))
    def test_rows_follow_closed_form(self, capsys, label, a):
        omega, energy = 1.3, 0.8
        period = 2 * math.pi / omega
        _, out, _ = run_cli(capsys, "deform", "--label", label, "--a", str(a),
                            "--omega", str(omega), "--energy", str(energy),
                            "--t1", str(period), "--steps", "12")
        header, rows = parse_csv(out)
        assert len(rows) == 13
        bianchi = BianchiLabel(BianchiType(label), a)
        params = HOParams.from_energy(omega, energy)
        for row in rows:
            t = float(row[0])
            closed = deformation_closed_form(bianchi, params, t).array
            for value, (i, j, k) in zip(row[5:], SLOTS, strict=True):
                assert float(value) == pytest.approx(closed[i, j, k],
                                                     abs=1e-12)

    def test_type_ii_rejected(self, capsys):
        code, _, err = run_cli(capsys, "deform", "--label", "II")
        assert code == 2
        assert "no dynamical deformation" in err

    def test_missing_a_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "deform", "--label", "VIa")
        assert code == 2

    def test_via_a_equal_one_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "deform", "--label", "VIa", "--a", "1")
        assert code == 2


class TestJacobi:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "jacobi", "--label", "VIIa")
        assert code == 0
        assert "J^1 theorem exact" in out
        assert "J^2 theorem exact" in out
        assert "J^3 theorem exact" in out
        assert "C = 1/32*lambda^2*omega^2*Delta/p0^4" in out
        assert "heisenberg_identification=true" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "jacobi", "--label", "IIIa1",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["theorem_exact"] == [True, True, True]
        assert obj["delta_divisible"] == [True, True, True]
        assert obj["heisenberg"] is True
        assert obj["C"] == "1/32*lambda^2*omega^2*Delta/p0^4"

    def test_right_convention_reports_residual(self, capsys):
        code, out, _ = run_cli(capsys, "jacobi", "--label", "VIa",
                               "--convention", "right")
        assert code == 0
        assert "residual" in out

    def test_four_letter_alphabet(self, capsys):
        code, out, _ = run_cli(capsys, "jacobi", "--label", "VIIa",
                               "--alphabet", "qpPQ")
        assert code == 0
        assert "alphabet=qpPQ" in out
        assert "J^1 theorem exact" in out

    def test_h_equals_e_components_computed_once(self, capsys, monkeypatch):
        """derivative_algebra reuses the components cmd_jacobi printed, and
        a second report for the label reuses both: one call each per label
        per process, whatever ran before."""
        calls = []

        def counted(fn):
            def wrapper(arg):
                calls.append(fn.__name__)
                return fn(arg)
            return wrapper

        for name in ("corollary_HE", "derivative_algebra"):
            monkeypatch.setattr(qj, name, counted(getattr(qj, name)))
        cli._label_fields.cache_clear()
        outs = []
        for convention in ("left", "right"):
            code, out, _ = run_cli(capsys, "jacobi", "--label", "VIa",
                                   "--convention", convention,
                                   "--format", "json")
            assert code == 0 and json.loads(out)["heisenberg"] is True
            outs.append(json.loads(out))
        assert calls == ["corollary_HE", "derivative_algebra"]
        assert outs[0]["h_equals_e"] == outs[1]["h_equals_e"]

    def test_reports_are_unchanged(self, capsys):
        """The 12 JSON reports, label by convention by alphabet, pinned by
        one sha256: exact rational text with no BLAS in the path, so the
        pin holds on every platform."""
        reports = []
        for label in ("VIIa", "IIIa1", "VIa"):
            for convention in ("left", "right"):
                for alphabet in ("pq", "qpPQ"):
                    code, out, _ = run_cli(
                        capsys, "jacobi", "--label", label, "--convention",
                        convention, "--alphabet", alphabet, "--format",
                        "json")
                    assert code == 0
                    reports.append(out)
        assert hashlib.sha256("".join(reports).encode()).hexdigest() == (
            "4742fead75442236f1bd837c135d5dbc097456bfd4b7098bc423a07c01590d5a")

    def test_type_ii_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "jacobi", "--label", "II")
        assert code == 2

    def test_bad_a_rejected(self, capsys):
        """The report keeps a as a symbol: jacobi takes no --a, not even a
        valid one."""
        code, out, err = run_cli(capsys, "jacobi", "--label", "VIIa",
                                 "--a", "0.5")
        assert (code, out) == (2, "")
        assert "Traceback" not in err


class TestSpectrum:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n-max", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "E_over_hbar_omega", "abs_det"]
        assert len(rows) == 4
        for row in rows:
            n = int(row[0])
            assert float(row[1]) == pytest.approx(n + 0.5)
            assert float(row[2]) == pytest.approx(
                4 * math.sqrt(2) * (2 * n + 1))

    def test_negative_n_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--n-max", "-1")
        assert code == 2


def reference_emit(header, rows, fmt_name):
    """The row emitter the template one must match: csv.writer over
    report.fmt, or one json.dumps per row."""
    out = io.StringIO()
    if fmt_name == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
    else:
        for row in rows:
            out.write(json.dumps(dict(zip(header, row)), sort_keys=True,
                                 allow_nan=False) + "\n")
    return out.getvalue()


def assert_same_text(out, expected):
    """out == expected, reporting the first differing line; pytest's own
    diff of two long strings takes minutes."""
    same = out == expected
    got, want = out.splitlines(), expected.splitlines()
    first = next((i for i, pair in enumerate(zip(got, want))
                  if pair[0] != pair[1]), min(len(got), len(want)))
    assert same, (f"line {first}: {got[first:first + 1]} != "
                  f"{want[first:first + 1]} ({len(got)} vs {len(want)} lines)")


# 301 rows: more than two of the emitter's write batches
FLOW = {"--omega": "1.3", "--energy": "0.8", "--t0": "-1e1", "--t1": "3.5",
        "--steps": "300"}
# row counts that fill the emitter's write batches exactly
BATCH_EDGES = (cli._EMIT_BATCH, 2 * cli._EMIT_BATCH)


def reference_points(flags):
    params = HOParams.from_energy(float(flags["--omega"]),
                                  float(flags["--energy"]))
    t0, t1 = float(flags["--t0"]), float(flags["--t1"])
    steps = int(flags["--steps"])
    times = [t0 + (t1 - t0) * i / steps for i in range(steps + 1)]
    return params, [trajectory(params, t) for t in times]


class TestTablesMatchReferenceEmitter:
    """deform, trajectory and spectrum print, byte for byte, what the
    reference emitter prints for rows from the public trajectory and
    build_mu."""

    @pytest.mark.parametrize("fmt_name", ("csv", "json"))
    @pytest.mark.parametrize("label, a", (
        ("VIIa", "0.7"), ("VIIa", "2.5"), ("IIIa1", None),
        ("VIa", "0.4"), ("VIa", "1.7")))
    def test_deform(self, capsys, label, a, fmt_name, flags=FLOW):
        params, points = reference_points(flags)
        C = label_params(BianchiLabel(BianchiType(label),
                                      None if a is None else float(a)),
                         params.p0)
        header = ("t", "q", "p", "Q", "P") + tuple(
            f"mu_{j + 1}{k + 1}^{i + 1}" for i, j, k in SLOTS)
        rows = []
        for pt in points:
            mu = build_mu(C, params, pt)
            rows.append((pt.t, pt.q, pt.p, pt.Q, pt.P)
                        + tuple(float(mu[i][j][k]) for i, j, k in SLOTS))
        argv = ["deform", "--label", label, "--format", fmt_name]
        if a is not None:
            argv += ["--a", a]
        for flag, value in flags.items():
            argv += [flag, value]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert_same_text(out, reference_emit(header, rows, fmt_name))

    @pytest.mark.parametrize("fmt_name", ("csv", "json"))
    def test_trajectory_negative_exponent_t0(self, capsys, fmt_name,
                                              flags=FLOW):
        params, points = reference_points(flags)
        rows = [(pt.t, pt.q, pt.p, pt.Q, pt.P, pt.H) for pt in points]
        argv = ["trajectory", "--format", fmt_name]
        for flag, value in flags.items():
            argv += [flag, value]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert_same_text(out, reference_emit(
            ("t", "q", "p", "Q", "P", "H"), rows, fmt_name))

    @pytest.mark.parametrize("fmt_name", ("csv", "json"))
    def test_spectrum_int_column(self, capsys, fmt_name, count=13):
        rows = [(n, n + 0.5, qj.spectrum_determinant(n))
                for n in range(count)]
        code, out, _ = run_cli(capsys, "spectrum", "--n-max", str(count - 1),
                               "--format", fmt_name)
        assert code == 0
        assert_same_text(out, reference_emit(
            ("n", "E_over_hbar_omega", "abs_det"), rows, fmt_name))

    @pytest.mark.parametrize("count", BATCH_EDGES)
    @pytest.mark.parametrize("fmt_name", ("csv", "json"))
    def test_batch_edges(self, capsys, fmt_name, count):
        """Row counts of one write batch and of two; spectrum also prints a
        single row."""
        flags = dict(FLOW, **{"--steps": str(count - 1)})
        self.test_deform(capsys, "VIa", "0.4", fmt_name, flags)
        self.test_trajectory_negative_exponent_t0(capsys, fmt_name, flags)
        for rows in (1, count):
            self.test_spectrum_int_column(capsys, fmt_name, rows)


# a child interpreter in which every import of numpy raises ImportError
NO_NUMPY = "import sys\nsys.modules['numpy'] = None\n"
SRC = str(Path(oplax.__file__).resolve().parent.parent)


def run_child(code, *argv, stdout=subprocess.PIPE, flags=()):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *flags, "-c", code, *argv],
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


# a child that runs the CLI and writes its peak resident set (Linux's VmHWM,
# in kB) to stderr
PEAK_RSS = """
import sys
from oplax.cli import main
main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status
               if line.startswith("VmHWM:")), file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="VmHWM is read from Linux's /proc")
@pytest.mark.parametrize("argv, steps", (
    (("trajectory",), (50_000, 200_000)),
    (("deform", "--label", "VIIa", "--a", "0.7"), (20_000, 80_000))))
def test_tables_stream_in_constant_memory(argv, steps):
    """Four times the rows leave the peak resident set within 1 MB: no
    table is held in memory (a held 200k-row trajectory peaks some 40 MB
    above a 50k-row one)."""
    peaks = []
    for n in steps:
        child = run_child(PEAK_RSS, *argv, "--steps", str(n),
                          stdout=subprocess.DEVNULL)
        assert child.returncode == 0, child.stderr.decode()
        peaks.append(int(child.stderr))
    assert abs(peaks[1] - peaks[0]) <= 1024, peaks


# the nine modules a traced benchmark run patches after importing the CLI
CLI_MODULES = ("operad", "oscillator", "lax", "bianchi", "ncalg", "qjacobi",
               "suites", "report", "cli")

# float and exact results of the lax routines that compute without numpy
LAX_WITHOUT_NUMPY = """
from fractions import Fraction
from oplax.bianchi import BianchiLabel, BianchiType, label_params
from oplax.lax import (antisymmetric, build_mu, mu_slots, mu_time_derivative,
                       solve_C)
from oplax.oscillator import HOParams, PhasePoint, trajectory

params = HOParams(1.3, 0.9)
pt = trajectory(params, 0.7)
C = label_params(BianchiLabel(BianchiType.VIA, 0.4), params.p0)
mu = build_mu(C, params, pt)
p0 = Fraction(9, 8)
exact = PhasePoint(t=0, q=0, p=p0, Q=0, P=Fraction(3, 2), H=p0 * p0 / 2)
row = antisymmetric((0, Fraction(-1, 2), 1, 0, 0, 0, 0, 1, Fraction(1, 2)))
results = [
    C, mu, mu_slots(C, params.omega, pt.q, pt.p, pt.Q, pt.P),
    mu_time_derivative(C, params, pt), solve_C(mu, pt.p),
    label_params(BianchiLabel(BianchiType.IIIA1), params.p0),
    build_mu(solve_C(row, p0), HOParams(Fraction(1), p0), exact) == row,
]
"""

# the lax routines that load numpy, each called once
LAX_WITH_NUMPY = """
from oplax.lax import (build_L, build_M, phase_points, verify_matrix_lax,
                       verify_operadic_lax)
from oplax.bianchi import BianchiLabel, BianchiType, label_params
from oplax.oscillator import HOParams, trajectory

params = HOParams(1.3, 0.9)
C = label_params(BianchiLabel(BianchiType.VIIA, 0.7), params.p0)
calls = {
    "build_M": lambda: build_M(1.3),
    "build_L": lambda: build_L(params, trajectory(params, 0.5)),
    "phase_points": lambda: phase_points(params, 0.5),
    "verify_matrix_lax": lambda: verify_matrix_lax(params, 0.5),
    "verify_operadic_lax": lambda: verify_operadic_lax(C, params, 0.5),
}
"""


class TestNumpyOnlyWhereItComputes:
    """The CLI starts without numpy; the tables and the jacobi report never
    load it, and the lax routines load it only where the module docstring
    says they do."""

    def test_import_leaves_numpy_out(self):
        child = run_child("import json, sys\nimport oplax.cli\n"
                          "print(json.dumps(sorted(sys.modules)))")
        assert child.returncode == 0, child.stderr.decode()
        loaded = json.loads(child.stdout)
        assert "numpy" not in loaded
        assert {f"oplax.{name}" for name in CLI_MODULES} <= set(loaded)

    def test_clean_import_leaves_start_up_modules_out(self):
        """Without site (-S), whose .pth files may import typing, importing
        the CLI loads none of numpy, dataclasses (and the inspect it pulls
        in) or typing."""
        child = run_child("import json, sys\nimport oplax.cli\n"
                          "print(json.dumps(sorted(sys.modules)))",
                          flags=("-S",))
        assert child.returncode == 0, child.stderr.decode()
        loaded = set(json.loads(child.stdout))
        assert not {"numpy", "dataclasses", "inspect", "typing"} & loaded
        assert {f"oplax.{name}" for name in CLI_MODULES} <= loaded

    @pytest.mark.parametrize("argv", (
        ("deform", "--label", "VIIa", "--a", "0.7", "--t0", "-1e1",
         "--steps", "40"),
        ("deform", "--label", "IIIa1", "--steps", "40", "--format", "json"),
        ("trajectory", "--omega", "1.3", "--steps", "40", "--format", "json"),
        ("spectrum", "--n-max", "12"),
        ("jacobi", "--label", "VIa", "--convention", "right",
         "--alphabet", "qpPQ"),
        ("jacobi", "--label", "VIIa", "--format", "json"),
    ))
    def test_command_runs_with_numpy_blocked(self, capsys, argv):
        child = run_child(NO_NUMPY + "from oplax.cli import main\n"
                          "raise SystemExit(main(sys.argv[1:]))", *argv)
        assert child.returncode == 0, child.stderr.decode()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert child.stdout == out.encode()

    def test_block_stops_numpy_commands(self):
        """The block is real: verify computes with numpy and fails."""
        child = run_child(NO_NUMPY + "from oplax.cli import main\n"
                          "main(['verify', '--target', 'lax'])")
        assert child.returncode == 1
        assert b"import of numpy halted" in child.stderr

    def test_lax_routines_without_numpy(self):
        child = run_child(NO_NUMPY + LAX_WITHOUT_NUMPY
                          + "print(repr(results))")
        assert child.returncode == 0, child.stderr.decode()
        namespace = {}
        exec(LAX_WITHOUT_NUMPY, namespace)
        assert namespace["results"][-1] is True
        assert child.stdout.decode() == repr(namespace["results"]) + "\n"

    def test_lax_routines_that_load_numpy(self):
        child = run_child(
            NO_NUMPY + LAX_WITH_NUMPY
            + "for name, call in calls.items():\n"
            "    try:\n"
            "        call()\n"
            "    except ImportError:\n"
            "        print(name)\n")
        assert child.returncode == 0, child.stderr.decode()
        namespace = {}
        exec(LAX_WITH_NUMPY, namespace)
        assert child.stdout.decode().split() == list(namespace["calls"])
        for call in namespace["calls"].values():
            call()
