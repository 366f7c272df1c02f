"""End-to-end acceptance: every verification suite at fixed seeds.

The checks live in ``oplax.suites``, the code ``oplax verify`` runs; this
file only runs them.  Each run prints the suite's report, one PASS/FAIL
line per case (shown by ``pytest -s``), and must report exactly the
expected cases, all passing, within the wall-time gate.  A suite run
that several tests read is made once per session.
"""

import functools
import time

import pytest

from oplax.suites import ALL_SUITES

LABELS = ("VIIa", "IIIa1", "VIa")

CASES = {
    "operad": {"graded_antisymmetry", "graded_jacobi_relative"},
    "lax": {"phase_constraints", "quasi_canonical_velocities", "poisson_PQ",
            "matrix_lax_fd", "operadic_lax_analytic", "operadic_lax_fd",
            "unary_bracket_is_commutator"},
    "bianchi": {"deformation_closed_forms", "solve_build_roundtrip_exact",
                "classical_jacobi_on_shell", "antisymmetry"},
    "quantum": {"xi1_exact_identity", "xi2_exact_identity",
                "spectrum_determinant", "jacobi_theorem_machine_check"}
    | {f"{case}_{tag}" for tag in LABELS
       for case in ("corollary_HE", "derivative_C", "derivative_beta_sq",
                    "heisenberg_identification")}
    | {f"jacobi_delta_divisible_{tag}_{alphabet}" for tag in LABELS
       for alphabet in ("PQ", "qpPQ")},
}


@functools.cache
def _run(name, seed):
    """Run one suite once per session; print it and check its gates."""
    start = time.monotonic()
    report = ALL_SUITES[name](seed=seed)
    elapsed = time.monotonic() - start
    print(report.render_text())
    assert sorted(c.case_id for c in report.cases) == sorted(CASES[name])
    assert report.passed
    assert elapsed < 10.0
    return report


def _check(name, seed, case_ids):
    """The named cases of one suite run exist and pass."""
    results = {c.case_id: c.passed for c in _run(name, seed).cases}
    for case_id in case_ids:
        assert results[case_id], case_id


@pytest.mark.parametrize("name, seed", (
    ("operad", 1001), ("lax", 1006), ("bianchi", 1004)))
def test_suite(name, seed):
    _run(name, seed)


def test_02_matrix_lax_equation():
    _check("lax", 1003, ["matrix_lax_fd"])


def test_03_operadic_lax_equation():
    _check("lax", 1003, ["operadic_lax_analytic", "operadic_lax_fd",
                         "unary_bracket_is_commutator"])


def test_07_exact_semiclassical_identities():
    _check("quantum", 42, ["xi1_exact_identity", "xi2_exact_identity"]
           + [f"corollary_HE_{tag}" for tag in LABELS])


def test_08_derivative_algebra_constants():
    _check("quantum", 42, [f"{case}_{tag}" for tag in LABELS
                           for case in ("derivative_C", "derivative_beta_sq",
                                        "heisenberg_identification")])


def test_09_spectrum_determinant():
    _check("quantum", 42, ["spectrum_determinant"])


def test_10_quantum_jacobi_theorem_two_branch():
    _check("quantum", 42, ["jacobi_theorem_machine_check"]
           + [f"jacobi_delta_divisible_{tag}_{alphabet}"
              for tag in LABELS for alphabet in ("PQ", "qpPQ")])
