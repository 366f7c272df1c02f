"""Workload inputs: the CLI invocations of one pass, generated from a seed.

A workload is a list of operations ``(key, argv)``; one pass runs every
operation once through ``oplax.cli.main``.  The same seed always gives the
same list.  Both the measured worker and the checking parent call
``operations`` so that they agree on what was asked.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("verify_all", "quantum_jacobi", "flow_tables")

# (label, convention, alphabet) as spelled on the command line
JACOBI_CONFIGS = tuple((label, conv, alphabet)
                       for label in ("VIIa", "IIIa1", "VIa")
                       for conv in ("left", "right")
                       for alphabet in ("pq", "qpPQ"))

DEFORM_STEPS = 1500
TRAJECTORY_STEPS = 6000


def flow_inputs(seed: int) -> dict:
    """Oscillator data and the deformable labels of ``flow_tables``.

    a is drawn below and above 1 for VIIa and VIa, so both sides of the
    VIa exclusion a != 1 are covered.
    """
    rng = random.Random(seed)
    return {
        "omega": rng.uniform(0.5, 2.0),
        "energy": rng.uniform(0.25, 4.0),
        "t1": rng.uniform(2 * math.pi, 8 * math.pi),
        "labels": (("VIIa", rng.uniform(0.2, 0.95)),
                   ("VIIa", rng.uniform(1.05, 3.0)),
                   ("IIIa1", None),
                   ("VIa", rng.uniform(0.2, 0.95)),
                   ("VIa", rng.uniform(1.05, 3.0))),
    }


def operations(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    if workload == "verify_all":
        return [("verify", ["verify", "--target", "all", "--format", "json",
                            "--seed", str(seed)])]
    if workload == "quantum_jacobi":
        # the order decides the order in which the normal_word caches fill
        order = list(JACOBI_CONFIGS)
        random.Random(seed).shuffle(order)
        return [(f"jacobi.{label}.{conv}.{alphabet}",
                 ["jacobi", "--label", label, "--convention", conv,
                  "--alphabet", alphabet, "--format", "json"])
                for label, conv, alphabet in order]
    if workload == "flow_tables":
        inp = flow_inputs(seed)
        flow = ["--omega", repr(inp["omega"]), "--energy", repr(inp["energy"]),
                "--t1", repr(inp["t1"])]
        ops = []
        for fmt in ("csv", "json"):
            for n, (label, a) in enumerate(inp["labels"]):
                argv = ["deform", "--label", label]
                if a is not None:
                    argv += ["--a", repr(a)]
                ops.append((f"deform.{n}.{fmt}",
                            argv + flow + ["--steps", str(DEFORM_STEPS),
                                           "--format", fmt]))
            ops.append((f"trajectory.{fmt}",
                        ["trajectory"] + flow
                        + ["--steps", str(TRAJECTORY_STEPS), "--format", fmt]))
        return ops
    raise ValueError(f"unknown workload {workload!r}")
