#!/usr/bin/env python3
"""Paired benchmark of two revisions of oplax, written as a BENCH_<n>.json.

    python3 scripts/bench_pair.py --parent HEAD~1 --first-seed 141 \\
        --claim quantum_jacobi:setup_s --out BENCH_14.json

Run from the repository.  The parent revision and HEAD are cloned from it
into a temporary directory and checked out detached; a clone, unlike a
worktree, leaves nothing in the repository's own .git when a run is cut
short.  For every workload of BENCHMARK.json (HEAD's copy), pair i of 10
runs ``perfbench/run.py --trace 0`` at seed first_seed + i on each side,
for BENCHMARK.json's run_seconds, one run at a time: the parent first in
even pairs, HEAD first in odd ones.  Then each side makes one traced run
(``--trace 1``) of every workload at seed 61, the traced seed of the
earlier BENCH files, so that their call counts compare.

For each end-to-end metric the record gives both sides' median, quartiles
(statistics.quantiles(n=4)), interquartile range and runs, the relative
change of the median, the pairs the change won and lost, and whether the
change stays within the metric's bound.  The claim, if one is named, is
met when the change wins at least 9 of 10 pairs, ties counting for
neither side, and its median beats the parent's by more than the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_TIMEOUT_S = 900
PAIRS = 10
TRACE_SEED = 61
CLAIM_SHARE = 0.9
CLAIM_RULE = ("change wins >= 9/10 of pairs and the median improves by more "
              "than the parent's interquartile range")


def quartiles(runs) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": list(runs)}


def summarise(parent, change, better: str, bound: float) -> dict:
    """Compare one metric's runs, parent[i] and change[i] being pair i."""
    sign = 1 if better == "lower" else -1
    p, c = quartiles(parent), quartiles(change)
    gains = [sign * (a - b) for a, b in zip(parent, change, strict=True)]
    relative = (c["median"] - p["median"]) / p["median"]
    return {"bound": bound, "parent": p, "change": c,
            "relative_change": relative,
            "pairs_won": sum(g > 0 for g in gains),
            "pairs_lost": sum(g < 0 for g in gains),
            "ties": sum(g == 0 for g in gains),
            "regression_check": ("within bound" if sign * relative <= bound
                                 else "beyond bound")}


def summarise_workload(end_to_end, results, seeds, order) -> dict:
    """The record of one workload: results[side][i] is the last stdout line
    of side's run in pair i, and end_to_end BENCHMARK.json's metric list."""
    def runs(side, name):
        return [r["metrics"][name]["value"] for r in results[side]]
    return {
        "pairs": len(seeds), "seeds": list(seeds),
        "first_in_pair": [first for first, _ in order],
        "correct": all(r["correct"] for rs in results.values() for r in rs),
        "failed_operations": {side: sum(r["failed"] for r in rs)
                              for side, rs in results.items()},
        "attempted_operations": {side: sum(r["attempted"] for r in rs)
                                 for side, rs in results.items()},
        "metrics": {m["name"]: {"unit": m["unit"], **summarise(
            runs("parent", m["name"]), runs("change", m["name"]),
            m["better"], m["bound"])} for m in end_to_end},
    }


def claim_verdict(summary: dict, better: str) -> dict:
    """Whether a summarised metric carries a speed claim."""
    pairs = len(summary["parent"]["runs"])
    drop = summary["parent"]["median"] - summary["change"]["median"]
    drop *= 1 if better == "lower" else -1
    iqr = summary["parent"]["iqr"]
    met = (summary["pairs_won"] >= CLAIM_SHARE * pairs and drop > iqr)
    return {"pairs_won": summary["pairs_won"], "pairs": pairs,
            "median_gain": drop, "parent_iqr": iqr, "met": met}


def script_line(args: argparse.Namespace) -> str:
    """The command that wrote the record, as protocol.script gives it: --out
    by its file name, which is where the record is committed."""
    words = ["scripts/bench_pair.py", "--parent", args.parent,
             "--first-seed", str(args.first_seed)]
    if args.claim:
        words += ["--claim", args.claim]
    for note in args.note:
        words += ["--note", note]
    return shlex.join(words + ["--out", args.out.name])


def checkout(repo: Path, rev: str, where: Path) -> str:
    """Clone repo into where at rev, detached; return the full revision."""
    def git(*args, cwd=None):
        return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                              capture_output=True).stdout.strip()
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=repo)
    git("clone", "-q", "--no-checkout", str(repo), str(where))
    git("checkout", "-q", "--detach", sha, cwd=where)
    return sha


def perfbench(side: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One perfbench run; its last stdout line, as a dict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=side, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{side.name} {workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def provenance(revisions: dict) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "parent_revision": revisions["parent"],
            "change_revision": revisions["change"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    parser.add_argument("--note", action="append", default=[])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.first_seed < 0:
        parser.error("--first-seed must be >= 0")
    repo = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"],
                               check=True, text=True, capture_output=True)
                .stdout.strip())

    # a terminated run still removes its clones: SystemExit unwinds the
    # with block, and subprocess.run kills the perfbench run it waits on
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        sides = {name: Path(tmp, name) for name in ("parent", "change")}
        revisions = {name: checkout(repo, rev, sides[name])
                     for name, rev in (("parent", args.parent),
                                       ("change", "HEAD"))}
        spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        workloads = [w["name"] for w in spec["workloads"]]
        seeds = list(range(args.first_seed, args.first_seed + PAIRS))
        order = [("parent", "change") if i % 2 == 0 else ("change", "parent")
                 for i in range(PAIRS)]
        record = {"workloads": {}, "per_layer_trace": {}}
        for workload in workloads:
            results = {"parent": [], "change": []}
            for seed, first_second in zip(seeds, order):
                for name in first_second:
                    results[name].append(perfbench(sides[name], workload,
                                                   seed, seconds, 0))
                print(f"{workload} seed {seed}: " + "  ".join(
                    f"{name} " + " ".join(
                        f"{k}={v['value']:.4g}" for k, v in
                        results[name][-1]["metrics"].items())
                    for name in ("parent", "change")), flush=True)
            record["workloads"][workload] = summarise_workload(
                spec["end_to_end"], results, seeds, order)
        for workload in workloads:
            record["per_layer_trace"][workload] = {"seed": TRACE_SEED}
            for name in ("parent", "change"):
                res = perfbench(sides[name], workload, TRACE_SEED, seconds,
                                1)
                record["per_layer_trace"][workload][name] = {
                    k: v["value"] for k, v in res["metrics"].items()}

    claim = None
    if args.claim:
        workload, metric = args.claim.split(":")
        better = next(m["better"] for m in spec["end_to_end"]
                      if m["name"] == metric)
        claim = {"workload": workload, "metric": metric, "rule": CLAIM_RULE,
                 **claim_verdict(
                     record["workloads"][workload]["metrics"][metric],
                     better)}
    out = {
        "claim": claim,
        "protocol": {
            "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                       f"--seconds {seconds:g} --trace 0",
            "traced_command": "python3 perfbench/run.py --workload <w> "
                              f"--seed {TRACE_SEED} --seconds {seconds:g} "
                              "--trace 1",
            "order": "pairs alternate which side runs first, starting with "
                     "the parent; each side runs from its own clone at its "
                     "revision; workloads in the order "
                     + ", ".join(workloads) + ", one run at a time",
            "script": script_line(args),
            "quartiles": "statistics.quantiles(n=4), as perfbench/steady.py",
        },
        "provenance": provenance(revisions),
        **record,
        "notes": args.note,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    if claim:
        print(f"claim {claim['workload']} {claim['metric']}: "
              f"{'met' if claim['met'] else 'NOT met'} "
              f"({claim['pairs_won']}/{claim['pairs']} pairs, gain "
              f"{claim['median_gain']:.4g} vs parent IQR "
              f"{claim['parent_iqr']:.4g})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
