#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py --runs 10

Run from the repository root.  Each set makes ``--runs`` runs of every
workload in BENCHMARK.json with its ``run_seconds``, each run with its own
seed (set A uses 1000 + i, set B 2000 + i); runs alternate between the
sets and the workloads are interleaved.  For every workload and
end-to-end metric it prints each set's median, quartiles and sample count,
the quartile spread (q3 - q1) / median, and whether

* the spread is within the metric's bound,
* the two sets' medians differ by no more than the bound, in either
  direction,
* the share of failed operations is the same in both sets.

Exit code 0 when every line agrees.  The same table is printed for the
raw wall-time medians of each run (read from the runs' records, before
the rescaling to the reference speed of ``speed.py``); it is shown for
comparison and does not decide the exit code.  All values go to
``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:"
                         f"\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((OUT / f"{workload}-seed{seed}-timed.json")
                        .read_text())
    result["raw"] = dict(record["samples"]["raw_medians"],
                         peak_rss_mb=result["metrics"]["peak_rss_mb"]["value"])
    return result


def verdicts(spec, workloads, values, title):
    """Print the table for ``values[set][workload][metric]`` (lists of run
    values); return True when every spread and every comparison holds."""
    ok = True
    print(f"\n{title}\n{'workload':15} {'metric':12} set  n    median"
          "        q1        q3  spread  bound  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            med = {}
            for s in "AB":
                v = values[s][w][m["name"]]
                q1, med[s], q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med[s]
                steady = spread <= m["bound"]
                ok &= steady
                print(f"{w:15} {m['name']:12} {s}  {len(v):2} "
                      f"{med[s]:9.4g} {q1:9.4g} {q3:9.4g} {spread:7.3f} "
                      f"{m['bound']:6.3f}  "
                      f"{'steady' if steady else 'SPREAD > BOUND'}")
            change = (med["B"] - med["A"]) / med["A"]
            agree = abs(change) <= m["bound"]
            ok &= agree
            print(f"{w:15} {m['name']:12} B vs A: {change:+.3f} "
                  f"{'agree' if agree else 'DISAGREE'}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2 to give quartiles")

    results = {s: {w: [] for w in workloads} for s in "AB"}
    for i in range(args.runs):
        for s in ("AB" if i % 2 == 0 else "BA"):
            seed = (1000 if s == "A" else 2000) + i
            for w in workloads:
                res = run_once(w, seed, spec["run_seconds"])
                results[s][w].append(res)
                print(f"set {s} run {i} {w}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                    flush=True)

    def table(get):
        return {s: {w: {m["name"]: [get(r, m["name"]) for r in results[s][w]]
                        for m in spec["end_to_end"]} for w in workloads}
                for s in "AB"}

    ok = verdicts(spec, workloads,
                  table(lambda r, name: r["metrics"][name]["value"]),
                  "Reported metrics")
    verdicts(spec, workloads, table(lambda r, name: r["raw"][name]),
             "Raw wall-time medians (for comparison; not gated)")
    print()
    for w in workloads:
        shares = {s: sum(r["failed"] for r in results[s][w])
                  / sum(r["attempted"] for r in results[s][w]) for s in "AB"}
        same = shares["A"] == shares["B"]
        ok &= same
        print(f"{w:15} failed share A {shares['A']:.4g} B {shares['B']:.4g} "
              f"{'same' if same else 'DIFFERENT'}")
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(results, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
