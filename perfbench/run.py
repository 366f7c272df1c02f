#!/usr/bin/env python3
"""Benchmark of oplax through its CLI, end to end or per layer.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` makes a separate traced run for the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every output passed its checks.  A detailed record (every
sample, the problems found, provenance) goes to ``perfbench/out/``.

Every measurement is taken in fresh interpreters started from this
process, one at a time, with PYTHONHASHSEED=0 and one BLAS thread:

* set-up-only interpreters import ``oplax.cli`` and generate the inputs;
* timed interpreters then run one cold pass and a fixed number of warm
  passes (a pass is every operation of the workload once); the first
  also runs one unmeasured pass that keeps the outputs for the checks;

and the two kinds alternate until ``--seconds`` have passed.  Times are
reported at the reference speed of ``speed.py``; the raw medians are in
the detailed record.  Outputs are checked here, after the measuring,
never inside a measured process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from checks import CHECKS  # noqa: E402
from layers import metric_specs, span_names  # noqa: E402
from speed import at_reference_speed, reference_s  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402

# warm passes per timed interpreter, so that one interpreter takes a few
# seconds and a run holds several cold samples
WARM_PASSES = {"verify_all": 1, "quantum_jacobi": 2, "flow_tables": 1}
WORKER_TIMEOUT_S = 150

END_TO_END = (("setup_s", "s"), ("cold_s", "s"), ("warm_s", "s"),
              ("peak_rss_mb", "MB"))


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    return env


def spawn(workload, seed, mode, *args):
    """Run one worker; return (seconds from spawn to ready, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode,
           *map(str, args)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if ready != "ready\n" or proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: "
                          f"{ready}{out[-500:]}{err[-2000:]}")
    return setup_s, (json.loads(out.splitlines()[-1]) if mode != "setup"
                     else None)


def judge(workload, seed, ops, workers):
    """Check the outputs the first worker kept, then count every operation
    of every pass as failed when its exit code is not 0, its output differs
    from the kept output, or the kept output failed a check."""
    texts = {key: text for key, _, text in workers[0]["outputs"]}
    problems = CHECKS[workload](ops, texts, seed)
    digests = {key: hashlib.sha256(text.encode()).hexdigest()
               for key, text in texts.items()}
    attempted = failed = 0
    for res in workers:
        for summary in res["passes"]:
            if [key for key, _, _ in summary] != [key for key, _ in ops]:
                raise WorkerError("a pass ran other operations")
            for key, rc, digest in summary:
                attempted += 1
                if rc != 0 and not problems[key]:
                    problems[key].append(f"exit code {rc}")
                failed += not (rc == 0 and digest == digests[key]
                               and not problems[key])
    return attempted, failed, {k: v for k, v in problems.items() if v}


def timed_run(workload, seed, seconds):
    """Times are rescaled to the reference speed of ``speed.py`` by the
    reference work timed just before and just after each interval: around
    each set-up (here before the spawn; after it here, or in the timed
    worker before its first pass) and around each pass in the worker."""
    intervals = {"setup_s": [], "cold_s": [], "warm_s": []}
    rss, workers = [], []
    start = perf_counter()
    ref = reference_s()
    while True:
        setup_s = spawn(workload, seed, "setup")[0]
        ref_after = reference_s()
        intervals["setup_s"].append((setup_s, (ref + ref_after) / 2))
        ref = ref_after
        t0 = perf_counter()
        # the first timed interpreter also keeps its outputs for the checks
        setup_s, res = spawn(workload, seed, "timed", WARM_PASSES[workload],
                             *([] if workers else ["capture"]))
        took = perf_counter() - t0
        refs = res["reference_s"]
        intervals["setup_s"].append((setup_s, (ref + refs[0]) / 2))
        for i, pass_s in enumerate(res["pass_s"]):
            intervals["cold_s" if i == 0 else "warm_s"].append(
                (pass_s, (refs[i] + refs[i + 1]) / 2))
        rss.append(res["peak_rss_kb"] / 1024)
        workers.append(res)
        # start another interpreter only if it ends near the deadline
        if perf_counter() + took / 2 > start + seconds:
            break
        ref = reference_s()
    # set-up is short, so each one is rescaled by its own reference timings
    metrics = {"setup_s": statistics.median(at_reference_speed([pair])
                                            for pair in intervals["setup_s"]),
               "cold_s": at_reference_speed(intervals["cold_s"]),
               "warm_s": at_reference_speed(intervals["warm_s"]),
               "peak_rss_mb": statistics.median(rss)}
    samples = {"intervals": intervals, "peak_rss_mb": rss,
               "raw_medians": {name: statistics.median(s for s, _ in pairs)
                               for name, pairs in intervals.items()}}
    return metrics, samples, workers


def traced_run(workload, seed, seconds):
    _, res = spawn(workload, seed, "trace", seconds)
    layer = res["layer"]
    names = span_names()
    unknown = set(layer["calls"]) - set(names)
    if unknown:
        raise WorkerError(f"spans outside the metric list: {sorted(unknown)}")
    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = layer["calls"].get(name, 0)
        metrics[f"{name}.self_s"] = layer["self_s"].get(name, 0.0)
    metrics["ncalg.normal_word.hit_ratio"] = res["hit_ratio"]
    metrics["ncalg.NCPoly.max_terms"] = layer["max_terms"]
    metrics["trace.overhead_s"] = layer["overhead_s"]
    samples = {"warm_s": layer["warm_s"], "traced_s": layer["traced_s"]}
    return metrics, samples, [res]


def provenance() -> dict:
    head = ROOT / ".git" / "HEAD"
    revision = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            revision = ref_file.read_text().strip() if ref_file.is_file() \
                else ref
        else:
            revision = ref
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "git_revision": revision,
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "oplax" / "cli.py").is_file():
        print(f"error: no oplax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    ops = operations(args.workload, args.seed)
    try:
        if args.trace:
            metrics, samples, workers = traced_run(args.workload, args.seed,
                                                   args.seconds)
            units = {name: unit for name, unit, _ in metric_specs()}
        else:
            metrics, samples, workers = timed_run(args.workload, args.seed,
                                                  args.seconds)
            units = dict(END_TO_END)
        attempted, failed, problems = judge(args.workload, args.seed, ops,
                                            workers)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = failed == 0
    for key, found in problems.items():
        for problem in found:
            print(f"check failed: {key}: {problem}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(), "samples": samples,
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "problems": problems}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / (f"{args.workload}-seed{args.seed}-"
                          f"{'trace' if args.trace else 'timed'}.json")
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
