"""One fresh interpreter that runs a workload through ``oplax.cli.main``.

    python3 perfbench/worker.py <workload> <seed> setup|timed|trace [<warm passes | seconds> [capture]]

Modes:
  setup  import oplax.cli, generate the inputs, print ``ready`` and exit;
  timed  after ``ready``: one cold pass, then the given number of warm
         passes, each timed with the cyclic GC collected beforehand and
         between two timings of the reference work of ``speed.py``; with
         ``capture``, one more pass after the peak resident set is read
         keeps every operation's output text;
  trace  after ``ready``: a traced cold pass that keeps the output text,
         then warm passes alternating between untraced and traced for the
         given number of seconds.

Passes that keep no text only hash what each operation prints, as it is
printed, so the measured memory holds no captured output.  The parent
measures set-up from spawn to the ``ready`` line.  The last line is one
JSON object: per-pass times, the exit code and a digest of every
operation's output, the peak resident set, and the kept output texts.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import statistics
import sys
import traceback
from time import perf_counter

import oplax.cli as cli

from workloads import operations


class Digest(io.TextIOBase):
    """A text stream that keeps only the SHA-256 of what is written."""

    def __init__(self):
        super().__init__()
        self.sha = hashlib.sha256()

    def writable(self):
        return True

    def write(self, text):
        self.sha.update(text.encode())
        return len(text)

    def getvalue(self):
        return self.sha.hexdigest()


def run_pass(ops, capture=False):
    """Run every operation once; return the seconds taken and, per
    operation, (key, exit code, output digest, output text or None)."""
    outputs = []
    gc.collect()
    start = perf_counter()
    for key, argv in ops:
        out = io.StringIO() if capture else Digest()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(Digest()):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash fails this operation, not the run
                rc = traceback.format_exc(limit=-3)
        outputs.append((key, rc, out.getvalue()))
    elapsed = perf_counter() - start
    if capture:
        outputs = [(key, rc, hashlib.sha256(text.encode()).hexdigest(), text)
                   for key, rc, text in outputs]
    else:
        outputs = [(key, rc, digest, None) for key, rc, digest in outputs]
    return elapsed, outputs


def summary(outputs):
    return [[key, rc, digest] for key, rc, digest, _ in outputs]


def peak_rss_kb() -> int:
    """VmHWM of this process.  ru_maxrss is not used: Linux carries it
    over from the parent through fork and exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    ops = operations(workload, seed)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"oplax imported from {cli.__file__}, not {src}")
    print("ready", flush=True)
    if mode == "setup":
        return
    arg = float(sys.argv[4])
    result = {"passes": []}
    if mode == "timed":
        from speed import reference_s
        result["pass_s"], result["reference_s"] = [], [reference_s()]
        for _ in range(1 + int(arg)):
            elapsed, outputs = run_pass(ops)
            result["reference_s"].append(reference_s())
            result["pass_s"].append(elapsed)
            result["passes"].append(summary(outputs))
        result["peak_rss_kb"] = peak_rss_kb()
        texts = []
        if sys.argv[5:] == ["capture"]:
            _, texts = run_pass(ops, capture=True)
            result["passes"].append(summary(texts))
    elif mode == "trace":
        from layers import Tracer
        deadline = perf_counter() + arg
        tracer = Tracer()
        tracer.install()
        _, texts = run_pass(ops, capture=True)
        tracer.uninstall()
        nw = tracer.calls["ncalg.CommutationTable.normal_word"]
        result["hit_ratio"] = 1 - tracer.cache_growth() / nw if nw else 0.0
        result["passes"].append(summary(texts))
        untraced, traced, layer = [], [], {}
        while perf_counter() < deadline or not traced:
            elapsed, outputs = run_pass(ops)
            untraced.append(elapsed)
            result["passes"].append(summary(outputs))
            tracer.reset()
            tracer.install()
            elapsed, outputs = run_pass(ops)
            tracer.uninstall()
            traced.append(elapsed)
            result["passes"].append(summary(outputs))
            calls = dict(tracer.calls)
            if layer and calls != layer["calls"]:
                raise SystemExit("call counts differ between traced passes")
            layer["calls"] = calls
            for name, s in tracer.self_s.items():
                layer.setdefault("self_s", {}).setdefault(name, []).append(s)
        layer["self_s"] = {name: statistics.median(v)
                           for name, v in layer["self_s"].items()}
        layer["max_terms"] = tracer.max_terms
        layer["warm_s"] = statistics.median(untraced)
        layer["traced_s"] = statistics.median(traced)
        # adjacent passes see nearly the same machine speed
        layer["overhead_s"] = statistics.median(
            t - u for u, t in zip(untraced, traced))
        result["layer"] = layer
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["outputs"] = [[key, rc, text] for key, rc, _, text in texts]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
