"""How fast the CPU runs Python right now, from a fixed reference work.

On a shared machine the speed at which one core runs Python code drifts by
up to half over tens of seconds, as neighbours come and go; a wall-time
median over a 30 s run then depends on how much of the run fell in a slow
phase.  ``reference_s`` times a fixed piece of work of the same kinds as
oplax's (exact rational dict arithmetic on tuple keys, small numpy
contractions, float math) before and after every measured interval, and
``at_reference_speed`` rescales the intervals to the speed at which the
reference work takes ``REFERENCE_S`` seconds, about its time on an idle
core of the machine in README.md, where the spreads with and without
this rescaling are also given.
"""

from __future__ import annotations

import gc
import math
from fractions import Fraction
from time import perf_counter

import numpy as np

REFERENCE_S = 0.15


def _reference_work():
    for _ in range(3):
        _reference_piece()


def _reference_piece():
    a = {(i, j, (i * j) % 3): Fraction(i + 1, j + 2)
         for i in range(9) for j in range(9)}
    acc = {}
    for k1, c1 in a.items():
        for k2, c2 in a.items():
            key = tuple(x + y for x, y in zip(k1, k2))
            acc[key] = acc.get(key, 0) + c1 * c2
    m = np.arange(27.0).reshape(3, 3, 3)
    for _ in range(800):
        np.moveaxis(np.tensordot(m, m, axes=([1], [0])), 2, 1)
    s = 0.0
    for i in range(60000):
        s += math.sin(i * 0.001) * math.cos(i * 0.002)
    return len(acc), s


def reference_s() -> float:
    """Seconds the reference work takes now."""
    gc.collect()
    start = perf_counter()
    _reference_work()
    return perf_counter() - start


def at_reference_speed(intervals) -> float:
    """Mean length of the intervals at the reference speed.

    ``intervals`` holds pairs (seconds measured, reference seconds timed
    around that interval).  Sums, not per-interval ratios, are taken: one
    reference timing is a noisy estimate of the speed during a long pass,
    and the sums average that noise over the run.
    """
    measured = sum(s for s, _ in intervals)
    reference = sum(r for _, r in intervals)
    return REFERENCE_S * measured / reference
