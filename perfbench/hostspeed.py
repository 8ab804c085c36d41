"""How fast the host runs Python right now, relative to a fixed nominal speed.

On a shared virtual machine the speed of a core swings by up to a factor of
two over seconds to minutes (other tenants on the same physical cores), and
process CPU time swings with it, so raw wall times of the same op list
differ more between runs than any change worth detecting.  The benchmark
therefore takes the host's slowdown just before and just after every op, on
the same pinned CPU, and divides the op's wall time by the mean of the two:
an op that took 1.2 s while the host ran 1.5x slower than nominal is
reported as 0.8 s.

The slowdown is the time of fixed reference work over its nominal time,
the time it takes on a quiet core of the 2-vCPU x86-64 VM the benchmark was
built on (CPython 3.11).  The reference work lives here, not in mfhh, so no
change to mfhh moves it.  Ops that start child interpreters spend most of
their time in interpreter start-up, which slows down differently from a
loop inside one process, so for them the slowdown is the geometric mean of
the loop's and that of starting ``python -S -c pass``.
"""

from __future__ import annotations

import gc
import math
import os
import subprocess
import sys
from time import perf_counter

LOOP_NOMINAL_S = 0.0031  # best of 8 runs of _loop()
START_NOMINAL_S = 0.015  # best of 2 starts of `python -S -c pass`


def _loop():
    # work like mfhh's: many small tuples, lists and dicts allocated and
    # freed, a sort and a dict over a working set larger than the L1 cache.
    # The cyclic collector is off meanwhile, so the time does not depend on
    # how many objects the ops so far have left on the heap.
    gc.disable()
    try:
        rows = [((i * 7919) % 10007, str(i)) for i in range(4000)]
        rows.sort()
        index = {key: [key, (key, name), {key: name}] for key, name in rows}
    finally:
        gc.enable()
    return len(index)


def _start():
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, timeout=60)


def _best_s(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def slowdown(children=False):
    """How many times slower than nominal the host runs now; with
    ``children``, for work that starts child interpreters."""
    loop = _best_s(_loop, 8) / LOOP_NOMINAL_S
    if not children:
        return loop
    return math.sqrt(loop * _best_s(_start, 2) / START_NOMINAL_S)


def scaled(seconds, before, after):
    """A wall time taken between two slowdown readings, at nominal speed."""
    return seconds / ((before + after) / 2)


def pin_to_one_cpu():
    """Run this process, and every child it starts, on one CPU, so the
    reference work and the op it brackets see the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
