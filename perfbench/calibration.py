"""Host-speed calibration: the benchmark's own reference kernel, timed beside the program.

On a shared machine the whole host runs faster or slower for seconds at a
time, and every compute-bound timing moves with it.  So each short timed
section of the program is bracketed by two timings of a fixed kernel that
imports nothing from the program (small matrix products, elementwise numpy
and Python dict work, the mix the program's small-tensor code runs).  The
section's time multiplied by ``REFERENCE_KERNEL_S`` over the mean of the two
kernel times is its time at the reference host speed.  No program change
can move the kernel.
"""

from __future__ import annotations

import gc
from typing import Callable, Tuple

import numpy as np

from perfbench.generator import clock

#: Median time of one ``kernel()`` call on the reference host, a 2-core
#: x86-64 box (Python 3.11, numpy 2.4, one OpenBLAS thread).
REFERENCE_KERNEL_S = 0.003

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((64, 64))
_VECTOR = _rng.standard_normal(4096)


def kernel() -> float:
    """Seconds one pass of the fixed reference work takes now."""
    start = clock()
    x, total = _MATRIX, 0.0
    for _ in range(60):
        x = np.tanh(x @ _MATRIX * 0.1)
        total += float(x.sum())
        squares = {j: j * j for j in range(100)}
        total += sum(squares.values())
        total += float(np.sort(_VECTOR)[10])
    elapsed = clock() - start
    if not np.isfinite(total):
        raise RuntimeError("reference kernel diverged")
    return elapsed


def speed_factor(before: float, after: float) -> float:
    """Reference kernel time over the mean of two kernel times (below 1 on a slower host)."""
    return 2.0 * REFERENCE_KERNEL_S / (before + after)


def calibrated(function: Callable, *args, **kwargs) -> Tuple[object, float, float]:
    """Call ``function`` between two kernel timings, after a full garbage collection.

    Returns (result, seconds, factor): a time multiplied by ``factor``, or a
    rate divided by it, is the figure at the reference host speed.
    """
    gc.collect()
    before = kernel()
    start = clock()
    result = function(*args, **kwargs)
    elapsed = clock() - start
    return result, elapsed, speed_factor(before, kernel())
