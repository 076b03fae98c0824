"""The benchmark's own load generator, clock and percentile rule.

Nothing here imports the program: a change to ``repro.serve.loadgen`` cannot
move this ruler.  The open loop sends each operation at its scheduled time
whether or not earlier ones finished, charges latency from the scheduled
time, and records how late the generator itself dispatched each operation.
"""

from __future__ import annotations

import asyncio
import gc
import math
import resource
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, List, Optional, Sequence, Tuple

import numpy as np

#: The one clock every benchmark timing reads (monotonic, sub-microsecond).
clock = time.perf_counter

#: Percentiles the rule may report, highest first.
REPORTABLE_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Lateness growth (last quarter's mean minus first quarter's) that marks a
#: run whose generator fell behind its schedule, i.e. a growing backlog.
LATENESS_GROWTH_LIMIT_MS = 5.0


def _rank(pct: float, count: int) -> int:
    """1-based nearest rank of ``pct`` among ``count`` sorted samples."""
    return max(1, math.ceil(pct * count / 100.0 - 1e-9))


def supported_percentile(count: int) -> Optional[float]:
    """The highest reportable percentile with at least ten samples beyond it."""
    for pct in REPORTABLE_PERCENTILES:
        if count - _rank(pct, count) >= 10:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% of samples at or below it."""
    if not len(values):
        raise ValueError("percentile of an empty sample")
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    return float(ordered[_rank(pct, len(ordered)) - 1])


def timed(function: Callable, *args, **kwargs) -> Tuple[object, float]:
    """Call ``function`` after a full garbage collection; returns (result, seconds).

    Every timed section starts from a collected heap, so its time does not
    depend on how much garbage the section before it left behind.
    """
    gc.collect()
    start = clock()
    result = function(*args, **kwargs)
    return result, clock() - start


def poisson_arrivals(count: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Scheduled send times (seconds from start) of a Poisson process at ``rate``."""
    if count <= 0 or rate <= 0:
        raise ValueError("count and rate must be positive")
    gaps = rng.exponential(1.0 / rate, size=count)
    gaps[0] = 0.0
    return np.cumsum(gaps)


@dataclass
class OpenLoopRun:
    """Per-operation outcome of one open-loop pass, in operation order."""

    arrivals: np.ndarray
    #: completion time minus scheduled time, seconds
    latencies: np.ndarray
    #: actual dispatch time minus scheduled time, seconds
    lateness: np.ndarray
    results: List[object]
    errors: List[Optional[BaseException]]
    wall_s: float
    cpu_s: float

    @property
    def failed(self) -> int:
        return sum(error is not None for error in self.errors)

    def latency_ms(self, pct: float, mask: Optional[np.ndarray] = None) -> float:
        values = self.latencies if mask is None else self.latencies[mask]
        return 1000.0 * percentile(values, pct)

    @property
    def lateness_ms_p99(self) -> float:
        return 1000.0 * percentile(self.lateness, 99.0)

    @property
    def lateness_growth_ms(self) -> float:
        """Mean lateness of the last quarter minus that of the first quarter."""
        quarter = max(1, len(self.lateness) // 4)
        return 1000.0 * float(np.mean(self.lateness[-quarter:]) - np.mean(self.lateness[:quarter]))

    @property
    def backlog_grew(self) -> bool:
        return self.lateness_growth_ms > LATENESS_GROWTH_LIMIT_MS


def cpu_seconds() -> float:
    """User plus system CPU time of this process (all its threads) so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_open_loop(
    operations: Sequence[Callable[[], object]],
    arrivals: np.ndarray,
    asynchronous: Sequence[bool],
) -> OpenLoopRun:
    """Send ``operations[i]`` at ``arrivals[i]`` seconds after the start.

    An operation is a zero-argument callable.  Where ``asynchronous[i]`` is
    true it returns an awaitable that joins the event loop; otherwise it is
    a blocking call run inline on the loop.  The generator is one thread of
    one process.  Every operation is started as a task in schedule order, so
    operations on shared state take effect in that order.  A raised
    exception is recorded for its operation and never retried.  A full
    garbage collection runs first, so that a pass does not inherit the
    collection debt of whatever ran before it.
    """
    count = len(operations)
    if count != len(arrivals) or count != len(asynchronous):
        raise ValueError("operations, arrivals and asynchronous flags must align")
    latencies = np.zeros(count)
    lateness = np.zeros(count)
    results: List[object] = [None] * count
    errors: List[Optional[BaseException]] = [None] * count

    async def one(index: int, start: float) -> None:
        lateness[index] = clock() - start - arrivals[index]
        try:
            if asynchronous[index]:
                awaitable: Awaitable = operations[index]()
                results[index] = await awaitable
            else:
                results[index] = operations[index]()
        except Exception as error:  # counted as a failure of this operation
            errors[index] = error
        latencies[index] = clock() - start - arrivals[index]

    async def drive() -> float:
        tasks = []
        start = clock()
        for index in range(count):
            delay = arrivals[index] - (clock() - start)
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(one(index, start)))
        await asyncio.gather(*tasks)
        return clock() - start

    gc.collect()
    cpu_before = cpu_seconds()
    wall = asyncio.run(drive())
    return OpenLoopRun(np.asarray(arrivals, dtype=np.float64), latencies, lateness,
                       results, errors, wall, cpu_seconds() - cpu_before)
