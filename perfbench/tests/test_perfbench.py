"""Self-tests of the benchmark's generator, percentile rule, tracer and manifest."""

import json
import os
import time

import numpy as np
import pytest

from perfbench import generator, layers
from perfbench.calibration import REFERENCE_KERNEL_S, calibrated, speed_factor
from perfbench.generator import (
    percentile,
    poisson_arrivals,
    run_open_loop,
    supported_percentile,
)
from perfbench.run import END_TO_END, WORKLOADS
from perfbench.tracing import Target, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_arrivals_are_deterministic_per_seed_and_differ_across_seeds():
    first = poisson_arrivals(500, 200.0, np.random.default_rng(3))
    again = poisson_arrivals(500, 200.0, np.random.default_rng(3))
    other = poisson_arrivals(500, 200.0, np.random.default_rng(4))
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)
    assert first[0] == 0.0 and np.all(np.diff(first) >= 0)
    assert 500 / first[-1] == pytest.approx(200.0, rel=0.15)


def test_request_windows_are_deterministic_distinct_and_seed_dependent():
    from perfbench.workloads import window_requests
    from repro import load_dataset

    dataset = load_dataset("home-kitchen", scale=0.5)
    first = window_requests(dataset, 300, np.random.default_rng(1), 9)
    again = window_requests(dataset, 300, np.random.default_rng(1), 9)
    other = window_requests(dataset, 300, np.random.default_rng(2), 9)
    assert first == again
    assert first != other
    assert len(set(first)) == len(first)
    for user, history in first:
        items = dataset.sequence(user).item_ids
        assert 1 <= len(history) <= 9
        assert any(tuple(items[i:i + len(history)]) == history for i in range(len(items)))


@pytest.mark.parametrize("count, expected", [
    (10000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0), (40, 75.0),
    (20, 50.0), (19, None),
])
def test_supported_percentile_needs_ten_samples_beyond_it(count, expected):
    assert supported_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = np.arange(1, 101, dtype=float)[::-1]
    assert percentile(values, 50.0) == 50.0
    assert percentile(values, 99.0) == 99.0
    assert percentile(values, 100.0) == 100.0
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_open_loop_charges_latency_from_the_scheduled_time():
    """Blocking operations make later sends late; latency includes that lateness."""
    arrivals = np.arange(20) * 0.001

    def blocking():
        time.sleep(0.005)
        return "done"

    run = run_open_loop([blocking] * 20, arrivals, [False] * 20)
    assert run.failed == 0 and run.results == ["done"] * 20
    assert np.all(run.latencies >= run.lateness + 0.005 - 1e-4)
    # each send waits for the blocking ones before it: lateness grows ~4 ms a step
    assert run.lateness[-1] > run.lateness[0] + 0.05
    assert run.backlog_grew


def test_open_loop_keeps_schedule_when_idle_and_counts_failures():
    arrivals = np.arange(20) * 0.01

    async def quick(index):
        if index == 3:
            raise RuntimeError("boom")
        return index

    operations = [lambda i=i: quick(i) for i in range(20)]
    run = run_open_loop(operations, arrivals, [True] * 20)
    assert run.failed == 1 and isinstance(run.errors[3], RuntimeError)
    assert run.results[4] == 4
    assert not run.backlog_grew
    assert run.lateness_ms_p99 < generator.LATENESS_GROWTH_LIMIT_MS * 4
    assert run.wall_s >= arrivals[-1]


class _Owner:
    def outer(self):
        time.sleep(0.002)
        return self.inner()

    def inner(self):
        time.sleep(0.003)
        return 5


def test_tracer_wraps_nests_reports_self_time_and_restores():
    original_outer, original_inner = _Owner.outer, _Owner.inner
    tracer = Tracer()
    tracer.install([Target(_Owner, "outer", "outer"),
                    Target(_Owner, "inner", "inner", lambda a, k, r: {"value": r})])
    try:
        assert tracer.call("request", _Owner().outer, trace_id=7) == 5
    finally:
        tracer.uninstall()
    assert _Owner.outer is original_outer and _Owner.inner is original_inner
    spans = {span.name: span for span in tracer.spans}
    assert spans["inner"].parent == spans["outer"].span_id
    assert spans["outer"].parent == spans["request"].span_id
    assert {span.trace_id for span in tracer.spans} == {7}
    assert spans["inner"].attrs == {"value": 5}
    self_times = tracer.self_times()
    outer = spans["outer"]
    assert self_times[outer.span_id] == pytest.approx(
        outer.duration - spans["inner"].duration, abs=1e-9)
    assert self_times[spans["inner"].span_id] == pytest.approx(spans["inner"].duration)


def test_calibration_scales_to_the_reference_host_speed():
    # a host half as fast as the reference runs the kernel in twice the time
    assert speed_factor(2 * REFERENCE_KERNEL_S, 2 * REFERENCE_KERNEL_S) == pytest.approx(0.5)
    assert speed_factor(REFERENCE_KERNEL_S, 3 * REFERENCE_KERNEL_S) == pytest.approx(0.5)
    result, seconds, factor = calibrated(time.sleep, 0.01)
    assert result is None and seconds >= 0.01 and factor > 0


def test_samples_keep_measured_and_scaled_medians():
    from perfbench.workloads import Samples

    samples = Samples()
    for seconds in (1.0, 2.0, 3.0):
        samples.add_time(seconds, 0.5)
    assert samples.medians() == (1.0, 2.0)
    rates = Samples()
    rates.add_rate(100.0, 0.5)
    assert rates.medians() == (200.0, 100.0)


def test_manifest_matches_the_metrics_run_py_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == layers.PER_LAYER_METRICS
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in manifest["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
