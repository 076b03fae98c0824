"""The benchmark's workloads, run against the public ``repro`` API.

Every workload follows the same shape, so every end-to-end metric means the
same thing on each of them: get a DELRec model ready (``fit_s``), check its
ranking quality with the batched evaluator (``eval_examples_per_s``,
``ndcg_at_10``) and answer queries with it (``p50_ms``, ``p99_ms``,
``sustained_rps``, ``cpu_ms_per_req``).  ``train`` builds the model cold and
queries it offline; the ``serve_*`` workloads restore one prepared bundle
through the artifact store's warm path and serve open-loop traffic.

Offered rates, request counts and latency limits are fixed numbers written
here, never derived from a measured capacity, so a parent commit and a
change are offered identical load.  The program receives only generated
inputs; the workload seed decides them.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import layers
from perfbench.calibration import calibrated, kernel, speed_factor
from perfbench.generator import (
    OpenLoopRun,
    clock,
    cpu_seconds,
    percentile,
    poisson_arrivals,
    run_open_loop,
    supported_percentile,
    timed,
)
from perfbench.tracing import Tracer

DATASET = "home-kitchen"
#: ``train`` fits at this scale (34 users, 64 items): two cold fits fit in a run.
TRAIN_SCALE = 0.1
#: ``serve_*`` serve a bundle fitted at this scale (170 users, 320 items),
#: whose sequences give thousands of distinct history windows.
SERVE_SCALE = 0.5
BACKBONE_EPOCHS = 2
#: Seed of the served bundle's training config: the model is fixed, the
#: workload seed only decides the traffic.
BUNDLE_SEED = 0
#: The prepare step's cold fit takes about 40 s on a 2-core x86-64 box.
PREPARE_TIMEOUT_S = 600

#: Warm fits and evaluator passes before the nominal pass and after the
#: ladder; ``fit_s`` and ``eval_examples_per_s`` are medians over all of them.  The
#: counts give each metric seconds of samples: on a shared 2-core box the
#: machine's speed drifts by a quarter over seconds, and short windows follow it.
INTERLUDE_FITS = 40
INTERLUDE_EVAL_PASSES = 12
#: Extra service starts per interlude, beside the one each serving pass
#: makes, so that ``setup_s`` is a median of six.
INTERLUDE_SETUPS = 2
#: Distinct requests, sent one at a time, that warm the service up (its lazy
#: inference arena) before the measured ones; the measured stream never repeats them.
WARMUP_REQUESTS = 48
#: Cold fits per ``train`` run (at least; more while ``--seconds`` lasts).
TRAIN_FITS = 2
#: After each fit, evaluator passes and then rounds of offline queries (a few
#: seconds of each, for the reason above); the query metrics are medians
#: over the rounds.
EVAL_PASSES_PER_FIT = 50
ROUNDS_PER_FIT = 4
QUERIES_PER_ROUND = 500


@dataclass(frozen=True)
class ServingSpec:
    """Fixed traffic of one serving workload."""

    #: the rate p50/p99/cpu are measured at, well below the knee on 2 cores
    nominal_rps: float
    #: higher rungs of the rate ladder; the nominal rate is its first rung
    ladder_rps: Tuple[float, ...]
    #: p99 a rung must meet to count as sustained
    p99_limit_ms: float


#: Reads per ladder rung; every pass holds at least this many reads, so its
#: p99 has ten samples beyond it.
RUNG_REQUESTS = 1000
#: Offered rates in operations per second.  The nominal rates keep the
#: service well below its knee on 2 cores, so a slow spell of the machine
#: stretches latency without building a queue.  The ladders are a floor
#: check: they stop at about a third of the knee measured on a 2-core x86-64
#: box.  Near the knee a rung's p99 follows the host's stalls (at 600/s on
#: ``serve_cold``, four seeds gave p99 of 30, 83, 99 and 81 ms, one with a
#: growing backlog), so rungs there cannot be made steady.
SERVING = {
    "serve_cold": ServingSpec(100.0, (300.0,), 100.0),
    "serve_sessions": ServingSpec(200.0, (800.0,), 100.0),
}


@dataclass
class Outcome:
    """What one run produced: metrics, failure counts and the run report."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    report: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


# --------------------------------------------------------------------------- helpers
def cache_dir() -> str:
    """Untracked directory (in the checkout) for the store, traces and records."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, ".perfbench-cache")
    os.makedirs(path, exist_ok=True)
    return path


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(arrays: Sequence[np.ndarray]) -> str:
    """Order-sensitive digest of score arrays, bit for bit."""
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return hasher.hexdigest()


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def delrec_config(seed: int):
    from repro import DELRecConfig

    return DELRecConfig.fast(seed=seed).for_dataset(DATASET)


@dataclass
class Samples:
    """Timings of one kind of section, as measured and at the reference host speed."""

    raw: List[float] = field(default_factory=list)
    scaled: List[float] = field(default_factory=list)

    def add_time(self, seconds: float, factor: float) -> None:
        self.raw.append(seconds)
        self.scaled.append(seconds * factor)

    def add_rate(self, per_second: float, factor: float) -> None:
        self.raw.append(per_second)
        self.scaled.append(per_second / factor)

    def medians(self) -> Tuple[float, float]:
        """(median at the reference host speed, median as measured)."""
        return statistics.median(self.scaled), statistics.median(self.raw)


def evaluate(recommender, dataset, examples, seed: int, passes: int,
             rates: Samples) -> float:
    """Adds the examples/s of ``passes`` fresh evaluator passes; returns their NDCG@10."""
    from repro.eval.evaluator import RankingEvaluator

    num_candidates = delrec_config(seed).num_candidates
    ndcg = None
    for _ in range(passes):
        evaluator = RankingEvaluator(dataset, examples, num_candidates=num_candidates, seed=seed)
        result, elapsed, factor = calibrated(evaluator.evaluate_recommender, recommender)
        rates.add_rate(len(examples) / elapsed, factor)
        if ndcg is not None and result.metrics["NDCG@10"] != ndcg:
            raise RuntimeError("evaluator passes disagree on NDCG@10")
        ndcg = result.metrics["NDCG@10"]
    return float(ndcg)


def gated(samples: Dict[str, Samples], metrics: Dict[str, float],
          report: Dict[str, object]) -> None:
    """Put each calibrated metric into ``metrics`` and its measured value into ``report``."""
    raw = report.setdefault("raw_metrics", {})
    for name, values in samples.items():
        metrics[name], raw[name] = values.medians()


def histogram(values) -> Dict[str, int]:
    return {str(key): count for key, count in sorted(Counter(values).items())}


# --------------------------------------------------------------------------- train
def run_train(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    """Cold ``DELRec.fit`` runs into fresh stores, each followed by evaluation and queries.

    Every fit uses the same seed, so all must agree on the fit digest.  The
    evaluator and query metrics are medians over every fit's samples.  A
    traced run traces its last fit (with its evaluation and queries) and
    compares that fit's time with the untraced one before it.
    """
    from repro import DELRec, chronological_split, load_dataset
    from repro.store.store import ArtifactStore

    setups, eval_rates = Samples(), Samples()

    def generate():
        data = load_dataset(DATASET, scale=TRAIN_SCALE)
        return data, chronological_split(data)

    def set_up():
        """Generate and split the dataset, five times; keeps the last result."""
        for _ in range(5):
            result, elapsed, factor = calibrated(generate)
            setups.add_time(elapsed, factor)
        return result

    dataset, split = set_up()
    examples = split.test

    def fit():
        root = tempfile.mkdtemp(prefix="train-store-", dir=cache_dir())
        try:
            pipeline = DELRec(config=delrec_config(seed), store=ArtifactStore(root))
            return timed(pipeline.fit, dataset, split, conventional_epochs=BACKBONE_EPOCHS)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    fit_times, digests, rounds = [], set(), []
    started = clock()
    while len(fit_times) < TRAIN_FITS or (tracer is None and clock() - started < seconds):
        traced = tracer is not None and len(fit_times) == TRAIN_FITS - 1
        if traced:
            tracer.install(layers.targets())
        try:
            pipeline, elapsed = fit()
            ndcg = evaluate(pipeline.recommender(), dataset, examples, seed,
                            EVAL_PASSES_PER_FIT, eval_rates)
            rounds.extend(train_queries(pipeline.recommender(), dataset, examples, seed)
                          for _ in range(ROUNDS_PER_FIT))
        finally:
            if traced:
                tracer.uninstall()
        fit_times.append(elapsed)
        set_up()  # more set-up samples, spread over the run
        stage1, stage2 = pipeline.distillation_result, pipeline.finetuning_result
        digests.add(hashlib.sha256(repr([
            pipeline.bundle_fingerprint, stage1.combined_losses, stage1.ta_losses,
            stage1.rps_losses, stage2.losses, ndcg]).encode()).hexdigest())
        if traced:
            break

    queries = sum(len(r["latencies"]) for r in rounds)
    mismatches = sum(r["mismatches"] for r in rounds)
    score_digests = {r["digest"] for r in rounds}
    p50, rate, cpu = Samples(), Samples(), Samples()
    for r in rounds:
        p50.add_time(1000.0 * percentile(r["latencies"], 50.0), r["factor"])
        rate.add_rate(len(r["latencies"]) / r["wall_s"], r["factor"])
        cpu.add_time(1000.0 * r["cpu_s"] / len(r["latencies"]), r["factor"])
    metrics = {
        "fit_s": statistics.median(fit_times),
        "ndcg_at_10": ndcg,
        "p99_ms": 1000.0 * percentile(np.concatenate([r["latencies"] for r in rounds]), 99.0),
        "peak_rss_mb": peak_rss_mb(),
    }
    report: Dict[str, object] = {}
    gated({"setup_s": setups, "eval_examples_per_s": eval_rates, "p50_ms": p50,
           "sustained_rps": rate, "cpu_ms_per_req": cpu}, metrics, report)
    checks = {"fit_digests_agree": len(digests) == 1,
              "score_digests_agree": len(score_digests) == 1,
              "looped_equals_batched": mismatches == 0}
    report.update({
        "fit_seconds": fit_times, "fit_digest": sorted(digests), "queries": queries,
        "query_tail_percentile": supported_percentile(queries),
        "history_lengths": histogram(min(len(e.history), pipeline.recommender().max_history)
                                     for e in examples),
        "repeat_share": 1.0 - len(examples) / QUERIES_PER_ROUND, "write_share": 0.0,
        "score_digest": sorted(score_digests),
    })
    if tracer is not None:
        untraced, traced_s = fit_times[-2], fit_times[-1]
        report["trace_overhead_s"] = traced_s - untraced
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced) / untraced
        metrics.update(layers.trace_metrics(tracer, pass_wall_s=0.0))
    failed = mismatches + (len(fit_times) - 1 if len(digests) > 1 else 0)
    return Outcome(metrics, attempted=queries + len(fit_times), failed=failed,
                   checks=checks, report=report)


def train_queries(recommender, dataset, examples, seed: int) -> Dict[str, object]:
    """Closed-loop offline queries: ``score_candidates`` per test example, looped."""
    from repro.data.candidates import CandidateSampler

    sampler = CandidateSampler(dataset, num_candidates=delrec_config(seed).num_candidates,
                               seed=seed)
    candidates = [sampler.candidates_for(example) for example in examples]
    batched = recommender.score_candidates_batch([e.history for e in examples], candidates)
    latencies = np.zeros(QUERIES_PER_ROUND)
    mismatches = 0
    scores = []
    gc.collect()  # the fit's garbage must not be collected inside the timed queries
    kernel_before = kernel()
    cpu_before, wall_before = cpu_seconds(), clock()
    for index in range(QUERIES_PER_ROUND):
        position = index % len(examples)
        start = clock()
        row = recommender.score_candidates(examples[position].history, candidates[position])
        latencies[index] = clock() - start
        mismatches += not bitwise_equal(row, batched[position])
        scores.append(row)
    wall_s, cpu_s = clock() - wall_before, cpu_seconds() - cpu_before
    return {"latencies": latencies, "wall_s": wall_s, "cpu_s": cpu_s,
            "factor": speed_factor(kernel_before, kernel()), "mismatches": mismatches,
            "digest": digest(scores[:len(examples)])}


# --------------------------------------------------------------------------- serving
@dataclass
class Bundle:
    dataset: object
    split: object
    store: object
    kind: str
    fingerprint: str


def load_bundle(require_warm: bool = True) -> Bundle:
    """Load the serving dataset and fit the served bundle through the store."""
    from repro import chronological_split, load_dataset
    from repro.store.components import DELREC_KIND
    from repro.store.store import ArtifactStore

    dataset = load_dataset(DATASET, scale=SERVE_SCALE)
    split = chronological_split(dataset)
    bundle = Bundle(dataset, split, ArtifactStore(os.path.join(cache_dir(), "store")), "", "")
    pipeline = warm_fit(bundle, require_warm=require_warm)
    bundle.kind, bundle.fingerprint = DELREC_KIND, pipeline.bundle_fingerprint
    return bundle


def prepare_bundle() -> Bundle:
    """Make sure the bundle is in the store, then load it through the warm path.

    The prepare step runs in a child process (``run.py --prepare``), which
    fits the bundle cold only the first time a checkout runs.  This process
    therefore only ever restores the bundle, and neither its peak RSS nor
    ``setup_s`` includes a cold fit.
    """
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    subprocess.run([sys.executable, script, "--prepare"], check=True, stdout=sys.stderr,
                   timeout=PREPARE_TIMEOUT_S)
    return load_bundle(require_warm=True)


def warm_fit(bundle: "Bundle", require_warm: bool = True):
    """``DELRec.fit`` of the served configuration; returns the fitted pipeline."""
    from repro import DELRec

    pipeline = DELRec(config=delrec_config(BUNDLE_SEED), store=bundle.store)
    pipeline.fit(bundle.dataset, bundle.split, conventional_epochs=BACKBONE_EPOCHS)
    if require_warm and not pipeline.loaded_from_store:
        raise RuntimeError("the warm fit did not reload the bundle from the store")
    return pipeline


def reference_recommender(bundle: Bundle):
    """A second, independent restore of the bundle: the offline reference."""
    from repro.store.components import load_recommender

    return load_recommender(bundle.store, bundle.kind, bundle.fingerprint,
                            dataset=bundle.dataset)


def window_requests(dataset, count: int, rng: np.random.Generator, max_history: int,
                    exclude=frozenset()) -> List[Tuple[int, Tuple[int, ...]]]:
    """Distinct (user, history) pairs, none in ``exclude``: windows of real user sequences.

    The window length is drawn uniformly from 1..``max_history`` (among the
    lengths that still have unused windows), then a window of that length
    is drawn without replacement.
    """
    pools: Dict[int, List[Tuple[int, int]]] = {}
    sequences = {user: dataset.sequence(user).item_ids for user in dataset.users}
    for length in range(1, max_history + 1):
        pool = [(user, start) for user, items in sequences.items()
                for start in range(len(items) - length + 1)]
        order = rng.permutation(len(pool))
        pools[length] = [pool[i] for i in order]
    seen = set(exclude)
    requests = []
    while len(requests) < count:
        lengths = [length for length, pool in pools.items() if pool]
        if not lengths:
            raise RuntimeError(f"only {len(requests)} distinct windows exist")
        length = lengths[int(rng.integers(len(lengths)))]
        user, start = pools[length].pop()
        history = tuple(int(item) for item in sequences[user][start:start + length])
        key = (user, history)
        if key not in seen:
            seen.add(key)
            requests.append(key)
    return requests


@dataclass
class Pass:
    """One open-loop pass on a fresh service: its offered rate, operations and outcome."""

    rate: float
    stream: List["Op"]
    run: OpenLoopRun
    mask: Optional[np.ndarray]
    setup_s: float
    checks: Dict[str, bool]
    #: service counters accumulated over the pass (warm-up excluded)
    counters: Dict[str, float]

    def latency_ms(self, pct: float) -> float:
        return self.run.latency_ms(pct, self.mask)

    @property
    def requests(self) -> int:
        return len(self.run.latencies)

    @property
    def achieved_rps(self) -> float:
        return self.requests / self.run.wall_s

    @property
    def cpu_ms_per_req(self) -> float:
        return 1000.0 * self.run.cpu_s / self.requests

    def row(self) -> Dict[str, object]:
        return {"offered_rps": self.rate, "requests": self.requests,
                "reads": int(self.mask.sum()) if self.mask is not None else self.requests,
                "achieved_rps": self.achieved_rps, "p50_ms": self.latency_ms(50.0),
                "p99_ms": self.latency_ms(99.0),
                "tail_percentile": supported_percentile(self.requests),
                "failed": self.run.failed, "lateness_ms_p99": self.run.lateness_ms_p99,
                "lateness_growth_ms": self.run.lateness_growth_ms, "setup_s": self.setup_s}

    def sustained(self, spec: ServingSpec) -> bool:
        """No failures, p99 within the limit and generator lateness that does not grow."""
        return (self.run.failed == 0 and self.latency_ms(99.0) <= spec.p99_limit_ms
                and not self.run.backlog_grew)


def run_serving(name: str, seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    """Offer one serving workload's nominal pass and then its rate ladder.

    Every pass runs on a freshly started service (its start is one
    ``setup_s`` sample), so no pass inherits another's caches or sessions.
    The nominal pass lasts ``seconds`` (at least ``RUNG_REQUESTS`` reads);
    each ladder rung sends ``RUNG_REQUESTS`` reads, and the ladder stops at
    the first rung that is not sustained.  Warm fits and evaluator passes run
    before the nominal pass and after the ladder, so those samples spread
    over the run.  Traced, the nominal pass's operations are offered once
    more, at the same times, to a fresh traced service, and the ladder is
    skipped.
    """
    spec = SERVING[name]
    bundle = prepare_bundle()
    reference = reference_recommender(bundle)
    fit_times, eval_rates, setups = Samples(), Samples(), []
    rng = np.random.default_rng(seed)
    traffic_type = {"serve_cold": ColdTraffic, "serve_sessions": SessionTraffic}[name]
    traffic = traffic_type(bundle, reference, seed, rng)

    def interlude() -> float:
        """Service starts, warm fits and evaluator passes; returns NDCG@10."""
        setups.extend(timed(traffic.start)[1] for _ in range(INTERLUDE_SETUPS))
        for _ in range(INTERLUDE_FITS):
            _, elapsed, factor = calibrated(warm_fit, bundle)
            fit_times.add_time(elapsed, factor)
        return evaluate(reference, bundle.dataset, bundle.split.test, seed,
                        INTERLUDE_EVAL_PASSES, eval_rates)

    def offer(rate: float, stream: List[Op], arrivals: np.ndarray,
              traced: Optional[Tracer] = None) -> Pass:
        service, setup_s = timed(traffic.start)
        setups.append(setup_s)
        before = service_counters(service.stats())
        run = traffic.offer(service, stream, arrivals, traced)
        after = service_counters(service.stats())
        return Pass(rate, stream, run, traffic.latency_mask(stream), setup_s,
                    traffic.final_checks(service, stream),
                    {key: after[key] - before[key] for key in before})

    def rung(rate: float, min_ops: int) -> Pass:
        stream = traffic.stream(min_ops, RUNG_REQUESTS)
        return offer(rate, stream, poisson_arrivals(len(stream), rate, rng))

    ndcg = interlude()
    passes = [rung(spec.nominal_rps, round(spec.nominal_rps * seconds))]
    if tracer is None:
        for rate in spec.ladder_rps:
            passes.append(rung(rate, 0))
            if not passes[-1].sustained(spec):
                break
    interlude()
    nominal = passes[0]
    if tracer is not None:
        tracer.install(layers.targets())
        try:
            traced = offer(nominal.rate, nominal.stream, nominal.run.arrivals, tracer)
        finally:
            tracer.uninstall()

    sustained_rps = 0.0
    for one in passes:
        if not one.sustained(spec):
            break
        sustained_rps = one.achieved_rps
    mismatches = sum(traffic.verify(one.stream, one.run) for one in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "ndcg_at_10": ndcg,
        "p50_ms": nominal.latency_ms(50.0),
        "p99_ms": nominal.latency_ms(99.0),
        "sustained_rps": sustained_rps,
        "cpu_ms_per_req": nominal.cpu_ms_per_req,
        "peak_rss_mb": peak_rss_mb(),
    }
    report: Dict[str, object] = {}
    gated({"fit_s": fit_times, "eval_examples_per_s": eval_rates}, metrics, report)
    checks = {f"pass{index}_{key}": ok for index, one in enumerate(passes)
              for key, ok in one.checks.items()}
    report.update({
        **traffic.properties(),
        "passes": [{**one.row(), "sustained": one.sustained(spec)} for one in passes],
        "p99_limit_ms": spec.p99_limit_ms,
        "score_digest": digest(traffic.scores(nominal.run)),
        "counters": nominal.counters,
    })
    attempted = sum(one.requests for one in passes)
    failed = mismatches + sum(one.run.failed for one in passes)
    if tracer is not None:
        failed += traffic.verify(traced.stream, traced.run) + traced.run.failed
        attempted += traced.requests
        checks.update({f"traced_{key}": ok for key, ok in traced.checks.items()})
        checks["traced_scores_equal_untraced"] = (
            digest(traffic.scores(traced.run)) == report["score_digest"])
        untraced_p50, traced_p50 = nominal.latency_ms(50.0), traced.latency_ms(50.0)
        report["trace_overhead_ms"] = traced_p50 - untraced_p50
        metrics["trace.overhead_pct"] = 100.0 * (traced_p50 - untraced_p50) / untraced_p50
        metrics.update(layer_counters(traced.counters))
        metrics.update(layers.trace_metrics(tracer, traced.run.wall_s))
        metrics["loadgen.lateness_ms_p99"] = traced.run.lateness_ms_p99
    checks["scores_bitwise_equal_offline"] = mismatches == 0
    return Outcome(metrics, attempted=attempted, failed=failed, checks=checks, report=report)


# --------------------------------------------------------------------------- traffic
@dataclass(frozen=True)
class Op:
    """One generated operation: a read (recommend) or a write (record an event)."""

    kind: str
    user: int
    history: Optional[Tuple[int, ...]]
    candidates: Optional[Tuple[int, ...]]
    item: Optional[int] = None


def service_counters(stats) -> Dict[str, float]:
    """The counters of one ``ServiceStats`` snapshot that per-layer metrics use."""
    prefix = stats.prefix
    return {
        "cache_hits": stats.cache.hits, "cache_misses": stats.cache.misses,
        "flushes": stats.batcher.flushes, "batched": stats.batcher.requests,
        "coalesced": stats.coalesced, "prefix_lookups": prefix.lookups,
        "prefix_hits": prefix.full_hits + prefix.partial_hits,
        "prefix_rendered": prefix.rendered_positions, "prefix_reused": prefix.reused_positions,
        "events": stats.events_appended,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_counters(delta: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from the service counters of one pass."""
    return {
        "batcher.flushes": delta["flushes"],
        "batcher.mean_batch": _ratio(delta["batched"], delta["flushes"]),
        "cache.hit_rate": _ratio(delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]),
        "cache.misses": delta["cache_misses"],
        "coalesced": delta["coalesced"],
        "prefix.hit_rate": _ratio(delta["prefix_hits"], delta["prefix_lookups"]),
        "prefix.recompute_frac": _ratio(delta["prefix_rendered"],
                                        delta["prefix_rendered"] + delta["prefix_reused"]),
        "sessions.events": delta["events"],
    }


class ColdTraffic:
    """serve_cold: distinct (user, history window) requests to one service.

    Each pass draws its own windows, distinct within the pass and from the
    warm-up ones.  Candidates come from the service's
    ``candidates_for_request``; the benchmark's own sampler (same seed)
    predicts them for the check.
    """

    def __init__(self, bundle: Bundle, reference, seed: int, rng: np.random.Generator):
        from repro.data.candidates import CandidateSampler

        self.bundle, self.reference, self.seed, self.rng = bundle, reference, seed, rng
        self.num_candidates = delrec_config(seed).num_candidates
        self.sampler = CandidateSampler(bundle.dataset, num_candidates=self.num_candidates,
                                        seed=seed)
        self.warmup = window_requests(bundle.dataset, WARMUP_REQUESTS, rng,
                                      reference.max_history)
        self.history_lengths: Counter = Counter()

    def read(self, user: int, history: Tuple[int, ...]) -> Op:
        candidates = tuple(self.sampler.candidates_for_request(user, history))
        self.history_lengths[min(len(history), self.reference.max_history)] += 1
        return Op("read", user, history, candidates)

    def stream(self, min_ops: int, min_reads: int) -> List[Op]:
        """One pass's operations: at least ``min_ops`` of them and ``min_reads`` reads."""
        windows = window_requests(self.bundle.dataset, max(min_ops, min_reads), self.rng,
                                  self.reference.max_history, exclude=self.warmup)
        return [self.read(user, history) for user, history in windows]

    # ---------------------------------------------------------------- service
    def start(self):
        """A fresh service over the bundle, warmed up with the warm-up requests."""
        from repro.data.candidates import CandidateSampler
        from repro.serve import RecommendationService, ServiceConfig

        sampler = CandidateSampler(self.bundle.dataset, num_candidates=self.num_candidates,
                                   seed=self.seed)
        service = RecommendationService.from_store(
            self.bundle.store, self.bundle.kind, self.bundle.fingerprint,
            dataset=self.bundle.dataset, candidates_fn=sampler.candidates_for_request,
            config=ServiceConfig())
        for user, history in self.warmup:
            service.recommend_sync(user, history=list(history))
        return service

    def operation(self, service, op: Op, index: int, tracer: Optional[Tracer]):
        call = service.recommend(op.user, history=list(op.history), request_index=index)
        return call if tracer is None else tracer.acall("request", call, trace_id=index)

    def offer(self, service, stream: Sequence[Op], arrivals, traced: Optional[Tracer]):
        """One open-loop pass; reads join the event loop, writes run inline."""
        operations = [lambda op=op, i=i: self.operation(service, op, i, traced)
                      for i, op in enumerate(stream)]
        return run_open_loop(operations, arrivals, [op.kind == "read" for op in stream])

    # ----------------------------------------------------------------- checks
    def verify(self, stream: Sequence[Op], run: OpenLoopRun) -> int:
        """Failed checks: every read's candidates and scores must match offline."""
        failures = 0
        for op, response, error in zip(stream, run.results, run.errors, strict=True):
            if op.kind != "read" or error is not None:
                continue
            expected = self.reference.score_candidates(list(op.history), list(op.candidates))
            failures += not (tuple(response.candidates) == op.candidates
                             and not response.degraded
                             and bitwise_equal(response.scores, expected))
        return failures

    def scores(self, run: OpenLoopRun) -> List[np.ndarray]:
        return [result.scores for result in run.results
                if result is not None and hasattr(result, "scores")]

    def latency_mask(self, stream: Sequence[Op]) -> Optional[np.ndarray]:
        return None

    def final_checks(self, service, stream: Sequence[Op]) -> Dict[str, bool]:
        return {}

    def properties(self) -> Dict[str, object]:
        return {"repeat_share": 0.0, "write_share": 0.0,
                "history_lengths": histogram(self.history_lengths.elements())}


class SessionTraffic(ColdTraffic):
    """serve_sessions: returning users; event writes beside history-less reads.

    The mix comes from the dataset, not from chosen constants.  A user
    returns with probability proportional to their number of interactions.
    Each session starts with the user's first interaction, as the dataset's
    next-item examples do, and the writes replay the rest of the user's
    sequence in order (from its start again once it is used up).  The
    dataset asks for one recommendation per next-item example, so an
    operation is a write with probability interactions / (interactions +
    examples).  Reads and writes are drawn independently, so a user may read
    again before their next event: such a read repeats an unchanged history.
    Reads carry no history (the service reads the session store); every pass
    starts from the same initial sessions on a fresh service.
    """

    def __init__(self, bundle: Bundle, reference, seed: int, rng: np.random.Generator):
        super().__init__(bundle, reference, seed, rng)
        dataset, split = bundle.dataset, bundle.split
        self.users = [int(user) for user in dataset.users]
        counts = np.array([len(dataset.sequence(user)) for user in self.users], dtype=np.float64)
        self.weights = counts / counts.sum()
        examples = len(split.train) + len(split.validation) + len(split.test)
        self.write_share = counts.sum() / (counts.sum() + examples)
        self.sequences = {user: [int(i) for i in dataset.sequence(user).item_ids]
                          for user in self.users}
        self.initial = {user: self.sequences[user][:1] for user in self.users}
        self.reads = self.writes = self.repeats = 0
        # warm-up users are offset so that their sessions never meet the measured ones
        self.warmup = [(user + 10 ** 6, history) for user, history in self.warmup]

    def stream(self, min_ops: int, min_reads: int) -> List[Op]:
        log = {user: list(events) for user, events in self.initial.items()}
        seen = set()
        ops, reads = [], 0
        while len(ops) < min_ops or reads < min_reads:
            user = self.users[int(self.rng.choice(len(self.users), p=self.weights))]
            if self.rng.random() < self.write_share:
                sequence = self.sequences[user]
                item = sequence[len(log[user]) % len(sequence)]
                log[user].append(item)
                ops.append(Op("write", user, None, None, item))
                self.writes += 1
                continue
            op = self.read(user, tuple(log[user]))
            self.repeats += (user, op.history) in seen
            seen.add((user, op.history))
            reads += 1
            ops.append(op)
        self.reads += reads
        return ops

    def start(self):
        service = super().start()
        for user, events in self.initial.items():
            service.record_events(user, events)
        return service

    def operation(self, service, op: Op, index: int, tracer: Optional[Tracer]):
        if op.kind == "write":
            if tracer is None:
                return service.record_event(op.user, op.item)
            return tracer.call("request", service.record_event, op.user, op.item,
                               trace_id=index)
        call = service.recommend(op.user, request_index=index)
        return call if tracer is None else tracer.acall("request", call, trace_id=index)

    def latency_mask(self, stream: Sequence[Op]) -> Optional[np.ndarray]:
        return np.array([op.kind == "read" for op in stream])

    def final_checks(self, service, stream: Sequence[Op]) -> Dict[str, bool]:
        """The session store must equal the initial sessions plus the pass's writes."""
        expected = {user: list(events) for user, events in self.initial.items()}
        for op in stream:
            if op.kind == "write":
                expected[op.user].append(op.item)
        return {"sessions_equal_event_log": all(
            service.sessions.history(user) == events for user, events in expected.items())}

    def properties(self) -> Dict[str, object]:
        return {"repeat_share": _ratio(self.repeats, self.reads),
                "write_share": _ratio(self.writes, self.reads + self.writes),
                "history_lengths": histogram(self.history_lengths.elements())}
