"""Which program functions the traced run wraps, and the per-layer metrics they give.

Each target is a public function or method of one layer, wrapped where the
caller looks it up (``pretrain_simlm`` is imported by name into
``repro.llm.registry``, so that is where its wrapper goes).  Counts that the
program already keeps (service, batcher, cache and session counters) are read
from its stats objects instead of being traced.
"""

from __future__ import annotations

import os
from typing import Dict, List

import numpy as np

from perfbench.tracing import Target, Tracer

#: Every per-layer metric, in ``BENCHMARK.json`` order.  A traced run reports
#: all of them; a layer the workload never calls reads 0.
PER_LAYER_METRICS: Dict[str, str] = {
    "autograd.gelu_s": "s", "autograd.gelu_calls": "count", "autograd.matmul_s": "s",
    "autograd.backward_s": "s", "optim.step_s": "s", "optim.steps": "count",
    "models.backbone_s": "s", "llm.pretrain_s": "s", "llm.pretrain_steps": "count",
    "core.stage1_s": "s", "core.stage1_steps": "count", "core.stage2_s": "s",
    "core.stage2_steps": "count", "core.render_s": "s", "core.render_calls": "count",
    "core.batch_s": "s", "store.save_s": "s", "store.saves": "count", "store.bytes": "bytes",
    "eval.s": "s", "eval.examples": "count",
    "infer.encode_s": "s", "infer.head_s": "s", "infer.rows_per_forward": "rows",
    "infer.forwards_per_flush": "ratio", "verbalizer.s": "s",
    "batcher.flushes": "count", "batcher.mean_batch": "requests", "batcher.wait_ms_p50": "ms",
    "batcher.busy_frac": "ratio", "cache.hit_rate": "ratio", "cache.misses": "count",
    "coalesced": "count", "prefix.hit_rate": "ratio", "prefix.recompute_frac": "ratio",
    "sessions.record_s": "s", "sessions.sync_s": "s", "sessions.events": "count",
    "loadgen.lateness_ms_p99": "ms", "trace.overhead_pct": "%",
}


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def targets() -> List[Target]:
    """The wrappers of the traced run (imports the program, so call it late)."""
    from repro.autograd import inference, optim
    from repro.autograd.tensor import Tensor
    from repro.core.distill import PatternDistiller
    from repro.core.prompts import PromptBuilder
    from repro.core.recommend import DELRecRecommender, LSRFineTuner
    from repro.eval.evaluator import RankingEvaluator
    from repro.llm import registry
    from repro.llm.verbalizer import Verbalizer
    from repro.models import trainer
    from repro.serve.batcher import MicroBatcher
    from repro.serve.sessions import SessionStore
    from repro.store.store import ArtifactStore

    optimizers = [cls for cls in vars(optim).values()
                  if isinstance(cls, type) and issubclass(cls, optim.Optimizer)
                  and "step" in vars(cls)]
    return [
        Target(Tensor, "gelu", "autograd.gelu"),
        Target(Tensor, "matmul", "autograd.matmul"),
        Target(Tensor, "backward", "autograd.backward"),
        *[Target(cls, "step", "optim.step") for cls in optimizers],
        Target(trainer, "train_recommender", "models.backbone"),
        Target(registry, "pretrain_simlm", "llm.pretrain"),
        Target(PatternDistiller, "distill", "core.stage1"),
        Target(LSRFineTuner, "fine_tune", "core.stage2"),
        Target(PromptBuilder, "assemble", "core.render"),
        Target(PromptBuilder, "batch", "core.batch"),
        Target(ArtifactStore, "save", "store.save",
               lambda args, kwargs, path: {"bytes": _dir_bytes(path)}),
        Target(RankingEvaluator, "evaluate_recommender", "eval",
               lambda args, kwargs, result: {"examples": result.num_examples}),
        Target(inference, "mask_readout_hidden", "infer.encode",
               lambda args, kwargs, result: {"rows": int(np.shape(args[1])[0])}),
        Target(inference, "candidate_scores_array", "infer.head"),
        Target(Verbalizer, "scores_from_restricted", "verbalizer"),
        Target(DELRecRecommender, "score_candidates_batch", "score.batch",
               lambda args, kwargs, result: {"keys": [id(h) for h in args[1]]}),
        Target(MicroBatcher, "submit", "batcher.submit",
               lambda args, kwargs, result: {"key": id(args[1])}),
        Target(SessionStore, "append", "sessions.record"),
        Target(SessionStore, "extend", "sessions.record"),
        Target(SessionStore, "sync", "sessions.sync"),
    ]


def _total(spans) -> float:
    return float(sum(span.duration for span in spans))


def trace_metrics(tracer: Tracer, pass_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics computable from the spans alone."""
    index = {span.span_id: span for span in tracer.spans}
    named = tracer.named
    steps = named("optim.step")

    def steps_under(name: str) -> int:
        return sum(tracer.has_ancestor(step, name, index) for step in steps)

    encodes = named("infer.encode")
    flushes = [span for span in named("score.batch")
               if tracer.has_ancestor(span, "batcher.submit", index)]
    # a request's wait ends when the first flush holding its history object starts
    flush_starts: Dict[int, List[float]] = {}
    for flush in sorted(flushes, key=lambda s: s.start):
        for key in flush.attrs["keys"]:
            flush_starts.setdefault(key, []).append(flush.start)
    waits = []
    for submit in named("batcher.submit"):
        starts = [start for start in flush_starts.get(submit.attrs["key"], ())
                  if submit.start <= start <= submit.end]
        if starts:
            waits.append(1000.0 * (starts[0] - submit.start))
    saves = named("store.save")
    evals = named("eval")
    flush_encodes = [span for span in encodes if tracer.has_ancestor(span, "batcher.submit", index)]
    return {
        "autograd.gelu_s": _total(named("autograd.gelu")),
        "autograd.gelu_calls": len(named("autograd.gelu")),
        "autograd.matmul_s": _total(named("autograd.matmul")),
        "autograd.backward_s": _total(named("autograd.backward")),
        "optim.step_s": _total(steps),
        "optim.steps": len(steps),
        "models.backbone_s": _total(named("models.backbone")),
        "llm.pretrain_s": _total(named("llm.pretrain")),
        "llm.pretrain_steps": steps_under("llm.pretrain"),
        "core.stage1_s": _total(named("core.stage1")),
        "core.stage1_steps": steps_under("core.stage1"),
        "core.stage2_s": _total(named("core.stage2")),
        "core.stage2_steps": steps_under("core.stage2"),
        "core.render_s": _total(named("core.render")),
        "core.render_calls": len(named("core.render")),
        "core.batch_s": _total(named("core.batch")),
        "store.save_s": _total(saves),
        "store.saves": len(saves),
        "store.bytes": int(sum(span.attrs.get("bytes", 0) for span in saves)),
        "eval.s": _total(evals),
        "eval.examples": int(sum(span.attrs.get("examples", 0) for span in evals)),
        "infer.encode_s": _total(encodes),
        "infer.head_s": _total(named("infer.head")),
        "infer.rows_per_forward": (float(np.mean([s.attrs["rows"] for s in encodes]))
                                   if encodes else 0.0),
        "infer.forwards_per_flush": len(flush_encodes) / len(flushes) if flushes else 0.0,
        "verbalizer.s": _total(named("verbalizer")),
        "batcher.wait_ms_p50": float(np.median(waits)) if waits else 0.0,
        "batcher.busy_frac": _total(flushes) / pass_wall_s if flushes and pass_wall_s else 0.0,
        "sessions.record_s": _total(named("sessions.record")),
        "sessions.sync_s": _total(named("sessions.sync")),
    }
