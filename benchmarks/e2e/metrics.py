"""The benchmark's metrics: names, units, and how each is computed.

``END_TO_END`` and ``PER_LAYER`` list every metric in print order with
its unit; ``BENCHMARK.json`` names the same metrics and the harness
tests check that the two agree.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from .layers import LAYER, QUESTION
from .stats import percentile, self_times

END_TO_END = (
    ("setup_s", "s"),
    ("questions_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("relational.database.input_instance_ms", "ms"),
    ("core.canonical.canonicalize_ms", "ms"),
    ("relational.evalcache.hit_ratio", "ratio"),
    ("relational.evalcache.lookup_ms", "ms"),
    ("relational.evaluator.evaluate_ms", "ms"),
    ("relational.evaluator.rows", "count"),
    ("relational.evaluator.operators", "count"),
    ("columnar.evaluate_ms", "ms"),
    ("columnar.row_view_ms", "ms"),
    ("columnar.batches", "count"),
    ("core.unrename.initialization_ms", "ms"),
    ("core.compatibility.find_ms", "ms"),
    ("core.successors.find_ms", "ms"),
    ("core.nedexplain.bottomup_ms", "ms"),
    ("core.nedexplain.explain_ms", "ms"),
    ("core.compatibility.finds", "count"),
    ("robustness.budget.comparisons", "count"),
    ("core.successors.checks", "count"),
    ("core.successors.found_ratio", "ratio"),
    ("service.overhead_ms", "ms"),
    ("service.non_2xx", "count"),
    ("service.batch_latency_p50_ms", "ms"),
    ("service.read_latency_p50_ms", "ms"),
    ("robustness.executor.overhead_ms", "ms"),
    ("storage.fsyncs_per_batch", "count"),
    ("storage.bytes_per_batch", "bytes"),
    ("storage.write_ms_per_batch", "ms"),
    ("storage.read_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
)

#: per-question self-time metrics: metric name -> layer span name
SELF_TIME_LAYERS = {
    "relational.database.input_instance_ms": (
        "relational.database.input_instance"
    ),
    "core.canonical.canonicalize_ms": "core.canonical.canonicalize",
    "relational.evalcache.lookup_ms": "relational.evalcache.lookup",
    "relational.evaluator.evaluate_ms": "relational.evaluator.evaluate",
    "columnar.evaluate_ms": "columnar.evaluate",
    "columnar.row_view_ms": "columnar.row_view",
    "core.unrename.initialization_ms": "core.unrename.initialization",
    "core.compatibility.find_ms": "core.compatibility.find",
    "core.successors.find_ms": "core.successors.find",
    "core.nedexplain.bottomup_ms": "core.nedexplain.bottomup",
    "core.nedexplain.explain_ms": "core.nedexplain.explain",
}

#: per-question counters: metric name -> repro.obs counter
COUNTERS = {
    "relational.evaluator.rows": "budget.rows",
    "relational.evaluator.operators": "evaluator.operators",
    "columnar.batches": "evaluator.batches",
    "core.compatibility.finds": "compatible.finds",
    "robustness.budget.comparisons": "budget.comparisons",
    "core.successors.checks": "successors.checks",
}

#: the ``phase`` spans NedExplain already emits, by Fig. 5 phase
PHASE_LAYERS = {
    "Initialization": "core.unrename.initialization",
    "CompatibleFinder": "core.compatibility.find",
    "SuccessorsFinder": "core.successors.find",
    "BottomUp": "core.nedexplain.bottomup",
}

STORAGE_WRITE_LAYERS = (
    "storage.io.write",
    "storage.io.fsync",
    "storage.io.fsync_dir",
    "storage.backend.write_document",
    "robustness.journal.record",
)

#: layers whose spans sit beside, not above, the parallel workers'
#: spans (absorbed worker tracers are roots), so their self time would
#: count the workers' time twice
NOT_SELF_TIMED = ("robustness.executor.explain_each",)


def end_to_end(
    setups_s, latencies_ms, answered: int, wall_s: float, rss_mb: float
) -> dict:
    """The end-to-end metrics of one untraced run."""
    return {
        "setup_s": statistics.median(setups_s),
        "questions_per_s": answered / wall_s,
        "latency_p50_ms": percentile(latencies_ms, 50).value,
        "latency_p90_ms": percentile(latencies_ms, 90).value,
        "peak_rss_mb": rss_mb,
    }


def span_layer(span: dict, by_id: dict, memo: dict) -> str | None:
    """The layer a span's self time belongs to.

    Wrapper spans name their layer, ``phase`` spans map to the phase's
    module, the ``explain`` run span is NedExplain's own; any other span
    (operators, compatible, cache) inherits its nearest ancestor's
    layer.  Question roots are the benchmark's own, unattributed time.
    """
    sid = span["id"]
    if sid in memo:
        return memo[sid]
    category = span["category"]
    if category == LAYER:
        layer = span["name"]
    elif category == "phase":
        phase = (span.get("tags") or {}).get("phase", span["name"])
        layer = PHASE_LAYERS[phase]
    elif category == "run":
        layer = "core.nedexplain.explain"
    elif category == QUESTION or span.get("parent") is None:
        layer = None
    else:
        layer = span_layer(by_id[span["parent"]], by_id, memo)
    memo[sid] = layer
    return layer


def layer_self_ms(spans) -> dict:
    """Total self time (ms) per layer; ``None`` collects the rest."""
    by_id = {s["id"]: s for s in spans}
    selves = self_times(spans)
    memo: dict = {}
    totals: dict = {}
    for span in spans:
        layer = span_layer(span, by_id, memo)
        if layer in NOT_SELF_TIMED:
            continue
        totals[layer] = totals.get(layer, 0.0) + selves[span["id"]]
    return totals


@dataclass
class TracedRun:
    """What a traced replay recorded, beside its span trace."""

    #: questions answered in the traced pass
    questions: int
    #: per-question latency of the same questions, untraced and traced
    untraced_ms: list
    traced_ms: list
    #: service only: /v1/explain HTTP latency minus report time
    http_overhead_ms: list = field(default_factory=list)
    non_2xx: int = 0
    batch_ms: list = field(default_factory=list)
    read_ms: list = field(default_factory=list)


def _p50(values) -> float:
    return percentile(values, 50).value if values else 0.0


def per_layer(spans, counters: dict, run: TracedRun) -> dict:
    """The per-layer metrics of one traced run."""
    n = max(run.questions, 1)
    selves = layer_self_ms(spans)
    out: dict = {
        name: selves.get(layer, 0.0) / n
        for name, layer in SELF_TIME_LAYERS.items()
    }
    out.update(
        {name: counters.get(c, 0) / n for name, c in COUNTERS.items()}
    )
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    out["relational.evalcache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    checks = counters.get("successors.checks", 0)
    out["core.successors.found_ratio"] = (
        counters.get("successors.found", 0) / checks if checks else 0.0
    )

    named = [s for s in spans if s["category"] == LAYER]
    batches = sum(
        1 for s in named if s["name"] == "service.state.explain_batch"
    )
    each = [
        s for s in named if s["name"] == "robustness.executor.explain_each"
    ]
    reads = [
        s for s in named if s["name"] == "storage.backend.read_document"
    ]
    fsyncs = sum(
        1
        for s in named
        if s["name"] in ("storage.io.fsync", "storage.io.fsync_dir")
    )
    written = sum(
        (s.get("tags") or {}).get("bytes", 0)
        for s in named
        if s["name"] == "storage.io.write"
    )
    per_batch = max(batches, 1)
    out["service.overhead_ms"] = _p50(run.http_overhead_ms)
    out["service.non_2xx"] = run.non_2xx
    out["service.batch_latency_p50_ms"] = _p50(run.batch_ms)
    out["service.read_latency_p50_ms"] = _p50(run.read_ms)
    out["robustness.executor.overhead_ms"] = (
        statistics.fmean(
            s["duration_ms"] - s["tags"]["reports_ms"] for s in each
        )
        if each
        else 0.0
    )
    out["storage.fsyncs_per_batch"] = fsyncs / per_batch
    out["storage.bytes_per_batch"] = written / per_batch
    out["storage.write_ms_per_batch"] = (
        sum(selves.get(layer, 0.0) for layer in STORAGE_WRITE_LAYERS)
        / per_batch
    )
    out["storage.read_ms"] = (
        statistics.fmean(s["duration_ms"] for s in reads) if reads else 0.0
    )
    untraced = statistics.fmean(run.untraced_ms) if run.untraced_ms else 0.0
    traced = statistics.fmean(run.traced_ms) if run.traced_ms else 0.0
    out["trace.overhead_frac"] = (
        (traced - untraced) / untraced if untraced else 0.0
    )
    attributed = sum(v for k, v in selves.items() if k is not None)
    total = sum(run.traced_ms)
    out["trace.coverage"] = attributed / total if total else 0.0
    return {name: out[name] for name, _ in PER_LAYER}
