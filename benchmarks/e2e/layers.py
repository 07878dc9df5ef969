"""Layer spans for the traced run.

The traced run wraps public functions of the repo's modules in spans,
from this file, at the attribute each caller resolves (a class
attribute for methods, the module global for ``evaluate`` and
``evaluate_columnar``).  The wrappers are installed only for the
traced run and removed afterwards; end-to-end numbers come from
untraced runs.  Each span is named after the layer it times, so self
times can be summed per layer (:mod:`benchmarks.e2e.metrics`).
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager

import repro
import repro.columnar
import repro.relational.evalcache as evalcache
from repro import BatchJournal, Database, EvaluationCache, NedExplain
from repro.columnar.engine import ColumnarResult
from repro.obs import Tracer, current_tracer, tracing
from repro.service.state import ServiceState
from repro.storage.backend import StorageBackend
from repro.storage.io import LocalIO

#: span category of the wrappers below
LAYER = "layer"
#: span category of the per-question (or per-request) root span
QUESTION = "question"


def _bytes_written(args, result) -> dict:
    return {"bytes": len(args[2].encode("utf-8"))}


def _reports_ms(args, result) -> dict:
    return {
        "reports_ms": sum(
            o.report.total_time_ms for o in result if o.report is not None
        )
    }


#: (owner, attribute, layer, tags from (args, result))
WRAPPED = (
    (repro, "canonicalize", "core.canonical.canonicalize", None),
    (
        Database,
        "input_instance",
        "relational.database.input_instance",
        None,
    ),
    (
        EvaluationCache,
        "get_or_evaluate",
        "relational.evalcache.lookup",
        None,
    ),
    (evalcache, "evaluate", "relational.evaluator.evaluate", None),
    (repro.columnar, "evaluate_columnar", "columnar.evaluate", None),
    (ColumnarResult, "row_view", "columnar.row_view", None),
    (
        NedExplain,
        "explain_each",
        "robustness.executor.explain_each",
        _reports_ms,
    ),
    (BatchJournal, "record", "robustness.journal.record", None),
    (
        StorageBackend,
        "write_document",
        "storage.backend.write_document",
        None,
    ),
    (
        StorageBackend,
        "read_document",
        "storage.backend.read_document",
        None,
    ),
    (LocalIO, "write", "storage.io.write", _bytes_written),
    (LocalIO, "fsync", "storage.io.fsync", None),
    (LocalIO, "fsync_dir", "storage.io.fsync_dir", None),
)

#: service entry points; each call is a root span on its own tracer,
#: because handler threads start without the caller's ambient tracer
REQUEST_ROOTS = (
    (ServiceState, "explain_single", "service.state.explain_single"),
    (ServiceState, "explain_batch", "service.state.explain_batch"),
    (ServiceState, "batch_result", "service.state.batch_result"),
)


class SpanSink:
    """The traced run's tracer; other threads fold theirs into it."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._lock = threading.Lock()

    def absorb(self, tracer: Tracer) -> None:
        with self._lock:
            self.tracer.absorb(tracer)


def _span_wrapper(fn, layer: str, tags):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = current_tracer()
        if tracer is None:
            return fn(*args, **kwargs)
        with tracer.span(layer, category=LAYER) as span:
            result = fn(*args, **kwargs)
            if tags is not None:
                for key, value in tags(args, result).items():
                    span.set_tag(key, value)
            return result

    return wrapper


def _root_wrapper(fn, layer: str, sink: SpanSink):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = Tracer()
        try:
            with tracing(tracer), tracer.span(layer, category=LAYER):
                return fn(*args, **kwargs)
        finally:
            sink.absorb(tracer)

    return wrapper


@contextmanager
def layer_spans(sink: SpanSink):
    """Install every wrapper for the block, then restore the originals."""
    installed = []
    try:
        for owner, name, layer, tags in WRAPPED:
            original = vars(owner)[name]
            installed.append((owner, name, original))
            setattr(owner, name, _span_wrapper(original, layer, tags))
        for owner, name, layer in REQUEST_ROOTS:
            original = vars(owner)[name]
            installed.append((owner, name, original))
            setattr(owner, name, _root_wrapper(original, layer, sink))
        yield sink
    finally:
        for owner, name, original in reversed(installed):
            setattr(owner, name, original)
