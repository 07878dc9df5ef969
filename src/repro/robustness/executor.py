"""Worker-pool batch executor for why-not batches.

The EDBT 2014 evaluation times *independent* why-not questions over one
instance -- an embarrassingly parallel workload once the shared
substrate (evaluation cache, metrics, fault counters, batch journal)
is concurrency-safe.  :class:`ParallelExecutor` runs a batch across
``workers`` threads: each worker takes the next index from a shared
counter, serves it from *replay* when a previous run already finished
it, otherwise resolves and records it, and stores the result by index.
``workers=1`` runs the very same loop inline on the calling thread.

**Context propagation.**  Each worker thread runs inside its own
:func:`contextvars.copy_context` of the submitting thread, so the
ambient clock (:mod:`repro.obs.clock`), tracer (:mod:`repro.obs.trace`),
execution-context/budget, and fault scope all propagate exactly as they
would to a nested call.  Under an ambient tracer every worker gets a
*private* :class:`~repro.obs.Tracer` (one span stack models one
thread); finished worker tracers are folded back into the parent in
worker order via :meth:`~repro.obs.Tracer.absorb`, which merges metrics
through the existing snapshot-merge semantics.

**Determinism.**  Results are returned in submission order, one per
item, always.  Nothing inside a question advances a
:class:`~repro.obs.clock.ManualClock`, so every worker reads the same
virtual time the sequential run would -- this is what makes a
``workers=N`` manual-clock run byte-identical to the sequential run.

**Stopping.**  The caller's :class:`CancellationToken` (set by the
CLI's SIGINT/SIGTERM handler or the service's drain) is the only
outside stop, and the executor only *reads* it: in-flight items always
run to completion and are journalled; items not yet started resolve to
explicit *cancelled* outcomes.  An error raised by *resolve*, *replay*
or *record* stops the batch through a flag private to that one
:meth:`~ParallelExecutor.run` call, and the lowest-index error is
re-raised -- the token, which outlives the batch, is never touched.

**Crash-safe journalling.**  Workers complete out of order, so journal
appends happen in completion order under the journal's lock; resume
matches records by question identity (index + digest), not position.
Cancelled outcomes are *not* journalled -- a resumed batch recomputes
them properly.

Locking order (documented contract; see docs/robustness.md):
``EvaluationCache`` -> ``FaultPlan`` -> ``MetricsRegistry``/
instruments.  The ``BatchJournal`` lock is a leaf (no other engine
lock is ever taken while holding it).  The executor's own index lock
is also a leaf.
"""

from __future__ import annotations

import contextvars
import threading
from typing import Any, Callable, Iterable

from ..errors import ConfigurationError
from ..obs.trace import Tracer, current_tracer, tracing

__all__ = ["CancellationToken", "ParallelExecutor"]


class CancellationToken:
    """A one-shot, thread-safe cooperative cancellation signal.

    Setting the token never interrupts running work: the executor
    checks it before starting each item only, so in-flight questions
    always finish (and are journalled) -- a graceful drain, not an
    abort.  The first :meth:`cancel` wins; its reason is reported on
    every cancelled outcome.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._reason: str | None = None

    def cancel(self, reason: str = "cancelled") -> bool:
        """Request cancellation; returns True iff this call set it."""
        with self._lock:
            if self._event.is_set():
                return False
            self._reason = reason
            self._event.set()
            return True

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> str | None:
        """Why the token was set (``None`` while it is not)."""
        return self._reason

    def __repr__(self) -> str:
        if self.cancelled:
            return f"CancellationToken(cancelled, {self._reason!r})"
        return "CancellationToken(active)"


class ParallelExecutor:
    """Run a batch of items through a plain worker pool.

    Parameters
    ----------
    workers:
        Worker-thread count (an int >= 1), capped at the item count;
        with one worker the loop runs inline on the calling thread.
    cancel:
        The caller's :class:`CancellationToken` (e.g. wired to a
        signal handler); read, never set, by the executor.
    """

    def __init__(
        self,
        workers: int = 1,
        cancel: CancellationToken | None = None,
    ):
        if (
            isinstance(workers, bool)
            or not isinstance(workers, int)
            or workers < 1
        ):
            raise ConfigurationError(
                f"workers must be an int >= 1, got {workers!r}"
            )
        self.workers = workers
        self.cancel = cancel

    def run(
        self,
        items: Iterable[Any],
        resolve: Callable[[int, Any], Any],
        replay: Callable[[int, Any], Any] | None = None,
        record: Callable[[int, Any, Any], None] | None = None,
        on_cancelled: Callable[[int, Any, str], Any] | None = None,
    ) -> list[Any]:
        """Drive every item to a result; results in submission order.

        *resolve* does the work; *replay* serves an already-completed
        result (journal resume) or returns ``None``; *record* persists
        a freshly resolved result (completion order); *on_cancelled*
        builds the explicit result of an item the token stopped before
        it started.  All four run on the worker threads.
        """
        if on_cancelled is None:
            raise ConfigurationError(
                "the executor requires an on_cancelled result builder"
            )
        items = list(items)
        results: list[Any] = [None] * len(items)
        errors: list[tuple[int, BaseException]] = []
        stop = threading.Event()  # this batch's internal-error flag
        index_lock = threading.Lock()
        next_index = 0

        def take() -> int | None:
            nonlocal next_index
            with index_lock:
                if stop.is_set() or next_index >= len(items):
                    return None
                index = next_index
                next_index += 1
                return index

        def one(index: int, item: Any) -> Any:
            if replay is not None:
                replayed = replay(index, item)
                if replayed is not None:
                    return replayed
            if self.cancel is not None and self.cancel.cancelled:
                return on_cancelled(
                    index, item, self.cancel.reason or "cancelled"
                )
            result = resolve(index, item)
            if record is not None:
                record(index, item, result)
            return result

        def loop() -> None:
            while (index := take()) is not None:
                try:
                    results[index] = one(index, items[index])
                except BaseException as exc:  # re-raised by run()
                    with index_lock:
                        errors.append((index, exc))
                        stop.set()
                    return

        worker_count = min(self.workers, len(items))
        if worker_count <= 1:
            loop()
        else:
            self._run_threads(worker_count, loop)
        if errors:
            raise min(errors, key=lambda pair: pair[0])[1]
        return results

    @staticmethod
    def _run_threads(worker_count: int, loop: Callable[[], None]) -> None:
        # One private context copy per worker, created on THIS thread:
        # a contextvars.Context cannot be entered concurrently, so the
        # workers must not share one.
        contexts = [
            contextvars.copy_context() for _ in range(worker_count)
        ]
        worker_tracers: list[Tracer | None] = [None] * worker_count

        def worker_body(slot: int) -> None:
            # Runs inside contexts[slot]: the ambient clock, execution
            # context, and fault scope of the submitting thread are
            # visible here exactly as in a nested sequential call.
            if current_tracer() is None:
                loop()
                return
            tracer = Tracer()
            worker_tracers[slot] = tracer
            with tracing(tracer):
                loop()

        threads = [
            threading.Thread(
                target=contexts[slot].run,
                args=(worker_body, slot),
                name=f"repro-executor-{slot}",
                daemon=True,
            )
            for slot in range(worker_count)
        ]
        try:
            for thread in threads:
                thread.start()
        finally:
            for thread in threads:
                if thread.ident is not None:
                    thread.join()
            parent_tracer = current_tracer()
            if parent_tracer is not None:
                for tracer in worker_tracers:
                    if tracer is not None:
                        parent_tracer.absorb(tracer)

    def __repr__(self) -> str:
        return f"ParallelExecutor(workers={self.workers})"
