"""Supervised worker-pool batch executor for why-not batches.

The EDBT 2014 evaluation times *independent* why-not questions over one
instance -- an embarrassingly parallel workload once the shared
substrate (evaluation cache, metrics, fault counters, batch journal)
is concurrency-safe.  :class:`ParallelExecutor` runs a batch
across ``workers`` threads while preserving every guarantee the
sequential path has:

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

**Backpressure and load shedding.**  Admitted items flow through a
bounded queue (``queue_size``, default ``2 * workers``): submission
blocks when the workers fall behind instead of buffering the whole
batch.  With ``shed_after=N``, only the first N non-replayed items are
admitted; the rest resolve to explicit *shed* outcomes
(``degradation_level == "shed"``) -- a deterministic admission quota,
never a silent drop.

**Cooperative cancellation and graceful drain.**  A
:class:`CancellationToken` (set by the CLI's SIGINT/SIGTERM handler, a
batch deadline, or any caller) stops *admission*: in-flight items
always run to completion and are journalled; items not yet started
resolve to explicit *cancelled* outcomes.  ``batch_deadline_s`` arms a
whole-batch deadline on the ambient clock; per-question budgets are
additionally capped to the remaining batch time by the engine (see
``NedExplain.explain_each``).

**Crash-safe journalling.**  Workers complete out of order, so journal
appends happen in completion order under the journal's lock; resume
matches records by question identity (index + digest), not position.
Shed and cancelled outcomes are *not* journalled -- a resumed batch
recomputes them properly.

Locking order (documented contract; see docs/robustness.md):
``EvaluationCache`` -> ``FaultPlan`` -> ``MetricsRegistry``/
instruments.  The ``BatchJournal`` lock is a leaf (no other engine
lock is ever taken while holding it).  The executor's own results lock
is also a leaf.
"""

from __future__ import annotations

import contextvars
import queue
import threading
from typing import Any, Callable, Iterable

from ..errors import ConfigurationError
from ..obs.clock import current_clock
from ..obs.trace import Tracer, current_tracer, tracing

__all__ = ["CancellationToken", "ParallelExecutor"]

#: How long a blocked queue put sleeps before re-checking cancellation.
_PUT_POLL_S = 0.05

_SENTINEL = object()


class CancellationToken:
    """A one-shot, thread-safe cooperative cancellation signal.

    Setting the token never interrupts running work: the executor
    checks it at *admission* points only, so in-flight questions always
    finish (and are journalled) -- a graceful drain, not an abort.  The
    first :meth:`cancel` wins; its reason is reported on every
    cancelled outcome.
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
    """Run a batch of items through a supervised worker pool.

    ``workers <= 1`` runs the identical admission policy inline on the
    calling thread (no threads): the sequential path is
    the degenerate case of the parallel one, not a separate code path.

    Parameters
    ----------
    workers:
        Worker-thread count; capped at the item count.
    queue_size:
        Bound of the submission queue (default ``2 * workers``); a full
        queue blocks submission (backpressure) instead of buffering.
    shed_after:
        Admission quota: after this many non-replayed items have been
        admitted, the rest are shed (explicit outcomes, never dropped).
    batch_deadline_s:
        Whole-batch deadline measured on the ambient clock from
        :meth:`run` entry; once expired, not-yet-started items resolve
        to cancelled outcomes.
    cancel:
        A shared :class:`CancellationToken` (e.g. wired to a signal
        handler); a private one is created when omitted.
    """

    def __init__(
        self,
        workers: int = 1,
        queue_size: int | None = None,
        shed_after: int | None = None,
        batch_deadline_s: float | None = None,
        cancel: CancellationToken | None = None,
    ):
        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}"
            )
        if queue_size is not None and queue_size < 1:
            raise ConfigurationError(
                f"queue_size must be >= 1, got {queue_size}"
            )
        if shed_after is not None and shed_after < 0:
            raise ConfigurationError(
                f"shed_after must be >= 0, got {shed_after}"
            )
        if batch_deadline_s is not None and batch_deadline_s <= 0:
            raise ConfigurationError(
                f"batch_deadline_s must be positive, got "
                f"{batch_deadline_s!r}"
            )
        self.workers = workers
        self.queue_size = (
            queue_size if queue_size is not None else max(2, 2 * workers)
        )
        self.shed_after = shed_after
        self.batch_deadline_s = batch_deadline_s
        self.cancel = cancel if cancel is not None else CancellationToken()
        self._deadline_at: float | None = None

    # ------------------------------------------------------------------
    # Deadline / drain state
    # ------------------------------------------------------------------
    def remaining_s(self) -> float | None:
        """Seconds left on the batch deadline (``None`` when unarmed)."""
        if self._deadline_at is None:
            return None
        return self._deadline_at - current_clock().monotonic()

    def drain_reason(self) -> str | None:
        """Why admission is closed right now, or ``None`` if it is open."""
        if self.cancel.cancelled:
            return self.cancel.reason or "cancelled"
        remaining = self.remaining_s()
        if remaining is not None and remaining <= 0:
            return "batch deadline exceeded"
        return None

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(
        self,
        items: Iterable[Any],
        resolve: Callable[[int, Any], Any],
        replay: Callable[[int, Any], Any] | None = None,
        record: Callable[[int, Any, Any], None] | None = None,
        on_shed: Callable[[int, Any], Any] | None = None,
        on_cancelled: Callable[[int, Any, str], Any] | None = None,
    ) -> list[Any]:
        """Drive every item to a result; results in submission order.

        *resolve* does the work (worker threads); *replay* serves
        already-completed results (journal resume; main thread, never
        counted against the shed quota); *record* persists a freshly
        resolved result (worker thread, completion order); *on_shed* /
        *on_cancelled* build the explicit refusal results.
        """
        items = list(items)
        if self.shed_after is not None and on_shed is None:
            raise ConfigurationError(
                "shed_after requires an on_shed result builder"
            )
        if (
            self.batch_deadline_s is not None or self.cancel is not None
        ) and on_cancelled is None:
            raise ConfigurationError(
                "the executor requires an on_cancelled result builder"
            )
        if self.batch_deadline_s is not None:
            self._deadline_at = (
                current_clock().monotonic() + self.batch_deadline_s
            )
        if self.workers <= 1:
            return self._run_inline(
                items, resolve, replay, record, on_shed, on_cancelled
            )
        return self._run_parallel(
            items, resolve, replay, record, on_shed, on_cancelled
        )

    # ------------------------------------------------------------------
    def _run_inline(
        self, items, resolve, replay, record, on_shed, on_cancelled
    ) -> list[Any]:
        results: list[Any] = []
        admitted = 0
        for index, item in enumerate(items):
            if replay is not None:
                replayed = replay(index, item)
                if replayed is not None:
                    results.append(replayed)
                    continue
            reason = self.drain_reason()
            if reason is not None:
                results.append(on_cancelled(index, item, reason))
                continue
            if self.shed_after is not None and admitted >= self.shed_after:
                results.append(on_shed(index, item))
                continue
            admitted += 1
            result = resolve(index, item)
            if record is not None:
                record(index, item, result)
            results.append(result)
        return results

    # ------------------------------------------------------------------
    def _run_parallel(
        self, items, resolve, replay, record, on_shed, on_cancelled
    ) -> list[Any]:
        work: queue.Queue = queue.Queue(maxsize=self.queue_size)
        results: dict[int, Any] = {}
        results_lock = threading.Lock()
        errors: list[tuple[int, BaseException]] = []
        worker_count = min(self.workers, max(1, len(items)))
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
                self._consume(
                    work, resolve, record, on_cancelled,
                    results, results_lock, errors,
                )
                return
            tracer = Tracer()
            worker_tracers[slot] = tracer
            with tracing(tracer):
                self._consume(
                    work, resolve, record, on_cancelled,
                    results, results_lock, errors,
                )

        threads = [
            threading.Thread(
                target=contexts[slot].run,
                args=(worker_body, slot),
                name=f"repro-executor-{slot}",
                daemon=True,
            )
            for slot in range(worker_count)
        ]
        admitted = 0
        try:
            for thread in threads:
                thread.start()
            for index, item in enumerate(items):
                if replay is not None:
                    replayed = replay(index, item)
                    if replayed is not None:
                        with results_lock:
                            results[index] = replayed
                        continue
                reason = self.drain_reason()
                if reason is not None:
                    with results_lock:
                        results[index] = on_cancelled(index, item, reason)
                    continue
                if (
                    self.shed_after is not None
                    and admitted >= self.shed_after
                ):
                    with results_lock:
                        results[index] = on_shed(index, item)
                    continue
                admitted += 1
                if not self._put(work, (index, item)):
                    # admission closed while we were blocked on a full
                    # queue: the item never started
                    with results_lock:
                        results[index] = on_cancelled(
                            index, item,
                            self.drain_reason() or "cancelled",
                        )
        except BaseException:
            # submission failed (e.g. a JournalError from replay):
            # close admission so the workers stop promptly, then drain
            self.cancel.cancel("batch submission aborted")
            raise
        finally:
            for _ in threads:
                work.put(_SENTINEL)
            for thread in threads:
                thread.join()
            parent_tracer = current_tracer()
            if parent_tracer is not None:
                for tracer in worker_tracers:
                    if tracer is not None:
                        parent_tracer.absorb(tracer)
        if errors:
            errors.sort(key=lambda pair: pair[0])
            raise errors[0][1]
        return [results[index] for index in range(len(items))]

    def _put(self, work: queue.Queue, entry) -> bool:
        """Blocking, cancellation-aware put (the backpressure point)."""
        while True:
            try:
                work.put(entry, timeout=_PUT_POLL_S)
                return True
            except queue.Full:
                if self.drain_reason() is not None:
                    return False

    def _consume(
        self, work, resolve, record, on_cancelled,
        results, results_lock, errors,
    ) -> None:
        """Worker loop: dequeue, (maybe) resolve, record, store."""
        while True:
            entry = work.get()
            if entry is _SENTINEL:
                return
            index, item = entry
            try:
                reason = self.drain_reason()
                if reason is not None:
                    # queued but not started when the drain began
                    result = on_cancelled(index, item, reason)
                else:
                    result = resolve(index, item)
                    if record is not None:
                        record(index, item, result)
                with results_lock:
                    results[index] = result
            except Exception as exc:  # noqa: BLE001 -- supervision
                with results_lock:
                    errors.append((index, exc))
                self.cancel.cancel(
                    f"internal executor error at index {index}"
                )

    def __repr__(self) -> str:
        return (
            f"ParallelExecutor(workers={self.workers}, "
            f"queue_size={self.queue_size}, "
            f"shed_after={self.shed_after}, "
            f"batch_deadline_s={self.batch_deadline_s})"
        )
