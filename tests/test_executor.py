"""Unit tests for the worker-pool batch executor.

:class:`~repro.robustness.ParallelExecutor` is exercised directly with
synthetic resolve functions (ordering, cancellation, error supervision,
context propagation, tracer merging) and through
``NedExplain.explain_each(workers=N)`` for the engine-level guarantees
(thread-local state, cancelled outcome shapes).  The heavyweight
determinism differentials live in test_chaos.py; the CLI-level drain
and kill/resume proofs in test_journal_resume.py.
"""

from __future__ import annotations

import contextvars
import sys
import threading
import time

import pytest

from repro.core import NedExplain, canonicalize
from repro.errors import (
    CancelledError,
    ConfigurationError,
    ReproError,
)
from repro.obs import ManualClock, Tracer, tracing, use_clock
from repro.obs.clock import current_clock
from repro.obs.trace import metric_counter
from repro.relational import EvaluationCache
from repro.robustness import CancellationToken, ParallelExecutor
from repro.workloads.generator import chain_database, chain_query

QUESTIONS = ["(R0.label: needle)", "(R0.label: r0v1)", "(R2.label: r2v3)"]


def _engine():
    db = chain_database(3, rows_per_relation=12)
    canonical = canonicalize(chain_query(3), db.schema)
    return NedExplain(canonical, database=db, cache=EvaluationCache())


def _cancelled(index, item, reason):
    return ("cancelled", index, reason)


# ---------------------------------------------------------------------------
# CancellationToken
# ---------------------------------------------------------------------------
class TestCancellationToken:
    def test_one_shot_first_reason_wins(self):
        token = CancellationToken()
        assert not token.cancelled
        assert token.reason is None
        assert token.cancel("first")
        assert not token.cancel("second")
        assert token.cancelled
        assert token.reason == "first"

    def test_is_thread_safe_exactly_one_winner(self):
        token = CancellationToken()
        wins = []
        barrier = threading.Barrier(8)

        def contender(n):
            barrier.wait()
            if token.cancel(f"t{n}"):
                wins.append(n)

        threads = [
            threading.Thread(target=contender, args=(n,))
            for n in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert token.reason == f"t{wins[0]}"


# ---------------------------------------------------------------------------
# Construction and call validation
# ---------------------------------------------------------------------------
class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"workers": -2},
            {"workers": True},
            {"workers": 1.5},
            {"workers": "2"},
            {"workers": None},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(**kwargs)

    def test_on_cancelled_is_required(self):
        executor = ParallelExecutor()
        with pytest.raises(ConfigurationError):
            executor.run([1], lambda i, x: x)


# ---------------------------------------------------------------------------
# Ordering and equivalence of the inline / parallel paths
# ---------------------------------------------------------------------------
class TestOrdering:
    def test_results_in_submission_order_despite_completion_order(self):
        # earlier items sleep longer, so completion order is reversed
        def resolve(index, item):
            time.sleep(0.002 * (20 - index))
            return item * 10

        items = list(range(20))
        executor = ParallelExecutor(workers=4)
        results = executor.run(
            items, resolve, on_cancelled=_cancelled
        )
        assert results == [item * 10 for item in items]

    def test_inline_and_parallel_agree(self):
        items = list(range(12))
        resolve = lambda index, item: (index, item * item)  # noqa: E731
        inline = ParallelExecutor(workers=1).run(
            items, resolve, on_cancelled=_cancelled
        )
        parallel = ParallelExecutor(workers=4).run(
            items, resolve, on_cancelled=_cancelled
        )
        assert inline == parallel

    def test_record_sees_every_resolved_item_exactly_once(self):
        recorded = []
        lock = threading.Lock()

        def record(index, item, result):
            with lock:
                recorded.append((index, item, result))

        executor = ParallelExecutor(workers=4)
        executor.run(
            list(range(10)),
            lambda i, x: x + 1,
            record=record,
            on_cancelled=_cancelled,
        )
        # completion order is free, the *set* is not
        assert sorted(recorded) == [(i, i, i + 1) for i in range(10)]

    def test_more_workers_than_items(self):
        executor = ParallelExecutor(workers=16)
        assert executor.run(
            [1, 2], lambda i, x: -x, on_cancelled=_cancelled
        ) == [-1, -2]

    def test_empty_batch(self):
        assert ParallelExecutor(workers=4).run(
            [], lambda i, x: x, on_cancelled=_cancelled
        ) == []


# ---------------------------------------------------------------------------
# Cancellation, drain, error supervision
# ---------------------------------------------------------------------------
class TestCancellation:
    def test_precancelled_token_cancels_everything(self):
        token = CancellationToken()
        token.cancel("operator says stop")
        ran = []
        results = ParallelExecutor(workers=4, cancel=token).run(
            [1, 2, 3],
            lambda i, x: ran.append(x),
            on_cancelled=_cancelled,
        )
        assert ran == []
        assert results == [
            ("cancelled", i, "operator says stop") for i in range(3)
        ]

    def test_drain_finishes_in_flight_and_cancels_the_rest(self):
        token = CancellationToken()
        started = threading.Event()
        release = threading.Event()
        recorded = []
        lock = threading.Lock()

        def resolve(index, item):
            started.set()
            release.wait(timeout=30)
            return ("ok", index)

        def record(index, item, result):
            with lock:
                recorded.append(index)

        def trigger():
            started.wait(timeout=30)
            token.cancel("drain now")
            release.set()

        trigger_thread = threading.Thread(target=trigger)
        trigger_thread.start()
        # two workers: at most two items are in flight when the drain
        # begins; the tail is not
        results = ParallelExecutor(workers=2, cancel=token).run(
            list(range(8)), resolve, record=record,
            on_cancelled=_cancelled,
        )
        trigger_thread.join()

        finished = [r for r in results if r[0] == "ok"]
        cancelled = [r for r in results if r[0] == "cancelled"]
        assert finished, "the in-flight work did not complete"
        assert cancelled, "the drain cancelled nothing"
        assert len(finished) + len(cancelled) == 8
        for r in finished:
            assert r[1] in recorded  # completed work is journal-able
        for r in cancelled:
            assert r[2] == "drain now"
            assert r[1] not in recorded  # never journalled

    def test_worker_exception_is_supervised_and_reraised(self):
        def resolve(index, item):
            if index == 3:
                raise RuntimeError("worker blew up")
            return index

        token = CancellationToken()
        executor = ParallelExecutor(workers=4, cancel=token)
        with pytest.raises(RuntimeError, match="worker blew up"):
            executor.run(
                list(range(8)), resolve, on_cancelled=_cancelled
            )
        # the error stopped that batch only: the caller's token, which
        # outlives the batch, is never written by the pool
        assert not token.cancelled
        assert executor.run(
            [1, 2], lambda i, x: -x, on_cancelled=_cancelled
        ) == [-1, -2]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_lowest_index_error_is_reraised(self, workers):
        def resolve(index, item):
            if index == 5:
                raise RuntimeError("late failure")
            if index == 2:
                time.sleep(0.01)  # finish after index 5 has failed
                raise RuntimeError("early failure")
            return index

        with pytest.raises(RuntimeError, match="early failure"):
            ParallelExecutor(workers=workers).run(
                list(range(8)), resolve, on_cancelled=_cancelled
            )

    def test_every_index_is_taken_exactly_once_under_contention(self):
        # more workers than cores and a tiny switch interval: a lost
        # update on the shared index counter would resolve an item
        # twice or skip one
        seen = []
        lock = threading.Lock()

        def resolve(index, item):
            with lock:
                seen.append(index)
            return item * 2

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = ParallelExecutor(workers=16).run(
                list(range(400)), resolve, on_cancelled=_cancelled
            )
        finally:
            sys.setswitchinterval(previous)
        assert sorted(seen) == list(range(400))
        assert results == [item * 2 for item in range(400)]


# ---------------------------------------------------------------------------
# Context propagation and observability merging
# ---------------------------------------------------------------------------
_AMBIENT = contextvars.ContextVar("test_executor_ambient", default="unset")


class TestContextPropagation:
    def test_workers_see_the_submitters_contextvars(self):
        token = _AMBIENT.set("batch-7")
        try:
            seen = ParallelExecutor(workers=4).run(
                list(range(8)),
                lambda i, x: (_AMBIENT.get(), threading.current_thread().name),
                on_cancelled=_cancelled,
            )
        finally:
            _AMBIENT.reset(token)
        assert {value for value, _ in seen} == {"batch-7"}
        # and the work really ran off the submitting thread
        assert any(
            name.startswith("repro-executor-") for _, name in seen
        )

    def test_workers_read_the_batch_manual_clock(self):
        clock = ManualClock(start=42.0)
        with use_clock(clock):
            seen = ParallelExecutor(workers=4).run(
                list(range(6)),
                lambda i, x: current_clock(),
                on_cancelled=_cancelled,
            )
        # no per-question fork: every worker reads the one batch clock
        assert all(worker_clock is clock for worker_clock in seen)

    def test_worker_tracers_fold_back_into_the_parent(self):
        def resolve(index, item):
            metric_counter("test.work")
            return index

        with tracing(Tracer()) as tracer:
            ParallelExecutor(workers=4).run(
                list(range(10)), resolve, on_cancelled=_cancelled
            )
        assert tracer.metrics.counter("test.work").value == 10
        assert not tracer.open_spans


# ---------------------------------------------------------------------------
# Engine-level integration: explain_each(workers=N)
# ---------------------------------------------------------------------------
class TestEngineIntegration:
    def test_cancelled_outcome_shapes(self):
        engine = _engine()
        token = CancellationToken()
        token.cancel("test drain")
        cancelled = engine.explain_each(
            QUESTIONS, workers=2, cancel=token
        )
        for outcome in cancelled:
            assert outcome.degradation_level == "cancelled"
            assert isinstance(outcome.error, CancelledError)
            assert "test drain" in outcome.failure.message

    def test_engine_state_is_thread_local(self):
        engine = _engine()
        outcomes = engine.explain_each(QUESTIONS, workers=4)
        assert all(o.ok for o in outcomes)
        # the batch ran on worker threads; the calling thread's
        # per-thread debug state was never touched
        assert engine.last_tabqs == []

    def test_parallel_errors_stay_contained(self):
        engine = _engine()
        questions = [QUESTIONS[0], "(R0.nope: x)", QUESTIONS[2]]
        outcomes = engine.explain_each(questions, workers=3)
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert isinstance(outcomes[1].error, ReproError)
        assert outcomes[1].degradation_level == "failed"
