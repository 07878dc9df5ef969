"""Degradation ladder, fault-plan reuse, and the client's backoff policy.

The acceptance contract of ``explain_each``:

* each question is resolved in exactly one attempt -- a fault that
  fires fails the question (NedExplain is deterministic, so running it
  again could only burn the same work);
* with the baseline fallback enabled, a failed question still gets a
  valid Why-Not answer with ``degradation_level == "baseline"``;
* the service client's pushback backoff (:class:`RetryPolicy`) is
  deterministic and bounded.
"""

from __future__ import annotations

import pytest

from repro.core import NedExplain, canonicalize
from repro.errors import ConfigurationError, InjectedFaultError
from repro.obs import ManualClock, Tracer, tracing, use_clock
from repro.relational import EvaluationCache
from repro.robustness import FaultPlan, FaultSpec, inject
from repro.service.client import RetryPolicy
from repro.workloads.generator import chain_database, chain_query


def _setup():
    db = chain_database(3, rows_per_relation=12)
    canonical = canonicalize(chain_query(3), db.schema)
    return db, canonical


QUESTION = "(R0.label: needle)"

_DB, _CANONICAL = _setup()


def _engine():
    return NedExplain(_CANONICAL, database=_DB, cache=EvaluationCache())


# ---------------------------------------------------------------------------
# RetryPolicy units (the service client's pushback backoff)
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_ms": -1.0},
            {"max_backoff_ms": -1.0},
            {"multiplier": 0.5},
            {"jitter": 1.5},
            {"jitter": -0.1},
        ],
    )
    def test_invalid_configuration_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_delay_is_deterministic(self):
        policy = RetryPolicy(seed=7)
        assert policy.delay_s(2, key="q") == policy.delay_s(2, key="q")
        # a different question key jitters differently
        assert policy.delay_s(2, key="q") != policy.delay_s(2, key="r")

    def test_delay_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(backoff_ms=100.0, multiplier=2.0, jitter=0.0)
        assert policy.delay_s(0) == pytest.approx(0.1)
        assert policy.delay_s(1) == pytest.approx(0.2)
        assert policy.delay_s(2) == pytest.approx(0.4)

    def test_delay_caps_at_max_backoff(self):
        policy = RetryPolicy(
            backoff_ms=100.0, max_backoff_ms=150.0, jitter=0.0
        )
        assert policy.delay_s(5) == pytest.approx(0.15)

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(backoff_ms=100.0, jitter=0.25)
        for k in range(8):
            delay = policy.delay_s(k, key="band")
            base = min(100.0 * 2.0 ** k, policy.max_backoff_ms) / 1000.0
            assert 0.75 * base <= delay <= 1.25 * base

    def test_negative_retry_index_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().delay_s(-1)


# ---------------------------------------------------------------------------
# FaultPlan snapshot / delta / reuse (satellite)
# ---------------------------------------------------------------------------
class TestFaultPlanReuse:
    def test_snapshot_and_delta(self):
        plan = FaultPlan()
        with inject(plan):
            engine = _engine()
            before = plan.snapshot()
            engine.explain(QUESTION)
            consumed = plan.delta(before)
        assert consumed.get("compatible.find", 0) >= 1
        assert all(count > 0 for count in consumed.values())
        # the snapshot itself is frozen: a later fire must not mutate it
        assert before.get("compatible.find", 0) == 0

    def test_reused_plan_fires_identically(self):
        """Reusing one plan object across inject blocks used to leak
        call counts, silently disabling every spec the second time."""
        plan = FaultPlan([FaultSpec("compatible.find", at_call=0)])
        for _ in range(3):
            with inject(plan):
                with pytest.raises(InjectedFaultError):
                    _engine().explain(QUESTION)
            assert len(plan.fired) == 1

    def test_fresh_false_continues_the_schedule(self):
        plan = FaultPlan([FaultSpec("compatible.find", at_call=0)])
        with inject(plan):
            with pytest.raises(InjectedFaultError):
                _engine().explain(QUESTION)
        with inject(plan, fresh=False):
            _engine().explain(QUESTION)  # spec already consumed
        assert len(plan.fired) == 1


# ---------------------------------------------------------------------------
# Acceptance: a failed question falls to the Why-Not baseline
# ---------------------------------------------------------------------------
class TestBaselineFallback:
    def _persistent_plan(self, site="compatible.find", calls=64):
        return FaultPlan(
            [FaultSpec(site, at_call=i) for i in range(calls)]
        )

    def test_without_fallback_a_fault_fails_the_question(self):
        plan = self._persistent_plan()
        with inject(plan):
            (outcome,) = _engine().explain_each([QUESTION])
        assert not outcome.ok
        assert outcome.degradation_level == "failed"
        assert outcome.failure.error_class == "InjectedFaultError"
        # one attempt only: the failing site was reached exactly once
        assert plan.calls["compatible.find"] == 1

    def test_failed_question_falls_to_baseline(self):
        with use_clock(ManualClock()), inject(self._persistent_plan()):
            (outcome,) = _engine().explain_each(
                [QUESTION], fallback_baseline=True
            )
        assert outcome.ok
        assert outcome.degradation_level == "baseline"
        assert outcome.baseline is not None
        assert outcome.baseline.answers  # a real frontier answer
        assert outcome.report is None
        # the triggering failure stays on record
        assert outcome.failure is not None
        assert outcome.failure.error_class == "InjectedFaultError"

    def test_baseline_dodges_a_failing_cache_site(self):
        """The baseline rung runs uncached, so a persistently failing
        cache site cannot take the fallback down with it."""
        with use_clock(ManualClock()), inject(
            self._persistent_plan(site="cache.lookup")
        ):
            (outcome,) = _engine().explain_each(
                [QUESTION], fallback_baseline=True
            )
        assert outcome.ok
        assert outcome.degradation_level == "baseline"
        assert outcome.baseline is not None

    def test_fallback_metrics(self):
        tracer = Tracer()
        with tracing(tracer), use_clock(ManualClock()), inject(
            self._persistent_plan()
        ):
            (outcome,) = _engine().explain_each(
                [QUESTION], fallback_baseline=True
            )
        assert outcome.degradation_level == "baseline"
        snapshot = tracer.metrics.snapshot()
        assert snapshot["resilience.fallbacks.baseline"]["value"] == 1

    def test_unsupported_query_drops_to_failed(self, running_example):
        """Aggregation queries have no baseline rung (the paper's
        "n.a." rows): the ladder records a failed outcome instead."""
        db, canonical = running_example
        engine = NedExplain(
            canonical, database=db, cache=EvaluationCache()
        )
        plan = FaultPlan(
            [FaultSpec("compatible.find", at_call=i) for i in range(64)]
        )
        with use_clock(ManualClock()), inject(plan):
            (outcome,) = engine.explain_each(
                ["((A.name: Homer, ap: $x), $x > 25)"],
                fallback_baseline=True,
            )
        assert not outcome.ok
        assert outcome.degradation_level == "failed"
        assert outcome.baseline is None

    def test_baseline_answer_directly(self):
        report = _engine()._baseline_answer(QUESTION)
        assert report is not None
        assert report.answers


# ---------------------------------------------------------------------------
# Outcome serialization carries the ladder fields
# ---------------------------------------------------------------------------
class TestOutcomeSerialization:
    def test_full_outcome_to_dict(self):
        (outcome,) = _engine().explain_each([QUESTION])
        data = outcome.to_dict()
        assert set(data) == {
            "question", "ok", "report", "failure",
            "degradation_level", "baseline",
        }
        assert data["degradation_level"] == "full"
        assert data["baseline"] is None

    def test_baseline_outcome_to_dict(self):
        plan = FaultPlan(
            [FaultSpec("compatible.find", at_call=i) for i in range(64)]
        )
        with use_clock(ManualClock()), inject(plan):
            (outcome,) = _engine().explain_each(
                [QUESTION], fallback_baseline=True
            )
        data = outcome.to_dict()
        assert data["ok"] is True
        assert data["report"] is None
        assert data["degradation_level"] == "baseline"
        assert data["baseline"]["answers"]
        assert set(data["failure"]) == {
            "error_class", "message", "phase", "spent",
        }
