"""One attempt per question, fault-plan reuse, outcome serialization.

The acceptance contract of ``explain_each``: each question is resolved
in exactly one attempt -- a fault that fires fails the question
(NedExplain is deterministic, so running it again could only burn the
same work).
"""

from __future__ import annotations

import pytest

from repro.core import NedExplain, canonicalize
from repro.errors import InjectedFaultError
from repro.relational import EvaluationCache
from repro.robustness import FaultPlan, FaultSpec, inject
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
# Acceptance: a failing question is resolved in one attempt
# ---------------------------------------------------------------------------
def _persistent_plan(site="compatible.find", calls=64):
    return FaultPlan([FaultSpec(site, at_call=i) for i in range(calls)])


class TestOneAttempt:
    def test_a_fault_fails_the_question(self):
        plan = _persistent_plan()
        with inject(plan):
            (outcome,) = _engine().explain_each([QUESTION])
        assert not outcome.ok
        assert outcome.degradation_level == "failed"
        assert outcome.failure.error_class == "InjectedFaultError"
        # one attempt only: the failing site was reached exactly once
        assert plan.calls["compatible.find"] == 1


# ---------------------------------------------------------------------------
# Outcome serialization: exactly one of report / failure
# ---------------------------------------------------------------------------
class TestOutcomeSerialization:
    def test_full_outcome_to_dict(self):
        (outcome,) = _engine().explain_each([QUESTION])
        data = outcome.to_dict()
        assert set(data) == {
            "question", "ok", "report", "failure", "degradation_level",
        }
        assert data["degradation_level"] == "full"
        assert data["failure"] is None

    def test_failed_outcome_to_dict(self):
        with inject(_persistent_plan()):
            (outcome,) = _engine().explain_each([QUESTION])
        data = outcome.to_dict()
        assert data["ok"] is False
        assert data["report"] is None
        assert data["degradation_level"] == "failed"
        assert set(data["failure"]) == {
            "error_class", "message", "phase", "spent",
        }
