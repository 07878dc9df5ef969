"""Execution budgets, degraded answers, and fault-isolated batches.

The contract under test (docs/robustness.md):

* a :class:`~repro.robustness.Budget` is enforced cooperatively at the
  evaluator / compatible-set / successor tick points;
* ``NedExplain.explain`` never raises for budget exhaustion -- it
  returns an explicit *degraded* report (``report.partial``);
* an unlimited budget changes nothing observably (differential check);
* ``explain_each`` is total: N questions always yield N outcomes, one
  failing question never drops the rest;
* an aborted evaluation never leaves a partial entry in the shared
  :class:`~repro.relational.EvaluationCache`.
"""

from __future__ import annotations

import pytest

from repro.baseline import WhyNotBaseline
from repro.core import NedExplain, canonicalize
from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    InjectedFaultError,
    WhyNotQuestionError,
)
from repro.obs import ManualClock, use_clock
from repro.relational import EvaluationCache
from repro.robustness import (
    Budget,
    ExecutionContext,
    FailureInfo,
    FaultPlan,
    FaultSpec,
    QuestionOutcome,
    current_context,
    execution_context,
    inject,
)
from repro.workloads.generator import (
    chain_database,
    chain_predicate,
    chain_query,
)


@pytest.fixture()
def chain():
    """(database, canonical) for a small 3-relation chain join."""
    db = chain_database(3, rows_per_relation=20)
    canonical = canonicalize(chain_query(3), db.schema)
    return db, canonical


QUESTIONS = ["(R0.label: needle)", "(R0.label: r0v1)", "(R2.label: r2v3)"]


def answer_fingerprint(answer):
    return (
        repr(answer.ctuple),
        answer.detailed_pairs,
        answer.condensed_labels,
        answer.secondary_labels,
        answer.no_compatible_data,
        answer.answer_not_missing,
        answer.partial,
    )


def report_fingerprint(report):
    return (
        tuple(answer_fingerprint(a) for a in report.answers),
        report.partial,
        report.summary(),
    )


# ---------------------------------------------------------------------------
# Budget / ExecutionContext unit behaviour
# ---------------------------------------------------------------------------
class TestBudget:
    def test_default_is_unlimited(self):
        assert Budget().is_unlimited

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_s": 0},
            {"deadline_s": -1.5},
            {"max_rows": 0},
            {"max_rows": -3},
            {"max_comparisons": 0},
        ],
    )
    def test_non_positive_limits_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            Budget(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_s": float("nan")},
            {"deadline_s": float("inf")},
            {"deadline_s": True},
            {"max_rows": 2.7},
            {"max_rows": float("inf")},
            {"max_rows": True},
            {"max_comparisons": 1e400},
            {"max_comparisons": 3.0},
        ],
    )
    def test_unbounded_or_fractional_limits_rejected(self, kwargs):
        """NaN passes ``<= 0`` and would run with no limit at all; a
        fractional count would be cut silently."""
        (key,) = kwargs
        with pytest.raises(ConfigurationError, match=key):
            Budget(**kwargs)

    def test_rows_limit_enforced(self):
        context = ExecutionContext(Budget(max_rows=10))
        context.tick_rows(10)  # at the limit: fine
        with pytest.raises(BudgetExceededError) as info:
            context.tick_rows(1)
        assert info.value.resource == "rows"
        assert info.value.spent.rows == 11

    def test_comparisons_limit_enforced(self):
        context = ExecutionContext(Budget(max_comparisons=5))
        with pytest.raises(BudgetExceededError) as info:
            context.tick_comparisons(6)
        assert info.value.resource == "comparisons"
        assert info.value.spent.comparisons == 6

    def test_deadline_enforced(self):
        # deterministic: the clock is driven, not slept on
        clock = ManualClock()
        context = ExecutionContext(
            Budget(deadline_s=0.005), clock=clock
        )
        clock.advance(0.02)
        with pytest.raises(BudgetExceededError) as info:
            context.check_deadline()
        assert info.value.resource == "deadline"
        assert info.value.spent.elapsed_s == pytest.approx(0.02)

    def test_exhaustion_reports_phase(self):
        context = ExecutionContext(Budget(max_rows=1))
        context.phase = "BottomUp"
        with pytest.raises(BudgetExceededError) as info:
            context.tick_rows(2)
        assert info.value.phase == "BottomUp"

    def test_unlimited_context_never_raises(self):
        context = ExecutionContext()
        context.tick_rows(10**6)
        context.tick_comparisons(10**7)
        context.check_deadline()
        assert context.spent().rows == 10**6

    def test_ambient_context_installs_and_restores(self):
        assert current_context() is None
        context = ExecutionContext()
        with execution_context(context):
            assert current_context() is context
        assert current_context() is None


class TestInjectableClock:
    """The context reads time only through its injectable clock."""

    def test_context_captures_ambient_clock(self):
        clock = ManualClock(start=10.0)
        with use_clock(clock):
            context = ExecutionContext(Budget(deadline_s=1.0))
        # the captured clock keeps working outside the use_clock block
        clock.advance(0.25)
        assert context.spent().elapsed_s == pytest.approx(0.25)
        clock.advance(1.0)
        with pytest.raises(BudgetExceededError):
            context.check_deadline()

    def test_elapsed_is_exact_not_approximate(self):
        clock = ManualClock()
        context = ExecutionContext(clock=clock)
        clock.advance(1.234)
        assert context.spent().elapsed_s == 1.234

    def test_comparison_deadline_check_is_throttled(self):
        from repro.robustness.budget import DEADLINE_CHECK_EVERY

        clock = ManualClock()
        context = ExecutionContext(
            Budget(deadline_s=0.001), clock=clock
        )
        clock.advance(1.0)  # deadline long gone
        # below the throttle threshold: no clock read, no raise
        context.tick_comparisons(DEADLINE_CHECK_EVERY - 1)
        # crossing the threshold triggers the deferred check
        with pytest.raises(BudgetExceededError) as info:
            context.tick_comparisons(1)
        assert info.value.resource == "deadline"

    def test_row_ticks_always_check_deadline(self):
        clock = ManualClock()
        context = ExecutionContext(
            Budget(deadline_s=0.001), clock=clock
        )
        clock.advance(1.0)
        with pytest.raises(BudgetExceededError):
            context.tick_rows(1)


# ---------------------------------------------------------------------------
# Degraded NedExplain reports
# ---------------------------------------------------------------------------
class TestDegradedExplain:
    def test_exhausted_budget_returns_partial_report(self, chain):
        db, canonical = chain
        engine = NedExplain(
            canonical, database=db, cache=EvaluationCache()
        )
        report = engine.explain(
            chain_predicate(), budget=Budget(max_rows=3)
        )
        assert report.partial
        assert report.degraded_reason
        assert "PARTIAL RESULT" in report.summary()

    def test_comparison_budget_degrades_not_raises(self, chain):
        db, canonical = chain
        engine = NedExplain(
            canonical, database=db, cache=EvaluationCache()
        )
        report = engine.explain(
            chain_predicate(), budget=Budget(max_comparisons=1)
        )
        assert report.partial

    def test_generous_budget_is_observationally_free(self, chain):
        db, canonical = chain
        plain = NedExplain(
            canonical, database=db, cache=EvaluationCache()
        ).explain(chain_predicate())
        budgeted = NedExplain(
            canonical, database=db, cache=EvaluationCache()
        ).explain(
            chain_predicate(),
            budget=Budget(
                deadline_s=3600, max_rows=10**9, max_comparisons=10**9
            ),
        )
        assert not budgeted.partial
        assert report_fingerprint(budgeted) == report_fingerprint(plain)

    def test_mid_traversal_exhaustion_keeps_prefix(self, chain):
        """Exhaustion during the TabQ walk attaches the partial answer
        and the partially-filled TabQ."""
        db, canonical = chain
        engine = NedExplain(
            canonical, database=db, cache=EvaluationCache()
        )
        # generous enough to finish the shared evaluation and the
        # compatible sets, tight enough to die inside the entry loop
        full = engine.explain(chain_predicate())
        assert not full.partial
        hit_mid_traversal = False
        for limit in range(1, 200):
            report = engine.explain(
                chain_predicate(), budget=Budget(max_comparisons=limit)
            )
            if not report.partial:
                break  # the budget now covers the whole run
            if report.answers:
                hit_mid_traversal = True
                assert report.answers[-1].partial
                assert engine.last_tabqs  # the partial TabQ is kept
        assert hit_mid_traversal, (
            "no comparison limit landed inside the TabQ walk"
        )

    def test_injected_budget_fault_degrades(self, chain):
        db, canonical = chain
        engine = NedExplain(
            canonical, database=db, cache=EvaluationCache()
        )
        plan = FaultPlan(
            [FaultSpec("compatible.find", at_call=0, kind="budget")]
        )
        with inject(plan):
            report = engine.explain(chain_predicate())
        assert report.partial
        assert plan.fired


# ---------------------------------------------------------------------------
# Baseline under budget
# ---------------------------------------------------------------------------
class TestBaselineBudget:
    def test_baseline_budget_raises_cleanly(self, chain):
        db, canonical = chain
        baseline = WhyNotBaseline(
            canonical, database=db, cache=EvaluationCache()
        )
        with pytest.raises(BudgetExceededError):
            baseline.explain(chain_predicate(), budget=Budget(max_rows=3))

    def test_baseline_unlimited_budget_identical(self, chain):
        db, canonical = chain
        baseline = WhyNotBaseline(
            canonical, database=db, cache=EvaluationCache()
        )
        plain = baseline.explain(chain_predicate())
        budgeted = baseline.explain(
            chain_predicate(), budget=Budget(max_rows=10**9)
        )
        assert budgeted.answer_labels == plain.answer_labels
        assert budgeted.summary() == plain.summary()


# ---------------------------------------------------------------------------
# Fault-isolated batches
# ---------------------------------------------------------------------------
class TestExplainEach:
    def test_all_ok_matches_sequential_explain(self, chain):
        db, canonical = chain
        engine = NedExplain(
            canonical, database=db, cache=EvaluationCache()
        )
        outcomes = engine.explain_each(QUESTIONS)
        assert len(outcomes) == len(QUESTIONS)
        assert all(o.ok and not o.partial for o in outcomes)
        reports = [engine.explain(question) for question in QUESTIONS]
        for outcome, report in zip(outcomes, reports):
            assert report_fingerprint(
                outcome.report
            ) == report_fingerprint(report)

    def test_one_bad_question_does_not_drop_the_rest(self, chain):
        db, canonical = chain
        engine = NedExplain(
            canonical, database=db, cache=EvaluationCache()
        )
        questions = [QUESTIONS[0], "(Nope.x: 1)", QUESTIONS[2]]
        outcomes = engine.explain_each(questions)
        assert len(outcomes) == 3
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert outcomes[1].failure.error_class == "WhyNotQuestionError"
        with pytest.raises(WhyNotQuestionError):
            outcomes[1].unwrap()

    def test_injected_fault_isolated_to_its_question(self, chain):
        db, canonical = chain
        engine = NedExplain(
            canonical, database=db, cache=EvaluationCache()
        )
        baseline_outcomes = engine.explain_each(QUESTIONS)
        # each chain question unrenames to one c-tuple -> one
        # compatible.find call per question: at_call=1 kills exactly
        # the second question
        plan = FaultPlan([FaultSpec("compatible.find", at_call=1)])
        with inject(plan):
            outcomes = engine.explain_each(QUESTIONS)
        assert len(outcomes) == 3
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert outcomes[1].failure.error_class == "InjectedFaultError"
        assert isinstance(outcomes[1].error, InjectedFaultError)
        for index in (0, 2):
            assert report_fingerprint(
                outcomes[index].report
            ) == report_fingerprint(baseline_outcomes[index].report)

    def test_unexpected_exception_is_wrapped(self, chain, monkeypatch):
        db, canonical = chain
        engine = NedExplain(
            canonical, database=db, cache=EvaluationCache()
        )

        def boom(tc):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(engine.finder, "find", boom)
        outcomes = engine.explain_each(QUESTIONS[:1])
        assert len(outcomes) == 1
        assert not outcomes[0].ok
        assert outcomes[0].failure.error_class == "EvaluationError"
        assert isinstance(outcomes[0].error.__cause__, RuntimeError)

    def test_budgeted_batch_reports_partials_not_failures(self, chain):
        db, canonical = chain
        engine = NedExplain(
            canonical, database=db, cache=EvaluationCache()
        )
        outcomes = engine.explain_each(
            QUESTIONS, budget=Budget(max_rows=3)
        )
        assert len(outcomes) == len(QUESTIONS)
        assert all(o.ok for o in outcomes)
        assert all(o.partial for o in outcomes)


class TestOutcomeTypes:
    def test_outcome_requires_exactly_one_of_report_failure(self):
        failure = FailureInfo(error_class="X", message="boom")
        with pytest.raises(ValueError):
            QuestionOutcome(question="q")
        with pytest.raises(ValueError):
            QuestionOutcome(
                question="q", report=object(), failure=failure
            )

    def test_failure_info_describe(self):
        context = ExecutionContext()
        context.tick_rows(7)
        failure = FailureInfo.from_error(
            BudgetExceededError("out of rows", resource="rows"),
            phase="BottomUp",
            spent=context.spent(),
        )
        text = failure.describe()
        assert "BudgetExceededError" in text
        assert "phase=BottomUp" in text
        assert "rows=7" in text


# ---------------------------------------------------------------------------
# Cache must never retain partial results
# ---------------------------------------------------------------------------
class TestCachePartialGuard:
    def test_aborted_evaluation_not_cached(self, chain):
        db, canonical = chain
        cache = EvaluationCache()
        engine = NedExplain(canonical, database=db, cache=cache)
        report = engine.explain(
            chain_predicate(), budget=Budget(max_rows=3)
        )
        assert report.partial
        assert len(cache) == 0  # the aborted evaluation was dropped
        cache.check_invariants()
        # a later unbudgeted run stores the complete entry
        full = engine.explain(chain_predicate())
        assert not full.partial
        assert len(cache) == 1
        cache.check_invariants()

    def test_store_fault_drops_entry_keeps_counters(self, chain):
        db, canonical = chain
        cache = EvaluationCache()
        engine = NedExplain(canonical, database=db, cache=cache)
        plan = FaultPlan([FaultSpec("cache.store", at_call=0)])
        with inject(plan):
            outcomes = engine.explain_each(QUESTIONS[:1])
        assert not outcomes[0].ok
        assert len(cache) == 0
        assert cache.stats.evaluations == 1  # work done, entry dropped
        cache.check_invariants()
