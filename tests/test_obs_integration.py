"""End-to-end observability over the paper's workloads.

The acceptance bar for the tracing subsystem, exercised on the real
engine rather than synthetic spans:

* a traced NedExplain run of **every** use case exports a JSON-lines
  trace that the validating reader accepts;
* the per-phase span durations *are* the reported phase totals
  (``report.phase_times_ms``) -- one measurement, two views, equal to
  within float-summation noise;
* operator spans carry the node fingerprint and output cardinality,
  and those cardinalities are the evaluation's own output sizes over
  the Table 3 query catalog;
* the cache and budget layers surface their work as metrics.
"""

from __future__ import annotations

import math

import pytest

from repro import Budget, NedExplain, tracing
from repro.obs import Tracer, read_trace_jsonl, write_trace_jsonl
from repro.relational import EvaluationCache, evaluate_query
from repro.robustness.faults import FaultPlan, inject
from repro.workloads import (
    QUERIES,
    USE_CASES,
    get_canonical,
    get_database,
    use_case_setup,
)

USE_CASE_NAMES = [uc.name for uc in USE_CASES]


def _traced_run(name: str):
    """One use case, fresh cache, under a fresh tracer."""
    use_case, database, canonical = use_case_setup(name)
    engine = NedExplain(
        canonical, database=database, cache=EvaluationCache()
    )
    with tracing() as tracer:
        report = engine.explain(use_case.predicate)
    return tracer, report


class TestTracedUseCases:
    @pytest.mark.parametrize("name", USE_CASE_NAMES)
    def test_trace_exports_and_validates(self, name, tmp_path):
        tracer, report = _traced_run(name)
        path = write_trace_jsonl(tracer, tmp_path / f"{name}.jsonl")
        spans, metrics = read_trace_jsonl(path)
        assert spans, "a traced run must produce spans"
        categories = {record["category"] for record in spans}
        assert "run" in categories
        assert "phase" in categories

    @pytest.mark.parametrize("name", USE_CASE_NAMES)
    def test_phase_span_sums_match_report(self, name):
        tracer, report = _traced_run(name)
        totals = tracer.phase_totals_ms()
        assert set(totals) == set(report.phase_times_ms)
        for phase, reported in report.phase_times_ms.items():
            assert math.isclose(
                totals[phase], reported, rel_tol=1e-9, abs_tol=1e-6
            ), f"{name}/{phase}: spans {totals[phase]} != {reported}"
        # ... and therefore the spans sum to the reported total
        assert math.isclose(
            sum(totals.values()),
            report.total_time_ms,
            rel_tol=1e-9,
            abs_tol=1e-6,
        )

    def test_run_span_wraps_the_question(self):
        tracer, report = _traced_run("Crime5")
        runs = tracer.by_category("run")
        assert len(runs) == 1
        run = runs[0]
        assert run.parent_id is None
        assert run.tags["answers"] == len(report.answers)
        assert run.tags["partial"] is False
        # every phase span lives inside the run span
        run_ids = {run.span_id}
        for phase_span in tracer.by_category("phase"):
            assert phase_span.parent_id in run_ids

    def test_operator_spans_carry_fingerprint_and_cardinality(self):
        tracer, _ = _traced_run("Crime5")
        operators = tracer.by_category("operator")
        assert operators
        for operator in operators:
            assert len(operator.tags["fingerprint"]) == 12
            assert operator.tags["rows_out"] >= 0
            assert operator.tags["postorder"] >= 0
            assert operator.tags["op"]

    def test_cache_and_budget_metrics_recorded(self):
        use_case, database, canonical = use_case_setup("Crime5")
        engine = NedExplain(
            canonical, database=database, cache=EvaluationCache()
        )
        with tracing() as tracer:
            engine.explain(
                use_case.predicate, budget=Budget(max_rows=10_000)
            )
            engine.explain(use_case.predicate)  # second run: cache hits
        snapshot = tracer.metrics.snapshot()
        assert snapshot["cache.misses"]["value"] >= 1
        assert snapshot["cache.hits"]["value"] >= 1
        assert snapshot["budget.rows"]["value"] > 0
        assert snapshot["evaluator.operators"]["value"] > 0
        assert snapshot["evaluator.rows_out"]["count"] > 0
        assert snapshot["compatible.finds"]["value"] >= 1
        assert snapshot["successors.steps"]["value"] >= 1

    def test_fault_site_metrics_recorded(self):
        use_case, database, canonical = use_case_setup("Crime5")
        engine = NedExplain(
            canonical, database=database, cache=EvaluationCache()
        )
        plan = FaultPlan()  # no specs: observe sites, fire nothing
        with tracing() as tracer:
            with inject(plan):
                engine.explain(use_case.predicate)
        snapshot = tracer.metrics.snapshot()
        calls = [
            name for name in snapshot if name.startswith("faults.calls.")
        ]
        assert calls, "fault sites must be visible in the metrics"
        assert not any(
            name.startswith("faults.fired.") for name in snapshot
        )

    def test_tracing_does_not_change_answers(self):
        use_case, database, canonical = use_case_setup("Imdb2")
        plain = NedExplain(
            canonical, database=database, cache=EvaluationCache()
        ).explain(use_case.predicate)
        with tracing():
            traced = NedExplain(
                canonical, database=database, cache=EvaluationCache()
            ).explain(use_case.predicate)
        assert plain.summary() == traced.summary()


class TestExplainPlanActuals:
    """The operator spans record each node's actual cardinality."""

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_actuals_recorded_for_every_node(self, query):
        canonical = get_canonical(query)
        db_name = QUERIES[query][0]
        database = get_database(db_name)
        with tracing() as tracer:
            result = evaluate_query(
                canonical.root, database.instance(), canonical.aliases
            )
        nodes = list(canonical.root.postorder())
        operators = tracer.by_category("operator")
        # the row engine opens one span per node, in postorder
        assert [span.tags["postorder"] for span in operators] == list(
            range(len(nodes))
        )
        for span, node in zip(operators, nodes):
            assert span.tags["rows_out"] == len(result.output(node))
