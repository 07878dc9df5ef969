"""Differential harness: shared-evaluation cache vs fresh per-question runs.

The batched path (one cached query evaluation shared by N why-not
questions) must be *observationally identical* to N independent
NedExplain runs that each evaluate the query from scratch
(``use_shared_evaluation=False``, the literal per-question loop of
Alg. 1).  "Identical" is checked at every level the paper reports:

* the detailed answer -- ``(tid, picky subquery)`` pairs;
* the condensed and secondary answers;
* the diagnostic flags (``no_compatible_data``, ``answer_not_missing``)
  and the rendered ``summary()`` text;
* the full TabQ contents per c-tuple: Input, Output, Compatibles and
  blocked columns of every subquery entry.

Every workload use case of the paper's Table 4 is exercised, grouped
by query so the batch genuinely shares one evaluation, and the cache
counters are asserted to show exactly one full evaluation per query.
"""

from __future__ import annotations

import pytest

from repro.baseline import WhyNotBaseline
from repro.core import NedExplain, NedExplainConfig
from repro.errors import UnsupportedQueryError
from repro.relational import EvaluationCache
from repro.workloads import USE_CASES, get_canonical, get_database

# ---------------------------------------------------------------------------
# Observational fingerprints
# ---------------------------------------------------------------------------


def answer_fingerprint(answer):
    """Everything the paper reports for one c-tuple, as plain data."""
    return (
        repr(answer.ctuple),
        answer.detailed_pairs,
        answer.condensed_labels,
        answer.secondary_labels,
        tuple(q.name or q.describe() for q in answer.empty_outputs),
        answer.no_compatible_data,
        answer.answer_not_missing,
    )


def report_fingerprint(report):
    return (
        tuple(answer_fingerprint(a) for a in report.answers),
        report.summary(),
    )


def tabq_snapshot(tabq):
    """The full TabQ contents: one row per subquery entry.

    Tuples compare structurally (values + lineage), so equal snapshots
    mean byte-identical Input/Output/Compatibles/blocked columns.
    """
    return tuple(
        (
            entry.label,
            entry.level,
            entry.op,
            tuple(entry.input),
            None if entry.output is None else tuple(entry.output),
            tuple(entry.compatibles),
            tuple(entry.blocked),
        )
        for entry in tabq
    )


def fresh_run(canonical, database, predicate):
    """The oracle: an independent engine evaluating from scratch."""
    engine = NedExplain(
        canonical,
        database=database,
        config=NedExplainConfig(use_shared_evaluation=False),
    )
    report = engine.explain(predicate)
    return report, [tabq_snapshot(t) for t in engine.last_tabqs]


# ---------------------------------------------------------------------------
# Group use cases by query so batches genuinely share an evaluation
# ---------------------------------------------------------------------------
QUERY_GROUPS: dict[str, list] = {}
for _uc in USE_CASES:
    QUERY_GROUPS.setdefault(_uc.query, []).append(_uc)


@pytest.mark.parametrize("query", sorted(QUERY_GROUPS))
def test_batched_matches_fresh_per_question(query):
    cases = QUERY_GROUPS[query]
    database = get_database(cases[0].database)
    canonical = get_canonical(query)
    predicates = [uc.predicate for uc in cases]

    cache = EvaluationCache()
    engine = NedExplain(canonical, database=database, cache=cache)
    batched = []
    for predicate in predicates:
        report = engine.explain(predicate)
        batched.append(
            (report, [tabq_snapshot(t) for t in engine.last_tabqs])
        )

    # One full evaluation serves the whole batch; every further
    # question is a cache hit.
    assert cache.stats.evaluations == 1
    assert cache.stats.misses == 1
    assert cache.stats.hits == len(predicates) - 1

    for predicate, (report, snapshots) in zip(predicates, batched):
        oracle_report, oracle_snapshots = fresh_run(
            canonical, database, predicate
        )
        assert report_fingerprint(report) == report_fingerprint(
            oracle_report
        ), f"answers diverge for {query} / {predicate}"
        assert snapshots == oracle_snapshots, (
            f"TabQ contents diverge for {query} / {predicate}"
        )


@pytest.mark.parametrize("query", sorted(QUERY_GROUPS))
def test_explain_many_equals_sequential_explain(query):
    """One ``explain_each`` batch answers as one ``explain`` per
    question (the name is older than the ``explain_each`` batch)."""
    cases = QUERY_GROUPS[query]
    database = get_database(cases[0].database)
    canonical = get_canonical(query)
    predicates = [uc.predicate for uc in cases]

    batch_engine = NedExplain(
        canonical, database=database, cache=EvaluationCache()
    )
    reports = [
        outcome.unwrap() for outcome in batch_engine.explain_each(predicates)
    ]
    assert len(reports) == len(predicates)

    loop_engine = NedExplain(
        canonical, database=database, cache=EvaluationCache()
    )
    for predicate, report in zip(predicates, reports):
        assert report_fingerprint(report) == report_fingerprint(
            loop_engine.explain(predicate)
        )


def test_all_use_cases_covered_by_query_groups():
    """The grouping above must not silently drop a Table-4 use case."""
    grouped = {uc.name for group in QUERY_GROUPS.values() for uc in group}
    assert grouped == {uc.name for uc in USE_CASES}


# ---------------------------------------------------------------------------
# Baseline: cached evaluation must not change the Why-Not answers
# ---------------------------------------------------------------------------


def baseline_fingerprint(report):
    return (
        report.answer_labels,
        report.satisfied_constraints,
        tuple(
            (
                repr(trace.item),
                trace.survived,
                None
                if trace.blamed is None
                else (trace.blamed.name or trace.blamed.describe()),
            )
            for trace in report.traces
        ),
        report.summary(),
    )


@pytest.mark.parametrize("use_case", [uc.name for uc in USE_CASES])
def test_baseline_cached_matches_uncached(use_case):
    uc = next(u for u in USE_CASES if u.name == use_case)
    database = get_database(uc.database)
    canonical = get_canonical(uc.query)
    try:
        uncached = WhyNotBaseline(
            canonical, database=database, use_cache=False
        )
    except UnsupportedQueryError:
        pytest.skip("baseline does not support this query (n.a. row)")
    cache = EvaluationCache()
    cached = WhyNotBaseline(canonical, database=database, cache=cache)

    expected = baseline_fingerprint(uncached.explain(uc.predicate))
    assert baseline_fingerprint(cached.explain(uc.predicate)) == expected
    # and again, now served from the cache
    assert cache.stats.evaluations == 1
    assert baseline_fingerprint(cached.explain(uc.predicate)) == expected
    assert cache.stats.evaluations == 1
    assert cache.stats.hits >= 1


# ---------------------------------------------------------------------------
# Fault isolation: a failing question must not perturb the others
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query", sorted(QUERY_GROUPS))
@pytest.mark.parametrize("failing_index", [0, -1])
def test_faulty_batch_keeps_other_reports_identical(query, failing_index):
    """N questions with question k failing still yield N outcomes, and
    every non-failing report is fingerprint-identical to the fault-free
    batch (the acceptance criterion of the robustness PR)."""
    from repro.robustness import FaultPlan, FaultSpec, inject

    cases = QUERY_GROUPS[query]
    database = get_database(cases[0].database)
    canonical = get_canonical(query)
    predicates = [uc.predicate for uc in cases]

    fault_free = NedExplain(
        canonical, database=database, cache=EvaluationCache()
    ).explain_each(predicates)
    assert all(outcome.ok for outcome in fault_free)

    k = failing_index % len(predicates)
    # one compatible.find call per c-tuple: count the calls the first
    # k questions consume so the fault lands inside question k
    probe = FaultPlan([])
    engine = NedExplain(
        canonical, database=database, cache=EvaluationCache()
    )
    with inject(probe):
        engine.explain_each(predicates[:k])
    at_call = probe.calls.get("compatible.find", 0)

    plan = FaultPlan([FaultSpec("compatible.find", at_call=at_call)])
    faulty_engine = NedExplain(
        canonical, database=database, cache=EvaluationCache()
    )
    with inject(plan):
        outcomes = faulty_engine.explain_each(predicates)

    assert len(outcomes) == len(predicates)
    assert plan.fired, "the injected fault never triggered"
    assert not outcomes[k].ok
    assert outcomes[k].failure.error_class == "InjectedFaultError"
    for index, outcome in enumerate(outcomes):
        if index == k:
            continue
        assert outcome.ok
        assert report_fingerprint(outcome.report) == report_fingerprint(
            fault_free[index].report
        ), f"question {index} perturbed by failure of question {k}"


def test_nedexplain_and_baseline_share_one_evaluation():
    """The README's batch story: both algorithms, one evaluation."""
    uc = next(u for u in USE_CASES if u.name == "Crime1")
    database = get_database(uc.database)
    canonical = get_canonical(uc.query)
    cache = EvaluationCache()

    ned = NedExplain(canonical, database=database, cache=cache)
    ned.explain(uc.predicate)
    baseline = WhyNotBaseline(canonical, database=database, cache=cache)
    baseline.explain(uc.predicate)

    assert cache.stats.evaluations == 1
    assert cache.stats.hits >= 1
