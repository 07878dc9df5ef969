"""TabQ: one plan per engine, entries that read the cached evaluation.

* :class:`TabQPlan` is built once per engine, and its order, levels
  and parents are the ones the tree itself reports
  (``tabq_order``, ``depth_of``, ``parent_of``);
* after many warm questions, sequential and on a ``workers=4`` batch,
  every TabQ entry's output *is* the cached output list (and an
  interior entry's inputs the cached input lists), and no cached list
  changed.
"""

from __future__ import annotations

import pytest

from repro.core import NedExplain
from repro.core.tabq import TabQPlan
from repro.relational import EvaluationCache, tabq_order
from repro.workloads.usecases import USE_CASES, get_canonical, get_database

QUERIES = sorted({uc.query for uc in USE_CASES})


def _engine(query: str) -> tuple[NedExplain, list[str]]:
    cases = [uc for uc in USE_CASES if uc.query == query]
    engine = NedExplain(
        get_canonical(query),
        database=get_database(cases[0].database),
        cache=EvaluationCache(),
    )
    return engine, [uc.predicate for uc in cases]


def _same_objects(a, b) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


@pytest.mark.parametrize("query", QUERIES)
def test_plan_matches_the_tree(query):
    engine, _ = _engine(query)
    root = engine.canonical.root
    plan = engine.plan
    assert _same_objects(plan.nodes, tabq_order(root))
    for node, level, parent in zip(plan.nodes, plan.levels, plan.parents):
        assert level == root.depth_of(node)
        expected = root.parent_of(node)
        if expected is None:
            assert parent is None
        else:
            assert plan.nodes[parent] is expected


def test_plan_is_built_once_per_engine(monkeypatch):
    built = []
    build = TabQPlan.build.__func__

    def counting(cls, canonical):
        built.append(canonical)
        return build(cls, canonical)

    monkeypatch.setattr(TabQPlan, "build", classmethod(counting))
    engine, predicates = _engine("Q7")
    assert len(built) == 1
    for predicate in predicates * 3:
        engine.explain(predicate)
        assert all(tabq.plan is engine.plan for tabq in engine.last_tabqs)
    outcomes = engine.explain_each(predicates * 4, workers=4)
    assert all(outcome.ok for outcome in outcomes)
    assert len(built) == 1


@pytest.mark.parametrize("query", QUERIES)
def test_entries_read_the_cached_evaluation(query):
    engine, predicates = _engine(query)
    canonical = engine.canonical
    shared = engine.cache.get_or_evaluate(
        canonical.root, engine.instance, canonical.aliases
    )
    nodes = list(canonical.root.postorder())
    before = {
        id(node): (
            shared.output(node),
            tuple(shared.output(node)),
            [(part, tuple(part)) for part in shared.inputs(node)],
        )
        for node in nodes
    }

    tabqs = []  # appended from worker threads too
    explain_ctuple = engine._explain_ctuple

    def recording(tc):
        answer, tabq = explain_ctuple(tc)
        if tabq is not None:
            tabqs.append(tabq)
        return answer, tabq

    engine._explain_ctuple = recording
    for predicate in predicates * 2:
        engine.explain(predicate)
    outcomes = engine.explain_each(predicates * 4, workers=4)
    assert all(outcome.ok for outcome in outcomes)

    assert engine.cache.stats.evaluations == 1
    assert tabqs
    for tabq in tabqs:
        for entry in tabq:
            if entry.output is None:
                continue  # not reached: early termination
            assert entry.output is shared.output(entry.node)
            if entry.is_leaf:
                (relation,) = entry.inputs
                assert relation is engine.instance.relation(
                    entry.node.alias
                )
            else:
                assert entry.inputs is shared.inputs(entry.node)
    for node in nodes:
        output, snapshot, parts = before[id(node)]
        assert shared.output(node) is output
        assert _same_objects(output, snapshot)
        for part, part_snapshot in parts:
            assert _same_objects(part, part_snapshot)
