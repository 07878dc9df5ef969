"""Chaos suite: seeded fault plans against the batched explain path.

For 220 deterministic :class:`~repro.robustness.FaultPlan` seeds, a
3-question batch runs with faults injected at the instrumented sites
(operator evaluation, cache lookup/store, compatible-set computation).
After every plan the suite asserts the full robustness contract:

1. **totality** -- N questions always produce N outcomes;
2. **containment** -- every failure is a :class:`~repro.errors.ReproError`
   subclass with a structured :class:`~repro.robustness.FailureInfo`;
   injected budget exhaustion surfaces as a *partial* report, never an
   exception;
3. **isolation** -- outcomes that completed un-degraded are
   fingerprint-identical to the fault-free run;
4. **invariants** -- the shared cache stays consistent
   (:meth:`~repro.relational.EvaluationCache.check_invariants`) and the
   database is never mutated (version key unchanged);
5. **determinism** -- the same seed fires the same faults and yields
   the same outcome shape.
"""

from __future__ import annotations

import json

import pytest

from repro.core import NedExplain, canonicalize
from repro.errors import ReproError, SchemaError
from repro.obs import ManualClock, use_clock
from repro.relational import EvaluationCache
from repro.relational.csv_io import load_database, save_database
from repro.robustness import FaultPlan, FaultSpec, inject
from repro.workloads.generator import chain_database, chain_query

SEEDS = range(220)
QUESTIONS = ["(R0.label: needle)", "(R0.label: r0v1)", "(R2.label: r2v3)"]


def _setup():
    db = chain_database(3, rows_per_relation=12)
    canonical = canonicalize(chain_query(3), db.schema)
    return db, canonical


def _fingerprint(report):
    return (
        tuple(
            (
                repr(a.ctuple),
                a.detailed_pairs,
                a.condensed_labels,
                a.secondary_labels,
                a.no_compatible_data,
                a.answer_not_missing,
            )
            for a in report.answers
        ),
        report.summary(),
    )


def _outcome_shape(outcome):
    """Comparable summary of one outcome, for determinism checks."""
    if outcome.ok:
        return ("ok", outcome.partial, _fingerprint(outcome.report))
    return ("failed", outcome.failure.error_class, outcome.failure.phase)


def _run_with_plan(db, canonical, plan):
    cache = EvaluationCache()
    engine = NedExplain(canonical, database=db, cache=cache)
    if plan is None:
        return engine.explain_each(QUESTIONS), cache
    with inject(plan):
        return engine.explain_each(QUESTIONS), cache


# The fault-free oracle, computed once per module.
_DB, _CANONICAL = _setup()
_ORACLE, _ = _run_with_plan(_DB, _CANONICAL, None)
_ORACLE_PRINTS = [_fingerprint(o.report) for o in _ORACLE]
_DATA_KEY = _DB.data_key


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_fault_plan_contract(seed):
    plan = FaultPlan.random(seed, faults=1 + seed % 3)
    outcomes, cache = _run_with_plan(_DB, _CANONICAL, plan)

    # 1. totality
    assert len(outcomes) == len(QUESTIONS)

    for index, outcome in enumerate(outcomes):
        if outcome.ok:
            # 3. isolation: an un-degraded report matches fault-free
            if not outcome.partial:
                assert _fingerprint(outcome.report) == _ORACLE_PRINTS[
                    index
                ], f"seed {seed}: question {index} diverged"
            else:
                assert outcome.report.degraded_reason
        else:
            # 2. containment
            assert isinstance(outcome.error, ReproError)
            assert outcome.failure is not None
            assert outcome.failure.error_class
            assert outcome.failure.message

    # 4. invariants
    cache.check_invariants()
    assert _DB.data_key == _DATA_KEY, "a fault mutated the database"


@pytest.mark.parametrize("seed", [3, 17, 101, 202])
def test_same_seed_is_deterministic(seed):
    first_plan = FaultPlan.random(seed, faults=2)
    second_plan = FaultPlan.random(seed, faults=2)
    assert first_plan.specs == second_plan.specs

    first, _ = _run_with_plan(_DB, _CANONICAL, first_plan)
    second, _ = _run_with_plan(_DB, _CANONICAL, second_plan)
    assert [_outcome_shape(o) for o in first] == [
        _outcome_shape(o) for o in second
    ]
    assert first_plan.fired == second_plan.fired


def test_plans_actually_fire():
    """The random plans must be reachable -- a chaos suite whose
    faults never trigger proves nothing."""
    fired = 0
    for seed in SEEDS:
        plan = FaultPlan.random(seed, faults=1 + seed % 3)
        _run_with_plan(_DB, _CANONICAL, plan)
        fired += len(plan.fired)
    assert fired >= len(list(SEEDS)) // 3


def test_sites_covered_by_random_plans():
    """Every instrumented site is exercised across the seed range
    (csv.row is covered separately below: this workload loads no CSV)."""
    hit_sites = set()
    for seed in SEEDS:
        plan = FaultPlan.random(seed, faults=1 + seed % 3)
        _run_with_plan(_DB, _CANONICAL, plan)
        hit_sites |= {spec.site for spec in plan.fired}
    assert {
        "operator.apply",
        "cache.lookup",
        "cache.store",
        "compatible.find",
    } <= hit_sites


def test_csv_row_fault_contained(tmp_path):
    """The csv.row site fails as a ReproError and leaves no half-loaded
    database behind the caller's back."""
    save_database(_DB, tmp_path / "db")
    plan = FaultPlan([FaultSpec("csv.row", at_call=5)])
    with inject(plan):
        with pytest.raises(ReproError):
            load_database(tmp_path / "db")
    assert plan.fired
    # without the plan the same directory loads fine
    reloaded = load_database(tmp_path / "db")
    assert reloaded.table_names() == _DB.table_names()


def test_csv_row_budget_fault_contained(tmp_path):
    save_database(_DB, tmp_path / "db")
    plan = FaultPlan([FaultSpec("csv.row", at_call=0, kind="budget")])
    with inject(plan):
        with pytest.raises(ReproError):
            load_database(tmp_path / "db")


# ---------------------------------------------------------------------------
# Parallel chaos: the same contract under the supervised executor
# ---------------------------------------------------------------------------
#: Seeds for the workers=4 contract sweep over ALL fault sites.
PARALLEL_SEEDS = range(60)
#: Seeds for the sequential-vs-parallel byte differential.
DIFFERENTIAL_SEEDS = range(40)
#: Sites whose firing pattern is a pure function of the question under
#: question-scoped counting, hence safe for byte-identical
#: differentials.  ``cache.store``/``operator.apply`` fire inside the
#: single-flight cache miss, so *which question's thread* reaches them
#: depends on scheduling -- they are exercised by the contract sweep
#: above instead.
SAFE_SITES = ("cache.lookup", "compatible.find")


def _run_parallel_with_plan(plan, workers=4):
    cache = EvaluationCache()
    engine = NedExplain(_CANONICAL, database=_DB, cache=cache)
    if plan is None:
        return engine.explain_each(QUESTIONS, workers=workers), cache
    with inject(plan):
        return engine.explain_each(QUESTIONS, workers=workers), cache


@pytest.mark.parametrize("seed", PARALLEL_SEEDS)
def test_parallel_seeded_fault_contract(seed):
    """The full robustness contract of the sequential sweep, with four
    workers racing over the shared cache: totality, containment,
    isolation of un-degraded outcomes, and cache/database invariants."""
    plan = FaultPlan.random(seed, faults=1 + seed % 3)
    outcomes, cache = _run_parallel_with_plan(plan)

    assert len(outcomes) == len(QUESTIONS)
    for index, outcome in enumerate(outcomes):
        if outcome.ok:
            if not outcome.partial:
                assert _fingerprint(outcome.report) == _ORACLE_PRINTS[
                    index
                ], f"seed {seed}: question {index} diverged"
            else:
                assert outcome.report.degraded_reason
        else:
            assert isinstance(outcome.error, ReproError)
            assert outcome.failure is not None
            assert outcome.failure.error_class
    cache.check_invariants()
    assert _DB.data_key == _DATA_KEY, "a parallel fault mutated the db"


def _outcome_bytes(outcomes) -> str:
    """The canonical byte form the CLI's --json document uses."""
    return json.dumps(
        [o.to_dict() for o in outcomes], sort_keys=True, default=str
    )


def _run_scoped_differential(seed: int, workers: int):
    """One fault-injected batch on a manual clock.

    Question-scoped fault counting makes the run a pure function of
    (seed, questions) -- the worker count must not show up in the
    output at all.
    """
    plan = FaultPlan.random(
        seed,
        sites=SAFE_SITES,
        faults=2,
        max_call=4,
        budget_rate=0.3,
        scope="question",
    )
    cache = EvaluationCache()
    engine = NedExplain(_CANONICAL, database=_DB, cache=cache)
    with use_clock(ManualClock()), inject(plan):
        outcomes = engine.explain_each(QUESTIONS, workers=workers)
    return outcomes, plan


def test_parallel_plain_run_is_byte_identical():
    """workers=4 vs sequential, no faults: byte-identical outcomes."""
    with use_clock(ManualClock()):
        sequential, _ = _run_with_plan(_DB, _CANONICAL, None)
    with use_clock(ManualClock()):
        parallel, _ = _run_parallel_with_plan(None)
    assert _outcome_bytes(parallel) == _outcome_bytes(sequential)


@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
def test_parallel_fault_run_is_byte_identical(seed):
    """Question-scoped faults: workers=4 output is
    byte-for-byte the sequential output, and the per-site fault deltas
    agree exactly (satellite: atomic per-site counters)."""
    sequential, seq_plan = _run_scoped_differential(seed, workers=1)
    parallel, par_plan = _run_scoped_differential(seed, workers=4)
    assert _outcome_bytes(parallel) == _outcome_bytes(sequential), (
        f"seed {seed}: parallel outcomes diverged from sequential"
    )
    assert seq_plan.snapshot() == par_plan.snapshot(), (
        f"seed {seed}: fault counters diverged under concurrency"
    )


def test_parallel_differential_faults_actually_fire():
    """The differential must exercise real faults, not 40 clean runs."""
    fired = 0
    for seed in DIFFERENTIAL_SEEDS:
        _, plan = _run_scoped_differential(seed, workers=4)
        fired += len(plan.fired)
    assert fired >= len(list(DIFFERENTIAL_SEEDS)) // 2
