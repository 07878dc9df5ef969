"""Seed-driven randomized differential tests over generated workloads.

Complements ``test_differential_cache.py`` (which covers the paper's
fixed Table-4 use cases) with randomized coverage: synthetic chain
workloads from :mod:`repro.workloads.generator`, many predicates per
query, batched through one engine's shared evaluation and cross-checked
against independent fresh runs with the shared-evaluation layer turned
off.  All randomness is seeded, so failures replay deterministically.

Volume: ``len(CHAIN_CONFIGS) * PREDICATES_PER_CONFIG`` differential
cases (>= 200, per the acceptance criteria), plus the baseline
cached-vs-uncached sweep.
"""

from __future__ import annotations

import random

import pytest

from repro.baseline import WhyNotBaseline
from repro.core import NedExplain, NedExplainConfig, canonicalize
from repro.relational import EvaluationCache
from repro.workloads import chain_database, chain_predicate, chain_query

# (seed, relations, rows_per_relation, fanout) -- small on purpose:
# each differential case pays for a full fresh evaluation.
CHAIN_CONFIGS = [
    (11, 2, 8, 1),
    (12, 2, 10, 2),
    (13, 2, 14, 3),
    (21, 3, 6, 1),
    (22, 3, 9, 2),
    (23, 3, 12, 2),
    (24, 3, 12, 3),
    (31, 4, 6, 1),
    (32, 4, 8, 2),
    (33, 4, 10, 2),
    (41, 5, 6, 2),
    (42, 5, 8, 3),
]
PREDICATES_PER_CONFIG = 18

assert len(CHAIN_CONFIGS) * PREDICATES_PER_CONFIG >= 200


def build_chain(seed, relations, rows, fanout):
    database = chain_database(
        relations, rows_per_relation=rows, fanout=fanout, seed=seed
    )
    canonical = canonicalize(chain_query(relations), database.schema)
    return database, canonical


def random_predicates(seed, relations, count):
    """Seeded why-not questions over the chain query's target schema.

    The chain query projects ``R0.label`` and ``R{last}.label``; the
    predicates mix hits, misses, the designated needle, and two-attribute
    constraints over both ends of the chain.
    """
    rng = random.Random(seed * 7919)
    last = relations - 1
    predicates = [chain_predicate()]  # always include the needle
    while len(predicates) < count:
        shape = rng.randrange(4)
        if shape == 0:
            predicates.append(f"(R0.label: r0v{rng.randrange(10)})")
        elif shape == 1:
            predicates.append(
                f"(R{last}.label: r{last}v{rng.randrange(10)})"
            )
        elif shape == 2:
            predicates.append(
                f"(R0.label: r0v{rng.randrange(10)}, "
                f"R{last}.label: r{last}v{rng.randrange(10)})"
            )
        else:  # a value that exists nowhere
            predicates.append(
                f"(R0.label: ghost{rng.randrange(1000)})"
            )
    return predicates


def answer_key(report):
    """Observable content of a NedExplain report, as plain data."""
    return tuple(
        (
            repr(a.ctuple),
            a.detailed_pairs,
            a.condensed_labels,
            a.secondary_labels,
            a.no_compatible_data,
            a.answer_not_missing,
        )
        for a in report.answers
    )


def tabq_key(engine):
    return tuple(
        tuple(
            (
                entry.label,
                tuple(entry.input),
                None if entry.output is None else tuple(entry.output),
                tuple(entry.compatibles),
                tuple(entry.blocked),
            )
            for entry in tabq
        )
        for tabq in engine.last_tabqs
    )


@pytest.mark.parametrize(
    "seed,relations,rows,fanout",
    CHAIN_CONFIGS,
    ids=[f"chain-s{c[0]}-r{c[1]}" for c in CHAIN_CONFIGS],
)
def test_explain_many_matches_fresh_runs(seed, relations, rows, fanout):
    database, canonical = build_chain(seed, relations, rows, fanout)
    predicates = random_predicates(
        seed, relations, PREDICATES_PER_CONFIG
    )

    cache = EvaluationCache()
    engine = NedExplain(canonical, database=database, cache=cache)
    batched = []
    for predicate in predicates:
        report = engine.explain(predicate)
        batched.append((report, tabq_key(engine)))

    # the entire batch rides on a single full evaluation
    assert cache.stats.evaluations == 1
    assert cache.stats.hits == len(predicates) - 1

    oracle_config = NedExplainConfig(use_shared_evaluation=False)
    for predicate, (report, tabqs) in zip(predicates, batched):
        oracle = NedExplain(
            canonical, database=database, config=oracle_config
        )
        oracle_report = oracle.explain(predicate)
        assert answer_key(report) == answer_key(oracle_report), (
            f"divergence at seed={seed} predicate={predicate}"
        )
        assert report.summary() == oracle_report.summary()
        assert tabqs == tabq_key(oracle), (
            f"TabQ divergence at seed={seed} predicate={predicate}"
        )


@pytest.mark.parametrize(
    "seed,relations,rows,fanout",
    CHAIN_CONFIGS[:6],
    ids=[f"chain-s{c[0]}-r{c[1]}" for c in CHAIN_CONFIGS[:6]],
)
def test_baseline_tracing_invariant_under_cache(
    seed, relations, rows, fanout
):
    """Chain queries are SPJ, so the baseline supports them: its traces
    and frontier must not change when the evaluation is served from the
    shared cache."""
    database, canonical = build_chain(seed, relations, rows, fanout)
    predicates = random_predicates(seed, relations, 6)

    cache = EvaluationCache()
    cached = WhyNotBaseline(canonical, database=database, cache=cache)
    uncached = WhyNotBaseline(
        canonical, database=database, use_cache=False
    )

    for predicate in predicates:
        got = cached.explain(predicate)
        expected = uncached.explain(predicate)
        assert got.answer_labels == expected.answer_labels
        assert got.satisfied_constraints == expected.satisfied_constraints
        assert [
            (t.item.tuple.tid, t.survived) for t in got.traces
        ] == [
            (t.item.tuple.tid, t.survived) for t in expected.traces
        ]
    # every cached explain after the first is a pure hit
    assert cache.stats.evaluations == 1
    assert cache.stats.hits == len(predicates) - 1


def test_batched_engine_and_baseline_share_chain_evaluation():
    database, canonical = build_chain(21, 3, 6, 1)
    cache = EvaluationCache()
    engine = NedExplain(canonical, database=database, cache=cache)
    for outcome in engine.explain_each(random_predicates(21, 3, 5)):
        outcome.unwrap()
    WhyNotBaseline(
        canonical, database=database, cache=cache
    ).explain(chain_predicate())
    assert cache.stats.evaluations == 1
