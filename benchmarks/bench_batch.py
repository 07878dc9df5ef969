"""Batched why-not answering vs N independent runs.

The batch API (:meth:`NedExplain.explain_each` over a shared
:class:`EvaluationCache`) evaluates the query once and reuses the
Input/Output columns for every question; the per-question compatible
sets and blocked computations are all that remains.  This benchmark
demonstrates and *asserts* the two acceptance criteria:

* a batch of >= 10 questions performs exactly **one** full query
  evaluation (checked through the cache counters);
* the batch beats the same questions run as independent fresh engines
  on wall-clock time.

Runs both under pytest (``pytest benchmarks/bench_batch.py``) and as a
standalone script::

    PYTHONPATH=src python benchmarks/bench_batch.py [--smoke]

``--smoke`` shrinks the workload for CI.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core import NedExplain, NedExplainConfig, canonicalize
from repro.relational import EvaluationCache
from repro.workloads import chain_database, chain_predicate, chain_query

import pytest

pytestmark = pytest.mark.bench


def build_workload(relations: int, rows: int):
    database = chain_database(
        relations, rows_per_relation=rows, fanout=2, seed=7
    )
    canonical = canonicalize(chain_query(relations), database.schema)
    last = relations - 1
    predicates = [f"(R0.label: r0v{i})" for i in range(10)]
    predicates.append(chain_predicate())
    predicates.append(f"(R{last}.label: r{last}v0)")
    return database, canonical, predicates


def run_batched(database, canonical, predicates, workers: int = 1):
    """One batch on a fresh cache; ``workers > 1`` runs it through the
    parallel executor."""
    cache = EvaluationCache()
    engine = NedExplain(canonical, database=database, cache=cache)
    started = time.perf_counter()
    outcomes = engine.explain_each(predicates, workers=workers)
    elapsed = time.perf_counter() - started
    reports = [outcome.unwrap() for outcome in outcomes]
    return reports, cache, elapsed


def run_independent(database, canonical, predicates):
    config = NedExplainConfig(use_shared_evaluation=False)
    started = time.perf_counter()
    reports = []
    for predicate in predicates:
        engine = NedExplain(
            canonical, database=database, config=config
        )
        reports.append(engine.explain(predicate))
    elapsed = time.perf_counter() - started
    return reports, elapsed


def run_comparison(
    relations: int, rows: int, verbose: bool = True, workers: int = 1
):
    database, canonical, predicates = build_workload(relations, rows)

    # warm-up so neither side pays first-touch costs (lazy indexes)
    run_independent(database, canonical, predicates[:1])

    batched, cache, batch_time = run_batched(
        database, canonical, predicates
    )
    independent, solo_time = run_independent(
        database, canonical, predicates
    )

    assert len(predicates) >= 10
    assert cache.stats.evaluations == 1, (
        f"batch of {len(predicates)} questions performed "
        f"{cache.stats.evaluations} full evaluations, expected 1"
    )
    assert cache.stats.hits == len(predicates) - 1
    for got, expected in zip(batched, independent):
        assert got.summary() == expected.summary(), (
            "batched and independent runs disagree"
        )
    assert batch_time < solo_time, (
        f"batch ({batch_time * 1000:.1f} ms) did not beat "
        f"{len(predicates)} independent runs "
        f"({solo_time * 1000:.1f} ms)"
    )

    parallel_time = None
    if workers > 1:
        # parallel sanity: same answers, still one shared evaluation
        parallel, pcache, parallel_time = run_batched(
            database, canonical, predicates, workers
        )
        assert pcache.stats.evaluations == 1, (
            f"parallel batch performed {pcache.stats.evaluations} "
            "full evaluations, expected 1 (single-flight cache)"
        )
        for got, expected in zip(parallel, batched):
            assert got.summary() == expected.summary(), (
                "parallel and sequential batches disagree"
            )

    if verbose:
        speedup = solo_time / batch_time
        print(
            f"chain depth {relations}, {database.size()} rows, "
            f"{len(predicates)} questions"
        )
        print(
            f"  batched     : {batch_time * 1000:8.1f} ms   "
            f"({cache.stats.evaluations} evaluation, "
            f"{cache.stats.hits} cache hits)"
        )
        print(f"  independent : {solo_time * 1000:8.1f} ms")
        print(f"  speedup     : {speedup:8.2f}x")
        if parallel_time is not None:
            print(
                f"  parallel    : {parallel_time * 1000:8.1f} ms   "
                f"({workers} workers, answers identical)"
            )
    return batch_time, solo_time


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------
def test_batch_single_evaluation_and_speedup():
    run_comparison(relations=3, rows=60, verbose=False)


def test_batch_smoke():
    run_comparison(relations=2, rows=30, verbose=False)


def test_batch_parallel_matches_sequential():
    run_comparison(relations=2, rows=30, verbose=False, workers=4)


# ---------------------------------------------------------------------------
# standalone entry point
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload for CI smoke runs",
    )
    parser.add_argument("--relations", type=int, default=4)
    parser.add_argument("--rows", type=int, default=150)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="also run the batch through the parallel executor and "
        "assert it matches the sequential answers",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        relations, rows = 3, 40
    else:
        relations, rows = args.relations, args.rows
    run_comparison(relations, rows, verbose=True, workers=args.workers)
    print("ok: 1 full evaluation, batched beat independent runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
