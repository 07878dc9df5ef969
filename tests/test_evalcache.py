"""Unit tests for the shared evaluation cache.

Covers the pieces the differential suites rely on:

* LRU behaviour and the hit/miss/eviction/evaluation counters;
* invalidation through the version counters (``Database.insert``,
  direct ``Table.insert``) and the *non*-invalidation of pure read
  paths (lazy index builds);
* :meth:`EvaluationResult.rebind` onto structurally equal but distinct
  trees, sharing the lazily built parent -> child indexes;
* the node-lifetime regression: ``EvaluationResult`` keys its maps by
  ``id(node)``, and CPython reuses ids of garbage-collected objects, so
  the result must hold strong references to its nodes.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from repro.baseline import WhyNotBaseline
from repro.core import JoinPair, NedExplain, SPJASpec, canonicalize
from repro.errors import ConfigurationError, EvaluationError
from repro.relational import (
    CacheStats,
    Database,
    EvaluationCache,
    attr_cmp,
    evaluate_query,
    query_fingerprint,
)
from repro.relational.evaluator import children_index


def make_db() -> Database:
    db = Database("cache-unit")
    db.create_table("R", ["id", "a", "b"], key="id")
    db.create_table("S", ["id", "b", "c"], key="id")
    db.insert("R", id=1, a=1, b=1)
    db.insert("R", id=2, a=2, b=2)
    db.insert("S", id=1, b=1, c="x")
    db.insert("S", id=2, b=2, c="y")
    return db


def make_spec(bound: int) -> SPJASpec:
    return SPJASpec(
        aliases={"R": "R", "S": "S"},
        joins=[JoinPair("R.b", "S.b")],
        selections=[attr_cmp("R.a", ">=", bound)],
        projection=("R.a", "S.c"),
    )


def cache_fetch(cache, db, canonical):
    return cache.get_or_evaluate(
        canonical.root,
        db.input_instance(canonical.aliases),
        canonical.aliases,
    )


# ---------------------------------------------------------------------------
# Ownership: an engine built without a cache shares nothing
# ---------------------------------------------------------------------------
def test_engines_without_a_cache_own_private_ones():
    db = make_db()
    canonical = canonicalize(make_spec(1), db.schema)
    first = NedExplain(canonical, database=db)
    second = NedExplain(canonical, database=db)
    baseline = WhyNotBaseline(canonical, database=db)
    caches = [first.cache, second.cache, baseline.cache]
    assert all(isinstance(c, EvaluationCache) for c in caches)
    assert len({id(c) for c in caches}) == 3
    first.explain("(S.c: x)")
    assert first.cache.stats.evaluations == 1
    assert second.cache.stats.evaluations == 0
    assert baseline.cache.stats.evaluations == 0
    second.explain("(S.c: x)")
    assert second.cache.stats.evaluations == 1


# ---------------------------------------------------------------------------
# LRU + counters
# ---------------------------------------------------------------------------
def test_lru_eviction_and_counters():
    db = make_db()
    cache = EvaluationCache(maxsize=2)
    queries = [canonicalize(make_spec(b), db.schema) for b in (0, 1, 2)]

    for canonical in queries:
        cache_fetch(cache, db, canonical)
    assert len(cache) == 2
    assert cache.stats == CacheStats(
        hits=0, misses=3, evictions=1, evaluations=3
    )

    # the oldest entry (bound=0) was evicted; refetching it misses
    cache_fetch(cache, db, queries[0])
    assert cache.stats.misses == 4
    # ... and pushed out bound=1 in turn, while bound=2 survived
    cache_fetch(cache, db, queries[2])
    assert cache.stats.hits == 1


def test_hit_refreshes_lru_position():
    db = make_db()
    cache = EvaluationCache(maxsize=2)
    first = canonicalize(make_spec(0), db.schema)
    second = canonicalize(make_spec(1), db.schema)
    third = canonicalize(make_spec(2), db.schema)

    cache_fetch(cache, db, first)
    cache_fetch(cache, db, second)
    cache_fetch(cache, db, first)  # hit: first becomes most recent
    cache_fetch(cache, db, third)  # evicts second, not first
    cache_fetch(cache, db, first)
    assert cache.stats.hits == 2
    cache_fetch(cache, db, second)
    assert cache.stats.misses == 4
    assert cache.stats.evictions == 2


def test_maxsize_must_be_positive():
    with pytest.raises(ConfigurationError):
        EvaluationCache(maxsize=0)


def test_stats_reset_and_hit_rate():
    db = make_db()
    cache = EvaluationCache()
    canonical = canonicalize(make_spec(0), db.schema)
    cache_fetch(cache, db, canonical)
    cache_fetch(cache, db, canonical)
    assert cache.stats.lookups == 2
    assert cache.stats.hit_rate == pytest.approx(0.5)
    cache.stats.reset()
    assert cache.stats == CacheStats()
    cache.clear()
    assert len(cache) == 0


# ---------------------------------------------------------------------------
# Version counters and invalidation
# ---------------------------------------------------------------------------
def test_database_insert_invalidates():
    db = make_db()
    cache = EvaluationCache()
    canonical = canonicalize(make_spec(0), db.schema)
    cache_fetch(cache, db, canonical)
    cache_fetch(cache, db, canonical)
    assert cache.stats.hits == 1

    db.insert("R", id=3, a=3, b=1)
    result = cache_fetch(cache, db, canonical)
    assert cache.stats.misses == 2
    # and the fresh evaluation sees the new row
    assert any(
        row["R.a"] == 3 for row in result.result_values()
    )


def test_direct_table_insert_invalidates():
    db = make_db()
    cache = EvaluationCache()
    canonical = canonicalize(make_spec(0), db.schema)
    cache_fetch(cache, db, canonical)
    db.table("S").insert(id=3, b=1, c="z")
    cache_fetch(cache, db, canonical)
    assert cache.stats.misses == 2


def test_lazy_index_reads_do_not_invalidate():
    """``RelationInstance.lookup`` builds indexes on demand (the
    CompatibleFinder path); a pure read must not change the data key,
    or one explain would invalidate the evaluation the next one
    needs."""
    db = make_db()
    canonical = canonicalize(make_spec(0), db.schema)
    instance = db.input_instance(canonical.aliases)
    before = (instance.data_key, db.data_key)
    relation = instance.relation("R")
    assert [t.tid for t in relation.lookup("R.a", 1)] == ["R:1"]
    assert [t.tid for t in relation.lookup("R.b", 2)] == ["R:2"]
    assert (instance.data_key, db.data_key) == before


def test_input_instance_keys_stable_across_derivations():
    db = make_db()
    canonical = canonicalize(make_spec(0), db.schema)
    first = db.input_instance(canonical.aliases)
    second = db.input_instance(canonical.aliases)
    assert first.data_key == second.data_key

    db.insert("R", id=9, a=9, b=9)
    third = db.input_instance(canonical.aliases)
    assert third.data_key != first.data_key


def test_mutated_snapshot_loses_adopted_key():
    """An instance mutated after derivation no longer represents the
    database state and must stop sharing its cache key."""
    db = make_db()
    canonical = canonicalize(make_spec(0), db.schema)
    instance = db.input_instance(canonical.aliases)
    shared_key = instance.data_key
    instance.insert_values("R", "t-extra", id=50, a=5, b=5)
    assert instance.data_key != shared_key
    assert instance.data_key != db.input_instance(canonical.aliases).data_key


# ---------------------------------------------------------------------------
# Rebinding results onto equal trees
# ---------------------------------------------------------------------------
def test_hit_rebinds_onto_equal_tree():
    db = make_db()
    cache = EvaluationCache()
    first = canonicalize(make_spec(1), db.schema)
    second = canonicalize(make_spec(1), db.schema)
    assert first.root is not second.root
    assert query_fingerprint(
        first.root, first.aliases
    ) == query_fingerprint(second.root, second.aliases)

    original = cache_fetch(cache, db, first)
    rebound = cache_fetch(cache, db, second)
    assert cache.stats.hits == 1
    assert cache.stats.evaluations == 1

    # the rebound result answers queries keyed by the *second* tree
    for old, new in zip(
        first.root.postorder(), second.root.postorder()
    ):
        assert list(original.output(old)) == list(rebound.output(new))
    assert rebound.root is second.root


def test_rebound_views_share_each_children_index():
    """The parent -> child index of a cached node is built once for
    every view of the evaluation, and maps each parent to the output
    positions of its children."""
    db = make_db()
    cache = EvaluationCache()
    first = canonicalize(make_spec(1), db.schema)
    second = canonicalize(make_spec(1), db.schema)
    original = cache_fetch(cache, db, first)
    rebound = cache_fetch(cache, db, second)
    for old, new in zip(
        first.root.postorder(), second.root.postorder()
    ):
        index = original.children_index(old)
        assert rebound.children_index(new) is index
        output = original.output(old)
        for position, t in enumerate(output):
            for parent in t.parents or (t,):
                found = index[parent]
                assert position in (
                    (found,) if isinstance(found, int) else found
                )


def test_concurrent_first_uses_see_complete_children_indexes():
    """Threads racing on the first use of a shared result's indexes
    each get a complete index, and afterwards all agree on one."""
    db = make_db()
    canonical = canonicalize(make_spec(1), db.schema)
    result = cache_fetch(EvaluationCache(), db, canonical)
    nodes = list(canonical.root.postorder())
    expected = {
        id(node): children_index(result.output(node)) for node in nodes
    }
    failures = []

    def use():
        for node in nodes:
            if result.children_index(node) != expected[id(node)]:
                failures.append(node)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=use) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    for node in nodes:
        assert result.children_index(node) is result.children_index(node)


def test_rebind_rejects_different_shape():
    db = make_db()
    canonical = canonicalize(make_spec(0), db.schema)
    other = canonicalize(
        SPJASpec(
            aliases={"R": "R"},
            projection=("R.a",),
        ),
        db.schema,
    )
    result = evaluate_query(
        canonical.root, db.instance(), canonical.aliases
    )
    with pytest.raises(EvaluationError):
        result.rebind(other.root)


# ---------------------------------------------------------------------------
# Node lifetime: id() reuse after garbage collection
# ---------------------------------------------------------------------------
def test_result_holds_strong_references_to_nodes():
    db = make_db()
    canonical = canonicalize(make_spec(0), db.schema)
    result = evaluate_query(
        canonical.root, db.instance(), canonical.aliases
    )
    ref = weakref.ref(canonical.root)
    del canonical
    gc.collect()
    # the result keeps the tree alive...
    assert ref() is not None
    del result
    gc.collect()
    # ...and releases it with the result
    assert ref() is None


def test_cached_result_survives_gc_and_id_reuse():
    """Regression: evaluate through the cache, drop the original tree,
    churn allocations so CPython reuses object ids, then fetch with a
    structurally equal fresh tree.  Without strong node references the
    ``id(node)``-keyed maps would silently serve wrong rows."""
    db = make_db()
    cache = EvaluationCache()
    canonical = canonicalize(make_spec(1), db.schema)
    result = cache_fetch(cache, db, canonical)
    expected = [
        [tuple(sorted(t.items())) for t in result.output(node)]
        for node in canonical.root.postorder()
    ]
    del canonical, result
    gc.collect()

    # allocation churn: plenty of fresh Query objects at recycled ids
    churn = [canonicalize(make_spec(1), db.schema) for _ in range(64)]
    del churn
    gc.collect()

    fresh = canonicalize(make_spec(1), db.schema)
    rebound = cache_fetch(cache, db, fresh)
    assert cache.stats.evaluations == 1  # still the original evaluation
    assert cache.stats.hits == 1
    got = [
        [tuple(sorted(t.items())) for t in rebound.output(node)]
        for node in fresh.root.postorder()
    ]
    assert got == expected


# ---------------------------------------------------------------------------
# Concurrency: single-flight misses, counter exactness, invariants
# under thread races and injected faults (the parallel executor
# hammers this cache from N workers)
# ---------------------------------------------------------------------------
def test_concurrent_same_key_is_single_flight():
    """N threads racing on one cold key: exactly one evaluation, one
    miss, N-1 hits -- the lock is held across the miss evaluation."""
    import threading

    db = make_db()
    cache = EvaluationCache()
    threads = 8
    barrier = threading.Barrier(threads)
    errors = []

    def fetch():
        canonical = canonicalize(make_spec(1), db.schema)
        barrier.wait()
        try:
            cache_fetch(cache, db, canonical)
        except Exception as exc:  # noqa: BLE001 -- collected for assert
            errors.append(exc)

    pool = [threading.Thread(target=fetch) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert not errors
    assert cache.stats.evaluations == 1
    assert cache.stats.misses == 1
    assert cache.stats.hits == threads - 1
    cache.check_invariants()


def test_concurrent_mixed_keys_with_evictions_keep_invariants():
    """8 threads over 4 keys in a 2-entry cache: counters stay exact
    (hits + misses == requests) and the LRU structure stays sound."""
    import threading

    db = make_db()
    cache = EvaluationCache(maxsize=2)
    threads, rounds, bounds = 8, 10, (0, 1, 2, 3)
    barrier = threading.Barrier(threads)
    errors = []

    def hammer(offset):
        barrier.wait()
        try:
            for r in range(rounds):
                bound = bounds[(offset + r) % len(bounds)]
                canonical = canonicalize(make_spec(bound), db.schema)
                cache_fetch(cache, db, canonical)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    pool = [
        threading.Thread(target=hammer, args=(n,)) for n in range(threads)
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert not errors
    stats = cache.stats
    assert stats.hits + stats.misses == threads * rounds
    assert stats.evaluations == stats.misses
    cache.check_invariants()


def test_concurrent_faulted_access_never_corrupts_the_cache():
    """Seeded cache-site faults while 4 threads race: every faulted
    call raises a contained ReproError and the cache invariants hold
    after every seed (no partial entries, no broken LRU links)."""
    import threading

    from repro.errors import ReproError
    from repro.robustness import FaultPlan, inject

    db = make_db()
    for seed in range(20):
        cache = EvaluationCache(maxsize=2)
        plan = FaultPlan.random(
            seed,
            sites=("cache.lookup", "cache.store"),
            faults=2,
            max_call=8,
            budget_rate=0.0,
        )
        barrier = threading.Barrier(4)
        unexpected = []

        def worker(offset, cache=cache, barrier=barrier,
                   unexpected=unexpected):
            barrier.wait()
            for r in range(6):
                canonical = canonicalize(
                    make_spec((offset + r) % 3), db.schema
                )
                try:
                    cache_fetch(cache, db, canonical)
                except ReproError:
                    continue  # contained: the injected fault
                except Exception as exc:  # noqa: BLE001
                    unexpected.append(exc)

        with inject(plan):
            pool = [
                threading.Thread(target=worker, args=(n,))
                for n in range(4)
            ]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
        assert not unexpected, f"seed {seed}: {unexpected!r}"
        cache.check_invariants()
