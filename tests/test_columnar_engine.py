"""Unit tests for the columnar engine's building blocks and operators.

Covers the representation layer (interned-value dictionaries, bitmap
selection vectors, the batch/table cache) and the operator edge cases
the Table-4 differential suite cannot reach: empty relations, NULL
join keys, cross-type value collisions (``5`` vs ``5.0``), multi-chunk
batches, union/difference, and the select-memo replay path.
Each operator case asserts full parity with the row engine -- per-node
values, lineage, *and* budget/operator counters.
"""

from __future__ import annotations

import pytest

from repro.columnar import (
    BATCH_ROWS,
    Bitmap,
    Dictionary,
    clear_table_cache,
    columnar_table,
    evaluate_columnar,
)
from repro.core import JoinPair, SPJASpec, canonicalize
from repro.obs import Tracer, counter_values, tracing
from repro.relational import (
    AggregateCall,
    Database,
    RelationLeaf,
    RelationSchema,
    Renaming,
    attr_cmp,
    evaluate,
    evaluate_query,
)
from repro.relational.algebra import Difference, Union
from repro.robustness.budget import (
    Budget,
    ExecutionContext,
    execution_context,
)


def node_key(tuples):
    return [(dict(t.values), t.lineage) for t in tuples]


def traced(fn):
    """Run *fn* under a private tracer + unlimited budget context."""
    tracer = Tracer()
    with tracing(tracer):
        with execution_context(ExecutionContext(Budget())):
            out = fn()
    return out, counter_values(tracer.metrics.snapshot())


def drop_batches(counters):
    """Counters minus the columnar-only batch count."""
    return {
        k: v for k, v in counters.items() if k != "evaluator.batches"
    }


def assert_engines_agree(database, canonical):
    """Node-by-node value/lineage/counter parity on one query."""
    instance = database.input_instance(canonical.aliases)
    row, row_counters = traced(
        lambda: evaluate(canonical.root, instance)
    )
    col_result, col_counters = traced(
        lambda: evaluate_columnar(canonical.root, instance)
    )
    col = col_result.row_view()
    for node in canonical.root.postorder():
        assert node_key(row.output(node)) == node_key(
            col.output(node)
        ), f"divergence at {node.describe()}"
    assert drop_batches(col_counters) == row_counters
    return row, col


# ---------------------------------------------------------------------------
# Dictionary
# ---------------------------------------------------------------------------
class TestDictionary:
    def test_roundtrip_preserves_exact_values(self):
        d = Dictionary()
        codes = d.encode_many(["a", "b", "a"])
        assert codes == [0, 1, 0]
        assert [d.decode(c) for c in codes] == ["a", "b", "a"]

    def test_equal_hashing_values_keep_distinct_codes(self):
        """``5``/``5.0``/``True``/``1`` hash equal but must decode back
        to the exact original value, so each gets its own code."""
        d = Dictionary()
        codes = [d.encode(v) for v in (5, 5.0, True, 1)]
        assert len(set(codes)) == 4
        decoded = [d.decode(c) for c in codes]
        assert [type(v) for v in decoded] == [int, float, bool, int]


# ---------------------------------------------------------------------------
# Bitmap
# ---------------------------------------------------------------------------
class TestBitmap:
    def test_from_bools_roundtrip(self):
        bools = [True, False, True, True, False]
        bm = Bitmap.from_bools(bools)
        assert bm.nbits == 5 and bm.count() == 3
        assert [bm.get(i) for i in range(5)] == bools
        assert list(bm.indexes()) == [0, 2, 3]

    def test_empty(self):
        bm = Bitmap.from_bools([])
        assert bm.nbits == 0 and bm.count() == 0
        assert list(bm.indexes()) == []

    def test_boolean_algebra(self):
        a = Bitmap.from_bools([True, True, False, False])
        b = Bitmap.from_bools([True, False, True, False])
        assert list((a & b).indexes()) == [0]
        assert list((a | b).indexes()) == [0, 1, 2]
        assert list(a.invert().indexes()) == [2, 3]
        assert Bitmap.ones(3).count() == 3
        assert Bitmap.zeros(3).count() == 0

    def test_indexes_in_window(self):
        bm = Bitmap.from_bools([bool(i % 3 == 0) for i in range(10)])
        assert bm.indexes_in(0, 10) == [0, 3, 6, 9]
        assert bm.indexes_in(2, 7) == [3, 6]
        assert bm.indexes_in(4, 6) == []


# ---------------------------------------------------------------------------
# Table cache
# ---------------------------------------------------------------------------
def _tiny_db():
    db = Database("tiny-col")
    db.create_table("R", ["id", "x"], key="id")
    db.insert("R", id=1, x=5)
    db.insert("R", id=2, x=5.0)
    db.insert("R", id=3, x=7)
    return db


class TestTableCacheAndSignatures:
    def test_table_cache_reuses_entries(self):
        db = _tiny_db()
        spec = SPJASpec(aliases={"R": "R"}, projection=("R.x",))
        canonical = canonicalize(spec, db.schema)
        instance = db.input_instance(canonical.aliases)
        first = columnar_table(instance, "R")
        assert columnar_table(instance, "R") is first
        clear_table_cache()
        assert columnar_table(instance, "R") is not first


# ---------------------------------------------------------------------------
# Operator edge cases: full row-engine parity per case
# ---------------------------------------------------------------------------
class TestOperatorEdgeCases:
    def test_empty_relation_through_select_project(self):
        db = Database("empty")
        db.create_table("R", ["id", "x"], key="id")
        spec = SPJASpec(
            aliases={"R": "R"},
            selections=[attr_cmp("R.x", ">", 0)],
            projection=("R.id",),
        )
        assert_engines_agree(db, canonicalize(spec, db.schema))

    def test_join_with_one_empty_side(self):
        db = Database("half-empty")
        db.create_table("R", ["id", "k"], key="id")
        db.create_table("S", ["id", "k"], key="id")
        db.insert("R", id=1, k="a")
        spec = SPJASpec(
            aliases={"R": "R", "S": "S"},
            joins=[JoinPair("R.k", "S.k")],
            projection=("R.id", "S.id"),
        )
        assert_engines_agree(db, canonicalize(spec, db.schema))

    def test_join_null_keys_never_match(self):
        db = Database("nulls")
        db.create_table("R", ["id", "k"], key="id")
        db.create_table("S", ["id", "k"], key="id")
        db.insert("R", id=1, k=None)
        db.insert("R", id=2, k="a")
        db.insert("S", id=1, k=None)
        db.insert("S", id=2, k="a")
        spec = SPJASpec(
            aliases={"R": "R", "S": "S"},
            joins=[JoinPair("R.k", "S.k")],
            projection=("R.id", "S.id"),
        )
        row, _ = assert_engines_agree(db, canonicalize(spec, db.schema))

    def test_join_cross_type_key_collisions(self):
        """Join keys ``5`` vs ``5.0`` vs ``True`` vs ``1``: whatever
        the row engine matches, the columnar probe must match too."""
        db = Database("cross-type")
        db.create_table("R", ["id", "k"], key="id")
        db.create_table("S", ["id", "k"], key="id")
        for i, k in enumerate((5, 5.0, True, 1, "x")):
            db.insert("R", id=f"r{i}", k=k)
            db.insert("S", id=f"s{i}", k=k)
        spec = SPJASpec(
            aliases={"R": "R", "S": "S"},
            joins=[JoinPair("R.k", "S.k")],
            projection=("R.id", "S.id"),
        )
        assert_engines_agree(db, canonicalize(spec, db.schema))

    def test_self_join_disjoint_alias_lineage(self):
        db = Database("selfjoin")
        db.create_table("R", ["id", "k"], key="id")
        db.insert("R", id=1, k="a")
        db.insert("R", id=2, k="a")
        spec = SPJASpec(
            aliases={"R1": "R", "R2": "R"},
            joins=[JoinPair("R1.k", "R2.k")],
            projection=("R1.id", "R2.id"),
        )
        assert_engines_agree(db, canonicalize(spec, db.schema))

    def test_project_duplicate_values(self):
        db = Database("dups")
        db.create_table("R", ["id", "x", "y"], key="id")
        db.insert("R", id=1, x=1, y=10)
        db.insert("R", id=2, x=1, y=20)
        db.insert("R", id=3, x=2, y=30)
        spec = SPJASpec(aliases={"R": "R"}, projection=("R.x",))
        assert_engines_agree(db, canonicalize(spec, db.schema))

    def test_aggregate_grouped_and_over_empty_input(self):
        db = Database("agg")
        db.create_table("R", ["id", "g", "v"], key="id")
        db.insert("R", id=1, g="a", v=10)
        db.insert("R", id=2, g="a", v=20)
        db.insert("R", id=3, g="b", v=30)
        grouped = SPJASpec(
            aliases={"R": "R"},
            group_by=("R.g",),
            aggregates=(AggregateCall("avg", "R.v", "av"),),
        )
        assert_engines_agree(db, canonicalize(grouped, db.schema))
        empty_in = SPJASpec(
            aliases={"R": "R"},
            selections=[attr_cmp("R.v", ">", 999)],
            group_by=("R.g",),
            aggregates=(AggregateCall("count", "R.id", "n"),),
        )
        assert_engines_agree(db, canonicalize(empty_in, db.schema))

    def test_multi_chunk_batches(self):
        """A relation wider than one batch: results identical, spans
        chunked (``evaluator.batches`` exceeds the node count)."""
        db = Database("chunked")
        db.create_table("R", ["id", "v"], key="id")
        for i in range(BATCH_ROWS + 100):
            db.insert("R", id=i, v=i % 7)
        spec = SPJASpec(
            aliases={"R": "R"},
            selections=[attr_cmp("R.v", ">", 2)],
            projection=("R.id",),
        )
        canonical = canonicalize(spec, db.schema)
        assert_engines_agree(db, canonical)
        instance = db.input_instance(canonical.aliases)
        _, counters = traced(
            lambda: evaluate_columnar(canonical.root, instance)
        )
        nodes = len(list(canonical.root.postorder()))
        assert counters["evaluator.batches"] > nodes

    def test_union_and_difference_parity(self):
        db = Database("setops")
        db.create_table("A", ["x"])
        db.create_table("B", ["y"])
        for v in (1, 2, 2, 3):
            db.insert("A", x=v)
        for v in (2, 3, 4):
            db.insert("B", y=v)
        renaming = Renaming.of(("A.x", "B.y", "v"))
        for root in (
            Union(
                RelationLeaf(RelationSchema("A", ("x",))),
                RelationLeaf(RelationSchema("B", ("y",))),
                renaming,
            ),
            Difference(
                RelationLeaf(RelationSchema("A", ("x",))),
                RelationLeaf(RelationSchema("B", ("y",))),
                renaming,
            ),
        ):
            row = evaluate_query(root, db.instance())
            col = evaluate_query(root, db.instance(), use_columnar=True)
            for node in root.postorder():
                assert node_key(row.output(node)) == node_key(
                    col.output(node)
                )


# ---------------------------------------------------------------------------
# Select memoization: replayed evaluations stay observationally equal
# ---------------------------------------------------------------------------
class TestSelectMemoReplay:
    def test_repeat_evaluation_replays_identically(self):
        """The second evaluation serves selection output from the
        table-cache memo; rows, lineage, spans, and ticks must be
        indistinguishable from the first."""
        db = _tiny_db()
        spec = SPJASpec(
            aliases={"R": "R"},
            selections=[attr_cmp("R.x", ">", 4)],
            projection=("R.id",),
        )
        canonical = canonicalize(spec, db.schema)
        instance = db.input_instance(canonical.aliases)
        clear_table_cache()
        first, first_counters = traced(
            lambda: evaluate_columnar(canonical.root, instance)
        )
        second, second_counters = traced(
            lambda: evaluate_columnar(canonical.root, instance)
        )
        assert first_counters == second_counters
        for node in canonical.root.postorder():
            assert node_key(first.row_view().output(node)) == node_key(
                second.row_view().output(node)
            )
        row, row_counters = traced(
            lambda: evaluate(canonical.root, instance)
        )
        assert drop_batches(second_counters) == row_counters
