"""Unit tests for the evaluator (with lineage) and the storage engine."""

import pytest

from repro.errors import (
    EvaluationError,
    IntegrityError,
    SchemaError,
    UnknownRelationError,
)
from repro.relational import (
    Database,
    Project,
    RelationLeaf,
    evaluate,
    evaluate_query,
    resolve_aliases,
)
from repro.relational.lineage import (
    base_lineage,
    descends_from,
    direct_lineage,
    format_output,
    is_successor,
    lineage_within,
    successors_in,
)


# ---------------------------------------------------------------------------
# Evaluator on the running example
# ---------------------------------------------------------------------------
class TestEvaluatorRunningExample:
    def test_final_result(self, running_example):
        db, canonical = running_example
        result = evaluate_query(canonical.root, db.instance())
        assert result.result_values() == [
            {"A.name": "Sophocles", "ap": 49.0}
        ]

    def test_q2_intermediate_output(self, running_example):
        """Q2's output is {t4t7t2, t4t8t1, t5t9t3} (Sec. 1)."""
        db, canonical = running_example
        result = evaluate_query(canonical.root, db.instance())
        join_top = canonical.node("m1")
        provs = sorted(
            t.how_provenance() for t in result.output(join_top)
        )
        assert provs == [
            "A:a1*AB:1*B:b2",
            "A:a1*AB:2*B:b1",
            "A:a2*AB:3*B:b3",
        ]

    def test_selection_kills_homer(self, running_example):
        db, canonical = running_example
        result = evaluate_query(canonical.root, db.instance())
        select = canonical.node("m2")
        survivors = {t["A.name"] for t in result.output(select)}
        assert survivors == {"Sophocles"}

    def test_flat_input_matches_children(self, running_example):
        db, canonical = running_example
        result = evaluate_query(canonical.root, db.instance())
        select = canonical.node("m2")
        join_top = canonical.node("m1")
        assert result.flat_input(select) == result.output(join_top)

    def test_unevaluated_node_raises(self, running_example):
        db, canonical = running_example
        result = evaluate_query(canonical.root, db.instance())
        with pytest.raises(EvaluationError):
            result.output(RelationLeaf(db.table("A").schema.renamed("Z")))

    def test_missing_relation_raises(self, running_example_db):
        foreign = RelationLeaf(
            running_example_db.table("A").schema.renamed("Missing")
        )
        with pytest.raises(EvaluationError):
            evaluate(
                Project(foreign, ["Missing.name"]),
                running_example_db.instance(),
            )

    def test_resolve_aliases_defaults(self, running_example, running_example_db):
        _, canonical = running_example
        mapping = resolve_aliases(
            canonical.root, running_example_db.instance()
        )
        assert mapping == {"A": "A", "AB": "AB", "B": "B"}

    def test_resolve_aliases_unknown(self, running_example_db):
        foreign = RelationLeaf(
            running_example_db.table("A").schema.renamed("Zz")
        )
        with pytest.raises(UnknownRelationError):
            resolve_aliases(foreign, running_example_db.instance())


# ---------------------------------------------------------------------------
# Lineage helpers
# ---------------------------------------------------------------------------
class TestLineageHelpers:
    def test_direct_lineage(self, running_example):
        db, canonical = running_example
        result = evaluate_query(canonical.root, db.instance())
        join_low = canonical.node("m0")
        out = result.output(join_low)
        for t in out:
            assert len(direct_lineage(t)) == 2

    def test_direct_lineage_of_base_tuple_is_itself(self, running_example_db):
        t = running_example_db.table("A").rows[0]
        assert direct_lineage(t) == frozenset({t})

    def test_is_successor_and_successors_in(self, running_example):
        db, canonical = running_example
        result = evaluate_query(canonical.root, db.instance())
        homer = db.table("A").by_tid("A:a1")
        join_low = canonical.node("m0")
        succ = successors_in(result.output(join_low), homer)
        assert len(succ) == 2
        assert all(is_successor(s, homer) for s in succ)

    def test_descends_from(self, running_example):
        db, canonical = running_example
        result = evaluate_query(canonical.root, db.instance())
        top_join = canonical.node("m1")
        assert any(
            descends_from(t, "A:a1") for t in result.output(top_join)
        )

    def test_lineage_within(self, running_example):
        db, canonical = running_example
        result = evaluate_query(canonical.root, db.instance())
        (t, *_) = result.output(canonical.node("m0"))
        assert lineage_within(t, t.lineage | {"extra"})
        assert not lineage_within(t, frozenset())

    def test_base_lineage(self, running_example_db):
        t = running_example_db.table("A").rows[0]
        assert base_lineage(t) == frozenset({"A:a1"})

    def test_format_output(self, running_example):
        db, canonical = running_example
        result = evaluate_query(canonical.root, db.instance())
        text = format_output(result.output(canonical.node("m0")))
        assert "A:a1" in text
        assert format_output([]) == "(empty)"


# ---------------------------------------------------------------------------
# Database engine
# ---------------------------------------------------------------------------
class TestDatabase:
    def test_create_and_insert(self):
        db = Database()
        db.create_table("T", ["id", "v"], key="id")
        row = db.insert("T", id=1, v="a")
        assert row.tid == "T:1"
        assert db.size() == 1

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table("T", ["id"])
        with pytest.raises(SchemaError):
            db.create_table("T", ["id"])

    def test_key_uniqueness(self):
        db = Database()
        db.create_table("T", ["id"], key="id")
        db.insert("T", id=1)
        with pytest.raises(IntegrityError):
            db.insert("T", id=1)

    def test_null_key_rejected(self):
        db = Database()
        db.create_table("T", ["id", "v"], key="id")
        with pytest.raises(IntegrityError):
            db.insert("T", v="x")

    def test_unknown_attribute_rejected(self):
        db = Database()
        db.create_table("T", ["id"])
        with pytest.raises(SchemaError):
            db.insert("T", nope=1)

    def test_auto_ids_without_key(self):
        db = Database()
        db.create_table("T", ["v"])
        r1 = db.insert("T", v="a")
        r2 = db.insert("T", v="b")
        assert (r1.tid, r2.tid) == ("T:1", "T:2")

    def test_missing_attrs_become_null(self):
        db = Database()
        db.create_table("T", ["id", "v"], key="id")
        row = db.insert("T", id=1)
        assert row["T.v"] is None

    def test_index_on_unknown_attr_rejected(self):
        db = Database()
        db.create_table("T", ["id"])
        db.insert("T", id=1)
        relation = db.instance().relation("T")
        with pytest.raises(SchemaError):
            relation.lookup("T.zz", 1)
        with pytest.raises(SchemaError):
            relation.lookup("id", 1)  # unqualified: outside type(T)

    def test_by_tid(self):
        db = Database()
        table = db.create_table("T", ["id"], key="id")
        db.insert("T", id=7)
        assert table.by_tid("T:7")["T.id"] == 7
        with pytest.raises(UnknownRelationError):
            table.by_tid("T:8")

    def test_insert_rows_bulk(self):
        db = Database()
        db.create_table("T", ["id"], key="id")
        inserted = db.insert_rows("T", [{"id": 1}, {"id": 2}])
        assert len(inserted) == 2

    def test_instance_view(self, tiny_db):
        instance = tiny_db.instance()
        assert instance.size() == 5
        assert len(instance.relation("R")) == 3

    def test_input_instance_self_join(self, tiny_db):
        instance = tiny_db.input_instance({"R1": "R", "R2": "R"})
        assert set(instance.relation_names()) == {"R1", "R2"}
        assert len(instance.relation("R1")) == 3

    def test_unknown_table(self, tiny_db):
        with pytest.raises(UnknownRelationError):
            tiny_db.table("Nope")
        assert "R" in tiny_db and "Nope" not in tiny_db
