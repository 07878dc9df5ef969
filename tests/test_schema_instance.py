"""Unit tests for schemas and instances (Sec. 2.1, Def. 2.3)."""

import pytest

from repro.errors import SchemaError, UnknownRelationError
from repro.relational import (
    DatabaseInstance,
    DatabaseSchema,
    RelationInstance,
    RelationSchema,
    Tuple,
    alias_schema,
    base_tuple,
    query_input_instance,
)
from repro.relational.schema import check_disjoint


# ---------------------------------------------------------------------------
# RelationSchema
# ---------------------------------------------------------------------------
class TestRelationSchema:
    def test_type_is_qualified(self):
        schema = RelationSchema("A", ("aid", "name"))
        assert schema.type == frozenset({"A.aid", "A.name"})

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("", ("x",))

    def test_dotted_name_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("A.B", ("x",))

    def test_no_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("A", ())

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("A", ("x", "x"))

    def test_qualified_attribute_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("A", ("B.x",))

    def test_key_must_be_attribute(self):
        with pytest.raises(SchemaError):
            RelationSchema("A", ("x",), key="y")

    def test_qualified_lookup(self):
        schema = RelationSchema("A", ("aid",))
        assert schema.qualified("aid") == "A.aid"
        with pytest.raises(SchemaError):
            schema.qualified("nope")

    def test_renamed_keeps_attributes_and_key(self):
        schema = RelationSchema("A", ("aid", "x"), key="aid")
        aliased = schema.renamed("A2")
        assert aliased.name == "A2"
        assert aliased.key == "aid"
        assert aliased.type == frozenset({"A2.aid", "A2.x"})


# ---------------------------------------------------------------------------
# DatabaseSchema
# ---------------------------------------------------------------------------
class TestDatabaseSchema:
    def test_duplicate_relations_rejected(self):
        r = RelationSchema("A", ("x",))
        with pytest.raises(SchemaError):
            DatabaseSchema((r, r))

    def test_relation_lookup(self):
        schema = DatabaseSchema.of(RelationSchema("A", ("x",)))
        assert schema.relation("A").name == "A"
        with pytest.raises(UnknownRelationError):
            schema.relation("B")

    def test_contains_iter_len_names(self):
        schema = DatabaseSchema.of(
            RelationSchema("A", ("x",)), RelationSchema("B", ("y",))
        )
        assert "A" in schema and "C" not in schema
        assert len(schema) == 2
        assert schema.names() == ("A", "B")

    def test_with_relation(self):
        schema = DatabaseSchema.of(RelationSchema("A", ("x",)))
        bigger = schema.with_relation(RelationSchema("B", ("y",)))
        assert "B" in bigger and "B" not in schema

    def test_alias_schema_self_join(self):
        base = DatabaseSchema.of(RelationSchema("C", ("id", "t")))
        aliased = alias_schema({"C1": "C", "C2": "C"}, base)
        assert aliased.relation("C1").type == frozenset({"C1.id", "C1.t"})
        assert aliased.relation("C2").type == frozenset({"C2.id", "C2.t"})

    def test_check_disjoint(self):
        check_disjoint({"A"}, {"B"})
        with pytest.raises(SchemaError):
            check_disjoint({"A", "B"}, {"B"})


# ---------------------------------------------------------------------------
# RelationInstance
# ---------------------------------------------------------------------------
class TestRelationInstance:
    def _schema(self):
        return RelationSchema("A", ("x", "y"))

    def test_add_and_iterate(self):
        inst = RelationInstance(self._schema())
        t = base_tuple("A", "A:1", x=1, y=2)
        inst.add(t)
        assert list(inst) == [t]
        assert len(inst) == 1

    def test_type_mismatch_rejected(self):
        inst = RelationInstance(self._schema())
        with pytest.raises(SchemaError):
            inst.add(base_tuple("B", "B:1", x=1, y=2))
        with pytest.raises(SchemaError):
            inst.add(base_tuple("A", "A:1", x=1))
        assert len(inst) == 0

    def test_missing_tid_rejected(self):
        inst = RelationInstance(self._schema())
        with pytest.raises(SchemaError):
            inst.add(Tuple({"A.x": 1, "A.y": 2}))

    def test_duplicate_tid_rejected(self):
        inst = RelationInstance(self._schema())
        inst.add(base_tuple("A", "A:1", x=1, y=2))
        with pytest.raises(SchemaError):
            inst.add(base_tuple("A", "A:1", x=3, y=4))

    def test_by_tid(self):
        inst = RelationInstance(self._schema())
        t = base_tuple("A", "A:1", x=1, y=2)
        inst.add(t)
        assert inst.by_tid("A:1") is t
        with pytest.raises(UnknownRelationError):
            inst.by_tid("A:9")

    def test_requalified_rewrites_attrs_and_tids(self):
        inst = RelationInstance(self._schema())
        inst.add(base_tuple("A", "A:1", x=1, y=2))
        copy = inst.requalified("A2")
        (t,) = copy.tuples
        assert t.tid == "A2:1"
        assert t["A2.x"] == 1

    def test_requalified_same_alias_is_identity(self):
        inst = RelationInstance(self._schema())
        assert inst.requalified("A") is inst

    def test_requalified_non_injective_retag_raises(self):
        # "A:1" and the verbatim "1" both retag to "S:1"
        inst = RelationInstance(self._schema())
        inst.add(base_tuple("A", "A:1", x=1, y=2))
        inst.add(base_tuple("A", "1", x=3, y=4))
        with pytest.raises(SchemaError, match="duplicate tuple id 'S:1'"):
            inst.requalified("S")


# ---------------------------------------------------------------------------
# DatabaseInstance
# ---------------------------------------------------------------------------
class TestDatabaseInstance:
    def _instance(self):
        schema = DatabaseSchema.of(
            RelationSchema("A", ("x",)), RelationSchema("B", ("y",))
        )
        inst = DatabaseInstance(schema)
        inst.insert_values("A", "A:1", x=10)
        inst.insert_values("B", "B:1", y=20)
        return inst

    def test_relation_access(self):
        inst = self._instance()
        assert len(inst.relation("A")) == 1
        assert len(inst["B"]) == 1
        with pytest.raises(UnknownRelationError):
            inst.relation("C")

    def test_all_tuples_and_size(self):
        inst = self._instance()
        assert inst.size() == 2
        assert len(inst.all_tuples()) == 2

    def test_tuple_by_tid(self):
        inst = self._instance()
        assert inst.tuple_by_tid("A:1")["A.x"] == 10
        with pytest.raises(UnknownRelationError):
            inst.tuple_by_tid("A:9")

    def test_tuple_by_tid_verbatim(self):
        # the paper's running example names base tuples t1 .. t9
        inst = self._instance()
        t = inst.insert_values("A", "t1", x=1)
        assert inst.tuple_by_tid("t1") is t
        with pytest.raises(UnknownRelationError):
            inst.tuple_by_tid("t9")
        with pytest.raises(UnknownRelationError):
            inst.tuple_by_tid("C:1")

    def test_insert_values_qualifies(self):
        inst = self._instance()
        t = inst.insert_values("A", "A:2", x=99)
        assert t["A.x"] == 99

    def test_query_input_instance_self_join(self):
        schema = DatabaseSchema.of(RelationSchema("C", ("id",)))
        stored = DatabaseInstance(schema)
        stored.insert_values("C", "C:1", id=1)
        derived = query_input_instance(stored, {"C1": "C", "C2": "C"})
        assert derived.relation_names() == ("C1", "C2")
        t1 = derived.relation("C1").tuples[0]
        t2 = derived.relation("C2").tuples[0]
        # distinct qualified attributes AND distinct tuple ids
        assert t1.type == frozenset({"C1.id"})
        assert t2.type == frozenset({"C2.id"})
        assert t1.tid == "C1:1" and t2.tid == "C2:1"
        assert t1.lineage.isdisjoint(t2.lineage)
