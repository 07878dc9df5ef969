"""Unit tests for the query algebra (Def. 2.2) and its evaluation."""

import pytest

from repro.errors import QueryError, SchemaError
from repro.columnar import evaluate_columnar
from repro.relational import (
    Aggregate,
    AggregateCall,
    Database,
    Difference,
    Join,
    Project,
    RelationLeaf,
    RelationSchema,
    Renaming,
    Select,
    Tuple,
    Union,
    assign_labels,
    attr_cmp,
    base_tuple,
    evaluate,
    find_node,
    subtree_covering,
    tabq_order,
    validate_tree,
    var_cmp,
)


def leaf(name: str, *attrs: str) -> RelationLeaf:
    return RelationLeaf(RelationSchema(name, attrs))


def rows(alias: str, *dicts):
    return [
        base_tuple(alias, f"{alias}:{i}", **d) for i, d in enumerate(dicts)
    ]


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------
class TestRelationLeaf:
    def test_target_type(self):
        node = leaf("A", "x", "y")
        assert node.target_type == frozenset({"A.x", "A.y"})
        assert node.op == "relation schema"

    def test_apply_passes_through(self):
        node = leaf("A", "x")
        data = rows("A", {"x": 1}, {"x": 2})
        assert node.apply([data]) == data

    def test_apply_wrong_arity(self):
        node = leaf("A", "x")
        with pytest.raises(QueryError):
            node.apply([[], []])


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------
class TestSelect:
    def test_filters_and_derives(self):
        node = Select(leaf("A", "x"), attr_cmp("A.x", ">", 1))
        data = rows("A", {"x": 1}, {"x": 2})
        out = node.apply([data])
        assert len(out) == 1
        assert out[0]["A.x"] == 2
        assert out[0].parents == (data[1],)

    def test_unknown_attribute_rejected(self):
        with pytest.raises(QueryError):
            Select(leaf("A", "x"), attr_cmp("A.z", "=", 1))

    def test_output_values_are_detached_from_shared_dict(self):
        # a selected tuple shares its parent's value dict internally;
        # mutating the copy that .values returns touches neither
        node = Select(leaf("A", "x"), attr_cmp("A.x", ">", 1))
        (parent,) = rows("A", {"x": 2})
        (out,) = node.apply([[parent]])
        parent_hash, out_hash = hash(parent), hash(out)
        twin = base_tuple("A", "A:0", x=2)
        exposed = out.values
        exposed["A.x"] = 99
        exposed["A.extra"] = 1
        parent.values["A.x"] = 98
        assert out["A.x"] == 2 and parent["A.x"] == 2
        assert out.type == parent.type == frozenset({"A.x"})
        assert hash(out) == out_hash == hash(twin) == parent_hash
        assert out == parent == twin

    def test_variable_condition_rejected(self):
        with pytest.raises(QueryError):
            Select(leaf("A", "x"), var_cmp("v", "=", 1))

    def test_target_type_unchanged(self):
        node = Select(leaf("A", "x"), attr_cmp("A.x", "=", 1))
        assert node.target_type == frozenset({"A.x"})


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------
class TestProject:
    def test_projects(self):
        node = Project(leaf("A", "x", "y"), ["A.x"])
        out = node.apply([rows("A", {"x": 1, "y": 2})])
        assert out[0].type == frozenset({"A.x"})

    def test_keeps_per_lineage_derivations(self):
        node = Project(leaf("A", "x", "y"), ["A.x"])
        data = rows("A", {"x": 1, "y": 2}, {"x": 1, "y": 3})
        out = node.apply([data])
        # same projected values, distinct lineage: both survive
        assert len(out) == 2

    def test_validation(self):
        with pytest.raises(QueryError):
            Project(leaf("A", "x"), [])
        with pytest.raises(QueryError):
            Project(leaf("A", "x"), ["A.x", "A.x"])
        with pytest.raises(QueryError):
            Project(leaf("A", "x"), ["A.z"])


# ---------------------------------------------------------------------------
# Join
# ---------------------------------------------------------------------------
class TestJoin:
    def _join(self):
        return Join(
            leaf("A", "k", "x"),
            leaf("B", "k", "y"),
            Renaming.of(("A.k", "B.k", "k")),
        )

    def test_output_values_are_detached(self):
        node = self._join()
        left = rows("A", {"k": 1, "x": "l1"})
        right = rows("B", {"k": 1, "y": "r1"})
        (out,) = node.apply([left, right])
        before = (hash(out), hash(left[0]), hash(right[0]))
        expected = {"k": 1, "A.x": "l1", "B.y": "r1"}
        exposed = out.values
        assert exposed == expected
        exposed["k"] = 2
        exposed.pop("A.x")
        assert out.values == expected
        assert left[0].values == {"A.k": 1, "A.x": "l1"}
        assert (hash(out), hash(left[0]), hash(right[0])) == before
        assert out == Tuple(expected, lineage={"A:0", "B:0"})

    def test_equi_join(self):
        node = self._join()
        left = rows("A", {"k": 1, "x": "l1"}, {"k": 2, "x": "l2"})
        right = rows("B", {"k": 1, "y": "r1"}, {"k": 3, "y": "r3"})
        out = node.apply([left, right])
        assert len(out) == 1
        (t,) = out
        assert t["k"] == 1 and t["A.x"] == "l1" and t["B.y"] == "r1"
        assert set(t.parents) == {left[0], right[0]}

    def test_target_type_renames_join_attrs(self):
        node = self._join()
        assert node.target_type == frozenset({"k", "A.x", "B.y"})

    def test_null_never_joins(self):
        node = self._join()
        left = rows("A", {"k": None, "x": "l"})
        right = rows("B", {"k": None, "y": "r"})
        assert node.apply([left, right]) == []

    def test_cross_product_with_empty_renaming(self):
        node = Join(leaf("A", "x"), leaf("B", "y"), Renaming())
        out = node.apply(
            [rows("A", {"x": 1}, {"x": 2}), rows("B", {"y": 3})]
        )
        assert len(out) == 2

    def test_multi_attribute_join(self):
        node = Join(
            leaf("A", "h", "c"),
            leaf("B", "h", "c"),
            Renaming.of(("A.h", "B.h", "h"), ("A.c", "B.c", "c")),
        )
        left = rows("A", {"h": 1, "c": 1}, {"h": 1, "c": 2})
        right = rows("B", {"h": 1, "c": 1})
        out = node.apply([left, right])
        assert len(out) == 1

    def test_shared_alias_rejected(self):
        a1, a2 = leaf("A", "x"), leaf("A", "y")
        with pytest.raises(SchemaError):
            Join(a1, a2, Renaming())

    def test_lineage_union(self):
        node = self._join()
        left = rows("A", {"k": 1, "x": "l"})
        right = rows("B", {"k": 1, "y": "r"})
        (t,) = node.apply([left, right])
        assert t.lineage == frozenset({"A:0", "B:0"})


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
class TestAggregate:
    def _agg(self):
        return Aggregate(
            leaf("A", "g", "v"),
            ["A.g"],
            [AggregateCall("sum", "A.v", "s")],
        )

    def test_grouping(self):
        node = self._agg()
        data = rows(
            "A", {"g": "x", "v": 1}, {"g": "x", "v": 2}, {"g": "y", "v": 5}
        )
        out = node.apply([data])
        by_group = {t["A.g"]: t["s"] for t in out}
        assert by_group == {"x": 3, "y": 5}

    def test_group_lineage_and_parents(self):
        node = self._agg()
        data = rows("A", {"g": "x", "v": 1}, {"g": "x", "v": 2})
        (t,) = node.apply([data])
        assert t.lineage == frozenset({"A:0", "A:1"})
        assert set(t.parents) == set(data)

    def test_empty_input_with_grouping(self):
        assert self._agg().apply([[]]) == []

    def test_empty_input_without_grouping(self):
        node = Aggregate(
            leaf("A", "v"), [], [AggregateCall("count", "A.v", "c")]
        )
        out = node.apply([[]])
        assert len(out) == 1 and out[0]["c"] == 0

    def test_target_type(self):
        assert self._agg().target_type == frozenset({"A.g", "s"})

    def test_needed_attributes(self):
        assert self._agg().needed_attributes == frozenset({"A.g", "A.v"})

    def test_validation(self):
        with pytest.raises(QueryError):
            Aggregate(leaf("A", "v"), ["A.z"], [])
        with pytest.raises(QueryError):
            Aggregate(leaf("A", "v"), [], [])
        with pytest.raises(QueryError):
            Aggregate(
                leaf("A", "v"), [], [AggregateCall("sum", "A.z", "s")]
            )
        with pytest.raises(QueryError):
            # output alias clashes with an input attribute
            Aggregate(
                leaf("A", "v", "s"),
                ["A.s"],
                [AggregateCall("sum", "A.v", "A.s")],
            )

    def test_duplicate_group_attrs_rejected(self):
        with pytest.raises(QueryError):
            Aggregate(
                leaf("A", "g", "v"),
                ["A.g", "A.g"],
                [AggregateCall("sum", "A.v", "s")],
            )


# ---------------------------------------------------------------------------
# Union
# ---------------------------------------------------------------------------
class TestUnion:
    def _union(self):
        return Union(
            leaf("A", "x"),
            leaf("B", "y"),
            Renaming.of(("A.x", "B.y", "v")),
        )

    def test_renames_both_sides(self):
        node = self._union()
        out = node.apply(
            [rows("A", {"x": 1}), rows("B", {"y": 2})]
        )
        assert [t["v"] for t in out] == [1, 2]

    def test_same_value_different_lineage_kept(self):
        node = self._union()
        out = node.apply([rows("A", {"x": 1}), rows("B", {"y": 1})])
        assert len(out) == 2  # derivation semantics

    def test_incompatible_types_rejected(self):
        with pytest.raises(QueryError):
            Union(leaf("A", "x", "w"), leaf("B", "y"), Renaming.of(
                ("A.x", "B.y", "v")
            ))

    def test_target_type(self):
        assert self._union().target_type == frozenset({"v"})


# ---------------------------------------------------------------------------
# Value domains: True is not 1 (compare_values keeps booleans apart)
# ---------------------------------------------------------------------------
def _domains_db():
    db = Database("domains")
    db.create_table("A", ["id", "k", "j"], key="id")
    db.create_table("C", ["id", "k", "j"], key="id")
    db.create_table("B", ["id", "k", "j"], key="id")
    db.create_table("D", ["id", "k"], key="id")
    for i, k in enumerate([True, 1, 1.0, None, False]):
        db.insert("A", id=i, k=k, j="x")
    db.insert("C", id=0, k=0, j="x")
    for i, k in enumerate([1, True, None, 0]):
        db.insert("B", id=i, k=k, j="x")
    for i, k in enumerate([1, None]):
        db.insert("D", id=i, k=k)
    return db


def _engines(root, db):
    """Root output lineages from the row engine and the columnar row
    view, which must agree."""
    instance = db.instance()
    row = evaluate(root, instance).output(root)
    col = evaluate_columnar(root, instance).row_view().output(root)
    assert [(t.values, t.lineage) for t in row] == [
        (t.values, t.lineage) for t in col
    ]
    return {"*".join(sorted(t.lineage)) for t in row}


class TestValueDomains:
    def _leaf(self, db, name):
        return RelationLeaf(db.table(name).schema)

    def test_join_keeps_booleans_apart_from_numbers(self):
        db = _domains_db()
        root = Join(
            self._leaf(db, "A"),
            self._leaf(db, "B"),
            Renaming.of(("A.k", "B.k", "k")),
        )
        # True~True, 1~1 and 1.0~1; False never meets 0, NULL never joins
        assert _engines(root, db) == {"A:0*B:1", "A:1*B:0", "A:2*B:0"}

    def test_compound_key_join_keeps_booleans_apart(self):
        db = _domains_db()
        root = Join(
            self._leaf(db, "A"),
            self._leaf(db, "B"),
            Renaming.of(("A.k", "B.k", "k"), ("A.j", "B.j", "j")),
        )
        assert _engines(root, db) == {"A:0*B:1", "A:1*B:0", "A:2*B:0"}

    def test_uncoded_probe_keeps_booleans_apart(self):
        # a union output carries no dictionary codes, so the columnar
        # engine probes with plain values
        db = _domains_db()
        union = Union(
            Project(self._leaf(db, "A"), ["A.k"]),
            Project(self._leaf(db, "C"), ["C.k"]),
            Renaming.of(("A.k", "C.k", "u")),
        )
        root = Join(
            union,
            Project(self._leaf(db, "B"), ["B.k"]),
            Renaming.of(("u", "B.k", "k")),
        )
        assert _engines(root, db) == {
            "A:0*B:1", "A:1*B:0", "A:2*B:0", "B:3*C:0",
        }

    def test_difference_keeps_booleans_apart_from_numbers(self):
        db = _domains_db()
        root = Difference(
            Project(self._leaf(db, "A"), ["A.k"]),
            Project(self._leaf(db, "D"), ["D.k"]),
            Renaming.of(("A.k", "D.k", "k")),
        )
        # True and False stay; 1 and 1.0 are blocked by D's 1 and
        # NULL by D's NULL
        assert _engines(root, db) == {"A:0", "A:4"}

    @staticmethod
    def _grouped(engine, values):
        db = Database("groups")
        db.create_table("A", ["id", "g"], key="id")
        for i, g in enumerate(values):
            db.insert("A", id=i, g=g)
        root = Aggregate(
            RelationLeaf(db.table("A").schema),
            ["A.g"],
            [AggregateCall("count", "A.id", "n")],
        )
        instance = db.instance()
        if engine == "row":
            out = evaluate(root, instance).output(root)
        else:
            out = evaluate_columnar(root, instance).row_view().output(root)
        return sorted(
            ((type(t["A.g"]).__name__, t["A.g"], t["n"]) for t in out),
            key=repr,
        )

    @pytest.mark.parametrize("engine", ["row", "columnar"])
    def test_aggregation_keeps_booleans_apart_from_numbers(self, engine):
        # compare_values(True, "=", 1) is false, so two groups
        assert self._grouped(engine, [True, 1]) == [
            ("bool", True, 1), ("int", 1, 1),
        ]

    @pytest.mark.parametrize("engine", ["row", "columnar"])
    def test_aggregation_groups_keep_raw_values_and_nulls(self, engine):
        # 1 and 1.0 compare equal and share a group that reports its
        # first member's value; NULLs group together
        assert self._grouped(engine, [1, 1.0, None, None]) == [
            ("NoneType", None, 2), ("int", 1, 2),
        ]


# ---------------------------------------------------------------------------
# Tree utilities
# ---------------------------------------------------------------------------
class TestTreeUtilities:
    def _tree(self):
        a, b = leaf("A", "k"), leaf("B", "k")
        join = Join(a, b, Renaming.of(("A.k", "B.k", "k")))
        top = Project(join, ["k"])
        return top, join, a, b

    def test_tabq_order_decreasing_depth(self):
        top, join, a, b = self._tree()
        assert tabq_order(top) == [a, b, join, top]

    def test_assign_labels(self):
        top, join, a, b = self._tree()
        labels = assign_labels(top)
        assert labels["A"] is a
        assert labels["m0"] is join
        assert labels["m1"] is top

    def test_find_node(self):
        top, join, *_ = self._tree()
        assign_labels(top)
        assert find_node(top, "m0") is join
        with pytest.raises(QueryError):
            find_node(top, "m9")

    def test_parent_and_depth(self):
        top, join, a, b = self._tree()
        assert top.parent_of(join) is top
        assert top.parent_of(a) is join
        assert top.parent_of(top) is None
        assert top.depth_of(a) == 2
        assert top.depth_of(top) == 0

    def test_depth_of_foreign_node_raises(self):
        top, *_ = self._tree()
        with pytest.raises(QueryError):
            top.depth_of(leaf("Z", "x"))

    def test_subquery_relations(self):
        top, join, a, b = self._tree()
        assert join.is_subquery_of(top)
        assert not top.is_subquery_of(join)
        assert top.contains(a)

    def test_validate_tree_duplicate_alias(self):
        a1 = leaf("A", "k")
        # malformed: same alias on both sides, bypassing Join's check
        a2 = leaf("A", "k")
        with pytest.raises(SchemaError):
            Join(a1, a2, Renaming())
        # a hand-built broken tree is caught by validate_tree
        join = Join(a1, leaf("B", "k"), Renaming())
        join.right = a2  # type: ignore[assignment]
        with pytest.raises(SchemaError):
            validate_tree(join)

    def test_subtree_covering(self):
        top, join, a, b = self._tree()
        # A.k is renamed away at the join: only the leaf itself covers it
        assert subtree_covering(a, frozenset({"A.k"})) is a
        assert subtree_covering(top, frozenset({"k"})) is join
        assert subtree_covering(top, frozenset({"nope"})) is None

    def test_leaves_left_to_right(self):
        top, join, a, b = self._tree()
        assert top.leaves() == (a, b)

    def test_pretty_renders_all_nodes(self):
        top, *_ = self._tree()
        assign_labels(top)
        text = top.pretty()
        assert "m1" in text and "m0" in text and "[A]" in text
