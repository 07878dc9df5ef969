"""Unit tests for valid successors (Notation 2.1 / Alg. 3) and the
declarative pickyness oracle (Defs. 2.9-2.11, Property 2.1)."""

import pytest

from repro.core import (
    CTuple,
    CompatibleFinder,
    find_successors,
    is_picky_manipulation,
    is_picky_query,
    is_successor_wrt_query,
    picky_subqueries,
    trace_path,
    transitive_predecessors,
    valid_successors,
)
from repro.relational import Var, base_tuple, evaluate_query, var_cmp


@pytest.fixture()
def traced_example(running_example):
    """Running example: evaluation + compatibility for tc1 of Ex. 2.1."""
    db, canonical = running_example
    instance = db.input_instance(canonical.aliases)
    result = evaluate_query(canonical.root, db.instance())
    tc = CTuple(
        {"A.name": "Homer", "ap": Var("x1")}, var_cmp("x1", ">", 25)
    )
    compat = CompatibleFinder(instance).find(tc)
    homer = instance.relation("A").by_tid("A:a1")
    return db, canonical, result, compat, homer


# ---------------------------------------------------------------------------
# find_successors (Alg. 3 step semantics)
# ---------------------------------------------------------------------------
class TestFindSuccessors:
    def test_example_2_5_low_join(self, traced_example):
        """Q1 has two valid successors of t4 (Ex. 2.5)."""
        db, canonical, result, compat, homer = traced_example
        low_join = canonical.node("m0")
        step = find_successors(
            result.output(low_join),
            [homer],
            compat.dir_tids,
            compat.indir_tids,
        )
        assert len(step.successors) == 2
        assert step.blocked == ()
        assert step.origins_in == frozenset({"A:a1"})
        assert step.origins_out == frozenset({"A:a1"})
        assert step.died == frozenset()

    def test_selection_blocks_homer(self, traced_example):
        db, canonical, result, compat, homer = traced_example
        low = find_successors(
            result.output(canonical.node("m0")),
            [homer],
            compat.dir_tids,
            compat.indir_tids,
        )
        mid = find_successors(
            result.output(canonical.node("m1")),
            list(low.successors),
            compat.dir_tids,
            compat.indir_tids,
        )
        step = find_successors(
            result.output(canonical.node("m2")),
            list(mid.successors),
            compat.dir_tids,
            compat.indir_tids,
        )
        assert step.successors == ()
        assert set(step.blocked) == set(mid.successors)
        assert step.died == frozenset({"A:a1"})

    def test_validity_rejects_foreign_lineage(self, running_example):
        """For (Homer, price 49), t4|><|t7|><|t2 is NOT a valid
        successor of t4 because t2 is outside D (Sec. 2.3)."""
        db, canonical = running_example
        instance = db.input_instance(canonical.aliases)
        result = evaluate_query(canonical.root, db.instance())
        tc = CTuple({"A.name": "Homer", "B.price": 49})
        compat = CompatibleFinder(instance).find(tc)
        homer = instance.relation("A").by_tid("A:a1")
        top_join = canonical.node("m1")
        step = find_successors(
            result.output(top_join),
            # Homer's two m0 successors enter m1's compatibles
            [
                t
                for t in result.output(canonical.node("m0"))
                if "A:a1" in t.lineage
            ],
            compat.dir_tids,
            compat.indir_tids,
        )
        # every join partner book is non-compatible: all blocked
        assert step.successors == ()
        assert step.died == frozenset({"A:a1"})

    def test_leaf_identity_successors(self, traced_example):
        db, canonical, result, compat, homer = traced_example
        step = find_successors(
            [homer], [homer], compat.dir_tids, compat.indir_tids
        )
        assert step.successors == (homer,)


# ---------------------------------------------------------------------------
# Declarative oracle
# ---------------------------------------------------------------------------
class TestDeclarativePickyness:
    def test_transitive_predecessors(self, traced_example):
        db, canonical, result, compat, homer = traced_example
        (t, *_) = [
            o
            for o in result.output(canonical.node("m1"))
            if "A:a1" in o.lineage
        ]
        preds = transitive_predecessors(t)
        assert homer in preds

    def test_is_successor_wrt_query(self, traced_example):
        db, canonical, result, compat, homer = traced_example
        for t in result.output(canonical.node("m1")):
            expected = "A:a1" in t.lineage
            assert is_successor_wrt_query(t, homer) is expected

    def test_vs_at_each_level(self, traced_example):
        """VS shrinks from 2 (joins) to 0 (selection) for t4."""
        db, canonical, result, compat, homer = traced_example
        counts = {
            node.name: len(
                valid_successors(node, result, compat.valid_tids, homer)
            )
            for node in canonical.root.postorder()
            if node.name in {"m0", "m1", "m2", "m3"}
        }
        assert counts == {"m0": 2, "m1": 2, "m2": 0, "m3": 0}

    def test_picky_manipulation(self, traced_example):
        db, canonical, result, compat, homer = traced_example
        select = canonical.node("m2")
        # the manipulation is picky for each of Homer's m1-successors
        for t in valid_successors(
            canonical.node("m1"), result, compat.valid_tids, homer
        ):
            assert is_picky_manipulation(
                select, result, compat.valid_tids, t
            )

    def test_picky_query_is_selection(self, traced_example):
        """Ex. 2.5: Q3 (the selection) is picky w.r.t. t4 and D."""
        db, canonical, result, compat, homer = traced_example
        select = canonical.node("m2")
        assert is_picky_query(select, result, compat.valid_tids, homer)
        assert not is_picky_query(
            canonical.node("m1"), result, compat.valid_tids, homer
        )

    def test_property_2_1_uniqueness(self, traced_example):
        """Property 2.1: at most one picky subquery per tuple."""
        db, canonical, result, compat, homer = traced_example
        picky = picky_subqueries(
            canonical.root, result, compat.valid_tids, homer
        )
        assert len(picky) == 1
        assert picky[0] is canonical.node("m2")

    def test_leaf_never_picky(self, traced_example):
        db, canonical, result, compat, homer = traced_example
        leaf = canonical.node("A")
        assert not is_picky_query(leaf, result, compat.valid_tids, homer)

    def test_trace_path_diagnostic(self, traced_example):
        db, canonical, result, compat, homer = traced_example
        path = trace_path(
            canonical.root, result, compat.valid_tids, homer
        )
        by_name = {node.name: count for node, count in path}
        assert by_name["m0"] == 2 and by_name["m2"] == 0

    def test_untraced_source_not_picky(self, traced_example):
        db, canonical, result, compat, homer = traced_example
        stranger = base_tuple("A", "A:zz", aid="zz", name="?", dob=0)
        assert not is_picky_manipulation(
            canonical.node("m2"), result, compat.valid_tids, stranger
        )
