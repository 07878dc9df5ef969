"""Tests for the two extension modules: set difference (the paper's
future work, Sec. 5) and modification-based repairs (Sec. 5 outlook)."""

import pytest

from repro.errors import QueryError, UnsupportedQueryError
from repro.baseline import WhyNotBaseline
from repro.core import (
    CTuple,
    NedExplain,
    canonical_from_tree,
    unrename_ctuple,
)
from repro.core.repairs import (
    apply_repair,
    relax_condition,
    suggest_repairs,
    verify_repair,
)
from repro.relational import (
    Database,
    Difference,
    Project,
    RelationLeaf,
    Renaming,
    Select,
    TrueCondition,
    attr_cmp,
    base_tuple,
    evaluate_query,
)


# ---------------------------------------------------------------------------
# Difference: substrate behaviour
# ---------------------------------------------------------------------------
@pytest.fixture()
def diff_db():
    db = Database("diff")
    db.create_table("New", ["id", "name"], key="id")
    db.create_table("Old", ["id", "name"], key="id")
    db.insert("New", id=1, name="ada")
    db.insert("New", id=2, name="grace")
    db.insert("New", id=3, name="alan")
    db.insert("Old", id=7, name="grace")
    return db


def _difference_query(db):
    new = Project(RelationLeaf(db.table("New").schema), ["New.name"])
    old = Project(RelationLeaf(db.table("Old").schema), ["Old.name"])
    return Difference(
        new, old, Renaming.of(("New.name", "Old.name", "name"))
    )


class TestDifferenceOperator:
    def test_evaluation(self, diff_db):
        root = _difference_query(diff_db)
        result = evaluate_query(root, diff_db.instance())
        names = {row["name"] for row in result.result_values()}
        assert names == {"ada", "alan"}

    def test_lineage_comes_from_left(self, diff_db):
        root = _difference_query(diff_db)
        result = evaluate_query(root, diff_db.instance())
        for t in result.result:
            assert all(tid.startswith("New:") for tid in t.lineage)

    def test_target_type(self, diff_db):
        root = _difference_query(diff_db)
        assert root.target_type == frozenset({"name"})

    def test_incompatible_types_rejected(self, diff_db):
        new = RelationLeaf(diff_db.table("New").schema)
        old = Project(
            RelationLeaf(diff_db.table("Old").schema), ["Old.name"]
        )
        with pytest.raises(QueryError):
            Difference(new, old, Renaming.of(("New.name", "Old.name",
                                              "name")))


class TestDifferenceNedExplain:
    def test_unrename_goes_left_only(self, diff_db):
        root = _difference_query(diff_db)
        (tc,) = unrename_ctuple(root, CTuple({"name": "grace"}))
        assert tc.type == frozenset({"New.name"})

    def test_difference_node_blamed(self, diff_db):
        """Why is grace missing?  She is in New but removed by Old."""
        canonical = canonical_from_tree(_difference_query(diff_db))
        report = NedExplain(canonical, database=diff_db).explain(
            "(name: grace)"
        )
        (entry,) = report.detailed
        assert entry.tid == "New:2"
        assert entry.subquery.op == "difference"

    def test_surviving_tuple_not_blamed(self, diff_db):
        canonical = canonical_from_tree(_difference_query(diff_db))
        report = NedExplain(canonical, database=diff_db).explain("(name: ada)")
        (answer,) = report.answers
        assert answer.answer_not_missing

    def test_baseline_rejects_difference(self, diff_db):
        canonical = canonical_from_tree(_difference_query(diff_db))
        with pytest.raises(UnsupportedQueryError):
            WhyNotBaseline(canonical, database=diff_db)


# ---------------------------------------------------------------------------
# Repairs: condition relaxation
# ---------------------------------------------------------------------------
def _blocked(**values):
    return [base_tuple("A", "A:1", **values)]


class TestRelaxCondition:
    def test_strict_to_non_strict(self):
        """The introductory fix: dob > -800 becomes dob >= -800."""
        relaxed = relax_condition(
            attr_cmp("A.dob", ">", -800), _blocked(dob=-800)
        )
        assert relaxed == attr_cmp("A.dob", ">=", -800)

    def test_lower_bound_widened(self):
        relaxed = relax_condition(
            attr_cmp("A.v", ">", 10), _blocked(v=7)
        )
        assert relaxed == attr_cmp("A.v", ">=", 7)

    def test_upper_bound_widened(self):
        relaxed = relax_condition(
            attr_cmp("A.v", "<", 5), _blocked(v=9)
        )
        assert relaxed == attr_cmp("A.v", "<=", 9)

    def test_equality_becomes_disjunction(self):
        relaxed = relax_condition(
            attr_cmp("A.v", "=", 1), _blocked(v=3)
        )
        assert relaxed is not None
        t = base_tuple("A", "A:9", v=3)
        assert relaxed.evaluate(t)
        assert relaxed.evaluate(base_tuple("A", "A:8", v=1))

    def test_inequality_dropped(self):
        relaxed = relax_condition(
            attr_cmp("A.v", "!=", 3), _blocked(v=3)
        )
        assert isinstance(relaxed, TrueCondition)

    def test_satisfied_conjuncts_untouched(self):
        condition = attr_cmp("A.v", ">", 0) & attr_cmp("A.w", ">", 10)
        relaxed = relax_condition(condition, _blocked(v=5, w=8))
        assert relaxed is not None
        parts = relaxed.conjuncts()
        assert attr_cmp("A.v", ">", 0) in parts
        assert attr_cmp("A.w", ">=", 8) in parts

    def test_attr_attr_comparison_not_relaxable(self):
        from repro.relational import attr_attr_cmp

        assert relax_condition(
            attr_attr_cmp("A.v", "=", "A.w"), _blocked(v=1, w=2)
        ) is None

    def test_null_values_not_relaxable(self):
        assert relax_condition(
            attr_cmp("A.v", ">", 1), _blocked(v=None)
        ) is None


# ---------------------------------------------------------------------------
# Repairs: end to end on the running example
# ---------------------------------------------------------------------------
class TestRepairsEndToEnd:
    def test_running_example_repair(self, running_example):
        """NedExplain blames sigma_{A.dob > -800}; the repair module
        proposes >= -800, and verification confirms (Odyssey, ...)
        reaches the result -- the modification of Sec. 1."""
        db, canonical = running_example
        engine = NedExplain(canonical, database=db)
        report = engine.explain(
            "((A.name: Homer, ap: $x1), $x1 > 25)"
        )
        (suggestion,) = suggest_repairs(engine, report)
        assert suggestion.subquery.op == "sigma"
        assert suggestion.suggested == attr_cmp("A.dob", ">=", -800)

        verified = verify_repair(engine, suggestion)
        assert verified.verified is True
        assert "verified" in repr(verified)

    def test_patched_query_contains_homer(self, running_example):
        db, canonical = running_example
        engine = NedExplain(canonical, database=db)
        report = engine.explain(
            "((A.name: Homer, ap: $x1), $x1 > 25)"
        )
        (suggestion,) = suggest_repairs(engine, report)
        patched = apply_repair(canonical, suggestion)
        result = evaluate_query(
            patched.root, db.instance(), patched.aliases
        )
        names = {row["A.name"] for row in result.result_values()}
        assert "Homer" in names

    def test_no_suggestions_for_join_blame(self, running_example):
        db, canonical = running_example
        engine = NedExplain(canonical, database=db)
        report = engine.explain(
            "((A.name: $x), $x != Homer and $x != Sophocles)"
        )
        assert suggest_repairs(engine, report) == []

    def test_crime9_aggregation_repair(self):
        """The (null, sigma) answer of Crime9 also yields a repair:
        relaxing sector > 80 brings the count back above 8."""
        from repro.workloads import use_case_setup

        use_case, db, canonical = use_case_setup("Crime9")
        engine = NedExplain(canonical, database=db)
        report = engine.explain(use_case.predicate)
        suggestions = suggest_repairs(engine, report)
        assert suggestions
        (suggestion,) = suggestions
        assert suggestion.subquery.op == "sigma"

    def test_requires_engine_state(self, running_example):
        db, canonical = running_example
        engine = NedExplain(canonical, database=db)
        from repro.core.answers import NedExplainReport
        from repro.errors import WhyNotQuestionError

        with pytest.raises(WhyNotQuestionError):
            suggest_repairs(engine, NedExplainReport())
