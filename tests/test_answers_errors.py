"""Tests for the answer types (Defs. 2.12-2.14 renderings) and the
error hierarchy."""

import pytest

import repro.errors as errors
from repro.core import DetailedEntry, NedExplainReport, WhyNotAnswer
from repro.core.whynot_question import CTuple
from repro.relational import RelationLeaf, RelationSchema, Select, attr_cmp


def _node(name: str):
    node = Select(
        RelationLeaf(RelationSchema("R", ("x",))),
        attr_cmp("R.x", "=", 1),
    )
    node.name = name
    return node


def _answer(*entries, secondary=(), **kwargs):
    return WhyNotAnswer(
        ctuple=CTuple({"R.x": 1}),
        detailed=tuple(entries),
        secondary=tuple(secondary),
        **kwargs,
    )


class TestDetailedEntry:
    def test_repr_with_tid(self):
        entry = DetailedEntry("R:1", _node("m3"))
        assert repr(entry) == "(R:1, m3)"

    def test_repr_null(self):
        assert repr(DetailedEntry(None, _node("m3"))) == "(null, m3)"

    def test_label_falls_back_to_description(self):
        node = _node("x")
        node.name = None
        assert "sigma" in DetailedEntry(None, node).subquery_label


class TestWhyNotAnswer:
    def test_condensed_dedupes_by_node(self):
        node = _node("m1")
        answer = _answer(
            DetailedEntry("a", node), DetailedEntry("b", node)
        )
        assert answer.condensed == (node,)
        assert answer.condensed_labels == ("m1",)

    def test_detailed_pairs(self):
        answer = _answer(DetailedEntry("a", _node("m1")))
        assert answer.detailed_pairs == (("a", "m1"),)

    def test_is_empty(self):
        assert _answer().is_empty()
        assert not _answer(DetailedEntry("a", _node("m1"))).is_empty()
        assert not _answer(secondary=[_node("m2")]).is_empty()

    def test_repr_flags(self):
        answer = _answer(no_compatible_data=True)
        assert "no_compatible_data" in repr(answer)


class TestNedExplainReport:
    def test_union_of_answers_dedupes(self):
        node = _node("m1")
        report = NedExplainReport(
            (
                _answer(DetailedEntry("a", node)),
                _answer(DetailedEntry("a", node)),
            )
        )
        assert len(report.detailed) == 1
        assert report.condensed == (node,)

    def test_secondary_union(self):
        node = _node("m2")
        report = NedExplainReport(
            (_answer(secondary=[node]), _answer(secondary=[node]))
        )
        assert report.secondary == (node,)
        assert report.secondary_labels == ("m2",)

    def test_total_time(self):
        report = NedExplainReport(
            (), {"Initialization": 1.0, "BottomUp": 2.0}
        )
        assert report.total_time_ms == 3.0

    def test_summary_no_compatible(self):
        report = NedExplainReport((_answer(no_compatible_data=True),))
        assert "no compatible source data" in report.summary()

    def test_summary_not_missing(self):
        report = NedExplainReport((_answer(answer_not_missing=True),))
        assert "not missing" in report.summary()

    def test_summary_empty_answer(self):
        report = NedExplainReport((_answer(),))
        assert "(empty)" in report.summary()

    def test_iteration(self):
        answers = (_answer(), _answer())
        report = NedExplainReport(answers)
        assert tuple(report) == answers


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.SchemaError,
            errors.QueryError,
            errors.ConditionError,
            errors.RenamingError,
            errors.EvaluationError,
            errors.IntegrityError,
            errors.UnknownRelationError,
            errors.WhyNotQuestionError,
            errors.UnsupportedQueryError,
            errors.SqlSyntaxError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_renaming_error_is_query_error(self):
        assert issubclass(errors.RenamingError, errors.QueryError)

    def test_sql_error_carries_position(self):
        error = errors.SqlSyntaxError("bad token", position=7)
        assert error.position == 7
        assert "offset 7" in str(error)

    def test_sql_error_without_position(self):
        assert errors.SqlSyntaxError("bad").position is None

    def test_single_catch_all(self):
        """One except clause suffices for any library failure."""
        from repro.relational import Database

        db = Database()
        try:
            db.table("nope")
        except errors.ReproError as exc:
            assert "nope" in str(exc)
        else:  # pragma: no cover
            pytest.fail("expected a ReproError")
