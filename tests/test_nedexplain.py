"""Tests for the NedExplain algorithm (Sec. 3, Algorithms 1-3)."""

import pytest

from repro.errors import WhyNotQuestionError
from repro.core import (
    CTuple,
    NedExplain,
    NedExplainConfig,
    Predicate,
)
from repro.core.nedexplain import PHASES
from repro.relational import Var, var_cmp


# ---------------------------------------------------------------------------
# The paper's running example, end to end
# ---------------------------------------------------------------------------
class TestRunningExample:
    def test_tc1_detailed_answer(self, running_example):
        """Ex. 2.6: the detailed answer of tc1 is {(t4, Q3)}."""
        db, canonical = running_example
        report = NedExplain(canonical, database=db).explain(
            "((A.name: Homer, ap: $x1), $x1 > 25)"
        )
        assert report.detailed == tuple(report.answers[0].detailed)
        (entry,) = report.detailed
        assert entry.tid == "A:a1"
        assert entry.subquery is canonical.node("m2")  # the selection

    def test_tc2_join_answer(self, running_example):
        """Sec. 1: the A-AB join prunes the only other author."""
        db, canonical = running_example
        report = NedExplain(canonical, database=db).explain(
            "((A.name: $x), $x != Homer and $x != Sophocles)"
        )
        (entry,) = report.detailed
        assert entry.tid == "A:a3"  # Euripides
        assert entry.subquery is canonical.node("m0")

    def test_full_predicate_unions_answers(self, running_example):
        db, canonical = running_example
        report = NedExplain(canonical, database=db).explain(
            "((A.name: Homer, ap: $x1), $x1 > 25)"
            " | ((A.name: $x2), $x2 != Homer and $x2 != Sophocles)"
        )
        assert len(report.answers) == 2
        assert set(report.condensed_labels) == {"m0", "m2"}

    def test_condensed_answer(self, running_example):
        db, canonical = running_example
        report = NedExplain(canonical, database=db).explain(
            "((A.name: Homer, ap: $x1), $x1 > 25)"
        )
        assert report.answers[0].condensed_labels == ("m2",)

    def test_homer_price49_blamed_on_upper_join(self, running_example_db):
        """The motivating shortcoming (Sec. 1), asked on Q2 itself:
        why no tuple with Homer AND price 49?  NedExplain blames the
        uppermost join -- Homer is never associated with a price-49
        book, even though both values appear in Q2's output."""
        from repro.core import JoinPair, SPJASpec, canonicalize

        spec = SPJASpec(
            aliases={"A": "A", "AB": "AB", "B": "B"},
            joins=[JoinPair("A.aid", "AB.aid"), JoinPair("AB.bid", "B.bid")],
            projection=("A.name", "B.price"),
        )
        canonical = canonicalize(spec, running_example_db.schema)
        report = NedExplain(canonical, database=running_example_db).explain(
            "(A.name: Homer, B.price: 49)"
        )
        blamed = {e.subquery for e in report.detailed}
        assert blamed == {canonical.node("m1")}  # the uppermost join
        tids = {e.tid for e in report.detailed}
        assert tids == {"A:a1", "B:b3"}

    def test_tabq_matches_table2(self, running_example):
        """The TabQ snapshot reproduces the structure of Table 2."""
        db, canonical = running_example
        engine = NedExplain(canonical, database=db)
        engine.explain("((A.name: Homer, ap: $x1), $x1 > 25)")
        (tabq,) = engine.last_tabqs
        by_label = {entry.label: entry for entry in tabq}
        assert len(by_label["A"].compatibles) == 1
        assert len(by_label["m0"].compatibles) == 1
        assert len(by_label["m0"].output or []) == 3
        assert len(by_label["m1"].compatibles) == 2
        assert len(by_label["m2"].compatibles) == 2
        assert len(by_label["m2"].blocked) == 2
        # early termination: the aggregation node is never evaluated
        assert by_label["m3"].output is None

    def test_answer_presence_check_is_timed_in_bottomup(
        self, running_example_db, monkeypatch
    ):
        """Def. 2.8's presence check over the root output runs inside
        the BottomUp phase, so ``total_time_ms`` accounts for it."""
        import repro.core.nedexplain as ned_module
        from repro.core import JoinPair, SPJASpec, canonicalize
        from repro.obs import ManualClock, use_clock

        spec = SPJASpec(
            aliases={"A": "A", "AB": "AB", "B": "B"},
            joins=[JoinPair("A.aid", "AB.aid"), JoinPair("AB.bid", "B.bid")],
            projection=("A.name", "B.price"),
        )
        canonical = canonicalize(spec, running_example_db.schema)
        engine = NedExplain(canonical, database=running_example_db)
        # both c-tuples reach the root, so each is checked there once
        predicate = "(A.name: Sophocles) | (A.name: Homer)"
        step_s = 0.25
        clock = ManualClock()
        real_check = ned_module.any_compatible
        calls = []

        def slow_check(output, ctuple):
            calls.append(ctuple)
            clock.advance(step_s)
            return real_check(output, ctuple)

        with use_clock(clock):
            before = engine.explain(predicate)
            monkeypatch.setattr(ned_module, "any_compatible", slow_check)
            after = engine.explain(predicate)
        assert len(calls) == 2  # one check per c-tuple
        grown = after.phase_times_ms["BottomUp"] - before.phase_times_ms[
            "BottomUp"
        ]
        assert grown == pytest.approx(step_s * 1000.0 * len(calls))
        assert after.total_time_ms - before.total_time_ms == pytest.approx(
            grown
        )
        assert after.summary() == before.summary()

    def test_phase_times_recorded(self, running_example):
        db, canonical = running_example
        report = NedExplain(canonical, database=db).explain(
            "(A.name: Euripides)"
        )
        assert set(report.phase_times_ms) == set(PHASES)
        assert report.total_time_ms > 0


# ---------------------------------------------------------------------------
# Input handling and edge cases
# ---------------------------------------------------------------------------
class TestInputHandling:
    def test_accepts_ctuple_and_predicate(self, running_example):
        db, canonical = running_example
        engine = NedExplain(canonical, database=db)
        tc = CTuple({"A.name": "Euripides"})
        assert not engine.explain(tc).is_empty()
        assert not engine.explain(Predicate.of(tc)).is_empty()

    def test_predicate_outside_target_type_rejected(self, running_example):
        db, canonical = running_example
        engine = NedExplain(canonical, database=db)
        with pytest.raises(WhyNotQuestionError):
            engine.explain("(B.title: Odyssey)")

    def test_requires_exactly_one_source(self, running_example):
        db, canonical = running_example
        with pytest.raises(WhyNotQuestionError):
            NedExplain(canonical)
        with pytest.raises(WhyNotQuestionError):
            NedExplain(
                canonical,
                database=db,
                instance=db.input_instance(canonical.aliases),
            )

    def test_instance_input_works(self, running_example):
        db, canonical = running_example
        engine = NedExplain(
            canonical, instance=db.input_instance(canonical.aliases)
        )
        report = engine.explain("((A.name: Homer, ap: $x1), $x1 > 25)")
        assert report.condensed_labels == ("m2",)

    def test_no_compatible_data_flagged(self, running_example):
        db, canonical = running_example
        report = NedExplain(canonical, database=db).explain("(A.name: Zeus)")
        (answer,) = report.answers
        assert answer.no_compatible_data
        assert answer.is_empty()
        assert report.is_empty()

    def test_answer_not_missing_flagged(self, running_example):
        """Asking why (Sophocles, 49) is missing: it is not."""
        db, canonical = running_example
        report = NedExplain(canonical, database=db).explain(
            "((A.name: Sophocles, ap: $x), $x = 49)"
        )
        (answer,) = report.answers
        assert answer.answer_not_missing

    def test_summary_renders(self, running_example):
        db, canonical = running_example
        report = NedExplain(canonical, database=db).explain(
            "(A.name: Euripides)"
        )
        text = report.summary()
        assert "m0" in text and "Euripides" in text


# ---------------------------------------------------------------------------
# Early termination (Alg. 2)
# ---------------------------------------------------------------------------
class TestEarlyTermination:
    def test_same_answers_with_and_without(self, running_example):
        db, canonical = running_example
        predicate = "((A.name: Homer, ap: $x1), $x1 > 25)"
        with_et = NedExplain(canonical, database=db).explain(predicate)
        without = NedExplain(
            canonical,
            database=db,
            config=NedExplainConfig(early_termination=False),
        ).explain(predicate)
        assert [e.tid for e in with_et.detailed] == [
            e.tid for e in without.detailed
        ]
        assert with_et.condensed_labels == without.condensed_labels

    def test_disabled_evaluates_root(self, running_example):
        db, canonical = running_example
        engine = NedExplain(
            canonical,
            database=db,
            config=NedExplainConfig(early_termination=False),
        )
        engine.explain("((A.name: Homer, ap: $x1), $x1 > 25)")
        (tabq,) = engine.last_tabqs
        assert tabq.entry(canonical.root).output is not None

    def test_no_termination_while_traces_alive(self, running_example):
        db, canonical = running_example
        engine = NedExplain(canonical, database=db)
        engine.explain("((A.name: Sophocles, ap: $x), $x = 49)")
        (tabq,) = engine.last_tabqs
        # Sophocles reaches the result: the whole tree is evaluated
        assert tabq.entry(canonical.root).output is not None


# ---------------------------------------------------------------------------
# Secondary answers (Def. 2.14)
# ---------------------------------------------------------------------------
class TestSecondaryAnswer:
    def test_empty_side_reported(self, running_example_db):
        """Ex. 2.7 rebuilt: an empty joined relation surfaces as the
        secondary answer at the subquery where the data vanishes."""
        from repro.core import JoinPair, SPJASpec, canonicalize

        db = running_example_db
        db.create_table("TOC", ["bid", "chapter"])  # empty relation
        spec = SPJASpec(
            aliases={"A": "A", "AB": "AB", "B": "B", "TOC": "TOC"},
            joins=[
                JoinPair("A.aid", "AB.aid"),
                JoinPair("AB.bid", "B.bid"),
                JoinPair("B.bid", "TOC.bid", "tbid"),
            ],
            projection=("A.name",),
        )
        canonical = canonicalize(spec, db.schema)
        report = NedExplain(canonical, database=db).explain("(A.name: Homer)")
        (answer,) = report.answers
        # Homer is blocked at the join starving on the empty TOC; the
        # empty relation and the empty join both surface as diagnostics
        blamed = {e.subquery.op for e in answer.detailed}
        assert blamed == {"join"}
        empty_labels = {n.name for n in answer.empty_outputs}
        assert "TOC" in empty_labels

    @pytest.mark.parametrize("verbatim", [False, True])
    def test_indirect_relation_reaching_the_root_is_not_blamed(
        self, verbatim
    ):
        """Def. 2.14 decides whether an indirect relation survives from
        its own tuple ids, whatever they look like: S has no tuple with
        ``c = 7``, yet its tuple reaches the result, so nothing is
        secondary -- with the ``S:k`` tids of an input instance and
        with the verbatim tids of a hand-built one alike."""
        from repro.core import JoinPair, SPJASpec, canonicalize
        from repro.relational import Database, DatabaseInstance

        db = Database("verbatim")
        db.create_table("R", ["id", "a", "b"], key="id")
        db.create_table("S", ["id", "b", "c"], key="id")
        db.insert("R", id=1, a=1, b=10)
        db.insert("S", id=1, b=10, c=5)
        spec = SPJASpec(
            aliases={"R": "R", "S": "S"},
            joins=[JoinPair("R.b", "S.b")],
            projection=("R.a", "S.c"),
        )
        canonical = canonicalize(spec, db.schema)
        instance = db.input_instance(canonical.aliases)
        if verbatim:
            instance = DatabaseInstance(instance.schema)
            instance.insert_values("R", "r1", id=1, a=1, b=10)
            instance.insert_values("S", "s1", id=1, b=10, c=5)
        report = NedExplain(canonical, instance=instance).explain(
            "(R.a: 1, S.c: 7)"
        )
        (answer,) = report.answers
        assert answer.secondary == ()

    def test_secondary_excludes_picky_nodes(self):
        """Crime5: W and S die at the same join already blamed by the
        detailed answer; only the empty selection is secondary."""
        from repro.bench import run_use_case

        result = run_use_case("Crime5", run_baseline=False)
        (answer,) = result.ned.answers
        assert answer.secondary_labels == ("m2",)
        assert answer.condensed_labels == ("m3",)


# ---------------------------------------------------------------------------
# Aggregation condition (Def. 2.12, second part)
# ---------------------------------------------------------------------------
class TestAggregationCondition:
    def test_avg_condition_checked_at_selection(self, running_example):
        """Ex. 2.6: the data below Q3 satisfies avg > 25 (avg = 30),
        its empty output does not -- but since t4 itself is blocked at
        Q3, the (t4, Q3) pair subsumes the (null, Q3) entry."""
        db, canonical = running_example
        report = NedExplain(canonical, database=db).explain(
            "((A.name: Homer, ap: $x1), $x1 > 25)"
        )
        (entry,) = report.detailed
        assert entry.tid == "A:a1"

    def test_null_entry_when_only_condition_flips(self, running_example):
        """Ask for an average Homer price above 40: the joins keep
        Homer alive, the selection erases him; with avg(45,15)=30 the
        input admits nothing above 40... so we ask >= 20 instead and
        tighten only at the selection."""
        db, canonical = running_example
        report = NedExplain(canonical, database=db).explain(
            "((A.name: Homer, ap: $x), $x >= 20)"
        )
        # Homer is blocked at the selection -> (tid, m2); the agg
        # condition check does not duplicate it as (null, m2)
        tids = [e.tid for e in report.detailed]
        assert tids == ["A:a1"]
