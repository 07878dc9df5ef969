"""Tests for the Why-Not baseline -- including that it fails exactly
the way the paper says it does (Sec. 1 and Sec. 4.2)."""

import pytest

from repro.errors import UnsupportedQueryError
from repro.baseline import (
    WhyNotBaseline,
    attribute_constraints,
    find_unpicked_items,
)
from repro.core import parse_predicate
from repro.workloads import get_canonical, get_database


# ---------------------------------------------------------------------------
# Unpicked item selection
# ---------------------------------------------------------------------------
class TestUnpickedItems:
    def test_matches_by_unqualified_name_in_all_aliases(self):
        """The self-join sloppiness: C2.type items also come from C1."""
        db = get_database("crime")
        canonical = get_canonical("Q3")
        instance = db.input_instance(canonical.aliases)
        predicate = parse_predicate("(C2.type: Kidnapping)")
        items = find_unpicked_items(predicate, instance, canonical.root)
        aliases = {item.alias for item in items}
        assert aliases == {"C1", "C2"}

    def test_constraints_are_independent_per_attribute(self):
        db = get_database("crime")
        canonical = get_canonical("Q1")
        instance = db.input_instance(canonical.aliases)
        predicate = parse_predicate(
            "(Person.name: Hank, Crime.type: 'Car theft')"
        )
        constraints = attribute_constraints(predicate, canonical.root)
        assert len(constraints) == 2
        items = find_unpicked_items(predicate, instance, canonical.root)
        # Hank from Person; every car theft from Crime
        assert any(item.alias == "Person" for item in items)
        assert any(item.alias == "Crime" for item in items)

    def test_renamed_attribute_expands_through_origins(self):
        """Gov4's sponsorId reaches ES.sponsor and SPO.id items."""
        db = get_database("gov")
        canonical = get_canonical("Q7")
        instance = db.input_instance(canonical.aliases)
        predicate = parse_predicate("(sponsorId: 467)")
        items = find_unpicked_items(predicate, instance, canonical.root)
        aliases = {item.alias for item in items}
        assert "ES" in aliases and "SPO" in aliases

    def test_variable_constraints_use_condition(self):
        db = get_database("gov")
        canonical = get_canonical("Q7")
        instance = db.input_instance(canonical.aliases)
        predicate = parse_predicate(
            "((SPO.sponsorln: Lugar, E.camount: $x), $x >= 1000)"
        )
        items = find_unpicked_items(predicate, instance, canonical.root)
        amounts = [
            item.tuple["E.camount"]
            for item in items
            if item.alias == "E"
        ]
        assert amounts and all(a >= 1000 for a in amounts)

    def test_witness_name_collides_with_person_name(self):
        """Unqualified matching also hits other relations exposing the
        same column name -- Person.name items may come from Witness."""
        db = get_database("crime")
        canonical = get_canonical("Q1")
        instance = db.input_instance(canonical.aliases)
        predicate = parse_predicate("(Person.name: Susan)")
        items = find_unpicked_items(predicate, instance, canonical.root)
        assert {item.alias for item in items} == {"Witness"}


# ---------------------------------------------------------------------------
# Tracing and frontier
# ---------------------------------------------------------------------------
class TestWhyNotBaseline:
    def test_aggregation_unsupported(self):
        db = get_database("crime")
        canonical = get_canonical("Q8")
        with pytest.raises(UnsupportedQueryError):
            WhyNotBaseline(canonical, database=db)

    def test_requires_exactly_one_source(self):
        canonical = get_canonical("Q1")
        with pytest.raises(UnsupportedQueryError):
            WhyNotBaseline(canonical)

    def test_survivor_silences_constraint(self):
        """Crime8: a surviving P1-side Audrey item makes the algorithm
        believe the answer is not missing."""
        db = get_database("crime")
        canonical = get_canonical("Q4")
        report = WhyNotBaseline(canonical, database=db).explain(
            "(P2.name: Audrey)"
        )
        assert report.is_empty()
        assert "P2.name" in report.satisfied_constraints

    def test_empty_intermediate_blame_redirected(self):
        """Crime5: blame lands on the empty selection, not the join."""
        db = get_database("crime")
        canonical = get_canonical("Q2")
        report = WhyNotBaseline(canonical, database=db).explain(
            "(Person.name: Hank)"
        )
        (answer,) = report.answers
        assert answer.op == "sigma"

    def test_self_join_false_blame(self):
        """Crime6: the C1-side items die at the Aiding selection, which
        the frontier (deepest blame) then reports -- the wrong answer
        the paper criticises."""
        db = get_database("crime")
        canonical = get_canonical("Q3")
        report = WhyNotBaseline(canonical, database=db).explain(
            "(C2.type: Kidnapping)"
        )
        (answer,) = report.answers
        assert answer.op == "sigma"

    def test_traces_expose_item_level_story(self):
        db = get_database("crime")
        canonical = get_canonical("Q3")
        report = WhyNotBaseline(canonical, database=db).explain(
            "(C2.type: Kidnapping)"
        )
        blamed_ops = {
            t.blamed.op for t in report.traces if t.blamed is not None
        }
        # items died both at the selection (C1 side) and the join (C2)
        assert blamed_ops == {"sigma", "join"}

    def test_summary_renders(self):
        db = get_database("crime")
        canonical = get_canonical("Q2")
        report = WhyNotBaseline(canonical, database=db).explain(
            "(Person.name: Hank)"
        )
        assert "answers:" in report.summary()
        report2 = WhyNotBaseline(canonical, database=db).explain(
            "(Person.name: Nobody)"
        )
        assert "(none)" in report2.summary()

    def test_phase_times(self):
        db = get_database("crime")
        canonical = get_canonical("Q1")
        report = WhyNotBaseline(canonical, database=db).explain(
            "(Person.name: Roger)"
        )
        assert set(report.phase_times_ms) == {"UnpickedFinder", "Tracing"}
        assert report.total_time_ms > 0

    def test_union_supported(self):
        db = get_database("gov")
        canonical = get_canonical("Q12")
        report = WhyNotBaseline(canonical, database=db).explain("(name: JOHN)")
        assert not report.is_empty()
