"""Unit tests for checkEarlyTermination (Alg. 2) on crafted states.

The integration tests check end-to-end behaviour; here we drive the
check directly through TabQ states to pin down each clause:

1. never terminate at position 0 or mid-level;
2. don't terminate while the previous (deeper) level has a non-picky
   subquery (live traces);
3. don't terminate while unprocessed relation leaves remain (they may
   still introduce compatible tuples);
4. terminate otherwise.
"""

import pytest

from repro.core import CTuple, CompatibleFinder, NedExplain, TabQ


@pytest.fixture()
def prepared(running_example):
    """Engine + a fresh TabQ for the Homer c-tuple."""
    db, canonical = running_example
    engine = NedExplain(canonical, database=db)
    instance = db.input_instance(canonical.aliases)
    tc = CTuple({"A.name": "Homer"})
    compat = CompatibleFinder(instance).find(tc)
    tabq = TabQ(engine.plan, instance, compat)
    return engine, tabq


def _index_of(tabq, label):
    for index in range(len(tabq)):
        if tabq[index].label == label:
            return index
    raise AssertionError(f"no entry {label}")


class TestCheckEarlyTermination:
    def test_never_at_position_zero(self, prepared):
        engine, tabq = prepared
        assert engine._check_early_termination(tabq, 0) is False

    def test_never_mid_level(self, prepared):
        """AB follows A at the same level: no level change, no check."""
        engine, tabq = prepared
        index = _index_of(tabq, "AB")
        assert tabq[index].level == tabq[index - 1].level
        assert engine._check_early_termination(tabq, index) is False

    def test_blocked_by_non_picky_previous_level(self, prepared):
        """m0 starts a new level, but leaf A below is non-picky."""
        engine, tabq = prepared
        tabq.mark_non_picky(tabq[_index_of(tabq, "A")])
        index = _index_of(tabq, "m0")
        assert engine._check_early_termination(tabq, index) is False

    def test_blocked_by_remaining_leaf(self, prepared):
        """Even with a fully picky previous level, the B leaf still
        waits at a shallower level: it could carry compatibles."""
        engine, tabq = prepared
        index = _index_of(tabq, "m0")
        # previous level (A, AB) has no non-picky entries at all
        assert engine._check_early_termination(tabq, index) is False

    def test_terminates_when_all_dead_and_no_leaves_left(self, prepared):
        """At the aggregation node: the selection below is picky and
        no relation leaf remains."""
        engine, tabq = prepared
        select_entry = tabq[_index_of(tabq, "m2")]
        tabq.mark_picky(select_entry, ())
        index = _index_of(tabq, "m3")
        assert engine._check_early_termination(tabq, index) is True

    def test_does_not_terminate_when_selection_non_picky(self, prepared):
        engine, tabq = prepared
        tabq.mark_non_picky(tabq[_index_of(tabq, "m2")])
        index = _index_of(tabq, "m3")
        assert engine._check_early_termination(tabq, index) is False


class TestTabQStructure:
    def test_order_is_decreasing_level(self, prepared):
        _engine, tabq = prepared
        levels = [entry.level for entry in tabq]
        assert levels == sorted(levels, reverse=True)

    def test_parents_wired(self, prepared):
        _engine, tabq = prepared
        root_entry = tabq[len(tabq) - 1]
        assert root_entry.parent is None
        for entry in tabq:
            if entry is not root_entry:
                assert entry.parent is not None

    def test_leaf_initialization(self, prepared):
        """Leaves carry I_Q|Ri as input and Dir|Ri as compatibles
        (Table 1 of the paper)."""
        _engine, tabq = prepared
        a_entry = tabq[_index_of(tabq, "A")]
        assert len(a_entry.input) == 3
        assert [t.tid for t in a_entry.compatibles] == ["A:a1"]
        ab_entry = tabq[_index_of(tabq, "AB")]
        assert ab_entry.compatibles == []

    def test_entry_lookup_by_node(self, prepared):
        _engine, tabq = prepared
        entry = tabq[_index_of(tabq, "m1")]
        assert tabq.entry(entry.node) is entry
        assert tabq.position(entry) == _index_of(tabq, "m1")

    def test_entry_lookup_unknown_node(self, prepared, tiny_db):
        from repro.errors import EvaluationError
        from repro.relational import RelationLeaf

        _engine, tabq = prepared
        with pytest.raises(EvaluationError):
            tabq.entry(RelationLeaf(tiny_db.table("R").schema))

    def test_add_compatibles_dedupes(self, prepared):
        _engine, tabq = prepared
        entry = tabq[_index_of(tabq, "A")]
        before = len(entry.compatibles)
        entry.add_compatibles(list(entry.compatibles))
        assert len(entry.compatibles) == before

    def test_dump_lists_all_entries(self, prepared):
        _engine, tabq = prepared
        dump = tabq.dump()
        for label in ("A", "AB", "B", "m0", "m1", "m2", "m3"):
            assert label in dump
