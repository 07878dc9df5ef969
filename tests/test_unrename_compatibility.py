"""Unit tests for unrenaming (Def. 2.7) and compatibility (Def. 2.8)."""

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import (
    CTuple,
    JoinPair,
    NedExplain,
    Predicate,
    SPJASpec,
    canonicalize,
    tuple_matches_ctuple,
    unrename_ctuple,
    unrename_predicate,
)
from repro.core.compatibility import CompatibleFinder
from repro.relational import (
    Database,
    EvaluationCache,
    RelationInstance,
    RelationSchema,
    Var,
    alias_of,
    base_tuple,
    var_cmp,
)
from repro.workloads import get_canonical, get_database


# ---------------------------------------------------------------------------
# Unrenaming
# ---------------------------------------------------------------------------
class TestUnrename:
    def test_untouched_attributes_pass_through(self, running_example):
        _db, canonical = running_example
        tc = CTuple({"A.name": "Homer"})
        (result,) = unrename_ctuple(canonical.root, tc)
        assert result == tc

    def test_aggregated_attribute_passes_through(self, running_example):
        _db, canonical = running_example
        tc = CTuple({"ap": Var("x")}, var_cmp("x", ">", 25))
        (result,) = unrename_ctuple(canonical.root, tc)
        assert result.type == frozenset({"ap"})

    def test_join_attribute_expands_to_both_origins(self, running_example):
        """Ex. 2.2: a renamed attribute unrenames to *both* origins."""
        _db, canonical = running_example
        tc = CTuple({"A.name": "Homer", "aid": "a1"})
        (result,) = unrename_ctuple(canonical.root, tc)
        assert result.type == frozenset(
            {"A.name", "A.aid", "AB.aid"}
        )
        assert result.constants()["A.aid"] == "a1"
        assert result.constants()["AB.aid"] == "a1"

    def test_union_splits_into_disjunction(self):
        canonical = get_canonical("Q12")
        tc = CTuple({"name": "JOHN"})
        parts = unrename_ctuple(canonical.root, tc)
        types = {frozenset(p.type) for p in parts}
        assert types == {
            frozenset({"Co.lastname"}),
            frozenset({"SPO.sponsorln"}),
        }

    def test_predicate_unrenames_each_disjunct(self, running_example):
        _db, canonical = running_example
        predicate = Predicate.of(
            CTuple({"A.name": "Homer"}), CTuple({"A.name": "Euripides"})
        )
        parts = unrename_predicate(canonical.root, predicate)
        assert len(parts) == 2

    def test_chained_renamed_attribute(self):
        """Gov4's sponsorId unrenames through the ES-SPO join."""
        canonical = get_canonical("Q7")
        tc = CTuple({"sponsorId": 467})
        (result,) = unrename_ctuple(canonical.root, tc)
        assert result.constants() == {
            "ES.sponsor": 467,
            "SPO.id": 467,
        }

    def test_deduplicates_identical_branches(self, running_example):
        _db, canonical = running_example
        predicate = Predicate.of(
            CTuple({"A.name": "Homer"}), CTuple({"A.name": "Homer"})
        )
        assert len(unrename_predicate(canonical.root, predicate)) == 1


# ---------------------------------------------------------------------------
# Compatibility of single tuples (Def. 2.8)
# ---------------------------------------------------------------------------
class TestTupleMatchesCTuple:
    def test_constant_match(self):
        t = base_tuple("A", "t4", name="Homer", dob=-800)
        assert tuple_matches_ctuple(t, CTuple({"A.name": "Homer"}))
        assert not tuple_matches_ctuple(t, CTuple({"A.name": "Zeus"}))

    def test_requires_shared_attributes(self):
        t = base_tuple("B", "t1", title="Odyssey")
        assert not tuple_matches_ctuple(t, CTuple({"A.name": "Homer"}))

    def test_variable_binding_checked_against_condition(self):
        t = base_tuple("A", "t1", dob=-800)
        tc = CTuple({"A.dob": Var("x")}, var_cmp("x", ">", -500))
        assert not tuple_matches_ctuple(t, tc)
        t2 = base_tuple("A", "t2", dob=-400)
        assert tuple_matches_ctuple(t2, tc)

    def test_same_variable_in_two_attributes_must_agree(self):
        tc = CTuple({"A.x": Var("v"), "A.y": Var("v")})
        assert tuple_matches_ctuple(
            base_tuple("A", "t1", x=1, y=1), tc
        )
        assert not tuple_matches_ctuple(
            base_tuple("A", "t2", x=1, y=2), tc
        )

    def test_free_variables_stay_satisfiable(self):
        """Ex. 2.3: t4 is compatible with ((Homer, x1), x1 > 25)."""
        t4 = base_tuple("A", "t4", name="Homer", dob=-800)
        tc = CTuple(
            {"A.name": "Homer", "ap": Var("x1")}, var_cmp("x1", ">", 25)
        )
        assert tuple_matches_ctuple(t4, tc)


# ---------------------------------------------------------------------------
# Dir / InDir computation
# ---------------------------------------------------------------------------
class TestCompatibleFinder:
    def test_running_example_dir_and_indir(self, running_example):
        """Ex. 2.3 / 2.4: Dir = {t4}, InDir = I_AB u I_B."""
        db, canonical = running_example
        instance = db.input_instance(canonical.aliases)
        tc = CTuple(
            {"A.name": "Homer", "ap": Var("x1")}, var_cmp("x1", ">", 25)
        )
        sets = CompatibleFinder(instance).find(tc)
        assert sets.dir_tids == frozenset({"A:a1"})
        assert sets.direct_aliases == frozenset({"A"})
        assert sets.indirect_aliases == frozenset({"AB", "B"})
        assert len(sets.indir_tids) == 6
        assert sets.valid_tids == sets.dir_tids | sets.indir_tids
        assert not sets.is_empty

    def test_co_occurrence_required_per_relation(self, running_example):
        """Pairs referencing one relation must co-occur in one tuple
        (Sec. 3.1): Homer with Sophocles' dob matches nothing."""
        db, canonical = running_example
        instance = db.input_instance(canonical.aliases)
        tc = CTuple({"A.name": "Homer", "A.dob": -400})
        sets = CompatibleFinder(instance).find(tc)
        assert sets.is_empty

    def test_multi_relation_direct_sets(self, running_example):
        db, canonical = running_example
        instance = db.input_instance(canonical.aliases)
        tc = CTuple({"A.name": "Homer", "B.price": 49})
        sets = CompatibleFinder(instance).find(tc)
        assert sets.dir_tids == frozenset({"A:a1", "B:b3"})
        assert sets.direct_aliases == frozenset({"A", "B"})
        # non-compatible tuples of direct relations are NOT valid
        assert "B:b1" not in sets.valid_tids
        assert "A:a2" not in sets.valid_tids

    def test_constrained_alias_without_hits(self, running_example):
        db, canonical = running_example
        instance = db.input_instance(canonical.aliases)
        sets = CompatibleFinder(instance).find(CTuple({"A.name": "Zeus"}))
        assert sets.is_empty
        # by the letter of Def. 2.8, A then types no Dir tuple, so all
        # of A lands in InDir
        assert sets.indirect_aliases == frozenset({"A", "AB", "B"})

    def test_database_fast_path_equals_scan(self):
        """Index-served compatibles over the stored crime database
        equal a brute-force scan with ``tuple_matches_ctuple``."""
        db = get_database("crime")
        canonical = get_canonical("Q1")
        instance = db.input_instance(canonical.aliases)
        tc = CTuple({"Person.name": "Hank", "Crime.type": "Car theft"})
        indexed = CompatibleFinder(instance).find(tc)
        scanned = {
            t.tid
            for alias in {alias_of(attr) for attr in tc.type}
            for t in instance.relation(alias)
            if tuple_matches_ctuple(t, tc)
        }
        assert indexed.dir_tids == frozenset(scanned)
        assert indexed.direct_aliases == frozenset({"Person", "Crime"})

    def test_fast_path_self_join_aliases(self):
        db = get_database("crime")
        canonical = get_canonical("Q3")
        instance = db.input_instance(canonical.aliases)
        tc = CTuple({"C2.type": "Kidnapping"})
        sets = CompatibleFinder(instance).find(tc)
        # compatibles live only in the C2 alias, with C2-tagged tids
        assert sets.direct_aliases == frozenset({"C2"})
        assert all(tid.startswith("C2:") for tid in sets.dir_tids)
        assert len(sets.dir_tids) == 3

    def test_direct_tuples_ordering(self, running_example):
        db, canonical = running_example
        instance = db.input_instance(canonical.aliases)
        tc = CTuple({"A.name": "Homer", "B.price": 49})
        sets = CompatibleFinder(instance).find(tc)
        tids = [t.tid for t in sets.direct_tuples()]
        assert tids == ["A:a1", "B:b3"]

    def test_insert_after_lookup_is_seen(self, running_example):
        """``add`` drops the lookup and range indexes, and the finder's
        InDir memo sees the new size, so the next find re-reads."""
        db, canonical = running_example
        instance = db.input_instance(canonical.aliases)
        finder = CompatibleFinder(instance)
        tc = CTuple({"A.name": "Homer"})
        older = CTuple({"A.dob": Var("x")}, var_cmp("x", "<", -500))
        assert finder.find(tc).dir_tids == frozenset({"A:a1"})
        assert finder.find(older).dir_tids == frozenset({"A:a1"})
        assert "B:b4" not in finder.find(tc).indir_tids
        instance.insert_values(
            "A", "A:a4", aid="a4", name="Homer", dob=-600
        )
        instance.insert_values("B", "B:b4", bid="b4", title="X", price=1)
        assert finder.find(tc).dir_tids == frozenset({"A:a1", "A:a4"})
        assert finder.find(older).dir_tids == frozenset({"A:a1", "A:a4"})
        assert "B:b4" in finder.find(tc).indir_tids

    def test_engine_answers_over_its_snapshot(self, running_example):
        """A row inserted into the stored database after the engine was
        built is not part of its ``I_Q``: the answer equals that of an
        engine over the pre-insert input instance."""
        db, canonical = running_example
        before = db.input_instance(canonical.aliases)
        engine = NedExplain(canonical, database=db, cache=EvaluationCache())
        db.insert("A", aid="a4", name="Homer", dob=-300)
        tc = CTuple(
            {"A.name": "Homer", "ap": Var("x1")}, var_cmp("x1", ">", 25)
        )
        report = engine.explain(tc)
        reference = NedExplain(
            canonical, instance=before, cache=EvaluationCache()
        ).explain(tc)
        assert _answer_key(report) == _answer_key(reference)
        assert "A:a4" not in {e.tid for e in report.detailed}


def test_concurrent_first_lookups_see_complete_buckets():
    """Threads sharing one engine race on the first lookup and range
    scan of a fresh relation; each must get the whole bucket and the
    whole range, never a half-built index."""
    schema = RelationSchema("R", ("id", "v"))
    rows = [base_tuple("R", f"R:{i}", id=i, v=i % 7) for i in range(500)]
    expected = (
        [t for t in rows if t["R.v"] == 3],
        [t for t in rows if 3 <= t["R.v"] < 6],
    )
    workers = (os.cpu_count() or 1) + 2
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            relation = RelationInstance(schema, rows)
            barrier = threading.Barrier(workers)

            def probe():
                barrier.wait(timeout=10)
                return (
                    list(relation.lookup("R.v", 3)),
                    relation.range_scan("R.v", 3, False, 6, True),
                )

            with ThreadPoolExecutor(workers) as pool:
                futures = [pool.submit(probe) for _ in range(workers)]
                results = [f.result(timeout=30) for f in futures]
            assert results == [expected] * workers
    finally:
        sys.setswitchinterval(previous)


def _answer_key(report):
    return tuple(
        (
            repr(a.ctuple),
            a.detailed_pairs,
            a.condensed_labels,
            a.secondary_labels,
            a.no_compatible_data,
            a.answer_not_missing,
        )
        for a in report.answers
    )


# ---------------------------------------------------------------------------
# One lookup path: index-served candidates equal a brute-force scan
# ---------------------------------------------------------------------------
#: values that hash equal across domains (5/5.0, 1/True) plus others
_VALUES = st.sampled_from([5, 5.0, 1, True, 2, "x"])
#: output attributes of the self-join below (R1 and R2 alias R)
_ATTRS = ("R1.a", "R1.c", "R2.a", "R2.c")


@st.composite
def _self_join_case(draw):
    rows = draw(
        st.lists(
            st.tuples(_VALUES, st.sampled_from([1, 2]), _VALUES),
            max_size=8,
        )
    )
    db = Database("lookup-prop")
    db.create_table("R", ["id", "a", "b", "c"], key="id")
    for i, (a, b, c) in enumerate(rows):
        db.insert("R", id=i, a=a, b=b, c=c)
    spec = SPJASpec(
        aliases={"R1": "R", "R2": "R"},
        joins=[JoinPair("R1.b", "R2.b")],
        projection=_ATTRS,
    )
    attrs = draw(
        st.lists(
            st.sampled_from(_ATTRS), min_size=1, max_size=4, unique=True
        )
    )
    n_constants = draw(st.integers(0, min(2, len(attrs))))
    entries = {}
    for position, attr in enumerate(attrs):
        if position < n_constants:
            entries[attr] = draw(_VALUES)
        else:
            entries[attr] = Var(draw(st.sampled_from(["x", "y"])))
    variables = sorted(
        {e.name for e in entries.values() if isinstance(e, Var)}
    )
    condition = None
    if variables and draw(st.booleans()):
        condition = var_cmp(
            draw(st.sampled_from(variables)),
            draw(st.sampled_from(["=", "<", ">="])),
            draw(st.sampled_from([1, 2, 5])),
        )
    tc = CTuple(entries, condition)
    return db, canonicalize(spec, db.schema), tc


def _repeated_variable_case():
    """``$x`` bound twice on one alias, by ``1`` and ``True``: Python
    calls them equal, Def. 2.8 does not unify them (in either order)."""
    db = Database("lookup-prop")
    db.create_table("R", ["id", "a", "b", "c"], key="id")
    db.insert("R", id=0, a=1, b=1, c=True)
    db.insert("R", id=1, a=True, b=1, c=1)
    spec = SPJASpec(
        aliases={"R1": "R", "R2": "R"},
        joins=[JoinPair("R1.b", "R2.b")],
        projection=_ATTRS,
    )
    tc = CTuple({"R1.a": Var("x"), "R1.c": Var("x")}, var_cmp("x", "=", 1))
    return db, canonicalize(spec, db.schema), tc


@settings(max_examples=80, deadline=None)
@given(_self_join_case())
@example(_repeated_variable_case())
def test_lookup_path_equals_brute_force_scan(case):
    """For every constrained alias the finder returns exactly the
    tuples a scan with ``tuple_matches_ctuple`` keeps, in order; and
    engines over the stored database and over a pre-built input
    instance answer identically."""
    db, canonical, tc = case
    instance = db.input_instance(canonical.aliases)
    sets = CompatibleFinder(instance).find(tc)
    for alias in {alias_of(attr) for attr in tc.type}:
        expected = [
            t
            for t in instance.relation(alias)
            if tuple_matches_ctuple(t, tc)
        ]
        assert list(sets.direct.get(alias, ())) == expected

    stored = NedExplain(canonical, database=db, cache=EvaluationCache())
    built = NedExplain(
        canonical,
        instance=db.input_instance(canonical.aliases),
        cache=EvaluationCache(),
    )
    assert _answer_key(stored.explain(tc)) == _answer_key(built.explain(tc))
