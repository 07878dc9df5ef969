"""Property-based tests (hypothesis) for the core invariants.

The central properties checked on randomly generated databases and
queries:

* evaluation soundness: lineage containment, selection/join semantics;
* **Property 2.1** of the paper: at most one picky subquery per
  compatible tuple;
* **completeness** of NedExplain: every direct compatible tuple either
  survives (a valid successor reaches the result) or is blamed;
* agreement between the incremental algorithm (Alg. 1-3) and the
  declarative definitions (Defs. 2.9-2.11);
* early termination never changes answers;
* the condition satisfiability procedure agrees with brute force.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CTuple,
    CompatibleFinder,
    JoinPair,
    NedExplain,
    NedExplainConfig,
    SPJASpec,
    canonicalize,
    picky_subqueries,
    unrename_ctuple,
)
from repro.relational import (
    And,
    Comparison,
    Const,
    Database,
    EvaluationCache,
    Var,
    attr_cmp,
    evaluate_query,
    is_satisfiable,
    query_fingerprint,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
_VALUES = st.integers(min_value=0, max_value=4)


@st.composite
def small_database(draw):
    """A two-relation database R(a, b), S(b, c) with small domains."""
    db = Database("prop")
    db.create_table("R", ["id", "a", "b"], key="id")
    db.create_table("S", ["id", "b", "c"], key="id")
    n_r = draw(st.integers(min_value=1, max_value=6))
    n_s = draw(st.integers(min_value=0, max_value=6))
    for i in range(n_r):
        db.insert("R", id=i, a=draw(_VALUES), b=draw(_VALUES))
    for i in range(n_s):
        db.insert("S", id=i, b=draw(_VALUES), c=draw(_VALUES))
    return db


@st.composite
def spj_query(draw):
    """A random SPJ query over the R/S schema."""
    from repro.relational import attr_cmp

    selections = []
    if draw(st.booleans()):
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
        selections.append(attr_cmp("R.a", op, draw(_VALUES)))
    if draw(st.booleans()):
        op = draw(st.sampled_from(["<", ">", "="]))
        selections.append(attr_cmp("S.c", op, draw(_VALUES)))
    return SPJASpec(
        aliases={"R": "R", "S": "S"},
        joins=[JoinPair("R.b", "S.b")],
        selections=selections,
        projection=("R.a", "S.c"),
    )


@st.composite
def scenario(draw):
    db = draw(small_database())
    spec = draw(spj_query())
    canonical = canonicalize(spec, db.schema)
    target_value = draw(_VALUES)
    tc = CTuple({"R.a": target_value})
    return db, canonical, tc


# ---------------------------------------------------------------------------
# Evaluation invariants
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(scenario())
def test_output_lineage_within_base_tuples(case):
    db, canonical, _tc = case
    base_tids = {t.tid for t in db.instance().all_tuples()}
    result = evaluate_query(canonical.root, db.instance())
    for node in canonical.root.postorder():
        for t in result.output(node):
            assert t.lineage <= base_tids


@settings(max_examples=60, deadline=None)
@given(scenario())
def test_join_outputs_agree_on_join_attribute(case):
    db, canonical, _tc = case
    result = evaluate_query(canonical.root, db.instance())
    from repro.relational import Join

    for node in canonical.root.postorder():
        if isinstance(node, Join) and node.renaming.triples:
            for t in result.output(node):
                # the renamed attribute carries the shared value
                assert node.renaming.triples[0].new in t


@settings(max_examples=60, deadline=None)
@given(scenario())
def test_selection_outputs_satisfy_condition(case):
    db, canonical, _tc = case
    result = evaluate_query(canonical.root, db.instance())
    from repro.relational import Select

    for node in canonical.root.postorder():
        if isinstance(node, Select):
            for t in result.output(node):
                assert node.condition.evaluate(t)


@settings(max_examples=60, deadline=None)
@given(scenario())
def test_result_values_subset_of_join_values(case):
    """Every result pair must come from an actual joined pair."""
    db, canonical, _tc = case
    result = evaluate_query(canonical.root, db.instance())
    r_rows = {
        (t["R.a"], t["R.b"]) for t in db.instance().relation("R")
    }
    s_rows = {
        (t["S.b"], t["S.c"]) for t in db.instance().relation("S")
    }
    for row in result.result_values():
        a, c = row["R.a"], row["S.c"]
        assert any(
            ra == a and any(sb == rb and sc == c for sb, sc in s_rows)
            for ra, rb in r_rows
        )


# ---------------------------------------------------------------------------
# NedExplain properties
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(scenario())
def test_property_2_1_at_most_one_picky_subquery(case):
    db, canonical, tc = case
    instance = db.input_instance(canonical.aliases)
    compat = CompatibleFinder(instance).find(tc)
    result = evaluate_query(canonical.root, db.instance())
    for source in compat.direct_tuples():
        picky = picky_subqueries(
            canonical.root, result, compat.valid_tids, source
        )
        assert len(picky) <= 1


@settings(max_examples=60, deadline=None)
@given(scenario())
def test_completeness_blamed_or_survives(case):
    """Each direct compatible tuple is blamed exactly when no valid
    successor of it reaches the query result."""
    db, canonical, tc = case
    instance = db.input_instance(canonical.aliases)
    compat = CompatibleFinder(instance).find(tc)
    if compat.is_empty:
        return
    engine = NedExplain(
        canonical,
        database=db,
        config=NedExplainConfig(early_termination=False),
    )
    report = engine.explain(tc)
    blamed_tids = {e.tid for e in report.detailed}

    from repro.core import valid_successors

    result = evaluate_query(canonical.root, db.instance())
    for source in compat.direct_tuples():
        survives = bool(
            valid_successors(
                canonical.root, result, compat.valid_tids, source
            )
        )
        assert (source.tid in blamed_tids) == (not survives)


@settings(max_examples=60, deadline=None)
@given(scenario())
def test_algorithm_matches_declarative_oracle(case):
    """The (tid, subquery) pairs of Alg. 1-3 equal the picky
    subqueries of Def. 2.11, per compatible tuple."""
    db, canonical, tc = case
    instance = db.input_instance(canonical.aliases)
    compat = CompatibleFinder(instance).find(tc)
    if compat.is_empty:
        return
    engine = NedExplain(
        canonical,
        database=db,
        config=NedExplainConfig(early_termination=False),
    )
    report = engine.explain(tc)
    result = evaluate_query(canonical.root, db.instance())
    algorithmic = {
        (e.tid, id(e.subquery)) for e in report.detailed
    }
    declarative = set()
    for source in compat.direct_tuples():
        for node in picky_subqueries(
            canonical.root, result, compat.valid_tids, source
        ):
            declarative.add((source.tid, id(node)))
    assert algorithmic == declarative


@settings(max_examples=60, deadline=None)
@given(scenario())
def test_early_termination_preserves_answers(case):
    db, canonical, tc = case
    fast = NedExplain(canonical, database=db).explain(tc)
    slow = NedExplain(
        canonical,
        database=db,
        config=NedExplainConfig(early_termination=False),
    ).explain(tc)
    assert {(e.tid, id(e.subquery)) for e in fast.detailed} == {
        (e.tid, id(e.subquery)) for e in slow.detailed
    }


@settings(max_examples=60, deadline=None)
@given(scenario())
def test_unrenamed_attributes_are_source_attributes(case):
    db, canonical, tc = case
    for part in unrename_ctuple(canonical.root, tc):
        for attr in part.type:
            alias = attr.split(".", 1)[0] if "." in attr else None
            assert alias in canonical.aliases


# ---------------------------------------------------------------------------
# Satisfiability vs brute force
# ---------------------------------------------------------------------------
_OPS = ("=", "!=", "<", ">", "<=", ">=")


@st.composite
def single_var_conjunction(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    comparisons = []
    for _ in range(n):
        op = draw(st.sampled_from(_OPS))
        bound = draw(st.integers(min_value=0, max_value=6))
        comparisons.append(
            Comparison(Var("x"), op, Const(Fraction(bound)))
        )
    return And.of(*comparisons)


def _brute_force_satisfiable(condition) -> bool:
    # candidate points: every bound and the midpoints/outsides around
    bounds = sorted(
        {
            term.value
            for comp in condition.conjuncts()
            for term in (comp.right,)
            if isinstance(term, Const)
        }
    )
    candidates: list[Fraction] = []
    for value in bounds:
        candidates.extend(
            [value - Fraction(1, 2), value, value + Fraction(1, 2)]
        )
    candidates.extend([Fraction(-100), Fraction(100)])
    return any(
        condition.evaluate(valuation={"x": candidate})
        for candidate in candidates
    )


@settings(max_examples=200, deadline=None)
@given(single_var_conjunction())
def test_satisfiability_matches_brute_force(condition):
    assert is_satisfiable(condition) == _brute_force_satisfiable(condition)


# ---------------------------------------------------------------------------
# SPJA properties: aggregation answers
# ---------------------------------------------------------------------------
@st.composite
def spja_scenario(draw):
    """A random aggregate query over the R/S schema with a constrained
    count."""
    from repro.relational import AggregateCall

    db = draw(small_database())
    spec = SPJASpec(
        aliases={"R": "R", "S": "S"},
        joins=[JoinPair("R.b", "S.b")],
        group_by=("R.a",),
        aggregates=(AggregateCall("count", "S.c", "n"),),
    )
    canonical = canonicalize(spec, db.schema)
    target = draw(_VALUES)
    bound = draw(st.integers(min_value=1, max_value=8))
    from repro.core import ctuple_with_condition

    tc = ctuple_with_condition(
        {"R.a": target, "n": Var("x")}, x=(">=", bound)
    )
    return db, canonical, tc


@settings(max_examples=60, deadline=None)
@given(spja_scenario())
def test_spja_null_entries_only_above_breakpoint(case):
    """(null, m) answers (Def. 2.12, second part) can only occur at
    subqueries strictly containing the breakpoint V."""
    db, canonical, tc = case
    report = NedExplain(canonical, database=db).explain(tc)
    breakpoint = canonical.breakpoint
    assert breakpoint is not None
    for entry in report.detailed:
        if entry.tid is None:
            assert breakpoint.is_subquery_of(entry.subquery)
            assert entry.subquery is not breakpoint


@settings(max_examples=60, deadline=None)
@given(spja_scenario())
def test_spja_not_missing_flag_is_sound(case):
    """If the report says the answer is not missing, the result really
    contains a matching tuple -- and vice versa."""
    from repro.core import tuple_matches_ctuple
    from repro.relational import evaluate_query

    db, canonical, tc = case
    report = NedExplain(canonical, database=db).explain(tc)
    result = evaluate_query(
        canonical.root, db.instance(), canonical.aliases
    )
    actually_present = any(
        tuple_matches_ctuple(t, tc) for t in result.result
    )
    for answer in report.answers:
        if answer.answer_not_missing:
            assert actually_present
        elif not answer.no_compatible_data and not answer.is_empty():
            # a blamed answer should indeed be absent
            assert not actually_present


# ---------------------------------------------------------------------------
# Structural fingerprints and the shared evaluation cache
# ---------------------------------------------------------------------------
_CMP_OPS = ["<", "<=", ">", ">=", "=", "!="]


@settings(max_examples=60, deadline=None)
@given(small_database(), spj_query())
def test_fingerprint_stable_across_rebuilds(db, spec):
    """Canonicalizing the same spec twice yields distinct tree objects
    with identical fingerprints -- the property that makes the cache
    hit across independently-built engines."""
    first = canonicalize(spec, db.schema)
    second = canonicalize(spec, db.schema)
    assert first.root is not second.root
    assert query_fingerprint(
        first.root, first.aliases
    ) == query_fingerprint(second.root, second.aliases)


@st.composite
def perturbed_spec_pair(draw):
    """A base SPJ spec plus a structurally perturbed variant."""
    bound = draw(_VALUES)
    op = draw(st.sampled_from(_CMP_OPS))
    base = SPJASpec(
        aliases={"R": "R", "S": "S"},
        joins=[JoinPair("R.b", "S.b")],
        selections=[attr_cmp("R.a", op, bound)],
        projection=("R.a", "S.c"),
    )
    kind = draw(
        st.sampled_from(
            ["bound", "op", "selection-attr", "projection", "join"]
        )
    )
    if kind == "bound":
        other = draw(_VALUES.filter(lambda v: v != bound))
        selections = [attr_cmp("R.a", op, other)]
        perturbed = SPJASpec(
            aliases={"R": "R", "S": "S"},
            joins=[JoinPair("R.b", "S.b")],
            selections=selections,
            projection=("R.a", "S.c"),
        )
    elif kind == "op":
        other_op = draw(
            st.sampled_from([o for o in _CMP_OPS if o != op])
        )
        perturbed = SPJASpec(
            aliases={"R": "R", "S": "S"},
            joins=[JoinPair("R.b", "S.b")],
            selections=[attr_cmp("R.a", other_op, bound)],
            projection=("R.a", "S.c"),
        )
    elif kind == "selection-attr":
        perturbed = SPJASpec(
            aliases={"R": "R", "S": "S"},
            joins=[JoinPair("R.b", "S.b")],
            selections=[attr_cmp("S.c", op, bound)],
            projection=("R.a", "S.c"),
        )
    elif kind == "projection":
        perturbed = SPJASpec(
            aliases={"R": "R", "S": "S"},
            joins=[JoinPair("R.b", "S.b")],
            selections=[attr_cmp("R.a", op, bound)],
            projection=("S.c",),
        )
    else:  # a different join equality
        perturbed = SPJASpec(
            aliases={"R": "R", "S": "S"},
            joins=[JoinPair("R.id", "S.id")],
            selections=[attr_cmp("R.a", op, bound)],
            projection=("R.a", "S.c"),
        )
    return base, perturbed


@settings(max_examples=60, deadline=None)
@given(small_database(), perturbed_spec_pair())
def test_fingerprint_separates_perturbed_queries(db, pair):
    base_spec, perturbed_spec = pair
    base = canonicalize(base_spec, db.schema)
    perturbed = canonicalize(perturbed_spec, db.schema)
    assert query_fingerprint(
        base.root, base.aliases
    ) != query_fingerprint(perturbed.root, perturbed.aliases)


@settings(max_examples=30, deadline=None)
@given(small_database(), spj_query())
def test_fingerprint_depends_on_alias_mapping(db, spec):
    canonical = canonicalize(spec, db.schema)
    renamed = dict(canonical.aliases)
    renamed["R2"] = "R"
    assert query_fingerprint(
        canonical.root, canonical.aliases
    ) != query_fingerprint(canonical.root, renamed)


@settings(max_examples=25, deadline=None)
@given(small_database(), spj_query(), _VALUES)
def test_insert_bumps_version_and_forces_cache_miss(db, spec, needle):
    """Mutating a table must invalidate cached evaluations: the version
    counter moves, the data key changes, and the next explain misses."""
    canonical = canonicalize(spec, db.schema)
    cache = EvaluationCache()

    NedExplain(canonical, database=db, cache=cache).explain(
        CTuple({"R.a": needle})
    )
    assert cache.stats.evaluations == 1
    assert cache.stats.misses == 1

    # a second, independently built engine over the same state hits
    NedExplain(canonical, database=db, cache=cache).explain(
        CTuple({"R.a": needle})
    )
    assert cache.stats.evaluations == 1
    assert cache.stats.hits == 1

    table_version = db.table("R").version
    db_version = db.version
    db.table("R").insert(id=997, a=needle, b=needle)
    assert db.table("R").version == table_version + 1
    assert db.version > db_version

    NedExplain(canonical, database=db, cache=cache).explain(
        CTuple({"R.a": needle})
    )
    assert cache.stats.evaluations == 2
    assert cache.stats.misses == 2
