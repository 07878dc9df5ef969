"""Property: lineage is the key of every node's output.

No two output tuples of any node share a lineage.  This is what lets a
:class:`~repro.relational.tuples.Tuple` hash by its lineage alone and
lets the operators skip duplicate elimination; it holds by
construction:

* leaf tids are unique;
* sigma and pi emit one output per input;
* a join unions lineages over disjoint alias sets;
* a union combines disjoint aliases;
* an aggregation's groups partition its input;
* a difference keeps a subset of its left input.

It is checked here on the ``test_properties`` SPJ/SPJA generators, on
random union/difference trees over the same databases, on the
randomized chain workloads, and on all 19 Table 4 use cases at scales
1 and 4 -- through the row engine and through the columnar engine's
row view.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from test_properties import scenario, small_database, spja_scenario

from repro.columnar import evaluate_columnar
from repro.core import canonicalize
from repro.relational import (
    Difference,
    Project,
    RelationLeaf,
    RelationSchema,
    Renaming,
    Select,
    Union,
    attr_cmp,
    base_tuple,
    evaluate,
)
from repro.workloads import (
    USE_CASES,
    chain_database,
    chain_query,
    use_case_setup,
)


def assert_lineage_keys(root, instance):
    """Every node's output has pairwise distinct lineages, in both
    engines."""
    results = (
        ("row", evaluate(root, instance)),
        ("columnar", evaluate_columnar(root, instance).row_view()),
    )
    for engine, result in results:
        for node in root.postorder():
            lineages = [t.lineage for t in result.output(node)]
            assert len(set(lineages)) == len(lineages), (
                f"{engine}: two outputs of {node.describe()} share a "
                "lineage"
            )


@settings(max_examples=60, deadline=None)
@given(scenario())
def test_spj_outputs_have_distinct_lineage(case):
    db, canonical, _tc = case
    assert_lineage_keys(
        canonical.root, db.input_instance(canonical.aliases)
    )


@settings(max_examples=60, deadline=None)
@given(spja_scenario())
def test_spja_outputs_have_distinct_lineage(case):
    db, canonical, _tc = case
    assert_lineage_keys(
        canonical.root, db.input_instance(canonical.aliases)
    )


@settings(max_examples=60, deadline=None)
@given(
    small_database(),
    st.sampled_from([Union, Difference]),
    st.integers(min_value=0, max_value=4),
)
def test_set_operation_outputs_have_distinct_lineage(db, op, bound):
    """pi_a(sigma R) op pi_c(S): equal values from distinct base tuples
    on both sides."""
    left = Project(
        Select(
            RelationLeaf(db.table("R").schema), attr_cmp("R.a", "<=", bound)
        ),
        ["R.a"],
    )
    right = Project(RelationLeaf(db.table("S").schema), ["S.c"])
    root = op(left, right, Renaming.of(("R.a", "S.c", "v")))
    assert_lineage_keys(root, db.instance())


chain_shapes = st.tuples(
    st.integers(min_value=2, max_value=4),      # relations
    st.integers(min_value=1, max_value=16),     # rows per relation
    st.integers(min_value=1, max_value=3),      # join fanout
    st.integers(min_value=0, max_value=9999),   # generator seed
    st.sampled_from([0.0, 1.1, 2.0]),           # key skew (zipf)
)


@settings(max_examples=40, deadline=None)
@given(shape=chain_shapes)
def test_chain_outputs_have_distinct_lineage(shape):
    relations, rows, fanout, seed, zipf = shape
    database = chain_database(
        relations, rows_per_relation=rows, fanout=fanout, seed=seed, zipf=zipf
    )
    canonical = canonicalize(chain_query(relations), database.schema)
    assert_lineage_keys(
        canonical.root, database.input_instance(canonical.aliases)
    )


@pytest.mark.parametrize("scale", [1, 4])
@pytest.mark.parametrize("name", [uc.name for uc in USE_CASES])
def test_use_case_outputs_have_distinct_lineage(name, scale):
    _uc, database, canonical = use_case_setup(name, scale)
    assert_lineage_keys(
        canonical.root, database.input_instance(canonical.aliases)
    )


def test_tuples_hash_by_lineage_and_compare_by_values_too():
    parent = base_tuple("A", "A:1", x=1, y=2)
    leaf = RelationLeaf(RelationSchema("A", ["x", "y"]))
    (child,) = Project(leaf, ["A.x"]).apply([[parent]])
    assert hash(parent) == hash(parent.lineage)
    # a projection keeps its parent's lineage but not its values
    assert child.lineage == parent.lineage
    assert hash(child) == hash(parent)
    assert child != parent
    assert len({parent, child}) == 2
