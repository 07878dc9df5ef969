"""``Database.input_instance`` against the reference ``I_Q`` (Def. 2.3).

The stored-database path builds the query input instance straight from
the aliased tables.  The reference derives it from the full snapshot,
``query_input_instance(database.instance(), aliases)``.  The two must
agree on every Table 3 query, self-joins included: relation names,
tuples in order with values, tid, lineage and parents, and the data key
the evaluation cache shares results under.
"""

from __future__ import annotations

import pytest

from repro.relational import Database, query_input_instance
from repro.workloads.usecases import QUERIES, get_canonical, get_database


def assert_same_instance(built, reference):
    assert built.relation_names() == reference.relation_names()
    assert built.schema == reference.schema
    for name in reference.relation_names():
        expected = reference.relation(name).tuples
        actual = built.relation(name).tuples
        assert [t.values for t in actual] == [t.values for t in expected]
        assert [t.tid for t in actual] == [t.tid for t in expected]
        assert [t.lineage for t in actual] == [t.lineage for t in expected]
        assert [t.parents for t in actual] == [t.parents for t in expected]
        assert actual == expected
    assert built.data_key == reference.data_key


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_table3_query_matches_reference(query):
    database = get_database(QUERIES[query][0])
    aliases = get_canonical(query).aliases
    built = database.input_instance(aliases)
    assert_same_instance(
        built, query_input_instance(database.instance(), aliases)
    )
    for alias, target in aliases.items():
        stored = database.table(target).rows
        copies = built.relation(alias).tuples
        if alias == target:
            # the alias named after its table shares the stored rows
            assert all(a is b for a, b in zip(copies, stored))
        else:
            assert all(a.tid.startswith(f"{alias}:") for a in copies)


def self_join_db() -> Database:
    db = Database("sj")
    db.create_table("P", ["pid", "name"], key="pid")
    db.create_table("Unused", ["u"])
    db.insert("P", pid=1, name="Ann")
    db.insert("P", pid=2, name="Bob")
    db.insert("Unused", u=0)
    return db


def test_insert_into_aliased_table_shows_in_fresh_build():
    db = self_join_db()
    aliases = {"P1": "P", "P2": "P", "P": "P"}
    before = db.input_instance(aliases)
    db.insert("P", pid=3, name="Cy")
    after = db.input_instance(aliases)
    assert after.data_key != before.data_key
    assert len(before.relation("P1")) == 2
    assert [t.tid for t in after.relation("P2")] == ["P2:1", "P2:2", "P2:3"]
    assert after.relation("P").tuples[-1] is db.table("P").by_tid("P:3")
    assert_same_instance(after, query_input_instance(db.instance(), aliases))


def test_unused_tables_are_not_copied():
    db = self_join_db()
    built = db.input_instance({"P1": "P"})
    assert built.relation_names() == ("P1",)
    assert "Unused" not in built


def test_mutating_the_build_leaves_the_database_alone():
    db = self_join_db()
    built = db.input_instance({"P": "P"})
    key = built.data_key
    built.insert_values("P", "P:9", pid=9, name="Zed")
    assert built.data_key != key
    assert len(db.table("P")) == 2
    assert db.input_instance({"P": "P"}).data_key == key
