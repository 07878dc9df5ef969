"""SQL round trip of the Table 3 queries: ``format_spec`` ->
``sql_to_canonical`` must answer every Table 4 question exactly as the
spec-built canonical tree does.

The service only receives SQL, so the queries that fail here cannot be
served; this is why the ``service-journaled`` workload uses Q1, Q2,
Q4, Q6, Q8 and Q9 only.  The failing queries are pinned with
``xfail(strict=True)``: a fix makes them pass and the test fail until
the marks are removed.
"""

import pytest

import repro
from repro.errors import RenamingError, SqlSyntaxError, WhyNotQuestionError
from repro.relational.sql import sql_to_canonical
from repro.relational.sql.formatter import format_spec
from repro.workloads.usecases import QUERIES, USE_CASES, get_database

from benchmarks.e2e.stream import SERVICE_QUERIES

# benchmark-harness tests stay out of tier-1, like benchmarks/bench_*.py
pytestmark = pytest.mark.bench

#: query -> the error its round trip raises today
GAP = {
    "Q3": RenamingError,  # renamed attribute 'sector' already occurs
    "Q5": SqlSyntaxError,  # ambiguous column 'name'
    "Q7": SqlSyntaxError,  # unknown column 'sponsorId'
    "Q12": WhyNotQuestionError,  # c-tuple outside the target type
}


def _params():
    for use_case in USE_CASES:
        marks = ()
        if use_case.query in GAP:
            marks = pytest.mark.xfail(
                strict=True, raises=GAP[use_case.query]
            )
        yield pytest.param(use_case, id=use_case.name, marks=marks)


def _answers(canonical, database, predicate):
    engine = repro.NedExplain(
        canonical, database=database, cache=repro.EvaluationCache()
    )
    return engine.explain(predicate).to_dict()["answers"]


@pytest.mark.parametrize("use_case", list(_params()))
def test_sql_round_trip_answers_like_the_spec(use_case):
    database = get_database(use_case.database)
    spec = QUERIES[use_case.query][1]()
    via_sql = sql_to_canonical(format_spec(spec), database.schema)
    expected = _answers(
        repro.canonicalize(spec, database.schema),
        database,
        use_case.predicate,
    )
    assert _answers(via_sql, database, use_case.predicate) == expected


def test_service_queries_are_exactly_the_round_tripping_ones():
    asked = {use_case.query for use_case in USE_CASES}
    assert set(SERVICE_QUERIES) == asked - set(GAP)
