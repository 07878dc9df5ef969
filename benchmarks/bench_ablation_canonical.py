"""Ablation A2 -- the canonicalization rationale of Sec. 3.1, step 2b.

For the aggregate query Q8 (use case Crime9), compares the paper's
canonical tree (selection placed *above* the breakpoint V) against the
classic optimizer placement (selection pushed down to the Crime leaf).

The canonical placement is what makes the aggregation-condition check
possible: with the selection below V, the count never flips between a
subquery's input and output, and the ``(null, sigma)`` explanation of
Crime9 is lost entirely -- the ablation registers both answers next to
the timings.
"""

from __future__ import annotations

import statistics

from repro.core import NedExplain, canonical_from_tree
from repro.core.canonical import CanonicalQuery
from repro.relational import (
    Aggregate,
    AggregateCall,
    Join,
    RelationLeaf,
    Renaming,
    Select,
    attr_cmp,
)
from repro.workloads import get_canonical, get_database

from conftest import register_artefact

import pytest

pytestmark = pytest.mark.bench

_PREDICATE = "((Person.name: Betsy, ct: $x), $x > 8)"
_RESULTS: dict[str, tuple[str, float]] = {}


def _pushed_down_variant() -> CanonicalQuery:
    """Q8 with sigma_{sector>80} pushed below the joins (non-canonical)."""
    db = get_database("crime")
    person = RelationLeaf(db.table("Person").schema)
    saw = RelationLeaf(db.table("Saw").schema)
    witness = RelationLeaf(db.table("Witness").schema)
    crime = Select(
        RelationLeaf(db.table("Crime").schema),
        attr_cmp("Crime.sector", ">", 80),
    )
    join0 = Join(
        person,
        saw,
        Renaming.of(
            ("Person.hair", "Saw.hair", "hair"),
            ("Person.clothes", "Saw.clothes", "clothes"),
        ),
    )
    join1 = Join(
        join0, witness, Renaming.of(("Saw.witnessName", "Witness.name",
                                     "witnessName"))
    )
    join2 = Join(
        join1, crime, Renaming.of(("Witness.sector", "Crime.sector",
                                   "sector"))
    )
    root = Aggregate(
        join2, ("Person.name",), (AggregateCall("count", "Crime.type",
                                                "ct"),)
    )
    return canonical_from_tree(root)


def _run(benchmark, canonical, key):
    db = get_database("crime")
    engine = NedExplain(canonical, database=db)
    report = benchmark(engine.explain, _PREDICATE)
    rendered = (
        ", ".join(repr(e) for e in report.detailed) or "(no answer)"
    )
    _RESULTS[key] = (
        rendered,
        statistics.median(benchmark.stats.stats.data) * 1000.0,
    )
    return report


def test_canonical_placement(benchmark):
    report = _run(benchmark, get_canonical("Q8"), "canonical (above V)")
    # the canonical tree explains the missing count: (null, sigma)
    assert any(e.tid is None for e in report.detailed)


def test_pushed_down_placement(benchmark):
    report = _run(benchmark, _pushed_down_variant(), "pushed down")
    # the classic placement loses the aggregation explanation
    assert report.is_empty()


def test_register_table(benchmark):
    def render() -> str:
        lines = [
            "Crime9 under the two selection placements of Q8",
            f"{'placement':<22}{'median (ms)':>12}  answer",
            "-" * 70,
        ]
        for key, (answer, ms) in _RESULTS.items():
            lines.append(f"{key:<22}{ms:>12.3f}  {answer}")
        return "\n".join(lines)

    text = benchmark(render)
    register_artefact(
        "Ablation A2: canonical selection placement (Sec. 3.1-2b)", text
    )
