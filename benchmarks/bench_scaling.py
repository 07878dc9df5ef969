"""Ablation A1 -- runtime vs database scale (the parameter study the
paper defers to future work).

Sweeps the crime and gov databases over scale factors and a synthetic
chain-join workload over chain depths, benchmarking one NedExplain
explanation each.
"""

from __future__ import annotations

import statistics

import pytest

from repro.core import NedExplain, canonicalize
from repro.workloads import (
    chain_database,
    chain_predicate,
    chain_query,
    use_case_setup,
)

from conftest import register_artefact

pytestmark = pytest.mark.bench

_SCALES = (1, 2, 4, 8)
_DEPTHS = (2, 3, 4, 5)
_ROWS: dict[str, float] = {}


@pytest.mark.parametrize("scale", _SCALES)
def test_crime_scale(benchmark, scale):
    use_case, database, canonical = use_case_setup("Crime1", scale=scale)
    engine = NedExplain(canonical, database=database)
    benchmark(engine.explain, use_case.predicate)
    _ROWS[f"crime x{scale} ({database.size()} rows)"] = (
        statistics.median(benchmark.stats.stats.data) * 1000.0
    )


@pytest.mark.parametrize("scale", _SCALES)
def test_gov_scale(benchmark, scale):
    use_case, database, canonical = use_case_setup("Gov5", scale=scale)
    engine = NedExplain(canonical, database=database)
    benchmark(engine.explain, use_case.predicate)
    _ROWS[f"gov   x{scale} ({database.size()} rows)"] = (
        statistics.median(benchmark.stats.stats.data) * 1000.0
    )


@pytest.mark.parametrize("depth", _DEPTHS)
def test_chain_depth(benchmark, depth):
    database = chain_database(depth, rows_per_relation=120)
    canonical = canonicalize(chain_query(depth), database.schema)
    engine = NedExplain(canonical, database=database)
    benchmark(engine.explain, chain_predicate())
    _ROWS[f"chain depth {depth}"] = (
        statistics.median(benchmark.stats.stats.data) * 1000.0
    )


def test_register_table(benchmark):
    def render() -> str:
        lines = [
            f"{'configuration':<30}{'median (ms)':>12}",
            "-" * 42,
        ]
        for key, value in _ROWS.items():
            lines.append(f"{key:<30}{value:>12.2f}")
        return "\n".join(lines)

    text = benchmark(render)
    register_artefact("Ablation A1: runtime vs scale", text)
