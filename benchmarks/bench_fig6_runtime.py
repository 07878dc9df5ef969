"""Fig. 6 -- Why-Not vs NedExplain execution time per use case.

Benchmarks both algorithms on every use case (at scale factor 2 so the
tracing costs dominate the constant overheads) and registers the
runtime comparison.  The paper's shape claim: NedExplain is overall
faster, because the baseline traces each unpicked item independently
over the full intermediate results while NedExplain pushes all
compatible tuples through the tree in a single pass.
"""

from __future__ import annotations

import statistics

import pytest

from repro.baseline import WhyNotBaseline
from repro.core import NedExplain
from repro.errors import UnsupportedQueryError
from repro.workloads import USE_CASES, use_case_setup

from conftest import register_artefact

pytestmark = pytest.mark.bench

_SCALE = 2
_MEDIANS: dict[str, dict[str, float]] = {}


def _record(name: str, algorithm: str, benchmark) -> None:
    _MEDIANS.setdefault(name, {})[algorithm] = (
        statistics.median(benchmark.stats.stats.data) * 1000.0
    )


@pytest.mark.parametrize("name", [uc.name for uc in USE_CASES])
def test_nedexplain_runtime(benchmark, name):
    use_case, database, canonical = use_case_setup(name, scale=_SCALE)
    engine = NedExplain(canonical, database=database)
    benchmark(engine.explain, use_case.predicate)
    _record(name, "ned", benchmark)


@pytest.mark.parametrize("name", [uc.name for uc in USE_CASES])
def test_whynot_runtime(benchmark, name):
    use_case, database, canonical = use_case_setup(name, scale=_SCALE)
    try:
        engine = WhyNotBaseline(canonical, database=database)
    except UnsupportedQueryError:
        pytest.skip("aggregation: n.a. for the Why-Not baseline")
    benchmark(engine.explain, use_case.predicate)
    _record(name, "whynot", benchmark)


def test_register_figure(benchmark):
    def render() -> str:
        lines = [
            f"scale factor {_SCALE}; medians over benchmark rounds",
            f"{'Use case':<10}{'Why-Not(ms)':>12}{'Ned(ms)':>10}"
            f"{'speedup':>9}",
            "-" * 45,
        ]
        total_wn = total_ned = 0.0
        for uc in USE_CASES:
            medians = _MEDIANS.get(uc.name, {})
            ned = medians.get("ned")
            whynot = medians.get("whynot")
            if ned is None:
                continue
            total_ned += ned
            if whynot is None:
                lines.append(
                    f"{uc.name:<10}{'n.a.':>12}{ned:>10.2f}{'':>9}"
                )
            else:
                total_wn += whynot
                lines.append(
                    f"{uc.name:<10}{whynot:>12.2f}{ned:>10.2f}"
                    f"{whynot / ned:>8.1f}x"
                )
        lines.append("-" * 45)
        lines.append(
            f"{'TOTAL':<10}{total_wn:>12.2f}{total_ned:>10.2f}"
        )
        return "\n".join(lines)

    text = benchmark(render)
    register_artefact(
        "Fig. 6: Why-Not and NedExplain execution time", text
    )
