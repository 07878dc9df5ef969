"""Fig. 5 -- phase-wise runtime distribution of NedExplain.

For every use case, accumulates the four phase timings
(Initialization, CompatibleFinder, SuccessorsFinder, Bottom-Up) over
repeated runs and registers the distribution table.  The paper's shape
claims: Initialization dominates the SPJ cases, SuccessorsFinder takes
over for SPJA cases.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    PhaseAccumulator,
    render_fig5,
    run_use_case,
)
from repro.core import NedExplain
from repro.workloads import USE_CASES, use_case_setup

from conftest import register_artefact

pytestmark = pytest.mark.bench

_ACCUMULATED = {}


@pytest.mark.parametrize("name", [uc.name for uc in USE_CASES])
def test_phase_distribution(benchmark, name):
    use_case, database, canonical = use_case_setup(name)
    engine = NedExplain(canonical, database=database)
    accumulator = PhaseAccumulator()

    def run():
        report = engine.explain(use_case.predicate)
        accumulator.add(report.phase_times_ms)
        return report

    benchmark(run)
    assert accumulator.grand_total_ms > 0
    _ACCUMULATED[name] = accumulator


def test_register_figure(benchmark):
    results = benchmark(
        lambda: [run_use_case(uc.name, run_baseline=False)
                 for uc in USE_CASES]
    )
    register_artefact(
        "Fig. 5: % time distribution over NedExplain phases",
        render_fig5(results),
    )
