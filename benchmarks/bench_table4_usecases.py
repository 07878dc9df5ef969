"""Table 4 -- the use cases (query + Why-Not predicate).

Benchmarks the per-use-case preprocessing pipeline (predicate parsing,
validation, unrenaming, CompatibleFinder) and registers the catalog.
"""

from __future__ import annotations

import pytest

from repro.bench import render_table4
from repro.core import CompatibleFinder, parse_predicate
from repro.core.unrename import unrename_predicate
from repro.workloads import USE_CASES, use_case_setup

from conftest import register_artefact

pytestmark = pytest.mark.bench


@pytest.mark.parametrize("name", [uc.name for uc in USE_CASES])
def test_preprocessing(benchmark, name):
    """Parse + unrename + find compatibles for one use case."""
    use_case, database, canonical = use_case_setup(name)
    instance = database.input_instance(canonical.aliases)
    finder = CompatibleFinder(instance)

    def preprocess():
        predicate = parse_predicate(use_case.predicate)
        predicate.validate_against(canonical.root)
        unrenamed = unrename_predicate(canonical.root, predicate)
        return [finder.find(tc) for tc in unrenamed]

    sets = benchmark(preprocess)
    assert sets


def test_register_catalog(benchmark):
    text = benchmark(render_table4)
    register_artefact("Table 4: use cases", text)
