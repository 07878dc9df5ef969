"""Tests for the benchmark harness (runner, phases, renderers)."""

import pytest

from repro.bench import (
    PhaseAccumulator,
    collect_phases,
    collect_runtime,
    dominant_phase,
    measure,
    merge_accumulators,
    render_all,
    render_fig5,
    render_fig6,
    render_table3,
    render_table4,
    render_table5,
    run_use_case,
    runtime_payload,
    use_case_factory,
)
from repro.core.nedexplain import PHASES
from repro.errors import ConfigurationError
from repro.robustness.budget import Budget


@pytest.fixture(scope="module")
def crime5():
    return run_use_case("Crime5")


@pytest.fixture(scope="module")
def crime9():
    return run_use_case("Crime9")


class TestRunner:
    def test_answer_texts(self, crime5):
        assert "m3" in crime5.ned_answer_text()
        assert crime5.whynot_answer_text() == "m2"

    def test_na_text(self, crime9):
        assert crime9.whynot_answer_text() == "n.a."
        assert crime9.whynot_total_ms is None

    def test_timings_positive(self, crime5):
        assert crime5.ned_total_ms > 0
        assert crime5.whynot_total_ms is not None
        assert crime5.whynot_total_ms > 0

    def test_baseline_can_be_skipped(self):
        result = run_use_case("Crime5", run_baseline=False)
        assert result.whynot is None and not result.whynot_na

    def test_no_compatible_branch_rendered(self):
        result = run_use_case("Gov7", run_baseline=False)
        assert "{}" in result.ned_answer_text()


class TestPhases:
    def test_accumulator(self, crime5):
        acc = PhaseAccumulator()
        acc.add(crime5.ned.phase_times_ms)
        acc.add(crime5.ned.phase_times_ms)
        assert acc.runs == 2
        assert acc.grand_total_ms == pytest.approx(
            2 * crime5.ned.total_time_ms
        )
        distribution = acc.distribution()
        assert sum(distribution.values()) == pytest.approx(100.0)

    def test_mean(self, crime5):
        acc = PhaseAccumulator()
        assert acc.mean_ms(PHASES[0]) == 0.0
        acc.add(crime5.ned.phase_times_ms)
        assert acc.mean_ms(PHASES[0]) == pytest.approx(
            crime5.ned.phase_times_ms[PHASES[0]]
        )

    def test_merge(self, crime5):
        a, b = PhaseAccumulator(), PhaseAccumulator()
        a.add(crime5.ned.phase_times_ms)
        b.add(crime5.ned.phase_times_ms)
        merged = merge_accumulators([a, b])
        assert merged.runs == 2

    def test_dominant_phase(self):
        assert dominant_phase(
            {"Initialization": 5.0, "BottomUp": 1.0}
        ) == "Initialization"


class TestRenderers:
    @pytest.fixture(scope="class")
    def some_results(self):
        return [run_use_case("Crime5"), run_use_case("Crime9")]

    def test_table3(self):
        text = render_table3()
        assert "Q8" in text and "alpha" in text

    def test_table4(self):
        text = render_table4()
        assert "Crime5" in text and "(Person.name: Hank)" in text

    def test_table5(self, some_results):
        text = render_table5(some_results)
        assert "Crime5" in text and "n.a." in text

    def test_fig5(self, some_results):
        text = render_fig5(some_results)
        for phase in PHASES:
            assert phase in text
        assert "%" in text

    def test_fig6(self, some_results):
        text = render_fig6(some_results)
        assert "Crime5" in text and "#" in text

    def test_render_all_stitches_every_section(self, some_results):
        text = render_all(some_results)
        for fragment in ("Table 4", "Table 5", "Fig. 5", "Fig. 6", "Crime5"):
            assert fragment in text, fragment


class TestRunnerErrorPaths:
    def test_unknown_use_case_names_the_known_ones(self):
        with pytest.raises(ConfigurationError, match="Crime5"):
            run_use_case("Nope99")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError, match="whynot"):
            use_case_factory("Crime5", algorithm="quantum")

    def test_measure_rejects_zero_repeats(self):
        with pytest.raises(ConfigurationError, match="repeats"):
            measure(
                use_case_factory("Crime5"), name="x", repeats=0
            )

    def test_measure_rejects_negative_warmup(self):
        with pytest.raises(ConfigurationError, match="warmup"):
            measure(
                use_case_factory("Crime5"),
                name="x",
                repeats=1,
                warmup=-1,
            )

    def test_collect_phases_rejects_bad_params(self):
        with pytest.raises(ConfigurationError, match="repeats"):
            collect_phases(repeats=0)
        with pytest.raises(ConfigurationError, match="warmup"):
            collect_phases(repeats=1, warmup=-1)

    def test_collect_runtime_rejects_zero_repeats(self):
        with pytest.raises(ConfigurationError, match="repeats"):
            collect_runtime(repeats=0)

    def test_budget_propagates_to_both_algorithms(self):
        """A tiny budget degrades NedExplain to a partial report and
        marks the baseline n.a. -- neither aborts the sweep."""
        result = run_use_case(
            "Gov5", budget=Budget(max_comparisons=10)
        )
        assert result.ned.partial
        assert result.whynot_na
        assert result.whynot is None
        assert result.whynot_answer_text() == "n.a."

    def test_budget_cut_does_not_depend_on_earlier_calls(self):
        """Each call evaluates on its own cache: a Gov6 run that
        completed earlier in the process cannot turn a budgeted run's
        evaluation into a cache hit that skips its comparisons."""
        budget = Budget(max_comparisons=1000)
        first = run_use_case("Gov6", run_baseline=False, budget=budget)
        run_use_case("Gov6")
        again = run_use_case("Gov6", run_baseline=False, budget=budget)
        assert first.ned.partial
        assert again.ned.partial == first.ned.partial


class TestMeasureProtocol:
    def test_samples_match_repeats_and_counters_are_stable(self):
        first = measure(
            use_case_factory("Crime5"), name="c5", repeats=3, warmup=1
        )
        second = measure(
            use_case_factory("Crime5"), name="c5", repeats=2, warmup=0
        )
        assert len(first.samples_ms) == 3
        assert len(second.samples_ms) == 2
        assert all(s > 0 for s in first.samples_ms)
        # counters are a property of the algorithm, not the repeats
        assert dict(first.counters) == dict(second.counters)
        assert first.median_ms > 0
        assert first.mad_ms >= 0


class TestRuntimeSerialization:
    def test_speedup_present_when_both_measured(self):
        payload = runtime_payload(
            {"Crime5": {"ned": 2.0, "whynot": 8.0}}, scale=1
        )
        entry = payload["use_cases"]["Crime5"]
        assert entry["speedup"] == pytest.approx(4.0)
        assert "whynot_na_reason" not in entry

    def test_missing_whynot_records_reason_not_silence(self):
        payload = runtime_payload(
            {"Crime9": {"ned": 2.0}},
            scale=1,
            na_reasons={"Crime9": "unsupported"},
        )
        entry = payload["use_cases"]["Crime9"]
        assert entry["whynot_ms"] is None
        assert entry["speedup"] is None
        assert entry["whynot_na_reason"] == "unsupported"

    def test_unexplained_gap_gets_explicit_default_reason(self):
        payload = runtime_payload({"Gov6": {"ned": 2.0}}, scale=1)
        entry = payload["use_cases"]["Gov6"]
        assert entry["speedup"] is None
        assert entry["whynot_na_reason"] == "not-measured"

    def test_collect_runtime_records_unsupported_reasons(self):
        payload = collect_runtime(repeats=1, scale=1, warmup=0)
        cases = payload["use_cases"]
        # the aggregation queries the Why-Not baseline cannot trace
        assert cases["Crime9"]["whynot_na_reason"] == "unsupported"
        assert cases["Crime9"]["speedup"] is None
        # a fully-measured case carries a real speedup, no reason
        assert cases["Crime5"]["speedup"] is not None
        assert "whynot_na_reason" not in cases["Crime5"]
        assert payload["repeats"] == 1 and payload["warmup"] == 0
