"""The perf gate: threshold algebra, MAD reduction, baseline I/O,
trajectory handling, and the injected-regression end-to-end proof.

The end-to-end tests are the gate's own acceptance criteria: a clean
tree passes ``check`` repeatedly without flakes, a deliberately
injected fault (extra comparisons, an artificial slowdown) makes it
exit nonzero with a machine-readable report naming the offending
benchmark, and reverting the fault makes it pass again.
"""

from __future__ import annotations

import json
import math
import time

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.bench.baselines import (
    BASELINE_FORMAT_VERSION,
    BaselineEntry,
    SuiteBaseline,
    baseline_path,
    read_suite_baseline,
    write_suite_baseline,
)
from repro.bench.gate import (
    SUITES,
    CheckResult,
    Thresholds,
    allowed_regression_ms,
    append_trajectory_entry,
    calibrate,
    compare_measurement,
    diff_counters,
    main as gate_main,
    read_trajectory,
    render_trajectory,
    run_check,
    run_report,
    run_update,
    select_specs,
)
from repro.bench.runner import Measurement, mad, measure, reduce_samples
from repro.core import NedExplain
from repro.core.compatibility import CompatibleFinder
from repro.errors import ConfigurationError
from repro.robustness.budget import current_context

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
finite_ms = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)
sample_lists = st.lists(finite_ms, min_size=1, max_size=20)
positive_ms = st.floats(min_value=1e-3, max_value=1e4)
noise_ms = st.floats(min_value=0.0, max_value=100.0)
counter_names = st.text(
    alphabet="abcdefgh.xyz", min_size=1, max_size=10
)
counter_dicts = st.dictionaries(
    counter_names, st.integers(min_value=0, max_value=10**6), max_size=6
)
threshold_values = st.builds(
    Thresholds,
    rel_tolerance=st.floats(min_value=0, max_value=2),
    noise_mult=st.floats(min_value=0, max_value=20),
    abs_floor_ms=st.floats(min_value=0, max_value=10),
)


# ---------------------------------------------------------------------------
# MAD reduction
# ---------------------------------------------------------------------------
class TestMadReduction:
    @given(sample_lists)
    def test_non_negative(self, samples):
        assert mad(samples) >= 0

    @given(finite_ms, st.integers(min_value=1, max_value=10))
    def test_constant_samples_have_zero_mad(self, value, n):
        assert mad([value] * n) == 0.0

    @given(sample_lists, finite_ms)
    def test_shift_invariance(self, samples, shift):
        shifted = [s + shift for s in samples]
        assert math.isclose(
            mad(shifted), mad(samples), rel_tol=1e-9, abs_tol=1e-8
        )

    @given(sample_lists, st.floats(min_value=-100, max_value=100))
    def test_scale_equivariance(self, samples, factor):
        scaled = [s * factor for s in samples]
        assert math.isclose(
            mad(scaled),
            abs(factor) * mad(samples),
            rel_tol=1e-9,
            abs_tol=1e-8,
        )

    @given(
        st.lists(finite_ms, min_size=3, max_size=20),
        st.floats(
            min_value=-1e9, max_value=1e9, allow_nan=False
        ),
    )
    def test_single_outlier_robust(self, samples, outlier):
        # robustness: one wild outlier cannot drag the MAD beyond the
        # spread of the untouched samples (a standard deviation would
        # explode here -- this is why the gate's noise band uses MAD)
        spread = max(samples) - min(samples)
        assert mad(samples + [outlier]) <= spread + 1e-8

    @given(sample_lists)
    def test_reduce_samples_is_median_and_mad(self, samples):
        median, noise = reduce_samples(samples)
        assert noise == mad(samples)
        assert sum(1 for s in samples if s <= median) * 2 >= len(samples)
        assert sum(1 for s in samples if s >= median) * 2 >= len(samples)

    def test_empty_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            mad([])
        with pytest.raises(ConfigurationError):
            reduce_samples([])

    @given(sample_lists)
    def test_measurement_properties_match_reduction(self, samples):
        m = Measurement("x", tuple(samples), {})
        median, noise = reduce_samples(samples)
        assert m.median_ms == median
        assert m.mad_ms == noise


# ---------------------------------------------------------------------------
# threshold algebra
# ---------------------------------------------------------------------------
class TestThresholdAlgebra:
    @given(positive_ms, noise_ms, noise_ms, threshold_values)
    def test_allowed_is_max_of_three_slacks(
        self, base_median, base_mad, cur_mad, thresholds
    ):
        allowed = allowed_regression_ms(
            base_median, base_mad, cur_mad, thresholds
        )
        components = (
            thresholds.abs_floor_ms,
            thresholds.rel_tolerance * base_median,
            thresholds.noise_mult * (base_mad + cur_mad),
        )
        assert all(allowed >= c for c in components)
        assert allowed in components

    @given(
        positive_ms, positive_ms, noise_ms, noise_ms, threshold_values
    )
    def test_monotone_in_baseline_median(
        self, median_a, median_b, base_mad, cur_mad, thresholds
    ):
        lo, hi = sorted((median_a, median_b))
        assert allowed_regression_ms(
            lo, base_mad, cur_mad, thresholds
        ) <= allowed_regression_ms(hi, base_mad, cur_mad, thresholds)

    @given(positive_ms, noise_ms, noise_ms, noise_ms, threshold_values)
    def test_monotone_in_noise(
        self, base_median, base_mad, mad_a, mad_b, thresholds
    ):
        lo, hi = sorted((mad_a, mad_b))
        assert allowed_regression_ms(
            base_median, base_mad, lo, thresholds
        ) <= allowed_regression_ms(base_median, base_mad, hi, thresholds)

    @pytest.mark.parametrize(
        "field", ["rel_tolerance", "noise_mult", "abs_floor_ms"]
    )
    def test_negative_thresholds_rejected(self, field):
        with pytest.raises(ConfigurationError):
            Thresholds(**{field: -0.1})

    def test_zero_thresholds_allowed(self):
        thresholds = Thresholds(
            rel_tolerance=0, noise_mult=0, abs_floor_ms=0
        )
        assert (
            allowed_regression_ms(10.0, 1.0, 1.0, thresholds) == 0.0
        )


# ---------------------------------------------------------------------------
# compare_measurement
# ---------------------------------------------------------------------------
def _entry(median, noise=0.0, counters=None):
    return BaselineEntry(
        median_ms=median,
        mad_ms=noise,
        repeats=3,
        counters=dict(counters or {}),
    )


def _measurement(samples, counters=None, name="demo.bench"):
    return Measurement(name, tuple(samples), dict(counters or {}))


class TestCompareMeasurement:
    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=1e3),
            min_size=3,
            max_size=9,
        ),
        positive_ms,
        noise_ms,
        st.floats(min_value=0.1, max_value=10),
    )
    def test_calibration_scale_invariance(
        self, samples, base_median, base_mad, factor
    ):
        """Scaling every duration and the calibration by the same
        factor cannot change the verdict."""
        thresholds = Thresholds()
        baseline = _entry(base_median, base_mad)
        plain = _measurement(samples)
        scaled = _measurement([s * factor for s in samples])
        allowed = allowed_regression_ms(
            base_median, base_mad, plain.mad_ms, thresholds
        )
        delta = plain.median_ms - base_median
        # keep clear of the verdict boundary: float rounding of the
        # scaled comparison must not be able to flip it
        assume(abs(abs(delta) - allowed) > 1e-6 * max(1.0, allowed))
        verdict_plain = compare_measurement(
            "s", baseline, plain, 1.0, thresholds
        )
        verdict_scaled = compare_measurement(
            "s", baseline, scaled, factor, thresholds
        )
        assert verdict_plain.status == verdict_scaled.status

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=1e3),
            min_size=1,
            max_size=9,
        ),
        positive_ms,
        noise_ms,
    )
    def test_verdict_trichotomy_with_equal_counters(
        self, samples, base_median, base_mad
    ):
        thresholds = Thresholds()
        result = compare_measurement(
            "s",
            _entry(base_median, base_mad),
            _measurement(samples),
            1.0,
            thresholds,
        )
        assert result.status in ("ok", "improved", "regression-time")
        allowed = result.allowed_delta_ms
        delta = result.delta_ms
        if result.status == "regression-time":
            assert delta > allowed
        elif result.status == "improved":
            assert -delta > allowed
        else:
            assert abs(delta) <= allowed

    def test_counter_drift_beats_any_wall_clock_slack(self):
        # identical (even faster) timings still fail on a counter drift
        result = compare_measurement(
            "s",
            _entry(100.0, 1.0, {"budget.rows": 10}),
            _measurement([1.0, 1.0, 1.0], {"budget.rows": 11}),
            1.0,
            Thresholds(),
        )
        assert result.status == "regression-counters"
        assert result.failed
        assert result.counter_mismatches[0]["counter"] == "budget.rows"

    def test_non_positive_calibration_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_measurement(
                "s",
                _entry(1.0),
                _measurement([1.0]),
                0.0,
                Thresholds(),
            )

    def test_missing_baseline_detail_not_failed_status_names(self):
        result = CheckResult(suite="s", name="x", status="ok")
        assert not result.failed
        for status in (
            "regression-time",
            "regression-counters",
            "missing-baseline",
        ):
            assert CheckResult(
                suite="s", name="x", status=status
            ).failed


class TestDiffCounters:
    @given(counter_dicts)
    def test_equal_counters_match(self, counters):
        assert diff_counters(counters, dict(counters)) == []

    @given(counter_dicts, counter_names, st.integers(1, 100))
    def test_single_perturbation_detected(self, counters, name, bump):
        current = dict(counters)
        current[name] = counters.get(name, 0) + bump
        mismatches = diff_counters(counters, current)
        assert [m["counter"] for m in mismatches] == [name]
        assert mismatches[0]["current"] == current[name]

    @given(counter_dicts, counter_names, st.integers(0, 100))
    def test_one_sided_counter_is_a_mismatch(
        self, counters, name, value
    ):
        counters = {k: v for k, v in counters.items() if k != name}
        with_extra = dict(counters)
        with_extra[name] = value
        # new instrumentation on the current side
        assert any(
            m["counter"] == name and m["baseline"] is None
            for m in diff_counters(counters, with_extra)
        )
        # lost instrumentation on the baseline side
        assert any(
            m["counter"] == name and m["current"] is None
            for m in diff_counters(with_extra, counters)
        )


# ---------------------------------------------------------------------------
# baseline files
# ---------------------------------------------------------------------------
baseline_entries = st.dictionaries(
    st.text(alphabet="ABCGImovrd0123456789._", min_size=1, max_size=20),
    st.builds(
        BaselineEntry,
        median_ms=st.floats(min_value=1e-3, max_value=1e4),
        mad_ms=st.floats(min_value=0, max_value=100),
        repeats=st.integers(min_value=1, max_value=20),
        counters=counter_dicts,
    ),
    max_size=5,
)


class TestBaselineFiles:
    @given(
        entries=baseline_entries,
        calibration=st.floats(min_value=0.1, max_value=100),
    )
    def test_write_read_round_trip(
        self, tmp_path_factory, entries, calibration
    ):
        directory = tmp_path_factory.mktemp("baselines")
        written = SuiteBaseline(
            suite="demo", calibration_ms=calibration, entries=entries
        )
        write_suite_baseline(written, directory)
        loaded = read_suite_baseline("demo", directory)
        assert loaded.suite == "demo"
        assert loaded.calibration_ms == calibration
        assert loaded.entries == entries

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no committed"):
            read_suite_baseline("demo", tmp_path)

    @given(data=st.data())
    def test_torn_file_rejected(self, data, tmp_path_factory):
        directory = tmp_path_factory.mktemp("baselines")
        write_suite_baseline(
            SuiteBaseline(
                suite="demo",
                calibration_ms=10.0,
                entries={"a.ned": _entry(1.0, counters={"x": 1})},
            ),
            directory,
        )
        path = baseline_path("demo", directory)
        text = path.read_text(encoding="utf-8")
        # any cut before the closing brace tears the document (cutting
        # only the trailing newline would still be valid JSON)
        cut = data.draw(
            st.integers(min_value=1, max_value=len(text) - 2)
        )
        path.write_text(text[:cut], encoding="utf-8")
        with pytest.raises(ConfigurationError, match="torn|not a"):
            read_suite_baseline("demo", directory)

    def _write_document(self, tmp_path, mutate):
        write_suite_baseline(
            SuiteBaseline(
                suite="demo", calibration_ms=10.0, entries={}
            ),
            tmp_path,
        )
        path = baseline_path("demo", tmp_path)
        document = json.loads(path.read_text(encoding="utf-8"))
        mutate(document)
        path.write_text(json.dumps(document), encoding="utf-8")

    def test_stale_version_rejected(self, tmp_path):
        self._write_document(
            tmp_path,
            lambda d: d.update(version=BASELINE_FORMAT_VERSION + 1),
        )
        with pytest.raises(ConfigurationError, match="stale"):
            read_suite_baseline("demo", tmp_path)

    def test_foreign_format_rejected(self, tmp_path):
        self._write_document(
            tmp_path, lambda d: d.update(format="something.else")
        )
        with pytest.raises(ConfigurationError, match="not a"):
            read_suite_baseline("demo", tmp_path)

    def test_suite_mismatch_rejected(self, tmp_path):
        self._write_document(
            tmp_path, lambda d: d.update(suite="other")
        )
        with pytest.raises(ConfigurationError, match="names suite"):
            read_suite_baseline("demo", tmp_path)

    def test_bad_calibration_rejected(self, tmp_path):
        self._write_document(
            tmp_path, lambda d: d.update(calibration_ms=0)
        )
        with pytest.raises(ConfigurationError, match="positive"):
            read_suite_baseline("demo", tmp_path)

    def test_malformed_entry_rejected(self, tmp_path):
        self._write_document(
            tmp_path,
            lambda d: d["benchmarks"].update(
                {"a.ned": {"median_ms": 1.0}}
            ),
        )
        with pytest.raises(ConfigurationError, match="missing"):
            read_suite_baseline("demo", tmp_path)

    def test_update_leaves_no_temp_files(self, tmp_path):
        write_suite_baseline(
            SuiteBaseline(
                suite="demo", calibration_ms=10.0, entries={}
            ),
            tmp_path,
        )
        assert [p.name for p in tmp_path.iterdir()] == ["demo.json"]


# ---------------------------------------------------------------------------
# trajectory document
# ---------------------------------------------------------------------------
class TestTrajectory:
    def test_missing_file_reads_empty(self, tmp_path):
        document = read_trajectory(tmp_path / "BENCH_trajectory.json")
        assert document["entries"] == []

    def test_append_accumulates(self, tmp_path):
        path = tmp_path / "BENCH_trajectory.json"
        append_trajectory_entry(path, {"status": "ok"})
        append_trajectory_entry(path, {"status": "regression"})
        document = read_trajectory(path)
        assert [e["status"] for e in document["entries"]] == [
            "ok",
            "regression",
        ]

    def test_torn_file_rejected(self, tmp_path):
        path = tmp_path / "BENCH_trajectory.json"
        path.write_text('{"format": "repro.bench.trajec')
        with pytest.raises(ConfigurationError, match="torn"):
            read_trajectory(path)

    def test_foreign_document_rejected(self, tmp_path):
        path = tmp_path / "BENCH_trajectory.json"
        path.write_text(json.dumps({"format": "other", "entries": []}))
        with pytest.raises(ConfigurationError, match="not a"):
            read_trajectory(path)

    def test_render_empty_and_populated(self, tmp_path):
        assert "empty" in render_trajectory(
            {"entries": []}
        )
        path = tmp_path / "BENCH_trajectory.json"
        append_trajectory_entry(
            path,
            {
                "status": "ok",
                "git_sha": "abc1234",
                "label": "PR6",
                "benchmarks": {"Crime5.ned": {}},
                "regressions": [],
            },
        )
        rendered = render_trajectory(read_trajectory(path))
        assert "abc1234" in rendered
        assert "PR6" in rendered

    def test_run_report_on_corrupt_trajectory(self, tmp_path):
        path = tmp_path / "BENCH_trajectory.json"
        path.write_text("{nope")
        exit_code, document = run_report(path)
        assert exit_code == 2
        assert document["status"] == "error"


# ---------------------------------------------------------------------------
# spec selection & calibration
# ---------------------------------------------------------------------------
class TestSelection:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown suite"):
            select_specs(suites=["nope"])

    def test_unmatched_benchmark_filter_rejected(self):
        with pytest.raises(ConfigurationError, match="matched nothing"):
            select_specs(
                suites=["scaling"], benchmarks=["DoesNotExist.ned"]
            )

    def test_qualified_and_bare_names_select(self):
        bare = select_specs(
            suites=["usecases"], benchmarks=["Crime5.ned"]
        )
        qualified = select_specs(
            suites=["usecases"], benchmarks=["usecases:Crime5.ned"]
        )
        assert [s.name for s in bare["usecases"]] == ["Crime5.ned"]
        assert [s.name for s in qualified["usecases"]] == ["Crime5.ned"]

    def test_calibration_is_positive_and_stable(self):
        first, second = calibrate(repeats=3), calibrate(repeats=3)
        assert first > 0 and second > 0
        # same interpreter, back to back: within 20x of each other is a
        # deliberately loose sanity band, not a perf assertion
        assert 0.05 < first / second < 20


# ---------------------------------------------------------------------------
# end-to-end: the injected-regression proof
# ---------------------------------------------------------------------------
GATE_KW = dict(
    suites=["usecases"],
    benchmarks=["Crime5.ned"],
    repeats=3,
    warmup=1,
)


#: a wall-clock policy no timing jitter can trip, for tests whose
#: subject is not the wall-clock verdict: only the exact counters can
#: fail a check run under it
NO_WALL_CLOCK_GATE = Thresholds(abs_floor_ms=1e9)


@pytest.fixture(scope="module")
def crime5_baselines(tmp_path_factory):
    """Committed-style baselines for one cheap benchmark."""
    directory = tmp_path_factory.mktemp("baselines")
    report = run_update(baseline_directory=directory, **GATE_KW)
    assert report.status == "ok"
    assert report.exit_code == 0
    return directory


class TestGateEndToEnd:
    def test_clean_tree_passes_three_consecutive_checks(
        self, crime5_baselines, tmp_path
    ):
        trajectory = tmp_path / "BENCH_trajectory.json"
        for run in range(1, 4):
            report = run_check(
                baseline_directory=crime5_baselines,
                trajectory=trajectory,
                trajectory_label=f"run-{run}",
                thresholds=NO_WALL_CLOCK_GATE,
                **GATE_KW,
            )
            assert report.status == "ok", report.render()
            assert report.exit_code == 0
            entries = read_trajectory(trajectory)["entries"]
            # exactly one well-formed entry per check run
            assert len(entries) == run
            latest = entries[-1]
            assert latest["status"] == "ok"
            assert latest["label"] == f"run-{run}"
            assert latest["repeats"] == GATE_KW["repeats"]
            assert latest["calibration_ms"] > 0
            record = latest["benchmarks"]["Crime5.ned"]
            assert record["suite"] == "usecases"
            assert record["median_ms"] > 0
            assert record["counters"]["budget.rows"] > 0

    def test_trajectory_entries_stamp_git_sha(
        self, crime5_baselines, tmp_path, monkeypatch
    ):
        """Every appended entry carries the current git SHA -- and
        outside a repository the stamp degrades to the literal
        ``"unknown"``, never ``None``, so trajectory consumers can
        rely on the field being a string."""
        import subprocess

        from repro.bench import gate as gate_module

        trajectory = tmp_path / "BENCH_trajectory.json"
        report = run_check(
            baseline_directory=crime5_baselines,
            trajectory=trajectory,
            thresholds=NO_WALL_CLOCK_GATE,
            **GATE_KW,
        )
        assert report.status == "ok", report.render()
        stamped = read_trajectory(trajectory)["entries"][-1]["git_sha"]
        assert isinstance(stamped, str) and stamped
        probe = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
        )
        if probe.returncode == 0:
            assert stamped == probe.stdout.strip()

        # no repository (best-effort probe fails): literal "unknown"
        monkeypatch.setattr(gate_module, "_git_sha", lambda: None)
        report = run_check(
            baseline_directory=crime5_baselines,
            trajectory=trajectory,
            thresholds=NO_WALL_CLOCK_GATE,
            **GATE_KW,
        )
        assert report.status == "ok", report.render()
        entries = read_trajectory(trajectory)["entries"]
        assert entries[-1]["git_sha"] == "unknown"

    def test_injected_counter_regression_fails_then_passes(
        self, crime5_baselines, tmp_path, monkeypatch
    ):
        original = CompatibleFinder.find

        def padded(self, tc):
            context = current_context()
            if context is not None:
                context.tick_comparisons(500)
            return original(self, tc)

        monkeypatch.setattr(CompatibleFinder, "find", padded)
        trajectory = tmp_path / "BENCH_trajectory.json"
        report = run_check(
            baseline_directory=crime5_baselines,
            trajectory=trajectory,
            thresholds=NO_WALL_CLOCK_GATE,
            **GATE_KW,
        )
        assert report.status == "regression"
        assert report.exit_code == 1
        (result,) = report.results
        assert result.status == "regression-counters"
        assert any(
            m["counter"] == "budget.comparisons"
            for m in result.counter_mismatches
        )
        # the machine-readable report names the offending benchmark
        payload = report.to_dict()
        assert payload["regressions"] == ["Crime5.ned"]
        assert payload["exit_code"] == 1
        # the regression is recorded in the trajectory too
        entry = read_trajectory(trajectory)["entries"][-1]
        assert entry["status"] == "regression"
        assert entry["regressions"] == ["Crime5.ned"]

        # reverting the fault makes the same check pass again
        monkeypatch.undo()
        clean = run_check(
            baseline_directory=crime5_baselines,
            trajectory=trajectory,
            thresholds=NO_WALL_CLOCK_GATE,
            **GATE_KW,
        )
        assert clean.status == "ok", clean.render()
        assert clean.exit_code == 0

    def test_injected_slowdown_fails_wall_clock_gate(
        self, crime5_baselines, tmp_path, monkeypatch
    ):
        original = NedExplain.explain

        def slowed(self, *args, **kwargs):
            time.sleep(0.05)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(NedExplain, "explain", slowed)
        report = run_check(
            baseline_directory=crime5_baselines,
            trajectory=tmp_path / "BENCH_trajectory.json",
            **GATE_KW,
        )
        assert report.exit_code == 1
        (result,) = report.results
        # the sleep changes no counters, so this is precisely the
        # noise-banded wall-clock verdict
        assert result.status == "regression-time"
        assert result.counter_mismatches == ()
        assert result.delta_ms > result.allowed_delta_ms

        monkeypatch.undo()
        clean = run_check(
            baseline_directory=crime5_baselines,
            trajectory=tmp_path / "BENCH_trajectory.json",
            **GATE_KW,
        )
        assert clean.exit_code == 0, clean.render()

    def test_missing_baseline_entry_is_a_regression(
        self, crime5_baselines, tmp_path
    ):
        report = run_check(
            suites=["usecases"],
            benchmarks=["Crime6.ned"],
            repeats=2,
            warmup=0,
            baseline_directory=crime5_baselines,
            trajectory=tmp_path / "BENCH_trajectory.json",
        )
        assert report.exit_code == 1
        (result,) = report.results
        assert result.status == "missing-baseline"
        assert "update" in result.detail

    def test_missing_baseline_file_is_an_error(self, tmp_path):
        report = run_check(
            baseline_directory=tmp_path / "empty",
            trajectory=tmp_path / "BENCH_trajectory.json",
            **GATE_KW,
        )
        assert report.status == "error"
        assert report.exit_code == 2
        assert any("no committed" in e for e in report.errors)
        # an error run measures nothing and appends nothing
        assert not (tmp_path / "BENCH_trajectory.json").exists()

    def test_stale_baseline_version_is_an_error(
        self, crime5_baselines, tmp_path
    ):
        stale_dir = tmp_path / "stale"
        stale_dir.mkdir()
        source = baseline_path("usecases", crime5_baselines)
        document = json.loads(source.read_text(encoding="utf-8"))
        document["version"] = BASELINE_FORMAT_VERSION + 1
        (stale_dir / "usecases.json").write_text(json.dumps(document))
        report = run_check(
            baseline_directory=stale_dir,
            trajectory=tmp_path / "BENCH_trajectory.json",
            **GATE_KW,
        )
        assert report.exit_code == 2
        assert any("stale" in e for e in report.errors)

    def test_corrupt_trajectory_fails_fast(
        self, crime5_baselines, tmp_path
    ):
        trajectory = tmp_path / "BENCH_trajectory.json"
        trajectory.write_text("{torn")
        report = run_check(
            baseline_directory=crime5_baselines,
            trajectory=trajectory,
            **GATE_KW,
        )
        assert report.exit_code == 2
        assert any("torn" in e for e in report.errors)
        # the torn file is left untouched for forensics
        assert trajectory.read_text() == "{torn"

    def test_bad_filters_and_params_are_errors(self, tmp_path):
        for kwargs in (
            dict(suites=["nope"]),
            dict(suites=["scaling"], benchmarks=["Missing.ned"]),
            dict(suites=["scaling"], repeats=0),
        ):
            report = run_check(
                baseline_directory=tmp_path,
                trajectory=tmp_path / "t.json",
                **{**dict(repeats=2, warmup=0), **kwargs},
            )
            assert report.exit_code == 2, kwargs

    def test_no_trajectory_flag_writes_nothing(
        self, crime5_baselines, tmp_path
    ):
        trajectory = tmp_path / "BENCH_trajectory.json"
        report = run_check(
            baseline_directory=crime5_baselines,
            trajectory=trajectory,
            append_to_trajectory=False,
            thresholds=NO_WALL_CLOCK_GATE,
            **GATE_KW,
        )
        assert report.exit_code == 0
        assert not trajectory.exists()

    def test_targeted_update_preserves_other_entries(self, tmp_path):
        run_update(baseline_directory=tmp_path, **GATE_KW)
        before = read_suite_baseline("usecases", tmp_path)
        report = run_update(
            suites=["usecases"],
            benchmarks=["Crime6.ned"],
            repeats=2,
            warmup=0,
            baseline_directory=tmp_path,
        )
        assert report.exit_code == 0
        after = read_suite_baseline("usecases", tmp_path)
        assert set(after.entries) == {"Crime5.ned", "Crime6.ned"}
        # the untouched entry keeps its counters; its wall-clock is
        # rescaled to the new calibration so the file stays consistent
        assert (
            after.entries["Crime5.ned"].counters
            == before.entries["Crime5.ned"].counters
        )
        rescale = after.calibration_ms / before.calibration_ms
        assert math.isclose(
            after.entries["Crime5.ned"].median_ms,
            before.entries["Crime5.ned"].median_ms * rescale,
            rel_tol=1e-9,
        )

    def test_render_names_benchmark_and_status(
        self, crime5_baselines, tmp_path
    ):
        report = run_check(
            baseline_directory=crime5_baselines,
            trajectory=tmp_path / "t.json",
            **GATE_KW,
        )
        rendered = report.render()
        assert "Crime5.ned" in rendered
        assert "perf gate check" in rendered


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_update_then_check_json(self, tmp_path, capsys):
        base_args = [
            "--suite",
            "usecases",
            "--benchmark",
            "Crime5.ned",
            "--repeats",
            "2",
            "--warmup",
            "0",
            "--baseline-dir",
            str(tmp_path / "baselines"),
        ]
        assert gate_main(["update", *base_args]) == 0
        capsys.readouterr()
        trajectory = tmp_path / "BENCH_trajectory.json"
        report_file = tmp_path / "GATE_report.json"
        code = gate_main(
            [
                "check",
                *base_args,
                "--trajectory",
                str(trajectory),
                "--report",
                str(report_file),
                "--label",
                "cli-test",
                "--abs-floor-ms",
                "1e9",
                "--json",
            ]
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["status"] == "ok"
        assert printed["exit_code"] == 0
        assert printed["results"][0]["name"] == "Crime5.ned"
        # --report wrote the same machine-readable document
        written = json.loads(report_file.read_text(encoding="utf-8"))
        assert written["status"] == "ok"
        # the report subcommand renders the recorded entry
        code = gate_main(
            ["report", "--trajectory", str(trajectory)]
        )
        assert code == 0
        assert "cli-test" in capsys.readouterr().out

    def test_check_without_baselines_exits_2(self, tmp_path, capsys):
        code = gate_main(
            [
                "check",
                "--suite",
                "usecases",
                "--benchmark",
                "Crime5.ned",
                "--repeats",
                "1",
                "--baseline-dir",
                str(tmp_path),
                "--no-trajectory",
            ]
        )
        assert code == 2
        assert "no committed" in capsys.readouterr().out

    def test_negative_threshold_exits_2(self, capsys):
        code = gate_main(
            ["check", "--rel-tolerance", "-1", "--no-trajectory"]
        )
        assert code == 2

    def test_report_on_missing_trajectory(self, tmp_path, capsys):
        code = gate_main(
            ["report", "--trajectory", str(tmp_path / "none.json")]
        )
        assert code == 0
        assert "empty trajectory" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# full sweep (excluded from tier-1; the CI perf-gate job runs it)
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_full_sweep_update_then_check(tmp_path):
    """Every suite round-trips through update -> check clean."""
    directory = tmp_path / "baselines"
    update = run_update(
        repeats=2, warmup=0, baseline_directory=directory
    )
    assert update.exit_code == 0
    check = run_check(
        repeats=2,
        warmup=0,
        baseline_directory=directory,
        trajectory=tmp_path / "BENCH_trajectory.json",
    )
    assert check.exit_code == 0, check.render()
    # every suite the gate defines is checked, and nothing else
    suites = {result.suite for result in check.results}
    assert suites == set(SUITES)
