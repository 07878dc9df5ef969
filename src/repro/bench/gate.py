"""``repro.bench.gate`` -- the continuous benchmark regression gate.

The paper's claim is performance (NedExplain beats the Why-Not baseline
by orders of magnitude, Fig. 5/6); five PRs of caching, budgets and
parallelism optimized the hot paths -- but until now nothing *failed*
when one of them regressed.  This module is that gate:

* ``check`` re-measures the benchmark suites (warmups + median-of-k,
  MAD noise bands) and compares against the committed baselines in
  ``benchmarks/baselines/``.  Wall-clock comparisons are noise-aware
  (relative tolerance, MAD band, host-speed calibration), and a
  benchmark that exceeds its allowance is re-measured before the
  regression is reported.  The deterministic counters
  (``budget.rows``, ``budget.comparisons``, cache hits/misses,
  traversal steps) are compared **exactly**, so an algorithmic
  regression is caught even when CI wall-clock is too noisy to trust.
  Exit codes: 0 clean, 1 regression, 2 torn/stale baseline
  or usage error.  Every completed check appends one entry to
  ``BENCH_trajectory.json`` -- the perf trajectory over PRs.
* ``update`` re-measures and rewrites the baselines (the honest way to
  accept an intentional perf change -- see ``docs/benchmarking.md``).
* ``report`` renders the trajectory.

Usage::

    python -m repro.bench.gate check --json
    python -m repro.bench.gate update --suite usecases
    python -m repro.bench.gate report
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..errors import ConfigurationError
from ..obs.clock import perf_counter
from ..storage.backend import atomic_write_json
from .artifacts import bench_dir
from .baselines import (
    BaselineEntry,
    SuiteBaseline,
    baseline_dir,
    read_suite_baseline,
    write_suite_baseline,
)
from .runner import Measurement, measure, use_case_factory

TRAJECTORY_FORMAT = "repro.bench.trajectory"
TRAJECTORY_FORMAT_VERSION = 1

#: Scale factor the gate benchmarks run at (small: the gate must be
#: cheap enough to run on every PR).
GATE_SCALE = 1

#: Fresh rounds (host calibration, then the benchmark) a wall-clock
#: regression must survive before ``check`` reports it: a host stall
#: trips one measurement, a real slowdown trips every round.
CONFIRM_ROUNDS = 2


# ---------------------------------------------------------------------------
# Threshold algebra (property-tested in tests/test_gate.py)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Thresholds:
    """Noise-aware wall-clock comparison policy.

    A benchmark's runtime regression only *fails* when the median grew
    by more than every one of three slacks: an absolute floor (ignore
    sub-noise shifts on micro-benchmarks), a relative tolerance, and a
    multiple of the combined MAD noise band of the two runs.  Counters
    take no threshold at all -- they are exact.
    """

    rel_tolerance: float = 0.50
    noise_mult: float = 6.0
    abs_floor_ms: float = 0.5

    def __post_init__(self) -> None:
        for name in ("rel_tolerance", "noise_mult", "abs_floor_ms"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(
                    f"threshold {name} must be non-negative, got "
                    f"{value!r}"
                )


def allowed_regression_ms(
    baseline_median_ms: float,
    baseline_mad_ms: float,
    current_mad_ms: float,
    thresholds: Thresholds,
) -> float:
    """The largest median increase (ms) that is *not* a regression."""
    return max(
        thresholds.abs_floor_ms,
        thresholds.rel_tolerance * baseline_median_ms,
        thresholds.noise_mult * (baseline_mad_ms + current_mad_ms),
    )


def diff_counters(
    baseline: Mapping[str, int], current: Mapping[str, int]
) -> list[dict]:
    """Exact counter comparison: every differing name, both values.

    A counter present on only one side is a mismatch too -- new
    instrumentation (or lost instrumentation) must go through a
    baseline update, not slide by unnoticed.
    """
    mismatches = []
    for name in sorted(set(baseline) | set(current)):
        base_value = baseline.get(name)
        cur_value = current.get(name)
        if base_value != cur_value:
            mismatches.append(
                {
                    "counter": name,
                    "baseline": base_value,
                    "current": cur_value,
                }
            )
    return mismatches


@dataclass(frozen=True)
class CheckResult:
    """Verdict for one benchmark."""

    suite: str
    name: str
    status: str  # ok | improved | regression-time |
    #              regression-counters | missing-baseline
    median_ms: float | None = None
    mad_ms: float | None = None
    counters: Mapping[str, int] = field(default_factory=dict)
    baseline_median_ms: float | None = None
    adjusted_baseline_median_ms: float | None = None
    delta_ms: float | None = None
    allowed_delta_ms: float | None = None
    counter_mismatches: Sequence[dict] = ()
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status in (
            "regression-time",
            "regression-counters",
            "missing-baseline",
        )

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "status": self.status,
            "median_ms": self.median_ms,
            "mad_ms": self.mad_ms,
            "counters": dict(self.counters),
            "baseline_median_ms": self.baseline_median_ms,
            "adjusted_baseline_median_ms": (
                self.adjusted_baseline_median_ms
            ),
            "delta_ms": self.delta_ms,
            "allowed_delta_ms": self.allowed_delta_ms,
            "counter_mismatches": list(self.counter_mismatches),
            "detail": self.detail,
        }


def compare_measurement(
    suite: str,
    baseline: BaselineEntry,
    measurement: Measurement,
    calibration_ratio: float,
    thresholds: Thresholds,
) -> CheckResult:
    """Compare one measurement against its committed baseline.

    *calibration_ratio* is ``current_host_speed / baseline_host_speed``
    expressed as a runtime multiplier: the committed median and MAD,
    and the absolute floor (in baseline-host ms), are scaled by it
    before comparison, so a uniformly slower CI host does not read as
    a regression (and a faster one does not mask a real regression).
    The whole comparison is scale-invariant: multiplying every
    duration *and* the calibration by the same factor cannot change
    the verdict.
    """
    if calibration_ratio <= 0:
        raise ConfigurationError(
            f"calibration ratio must be positive, got "
            f"{calibration_ratio!r}"
        )
    adjusted_median = baseline.median_ms * calibration_ratio
    adjusted_mad = baseline.mad_ms * calibration_ratio
    mismatches = diff_counters(baseline.counters, measurement.counters)
    allowed = allowed_regression_ms(
        adjusted_median,
        adjusted_mad,
        measurement.mad_ms,
        replace(
            thresholds,
            abs_floor_ms=thresholds.abs_floor_ms * calibration_ratio,
        ),
    )
    delta = measurement.median_ms - adjusted_median
    if mismatches:
        status = "regression-counters"
        detail = (
            f"{len(mismatches)} counter(s) drifted from the committed "
            "baseline (counters are exact: update the baseline only "
            "for an intentional algorithmic change)"
        )
    elif delta > allowed:
        status = "regression-time"
        detail = (
            f"median {measurement.median_ms:.3f} ms exceeds adjusted "
            f"baseline {adjusted_median:.3f} ms by {delta:.3f} ms "
            f"(allowed {allowed:.3f} ms)"
        )
    elif -delta > allowed:
        status = "improved"
        detail = (
            f"median {measurement.median_ms:.3f} ms beats adjusted "
            f"baseline {adjusted_median:.3f} ms by {-delta:.3f} ms; "
            "consider `gate update` to lock in the gain"
        )
    else:
        status = "ok"
        detail = ""
    return CheckResult(
        suite=suite,
        name=measurement.name,
        status=status,
        median_ms=measurement.median_ms,
        mad_ms=measurement.mad_ms,
        counters=dict(measurement.counters),
        baseline_median_ms=baseline.median_ms,
        adjusted_baseline_median_ms=adjusted_median,
        delta_ms=delta,
        allowed_delta_ms=allowed,
        counter_mismatches=tuple(mismatches),
        detail=detail,
    )


# ---------------------------------------------------------------------------
# Host calibration
# ---------------------------------------------------------------------------
def _spin() -> int:
    total = 0
    for i in range(250_000):
        total += (i * 31) % 97
    return total


def calibrate(repeats: int = 5) -> float:
    """Median runtime (ms) of a fixed pure-Python spin loop.

    Recorded into every baseline at ``update`` time and re-measured at
    ``check`` time; the ratio rescales committed wall-clock numbers to
    the current host's speed.
    """
    samples = []
    for _ in range(repeats):
        started = perf_counter()
        _spin()
        samples.append((perf_counter() - started) * 1000.0)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Benchmark suites
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BenchmarkSpec:
    """One gated benchmark: a suite, a name, a measure() factory."""

    suite: str
    name: str
    factory: Callable[[], Callable[[], object]]


def _usecase_specs() -> list[BenchmarkSpec]:
    """Every Table 4 use case through NedExplain (Fig. 5/6 ned side)."""
    from ..workloads import USE_CASES

    return [
        BenchmarkSpec(
            "usecases",
            f"{uc.name}.ned",
            use_case_factory(uc.name, "ned", GATE_SCALE),
        )
        for uc in USE_CASES
    ]


def _whynot_specs() -> list[BenchmarkSpec]:
    """The Why-Not baseline side of Fig. 6 (supported queries only)."""
    from ..errors import UnsupportedQueryError
    from ..workloads import USE_CASES

    specs = []
    for uc in USE_CASES:
        try:
            factory = use_case_factory(uc.name, "whynot", GATE_SCALE)
        except UnsupportedQueryError:
            continue
        specs.append(
            BenchmarkSpec("whynot", f"{uc.name}.whynot", factory)
        )
    return specs


def _batch_specs() -> list[BenchmarkSpec]:
    """The bench_batch workload: one shared evaluation, N questions."""
    from ..core import NedExplain, canonicalize
    from ..relational import EvaluationCache
    from ..workloads import chain_database, chain_predicate, chain_query

    relations, rows = 3, 60
    database = chain_database(
        relations, rows_per_relation=rows, fanout=2, seed=7
    )
    canonical = canonicalize(chain_query(relations), database.schema)
    predicates = [f"(R0.label: r0v{i})" for i in range(10)]
    predicates.append(chain_predicate())
    predicates.append(f"(R{relations - 1}.label: r{relations - 1}v0)")

    def build() -> Callable[[], object]:
        cache = EvaluationCache()
        engine = NedExplain(
            canonical, database=database, cache=cache
        )
        return lambda: engine.explain_many(predicates)

    return [
        BenchmarkSpec(
            "batch", f"chain{relations}x{rows}.batched", build
        )
    ]


def _scaling_specs() -> list[BenchmarkSpec]:
    """The bench_scaling chain-depth workload (ablation A1)."""
    from ..core import NedExplain, canonicalize
    from ..workloads import chain_database, chain_predicate, chain_query

    from ..relational import EvaluationCache

    depth, rows = 5, 120
    database = chain_database(depth, rows_per_relation=rows)
    canonical = canonicalize(chain_query(depth), database.schema)

    def build() -> Callable[[], object]:
        engine = NedExplain(
            canonical, database=database, cache=EvaluationCache()
        )
        return lambda: engine.explain(chain_predicate())

    return [
        BenchmarkSpec("scaling", f"chain_depth{depth}.ned", build)
    ]


def _columnar_specs() -> list[BenchmarkSpec]:
    """Row vs columnar engine on join-heavy workloads.

    Paired eval-level benchmarks (same canonical tree, same hoisted
    input instance, only the engine differs) make the committed
    baselines *prove* the columnar speedup: the acceptance test in
    ``tests/test_columnar_gate.py`` asserts the row/columnar median
    ratio from these files, and the exact-counter comparison pins both
    engines to identical ``budget.*`` work totals.  A NedExplain
    end-to-end entry guards the ``use_columnar`` path as a whole.
    """
    from ..columnar import evaluate_columnar
    from ..core import NedExplain, NedExplainConfig, canonicalize
    from ..relational import EvaluationCache
    from ..relational.evaluator import evaluate
    from ..workloads import (
        scaling_join_database,
        scaling_join_query,
        use_case_setup,
    )

    gov_case, gov_db, gov_canonical = use_case_setup(
        "Gov5", GATE_SCALE
    )
    gov_instance = gov_db.input_instance(gov_canonical.aliases)
    sj_db = scaling_join_database()
    sj_canonical = canonicalize(scaling_join_query(), sj_db.schema)
    sj_instance = sj_db.input_instance(sj_canonical.aliases)

    def eval_factory(root, instance, engine):
        def build() -> Callable[[], object]:
            if engine == "row":
                return lambda: evaluate(root, instance)
            # the columnar engine keeps its per-cache-entry table and
            # index memos warm across repeats by design ("hash tables
            # built once per cache entry"); the warmup run pays them
            return lambda: evaluate_columnar(root, instance)

        return build

    specs = [
        BenchmarkSpec(
            "columnar", f"{label}.eval.{engine}",
            eval_factory(root, instance, engine),
        )
        for label, root, instance in (
            ("gov5", gov_canonical.root, gov_instance),
            ("scaling_join", sj_canonical.root, sj_instance),
        )
        for engine in ("row", "columnar")
    ]

    def ned_columnar() -> Callable[[], object]:
        engine = NedExplain(
            gov_canonical,
            database=gov_db,
            cache=EvaluationCache(),
            config=NedExplainConfig(use_columnar=True),
        )
        return lambda: engine.explain(gov_case.predicate)

    specs.append(
        BenchmarkSpec("columnar", "gov5.ned.columnar", ned_columnar)
    )
    return specs


#: suite name -> lazy spec builder (building a suite sets up its
#: databases, so only selected suites pay that cost)
SUITES: dict[str, Callable[[], list[BenchmarkSpec]]] = {
    "usecases": _usecase_specs,
    "whynot": _whynot_specs,
    "batch": _batch_specs,
    "scaling": _scaling_specs,
    "columnar": _columnar_specs,
}


def select_specs(
    suites: Sequence[str] | None = None,
    benchmarks: Sequence[str] | None = None,
) -> dict[str, list[BenchmarkSpec]]:
    """Resolve suite/benchmark filters to concrete specs per suite.

    Raises :class:`~repro.errors.ConfigurationError` for an unknown
    suite or a benchmark filter that matches nothing.
    """
    chosen = list(suites) if suites else sorted(SUITES)
    unknown = [s for s in chosen if s not in SUITES]
    if unknown:
        raise ConfigurationError(
            f"unknown suite(s) {', '.join(sorted(unknown))}; known "
            f"suites: {', '.join(sorted(SUITES))}"
        )
    selected: dict[str, list[BenchmarkSpec]] = {}
    for suite in chosen:
        specs = SUITES[suite]()
        if benchmarks:
            specs = [
                spec
                for spec in specs
                if spec.name in benchmarks
                or f"{suite}:{spec.name}" in benchmarks
            ]
        if specs:
            selected[suite] = specs
    if benchmarks:
        matched = {
            spec.name
            for specs in selected.values()
            for spec in specs
        } | {
            f"{suite}:{spec.name}"
            for suite, specs in selected.items()
            for spec in specs
        }
        missed = [b for b in benchmarks if b not in matched]
        if missed:
            raise ConfigurationError(
                f"benchmark filter(s) matched nothing: "
                f"{', '.join(sorted(missed))}"
            )
    return selected


# ---------------------------------------------------------------------------
# Trajectory (BENCH_trajectory.json)
# ---------------------------------------------------------------------------
def trajectory_path() -> Path:
    return bench_dir() / "BENCH_trajectory.json"


def _empty_trajectory() -> dict:
    return {
        "format": TRAJECTORY_FORMAT,
        "version": TRAJECTORY_FORMAT_VERSION,
        "entries": [],
    }


def read_trajectory(path: Path | str) -> dict:
    """Read and validate the trajectory document (missing file: empty).

    A torn or foreign file raises
    :class:`~repro.errors.ConfigurationError` -- the gate refuses to
    silently restart a trajectory that was being tracked.
    """
    path = Path(path)
    if not path.exists():
        return _empty_trajectory()
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigurationError(
            f"trajectory {path} is torn or corrupt: {exc}; move it "
            "aside to restart the trajectory"
        ) from exc
    if not isinstance(document, dict) or document.get("format") != (
        TRAJECTORY_FORMAT
    ):
        raise ConfigurationError(
            f"trajectory {path} is not a {TRAJECTORY_FORMAT} document"
        )
    if document.get("version") != TRAJECTORY_FORMAT_VERSION:
        raise ConfigurationError(
            f"trajectory {path} has unsupported version "
            f"{document.get('version')!r}"
        )
    if not isinstance(document.get("entries"), list):
        raise ConfigurationError(
            f"trajectory {path} is missing its entries list"
        )
    return document


def append_trajectory_entry(path: Path | str, entry: dict) -> None:
    """Append one entry atomically (temp file + rename)."""
    path = Path(path)
    document = read_trajectory(path)
    document["entries"].append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(path, document)


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


# ---------------------------------------------------------------------------
# Gate runs
# ---------------------------------------------------------------------------
@dataclass
class GateReport:
    """The machine-readable outcome of one ``check`` (or ``update``)."""

    command: str
    status: str  # ok | regression | error
    results: list[CheckResult] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    calibration_ms: float | None = None
    repeats: int | None = None
    warmup: int | None = None

    @property
    def exit_code(self) -> int:
        return {"ok": 0, "regression": 1}.get(self.status, 2)

    @property
    def regressions(self) -> list[CheckResult]:
        return [r for r in self.results if r.failed]

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "status": self.status,
            "exit_code": self.exit_code,
            "calibration_ms": self.calibration_ms,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "errors": list(self.errors),
            "regressions": [r.name for r in self.regressions],
            "results": [r.to_dict() for r in self.results],
        }

    def render(self) -> str:
        lines = [
            f"perf gate {self.command}: {self.status.upper()}",
        ]
        if self.calibration_ms is not None:
            lines.append(
                f"host calibration: {self.calibration_ms:.3f} ms"
            )
        if self.results:
            lines.append(
                f"{'benchmark':<28}{'status':<22}{'median':>10}"
                f"{'baseline*':>11}{'allowed +':>11}"
            )
            lines.append("-" * 82)
            for r in self.results:
                median = (
                    f"{r.median_ms:.3f}" if r.median_ms is not None
                    else "-"
                )
                base = (
                    f"{r.adjusted_baseline_median_ms:.3f}"
                    if r.adjusted_baseline_median_ms is not None
                    else "-"
                )
                allowed = (
                    f"{r.allowed_delta_ms:.3f}"
                    if r.allowed_delta_ms is not None
                    else "-"
                )
                lines.append(
                    f"{r.suite + ':' + r.name:<28}{r.status:<22}"
                    f"{median:>10}{base:>11}{allowed:>11}"
                )
                if r.status == "regression-counters":
                    for m in r.counter_mismatches:
                        lines.append(
                            f"    {m['counter']}: baseline "
                            f"{m['baseline']} != current {m['current']}"
                        )
                elif r.detail:
                    lines.append(f"    {r.detail}")
            lines.append(
                "(* committed baseline median rescaled to this host's "
                "calibration)"
            )
        for message in self.errors:
            lines.append(f"error: {message}")
        return "\n".join(lines)


def _measure_specs(
    selected: Mapping[str, Sequence[BenchmarkSpec]],
    repeats: int,
    warmup: int,
) -> dict[str, list[Measurement]]:
    measured: dict[str, list[Measurement]] = {}
    for suite, specs in selected.items():
        measured[suite] = [
            measure(
                spec.factory,
                name=spec.name,
                repeats=repeats,
                warmup=warmup,
            )
            for spec in specs
        ]
    return measured


def _confirm_regression(
    spec: BenchmarkSpec,
    entry: BaselineEntry,
    flagged: CheckResult,
    baseline_calibration_ms: float,
    thresholds: Thresholds,
    repeats: int,
    warmup: int,
) -> CheckResult:
    """Re-measure a wall-clock regression before reporting it.

    Each of :data:`CONFIRM_ROUNDS` rounds re-calibrates the host, then
    re-measures *spec* against its committed baseline.  The first
    round that is not a wall-clock regression is the verdict; a
    regression every round also shows is reported.  Tolerances are
    unchanged, and counters are exact in every round.
    """
    result = flagged
    for round_ in range(1, CONFIRM_ROUNDS + 1):
        ratio = calibrate() / baseline_calibration_ms
        measurement = measure(
            spec.factory, name=spec.name, repeats=repeats, warmup=warmup
        )
        result = compare_measurement(
            spec.suite, entry, measurement, ratio, thresholds
        )
        if result.status != "regression-time":
            return replace(
                result,
                detail=f"re-measurement {round_} cleared a first-run "
                f"excess of {flagged.delta_ms:.3f} ms (allowed "
                f"{flagged.allowed_delta_ms:.3f} ms)",
            )
    return replace(
        result,
        detail=f"{result.detail}; persisted over {CONFIRM_ROUNDS} "
        "re-measurements",
    )


def run_check(
    suites: Sequence[str] | None = None,
    benchmarks: Sequence[str] | None = None,
    repeats: int = 5,
    warmup: int = 1,
    thresholds: Thresholds | None = None,
    baseline_directory: Path | str | None = None,
    trajectory: Path | str | None = None,
    append_to_trajectory: bool = True,
    trajectory_label: str | None = None,
) -> GateReport:
    """Measure, compare against committed baselines, append trajectory.

    A wall-clock regression is reported only if it persists through
    :data:`CONFIRM_ROUNDS` re-measurements (:func:`_confirm_regression`).
    Never raises for gate-domain failures: configuration problems
    (torn/stale baselines, bad filters, corrupt trajectory) come back
    as an ``error`` report (exit code 2), regressions as ``regression``
    (exit code 1).
    """
    thresholds = thresholds if thresholds is not None else Thresholds()
    report = GateReport(
        command="check", status="ok", repeats=repeats, warmup=warmup
    )
    trajectory_file = Path(
        trajectory if trajectory is not None else trajectory_path()
    )
    try:
        selected = select_specs(suites, benchmarks)
        if append_to_trajectory:
            # validate *before* the expensive measurements so a torn
            # trajectory fails fast
            read_trajectory(trajectory_file)
        suite_baselines: dict[str, SuiteBaseline] = {
            suite: read_suite_baseline(suite, baseline_directory)
            for suite in selected
        }
        calibration = calibrate()
        report.calibration_ms = calibration
        measured = _measure_specs(selected, repeats, warmup)
    except ConfigurationError as exc:
        report.status = "error"
        report.errors.append(str(exc))
        return report

    for suite, measurements in measured.items():
        baseline = suite_baselines[suite]
        ratio = calibration / baseline.calibration_ms
        for spec, measurement in zip(selected[suite], measurements):
            entry = baseline.entries.get(measurement.name)
            if entry is None:
                report.results.append(
                    CheckResult(
                        suite=suite,
                        name=measurement.name,
                        status="missing-baseline",
                        median_ms=measurement.median_ms,
                        mad_ms=measurement.mad_ms,
                        counters=dict(measurement.counters),
                        detail=(
                            "no committed baseline entry; run "
                            "`python -m repro.bench.gate update "
                            f"--suite {suite}` and commit it"
                        ),
                    )
                )
                continue
            result = compare_measurement(
                suite, entry, measurement, ratio, thresholds
            )
            if result.status == "regression-time":
                result = _confirm_regression(
                    spec, entry, result, baseline.calibration_ms,
                    thresholds, repeats, warmup,
                )
            report.results.append(result)

    if any(r.failed for r in report.results):
        report.status = "regression"

    if append_to_trajectory:
        entry = {
            "timestamp": time.time(),
            "git_sha": _git_sha() or "unknown",
            "label": trajectory_label
            or os.environ.get("REPRO_TRAJECTORY_LABEL"),
            "status": report.status,
            "calibration_ms": report.calibration_ms,
            "repeats": repeats,
            "regressions": [r.name for r in report.regressions],
            "benchmarks": {
                r.name: {
                    "suite": r.suite,
                    "status": r.status,
                    "median_ms": r.median_ms,
                    "mad_ms": r.mad_ms,
                    "counters": dict(r.counters),
                }
                for r in report.results
            },
        }
        try:
            append_trajectory_entry(trajectory_file, entry)
        except (ConfigurationError, OSError) as exc:
            report.status = "error"
            report.errors.append(
                f"could not append to trajectory: {exc}"
            )
    return report


def run_update(
    suites: Sequence[str] | None = None,
    benchmarks: Sequence[str] | None = None,
    repeats: int = 5,
    warmup: int = 1,
    baseline_directory: Path | str | None = None,
) -> GateReport:
    """Re-measure and (re)write the committed baselines.

    With a benchmark filter, only the matching entries are replaced --
    the rest of the suite file is preserved, so a targeted update after
    an intentional change does not silently re-baseline everything.
    """
    report = GateReport(
        command="update", status="ok", repeats=repeats, warmup=warmup
    )
    try:
        selected = select_specs(suites, benchmarks)
        calibration = calibrate()
        report.calibration_ms = calibration
        measured = _measure_specs(selected, repeats, warmup)
    except ConfigurationError as exc:
        report.status = "error"
        report.errors.append(str(exc))
        return report

    for suite, measurements in measured.items():
        entries: dict[str, BaselineEntry] = {}
        try:
            existing = read_suite_baseline(suite, baseline_directory)
        except ConfigurationError:
            existing = None
        if existing is not None and benchmarks:
            # targeted update: keep the untouched entries, but rescale
            # them to this host's calibration so the file stays
            # internally consistent
            rescale = calibration / existing.calibration_ms
            entries.update(
                {
                    name: BaselineEntry(
                        median_ms=entry.median_ms * rescale,
                        mad_ms=entry.mad_ms * rescale,
                        repeats=entry.repeats,
                        counters=dict(entry.counters),
                    )
                    for name, entry in existing.entries.items()
                }
            )
        for measurement in measurements:
            entries[measurement.name] = BaselineEntry(
                median_ms=measurement.median_ms,
                mad_ms=measurement.mad_ms,
                repeats=repeats,
                counters=dict(measurement.counters),
            )
            report.results.append(
                CheckResult(
                    suite=suite,
                    name=measurement.name,
                    status="ok",
                    median_ms=measurement.median_ms,
                    mad_ms=measurement.mad_ms,
                    counters=dict(measurement.counters),
                    detail="baseline recorded",
                )
            )
        write_suite_baseline(
            SuiteBaseline(
                suite=suite,
                calibration_ms=calibration,
                entries=entries,
            ),
            baseline_directory,
        )
    return report


def render_trajectory(document: Mapping[str, Any], last: int = 10) -> str:
    """Text view of the most recent trajectory entries."""
    entries = document.get("entries", [])
    if not entries:
        return "(empty trajectory)"
    lines = [
        f"perf trajectory: {len(entries)} check run(s) recorded",
        f"{'#':>3} {'sha':<10}{'status':<12}{'benchmarks':>11}"
        f"{'regressions':>13}  label",
        "-" * 68,
    ]
    for index, entry in enumerate(entries[-last:], start=max(
        1, len(entries) - last + 1
    )):
        sha = entry.get("git_sha") or "-"
        label = entry.get("label") or ""
        lines.append(
            f"{index:>3} {sha:<10}{entry.get('status', '?'):<12}"
            f"{len(entry.get('benchmarks', {})):>11}"
            f"{len(entry.get('regressions', [])):>13}  {label}"
        )
    return "\n".join(lines)


def run_report(
    trajectory: Path | str | None = None, last: int = 10
) -> tuple[int, dict]:
    """Load the trajectory; returns ``(exit_code, document)``."""
    path = Path(
        trajectory if trajectory is not None else trajectory_path()
    )
    try:
        document = read_trajectory(path)
    except ConfigurationError as exc:
        return 2, {"status": "error", "errors": [str(exc)]}
    return 0, document


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def _add_measurement_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--suite",
        action="append",
        dest="suites",
        metavar="NAME",
        help=f"restrict to a suite ({', '.join(sorted(SUITES))}); "
        "repeatable",
    )
    parser.add_argument(
        "--benchmark",
        action="append",
        dest="benchmarks",
        metavar="NAME",
        help="restrict to one benchmark (e.g. Crime5.ned); repeatable",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed runs per benchmark"
    )
    parser.add_argument(
        "--warmup", type=int, default=1, help="untimed warmup runs"
    )
    parser.add_argument(
        "--baseline-dir",
        default=None,
        help="baseline directory (default: $REPRO_BASELINE_DIR or "
        "benchmarks/baselines)",
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.gate",
        description="benchmark regression gate with committed baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="measure and compare against committed baselines"
    )
    _add_measurement_args(check)
    check.add_argument(
        "--rel-tolerance",
        type=float,
        default=Thresholds.rel_tolerance,
        help="relative wall-clock slack (fraction of baseline median)",
    )
    check.add_argument(
        "--noise-mult",
        type=float,
        default=Thresholds.noise_mult,
        help="multiple of the combined MAD noise band",
    )
    check.add_argument(
        "--abs-floor-ms",
        type=float,
        default=Thresholds.abs_floor_ms,
        help="absolute floor below which median shifts never fail",
    )
    check.add_argument(
        "--trajectory",
        default=None,
        help="trajectory file (default: BENCH_trajectory.json in "
        "$REPRO_BENCH_DIR or cwd)",
    )
    check.add_argument(
        "--no-trajectory",
        action="store_true",
        help="do not append this run to the trajectory",
    )
    check.add_argument(
        "--label",
        default=None,
        help="label recorded in the trajectory entry "
        "(default: $REPRO_TRAJECTORY_LABEL)",
    )
    check.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the machine-readable report JSON to PATH",
    )
    check.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )

    update = sub.add_parser(
        "update", help="re-measure and rewrite the committed baselines"
    )
    _add_measurement_args(update)
    update.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )

    report_cmd = sub.add_parser(
        "report", help="render the perf trajectory"
    )
    report_cmd.add_argument("--trajectory", default=None)
    report_cmd.add_argument(
        "--last", type=int, default=10, help="entries to render"
    )
    report_cmd.add_argument(
        "--json", action="store_true", help="print the trajectory JSON"
    )

    args = parser.parse_args(argv)

    if args.command == "check":
        try:
            thresholds = Thresholds(
                rel_tolerance=args.rel_tolerance,
                noise_mult=args.noise_mult,
                abs_floor_ms=args.abs_floor_ms,
            )
        except ConfigurationError as exc:
            print(f"error: {exc}")
            return 2
        gate_report = run_check(
            suites=args.suites,
            benchmarks=args.benchmarks,
            repeats=args.repeats,
            warmup=args.warmup,
            thresholds=thresholds,
            baseline_directory=args.baseline_dir,
            trajectory=args.trajectory,
            append_to_trajectory=not args.no_trajectory,
            trajectory_label=args.label,
        )
        if args.report:
            Path(args.report).parent.mkdir(
                parents=True, exist_ok=True
            )
            Path(args.report).write_text(
                json.dumps(
                    gate_report.to_dict(), indent=2, sort_keys=True
                )
                + "\n",
                encoding="utf-8",
            )
        print(
            json.dumps(gate_report.to_dict(), indent=2, sort_keys=True)
            if args.json
            else gate_report.render()
        )
        return gate_report.exit_code

    if args.command == "update":
        gate_report = run_update(
            suites=args.suites,
            benchmarks=args.benchmarks,
            repeats=args.repeats,
            warmup=args.warmup,
            baseline_directory=args.baseline_dir,
        )
        print(
            json.dumps(gate_report.to_dict(), indent=2, sort_keys=True)
            if args.json
            else gate_report.render()
        )
        return gate_report.exit_code

    exit_code, document = run_report(args.trajectory, last=args.last)
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    elif exit_code == 0:
        print(render_trajectory(document, last=args.last))
    else:
        for message in document.get("errors", []):
            print(f"error: {message}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
