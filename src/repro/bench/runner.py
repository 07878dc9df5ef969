"""Per-use-case measurement runner for the evaluation harness.

Runs one use case with NedExplain and/or the Why-Not baseline and
collects answers plus phase timings -- the raw material of the paper's
Table 5 (answers), Fig. 5 (NedExplain phase distribution) and Fig. 6
(total runtime comparison).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..baseline import WhyNotBaseline, WhyNotBaselineReport
from ..core import NedExplain, NedExplainConfig, NedExplainReport
from ..errors import (
    BudgetExceededError,
    ConfigurationError,
    UnsupportedQueryError,
)
from ..obs import Tracer, counter_values, tracing
from ..obs.clock import perf_counter
from ..relational.evalcache import EvaluationCache
from ..robustness.budget import (
    Budget,
    ExecutionContext,
    execution_context,
)
from ..workloads.usecases import UseCase, use_case_setup


@dataclass
class UseCaseResult:
    """Measured outcome of one use case."""

    use_case: UseCase
    ned: NedExplainReport
    whynot: WhyNotBaselineReport | None = None
    whynot_na: bool = False

    @property
    def ned_total_ms(self) -> float:
        return self.ned.total_time_ms

    @property
    def whynot_total_ms(self) -> float | None:
        if self.whynot is None:
            return None
        return self.whynot.total_time_ms

    def ned_answer_text(self) -> str:
        parts = []
        for answer in self.ned.answers:
            if answer.no_compatible_data:
                parts.append("{}")
                continue
            rendered = ", ".join(repr(e) for e in answer.detailed)
            parts.append("{" + rendered + "}")
        return " ; ".join(parts)

    def whynot_answer_text(self) -> str:
        if self.whynot_na:
            return "n.a."
        assert self.whynot is not None
        if self.whynot.is_empty():
            return "(none)"
        return ", ".join(self.whynot.answer_labels)


def run_use_case(
    name: str,
    scale: int = 1,
    run_baseline: bool = True,
    config: NedExplainConfig | None = None,
    budget: Budget | None = None,
) -> UseCaseResult:
    """Run one named use case with both algorithms.

    With a *budget*, NedExplain degrades to a partial report on
    exhaustion (``result.ned.partial``); the baseline, which has no
    partial-answer notion, is marked n.a. when its budget runs out so
    a runaway baseline cannot stall a benchmark sweep.

    Each call evaluates on a private cache, so where a budget cuts
    never depends on what earlier calls in the process evaluated.
    """
    use_case, database, canonical = use_case_setup(name, scale)
    cache = EvaluationCache()
    ned_engine = NedExplain(
        canonical, database=database, config=config, cache=cache
    )
    ned_report = ned_engine.explain(use_case.predicate, budget=budget)

    whynot_report: WhyNotBaselineReport | None = None
    whynot_na = False
    if run_baseline:
        try:
            baseline = WhyNotBaseline(
                canonical, database=database, cache=cache
            )
            whynot_report = baseline.explain(
                use_case.predicate, budget=budget
            )
        except (UnsupportedQueryError, BudgetExceededError):
            whynot_na = True
    return UseCaseResult(
        use_case=use_case,
        ned=ned_report,
        whynot=whynot_report,
        whynot_na=whynot_na,
    )


@dataclass(frozen=True)
class Measurement:
    """One benchmark's raw measurement: timing samples + counters.

    ``samples_ms`` are the wall-clock repeats (reduce them with
    :func:`reduce_samples`); ``counters`` is the deterministic counter
    snapshot of one dedicated traced run -- exact work accounting
    (``budget.rows``, ``budget.comparisons``, cache hits/misses,
    traversal steps) that does not vary with repeats or host speed.
    """

    name: str
    samples_ms: tuple[float, ...]
    counters: Mapping[str, int]

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)

    @property
    def mad_ms(self) -> float:
        return mad(self.samples_ms)


def mad(samples: "tuple[float, ...] | list[float]") -> float:
    """Median absolute deviation -- the robust noise width the gate
    uses for its bands (a single outlier repeat cannot widen it the
    way it would a standard deviation)."""
    if not samples:
        raise ConfigurationError("mad() of an empty sample set")
    center = statistics.median(samples)
    return statistics.median(abs(s - center) for s in samples)


def reduce_samples(
    samples: "tuple[float, ...] | list[float]",
) -> tuple[float, float]:
    """``(median, MAD)`` of a sample list (the gate's reduction)."""
    noise = mad(samples)  # validates non-emptiness
    return statistics.median(samples), noise


def measure(
    factory: Callable[[], Callable[[], object]],
    *,
    name: str,
    repeats: int = 5,
    warmup: int = 1,
) -> Measurement:
    """Measure one benchmark with warmups, repeats, and a counter run.

    *factory* builds a fresh zero-argument callable per run (a fresh
    engine, so every sample measures the cold path and no state leaks
    between samples).  The protocol is:

    1. *warmup* untimed runs (lazy indexes, interning, import costs);
    2. *repeats* timed runs collected as ``samples_ms``;
    3. one final run under a private tracer and an unlimited budget
       context, whose counter snapshot becomes ``counters``.

    The counter run is separate from the timed runs on purpose: tracing
    costs ~17% wall-clock, and the counters of a deterministic
    benchmark do not change across repeats.
    """
    if repeats < 1:
        raise ConfigurationError(
            f"repeats must be positive, got {repeats!r}"
        )
    if warmup < 0:
        raise ConfigurationError(
            f"warmup must be non-negative, got {warmup!r}"
        )
    for _ in range(warmup):
        factory()()
    samples = []
    for _ in range(repeats):
        call = factory()
        started = perf_counter()
        call()
        samples.append((perf_counter() - started) * 1000.0)
    tracer = Tracer()
    with tracing(tracer):
        # An explicit (unlimited) budget context makes the execution
        # layers mirror row/comparison ticks into the tracer's
        # budget.* counters even for engines that would not install
        # a context themselves.
        with execution_context(ExecutionContext(Budget())):
            factory()()
    counters = counter_values(tracer.metrics.snapshot())
    return Measurement(
        name=name, samples_ms=tuple(samples), counters=counters
    )


def use_case_factory(
    name: str,
    algorithm: str = "ned",
    scale: int = 1,
    engine: str = "row",
) -> Callable[[], Callable[[], object]]:
    """A :func:`measure` factory for one Table 4 use case.

    *algorithm* is ``"ned"`` (NedExplain) or ``"whynot"`` (the Why-Not
    baseline; raises :class:`~repro.errors.UnsupportedQueryError` for
    aggregation queries the baseline cannot trace).  *engine* routes
    evaluation through the row engine (the default, the differential
    oracle) or the columnar engine (``"columnar"``; NedExplain only).
    """
    if algorithm not in ("ned", "whynot"):
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; expected 'ned' or "
            "'whynot'"
        )
    if engine not in ("row", "columnar"):
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'row' or 'columnar'"
        )
    if engine == "columnar" and algorithm != "ned":
        raise ConfigurationError(
            "the whynot baseline has no columnar engine; use "
            "algorithm='ned' with engine='columnar'"
        )
    use_case, database, canonical = use_case_setup(name, scale)
    if algorithm == "whynot":
        # fail fast (unsupported query shape) at factory-build time
        WhyNotBaseline(canonical, database=database)
    config = (
        NedExplainConfig(use_columnar=True)
        if engine == "columnar"
        else None
    )

    def build() -> Callable[[], object]:
        # a fresh engine owns a fresh cache: every sample measures the
        # cold path, whatever earlier runs in the process evaluated
        if algorithm == "ned":
            runner = NedExplain(
                canonical, database=database, config=config
            )
        else:
            runner = WhyNotBaseline(canonical, database=database)
        return lambda: runner.explain(use_case.predicate)

    return build


def run_all(
    scale: int = 1,
    config: NedExplainConfig | None = None,
    budget: Budget | None = None,
) -> list[UseCaseResult]:
    """Run every use case of Table 4."""
    from ..workloads.usecases import USE_CASES

    return [
        run_use_case(uc.name, scale=scale, config=config, budget=budget)
        for uc in USE_CASES
    ]
