"""Execution budgets and the cooperative :class:`ExecutionContext`.

Algorithm 1's full-tree evaluation is exactly where runaway joins blow
up: a single oversized intermediate result can stall a whole batch of
why-not questions.  This module bounds that risk the way provenance
middleware does it in practice (PUG's fail-clean engineering; the
bounded-effort, degraded summaries of Lee et al. 2020): an explicit
:class:`Budget` -- wall-clock deadline, max intermediate rows, max
tuple comparisons -- carried by an :class:`ExecutionContext` that the
execution layers tick cooperatively:

* the evaluator ticks ``rows`` once per operator output
  (:func:`repro.relational.evaluator.evaluate`);
* the join / selection / aggregation loops and the compatible-set and
  successor computations tick ``comparisons`` in small batches, which
  also bounds runaway work *inside* a single operator;
* every tick cheaply checks the deadline (comparisons are throttled to
  one clock read per :data:`DEADLINE_CHECK_EVERY` ticks).

Budget exhaustion raises
:class:`~repro.errors.BudgetExceededError` at the next tick -- the
granularity is cooperative, not preemptive -- carrying a
:class:`BudgetSpent` snapshot so callers can report how much work the
degraded answer consumed.

The context is ambient (a :class:`contextvars.ContextVar`) so that the
deep operator loops need no signature changes: wrap any library call in
:func:`execution_context` and the ticks below it are accounted::

    with execution_context(ExecutionContext(Budget(max_rows=10_000))):
        result = evaluate_query(root, database)

All wall-clock reads go through the injectable clock of
:mod:`repro.obs.clock` (the context captures the ambient clock at
construction), so budget and chaos tests drive deadlines with a
:class:`~repro.obs.clock.ManualClock` instead of sleeping.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

from ..errors import BudgetExceededError, ConfigurationError
from ..obs.clock import Clock, current_clock
from ..obs.trace import current_tracer

#: How many comparison ticks may pass between two wall-clock reads.
DEADLINE_CHECK_EVERY = 1024


def _check_limit(key: str, value: object, integer: bool) -> None:
    """Refuse a budget limit that bounds nothing or cannot be counted.

    A time limit must be a finite positive number (NaN compares false
    with everything, so it would otherwise slip through as "no
    deadline"); a row or comparison limit must be a positive integer.
    A bool is never a limit.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        ok = False
    elif integer:
        ok = isinstance(value, int) and value > 0
    else:
        try:
            ok = 0.0 < float(value) < math.inf
        except OverflowError:  # an int too large for a float
            ok = False
    if not ok:
        kind = "a positive integer" if integer else "positive and finite"
        raise ConfigurationError(
            f"budget {key} must be {kind}, got {value!r}"
        )


@dataclass(frozen=True)
class Budget:
    """Limits for one unit of work (one why-not question, typically).

    ``None`` disables the corresponding limit; the default budget is
    unlimited, so threading a context through fault-free code changes
    nothing observably.
    """

    #: wall-clock seconds from context creation
    deadline_s: float | None = None
    #: total intermediate rows produced across all operators
    max_rows: int | None = None
    #: total tuple comparisons (join probes, selections, compatibility
    #: and successor checks)
    max_comparisons: int | None = None

    def __post_init__(self) -> None:
        for key in ("deadline_s", "max_rows", "max_comparisons"):
            value = getattr(self, key)
            if value is not None:
                _check_limit(key, value, integer=key != "deadline_s")

    @property
    def is_unlimited(self) -> bool:
        return (
            self.deadline_s is None
            and self.max_rows is None
            and self.max_comparisons is None
        )

    @classmethod
    def from_request(cls, spec: object) -> "Budget | None":
        """Build a budget from a request-level mapping (the service
        API's ``budget`` object / ``X-Deadline-Ms`` header).

        Accepted keys: ``deadline_ms`` (milliseconds of wall clock),
        ``max_rows``, ``max_comparisons``.  ``None`` or an empty
        mapping yields ``None`` (no budget); anything else malformed --
        a non-mapping, unknown keys, a ``deadline_ms`` that is not a
        finite positive number, a ``max_rows`` or ``max_comparisons``
        that is not a positive integer -- raises
        :class:`~repro.errors.ConfigurationError` naming the key, so the
        caller can refuse the request instead of silently running it
        unbounded.
        """
        if spec is None:
            return None
        if not isinstance(spec, dict):
            raise ConfigurationError(
                f"budget must be an object, got {type(spec).__name__}"
            )
        unknown = set(spec) - {
            "deadline_ms", "max_rows", "max_comparisons",
        }
        if unknown:
            raise ConfigurationError(
                f"unknown budget key(s) {sorted(unknown)}; accepted: "
                "deadline_ms, max_rows, max_comparisons"
            )
        if not spec:
            return None

        for key in ("deadline_ms", "max_rows", "max_comparisons"):
            if spec.get(key) is not None:
                _check_limit(key, spec[key], integer=key != "deadline_ms")
        deadline_ms = spec.get("deadline_ms")
        return cls(
            deadline_s=(
                deadline_ms / 1000.0 if deadline_ms is not None else None
            ),
            max_rows=spec.get("max_rows"),
            max_comparisons=spec.get("max_comparisons"),
        )


@dataclass(frozen=True)
class BudgetSpent:
    """Snapshot of the work charged to one :class:`ExecutionContext`."""

    elapsed_s: float
    rows: int
    comparisons: int

    def to_dict(self) -> dict:
        """JSON-ready view (the ``--json`` CLI report format)."""
        return {
            "elapsed_s": self.elapsed_s,
            "rows": self.rows,
            "comparisons": self.comparisons,
        }

    def __repr__(self) -> str:
        return (
            f"BudgetSpent(elapsed_s={self.elapsed_s:.3f}, "
            f"rows={self.rows}, comparisons={self.comparisons})"
        )


class ExecutionContext:
    """Mutable accounting for one budgeted unit of work.

    Not thread-safe; create one context per question.  The ``phase``
    attribute is advisory: NedExplain keeps it pointing at the Fig. 5
    phase currently running so failure outcomes can report where the
    budget ran out.

    The context reads time through *clock* (default: the ambient
    :func:`repro.obs.clock.current_clock`), and -- when a tracer is
    active at construction -- mirrors its row/comparison accounting
    into the tracer's ``budget.rows`` / ``budget.comparisons``
    counters so traced runs expose the budget machinery's work.
    """

    def __init__(
        self, budget: Budget | None = None, clock: Clock | None = None
    ):
        self.budget = budget if budget is not None else Budget()
        self.clock = clock if clock is not None else current_clock()
        self.started = self.clock.monotonic()
        self.rows = 0
        self.comparisons = 0
        self.phase: str | None = None
        self._ticks_since_clock = 0
        tracer = current_tracer()
        if tracer is None:
            self._obs_rows = self._obs_comparisons = None
        else:
            self._obs_rows = tracer.metrics.counter("budget.rows")
            self._obs_comparisons = tracer.metrics.counter(
                "budget.comparisons"
            )

    def spent(self) -> BudgetSpent:
        return BudgetSpent(
            elapsed_s=self.clock.monotonic() - self.started,
            rows=self.rows,
            comparisons=self.comparisons,
        )

    # ------------------------------------------------------------------
    # Cooperative ticks
    # ------------------------------------------------------------------
    def tick_rows(self, n: int) -> None:
        """Charge *n* produced intermediate rows."""
        self.rows += n
        if self._obs_rows is not None:
            self._obs_rows.inc(n)
        limit = self.budget.max_rows
        if limit is not None and self.rows > limit:
            self._exhaust("rows", f"{self.rows} rows > limit {limit}")
        self.check_deadline()

    def tick_comparisons(self, n: int) -> None:
        """Charge *n* tuple comparisons (throttled deadline check)."""
        self.comparisons += n
        if self._obs_comparisons is not None:
            self._obs_comparisons.inc(n)
        limit = self.budget.max_comparisons
        if limit is not None and self.comparisons > limit:
            self._exhaust(
                "comparisons",
                f"{self.comparisons} comparisons > limit {limit}",
            )
        self._ticks_since_clock += n
        if self._ticks_since_clock >= DEADLINE_CHECK_EVERY:
            self._ticks_since_clock = 0
            self.check_deadline()

    def check_deadline(self) -> None:
        deadline = self.budget.deadline_s
        if deadline is None:
            return
        elapsed = self.clock.monotonic() - self.started
        if elapsed > deadline:
            self._exhaust(
                "deadline", f"{elapsed:.3f}s > deadline {deadline}s"
            )

    def _exhaust(self, resource: str, detail: str) -> None:
        raise BudgetExceededError(
            f"execution budget exhausted ({resource}): {detail}",
            resource=resource,
            spent=self.spent(),
            phase=self.phase,
        )


# ---------------------------------------------------------------------------
# Ambient context
# ---------------------------------------------------------------------------
_CURRENT: ContextVar[ExecutionContext | None] = ContextVar(
    "repro_execution_context", default=None
)


def current_context() -> ExecutionContext | None:
    """The ambient :class:`ExecutionContext`, or ``None``."""
    return _CURRENT.get()


@contextmanager
def execution_context(
    context: ExecutionContext,
) -> Iterator[ExecutionContext]:
    """Install *context* as the ambient execution context."""
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)
