"""Deterministic fault injection for the chaos test suite.

A :class:`FaultPlan` decides, ahead of time and purely from a seed, at
which invocation of which named *site* an exception fires.  The
execution layers call :func:`fault_point` at their instrumented sites;
when no plan is installed the call is a single ``is None`` check, so
production runs pay nothing.

Instrumented sites (:data:`FAULT_SITES`):

``operator.apply``
    just before each operator evaluation in
    :func:`repro.relational.evaluator.evaluate`;
``cache.lookup`` / ``cache.store``
    around :meth:`repro.relational.evalcache.EvaluationCache.get_or_evaluate`
    -- the store site fires *after* evaluation but *before* the entry
    is retained, proving the cache never keeps partial results;
``csv.row``
    per data row in :func:`repro.relational.csv_io.load_database`;
``compatible.find``
    per c-tuple in
    :meth:`repro.core.compatibility.CompatibleFinder.find`.

Plans inject either an :class:`~repro.errors.InjectedFaultError`
(``kind="error"``) or a synthetic
:class:`~repro.errors.BudgetExceededError` (``kind="budget"``), so the
chaos suite exercises both failure containment and budgeted
degradation from the same harness.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..errors import (
    BudgetExceededError,
    ConfigurationError,
    InjectedFaultError,
)
from ..obs.trace import current_tracer

#: Every site wired with a :func:`fault_point` call.
FAULT_SITES: tuple[str, ...] = (
    "operator.apply",
    "cache.lookup",
    "cache.store",
    "csv.row",
    "compatible.find",
)

#: Disk-fault sites wired through the storage I/O shim
#: (:mod:`repro.storage.io`).  Kept out of :data:`FAULT_SITES` so the
#: engine chaos seeds (``FaultPlan.random`` with the default sites)
#: keep firing exactly where they always did; disk-fault chaos opts in
#: with ``sites=IO_FAULT_SITES``.  Unlike the engine sites, a firing
#: spec here does not merely raise: the shim *imitates the disk* --
#: ``io.write_short`` and ``io.enospc`` land a partial write before
#: failing, ``io.torn_rename`` leaves the temp file stranded, and
#: ``io.fsync_lost`` silently skips the fsync (a lying disk), which
#: only the crash-state harness can observe.
IO_FAULT_SITES: tuple[str, ...] = (
    "io.write_short",
    "io.torn_rename",
    "io.enospc",
    "io.eio",
    "io.fsync_lost",
)

#: Every instrumented site: engine and storage alike.
ALL_FAULT_SITES: tuple[str, ...] = FAULT_SITES + IO_FAULT_SITES

#: The two injectable failure kinds.
FAULT_KINDS: tuple[str, ...] = ("error", "budget")

#: Counter scopes a plan can fire on: ``"global"`` counts every
#: invocation of a site process-wide (order-dependent across questions
#: -- only meaningful for sequential batches); ``"question"`` counts
#: per ambient :func:`fault_scope` key, so a spec at ``site#n`` fires at
#: the n-th call *within each question* regardless of how questions
#: interleave across worker threads.
FAULT_SCOPES: tuple[str, ...] = ("global", "question")

#: The ambient per-question counter key (installed by
#: ``NedExplain._resolve_outcome`` for the span of one question).
_SCOPE: ContextVar[str | None] = ContextVar(
    "repro_fault_scope", default=None
)


@contextmanager
def fault_scope(key: str) -> Iterator[None]:
    """Install *key* as the ambient fault-counter scope for the block.

    Question-scoped plans (``FaultPlan(scope="question")``) count site
    invocations per key instead of globally, which is what makes a
    seeded plan fire identically whether the batch runs sequentially or
    on a worker pool."""
    token = _SCOPE.set(key)
    try:
        yield
    finally:
        _SCOPE.reset(token)


@dataclass(frozen=True)
class FaultSpec:
    """Fire once: at the ``at_call``-th invocation (0-based) of *site*."""

    site: str
    at_call: int
    kind: str = "error"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {FAULT_KINDS}"
            )
        if self.at_call < 0:
            raise ConfigurationError(
                f"at_call must be >= 0, got {self.at_call}"
            )

    def build_error(self) -> Exception:
        if self.kind == "budget":
            return BudgetExceededError(
                f"injected budget exhaustion at {self.site}"
                f"#{self.at_call}",
                resource="injected",
            )
        return InjectedFaultError(
            f"injected fault at {self.site}#{self.at_call}",
            site=self.site,
            call_index=self.at_call,
        )


class FaultPlan:
    """A deterministic schedule of faults over the named sites.

    ``calls`` counts every :func:`fault_point` invocation per site and
    ``fired`` records the specs that actually triggered, so tests can
    assert both coverage (the plan was reachable) and determinism (two
    runs of the same seed fire identically).

    All counter mutation happens under one internal lock, so
    ``snapshot()``/``delta()`` stay exact when ``fault_point`` is hit
    from several worker threads at once.  Firing *decisions* use the
    counters selected by ``scope`` (see :data:`FAULT_SCOPES`): the
    default global counters are inherently order-dependent across
    questions, while ``scope="question"`` keys them by the ambient
    :func:`fault_scope` so a plan fires identically under any worker
    interleaving.
    """

    def __init__(
        self,
        specs: Iterable[FaultSpec] = (),
        seed: int | None = None,
        scope: str = "global",
    ):
        if scope not in FAULT_SCOPES:
            raise ConfigurationError(
                f"unknown fault scope {scope!r}; choose from "
                f"{FAULT_SCOPES}"
            )
        self.specs = tuple(specs)
        self.seed = seed
        self.scope = scope
        self._by_site: dict[str, dict[int, FaultSpec]] = {}
        for spec in self.specs:
            self._by_site.setdefault(spec.site, {})[spec.at_call] = spec
        self._lock = threading.Lock()
        self.calls: dict[str, int] = {}
        #: per-``fault_scope``-key call counts (question scope only)
        self._scoped_calls: dict[str, dict[str, int]] = {}
        self.fired: list[FaultSpec] = []

    @classmethod
    def random(
        cls,
        seed: int,
        sites: Sequence[str] = FAULT_SITES,
        faults: int = 1,
        max_call: int = 12,
        budget_rate: float = 0.3,
        scope: str = "global",
    ) -> "FaultPlan":
        """A seeded plan: *faults* specs drawn uniformly over *sites*
        and call indexes ``[0, max_call)``; a ``budget_rate`` fraction
        injects budget exhaustion instead of a hard error."""
        rng = random.Random(seed)
        specs = []
        for _ in range(faults):
            specs.append(
                FaultSpec(
                    site=rng.choice(list(sites)),
                    at_call=rng.randrange(max_call),
                    kind="budget"
                    if rng.random() < budget_rate
                    else "error",
                )
            )
        return cls(specs, seed=seed, scope=scope)

    def fire(self, site: str) -> None:
        """Count one invocation of *site*; raise if a spec matches."""
        with self._lock:
            index = self.calls.get(site, 0)
            self.calls[site] = index + 1
            if self.scope == "question":
                key = _SCOPE.get()
                if key is not None:
                    per_site = self._scoped_calls.setdefault(key, {})
                    index = per_site.get(site, 0)
                    per_site[site] = index + 1
            spec = self._by_site.get(site, {}).get(index)
            if spec is not None:
                self.fired.append(spec)
        tracer = current_tracer()
        if tracer is not None:
            tracer.metrics.counter(f"faults.calls.{site}").inc()
            if spec is not None:
                tracer.metrics.counter(f"faults.fired.{site}").inc()
        if spec is not None:
            raise spec.build_error()

    def reset(self) -> None:
        """Forget all call counts and fired records (reuse a plan)."""
        with self._lock:
            self.calls = {}
            self._scoped_calls = {}
            self.fired = []

    def snapshot(self) -> dict[str, int]:
        """A frozen copy of the per-site call counts.

        Take one before a run and diff with :meth:`delta` after it to
        assert exactly which sites (and how many calls) that run
        consumed.
        """
        with self._lock:
            return dict(self.calls)

    def delta(self, since: dict[str, int]) -> dict[str, int]:
        """Per-site calls made after *since* (a :meth:`snapshot`).

        Only sites with a positive delta appear in the result.
        """
        out: dict[str, int] = {}
        with self._lock:
            for site, count in self.calls.items():
                consumed = count - since.get(site, 0)
                if consumed > 0:
                    out[site] = consumed
        return out

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, specs={list(self.specs)!r}, "
            f"fired={len(self.fired)})"
        )


#: The currently installed plan (module-global on purpose: one plan
#: governs the whole batch, including every worker thread of a
#: parallel run; production code never installs one).  The plan itself
#: is thread-safe -- its counters mutate under an internal lock.
_ACTIVE: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    return _ACTIVE


def fault_point(site: str) -> None:
    """Instrumentation hook: no-op unless a plan is installed."""
    if _ACTIVE is not None:
        _ACTIVE.fire(site)


@contextmanager
def inject(plan: FaultPlan, fresh: bool = True) -> Iterator[FaultPlan]:
    """Install *plan* for the duration of the block.

    By default the plan's counters are :meth:`~FaultPlan.reset` on
    entry, so a plan object reused across several ``inject`` blocks
    fires identically each time.  (Counters used to leak across
    reuses: the second block inherited the first block's call counts,
    silently shifting -- usually disabling -- every spec.)  Pass
    ``fresh=False`` to deliberately continue a previous block's
    schedule.
    """
    global _ACTIVE
    if fresh:
        plan.reset()
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous
