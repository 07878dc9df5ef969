"""Robustness subsystem: execution budgets, fault isolation, chaos.

Production why-not services must fail cleanly and degrade gracefully
(cf. PUG's middleware engineering and the bounded-effort summaries of
Lee et al. 2020).  This package provides the three pieces:

* :mod:`~repro.robustness.budget` -- :class:`Budget` /
  :class:`ExecutionContext`: cooperative wall-clock / row / comparison
  limits threaded through every execution layer; exhaustion raises
  :class:`~repro.errors.BudgetExceededError` and NedExplain turns it
  into an explicit *degraded* report instead of nothing;
* :mod:`~repro.robustness.outcomes` -- :class:`QuestionOutcome` /
  :class:`FailureInfo`: the total, per-question result type of
  fault-isolated batches (``NedExplain.explain_each``);
* :mod:`~repro.robustness.faults` -- :class:`FaultPlan` and the
  :func:`fault_point` sites: deterministic, seedable fault injection
  used by the chaos test suite to prove failure containment.

Each question is resolved in one attempt, to a report or a recorded
failure.  Two more pieces make batches durable and concurrent:

* :mod:`~repro.robustness.journal` -- :class:`BatchJournal`, the
  write-ahead log (flushed per record, fsync-ed once at close) that
  lets a killed batch resume where it died;
* :mod:`~repro.robustness.executor` -- :class:`ParallelExecutor` /
  :class:`CancellationToken`: the plain worker pool behind
  ``NedExplain.explain_each(workers=N)``.  Outcomes come back in
  question order; the caller's token is the only outside stop (a
  graceful SIGINT/SIGTERM drain), and the pool only reads it.
"""

from ..errors import (
    BudgetExceededError,
    CancelledError,
    ConfigurationError,
    InjectedFaultError,
    JournalError,
    LoadShedError,
)
from .budget import (
    Budget,
    BudgetSpent,
    ExecutionContext,
    current_context,
    execution_context,
)
from .executor import CancellationToken, ParallelExecutor
from .faults import (
    ALL_FAULT_SITES,
    FAULT_KINDS,
    FAULT_SCOPES,
    FAULT_SITES,
    IO_FAULT_SITES,
    FaultPlan,
    FaultSpec,
    active_plan,
    fault_point,
    fault_scope,
    inject,
)
from .journal import BatchJournal, question_digest
from .outcomes import (
    DEGRADATION_LEVELS,
    FailureInfo,
    QuestionOutcome,
    ReplayedOutcome,
)

__all__ = [
    "BatchJournal",
    "Budget",
    "BudgetExceededError",
    "BudgetSpent",
    "CancellationToken",
    "CancelledError",
    "ConfigurationError",
    "DEGRADATION_LEVELS",
    "ExecutionContext",
    "ALL_FAULT_SITES",
    "FAULT_KINDS",
    "FAULT_SCOPES",
    "FAULT_SITES",
    "IO_FAULT_SITES",
    "FailureInfo",
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
    "JournalError",
    "LoadShedError",
    "ParallelExecutor",
    "QuestionOutcome",
    "ReplayedOutcome",
    "active_plan",
    "current_context",
    "execution_context",
    "fault_point",
    "fault_scope",
    "inject",
    "question_digest",
]
