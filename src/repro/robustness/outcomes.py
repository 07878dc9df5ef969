"""Per-question outcomes of a fault-isolated batch.

A batch (``NedExplain.explain_each``) is total: one bad question -- an
oversized join, an unsupported query class, a corrupted input -- never
takes the rest down with it.  Every question resolves to a
:class:`QuestionOutcome` holding either a report or a structured
:class:`FailureInfo` (error class, phase, budget spent), in question
order, always N outcomes for N questions.

Each outcome also records *how* it was reached:
``degradation_level`` names the rung of the degradation ladder that
resolved the question -- ``"full"`` (a complete report),
``"partial"`` (a budget-degraded report), ``"baseline"`` (NedExplain
failed and the Why-Not baseline answered; the answer lives in
``outcome.baseline``, the triggering error in ``outcome.failure``),
or ``"failed"`` (nothing produced an answer).

A batch adds one more level, ``"cancelled"``: a cooperative drain
(SIGINT/SIGTERM, or the service shutting down) stopped the batch
before this question started.  In-flight questions always finish, so a
cancelled question simply never ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..errors import ReproError
from .budget import BudgetSpent

if TYPE_CHECKING:  # avoid a runtime cycle with repro.core / repro.baseline
    from ..baseline.whynot import WhyNotBaselineReport
    from ..core.answers import NedExplainReport

#: The rungs of the degradation ladder, best first.  ``cancelled``
#: is the one rung that is not about execution: the question produced
#: no answer because a drain stopped the batch before it *started*.
DEGRADATION_LEVELS: tuple[str, ...] = (
    "full",
    "partial",
    "baseline",
    "failed",
    "cancelled",
)


@dataclass(frozen=True)
class FailureInfo:
    """Structured description of one failed question."""

    #: class name of the :class:`~repro.errors.ReproError` subclass
    error_class: str
    message: str
    #: Fig. 5 phase active when the failure surfaced, if known
    phase: str | None = None
    #: budget charged to the question before it failed, if tracked
    spent: BudgetSpent | None = None

    @classmethod
    def from_error(
        cls,
        error: BaseException,
        phase: str | None = None,
        spent: BudgetSpent | None = None,
    ) -> "FailureInfo":
        return cls(
            error_class=type(error).__name__,
            message=str(error),
            phase=phase if phase is not None else getattr(
                error, "phase", None
            ),
            spent=spent if spent is not None else getattr(
                error, "spent", None
            ),
        )

    def to_dict(self) -> dict:
        """JSON-ready view (the ``--json`` CLI report format)."""
        return {
            "error_class": self.error_class,
            "message": self.message,
            "phase": self.phase,
            "spent": self.spent.to_dict()
            if self.spent is not None
            else None,
        }

    def describe(self) -> str:
        parts = [f"{self.error_class}: {self.message}"]
        if self.phase:
            parts.append(f"phase={self.phase}")
        if self.spent is not None:
            parts.append(
                f"spent rows={self.spent.rows} "
                f"comparisons={self.spent.comparisons} "
                f"elapsed={self.spent.elapsed_s:.3f}s"
            )
        return " | ".join(parts)


@dataclass(frozen=True)
class QuestionOutcome:
    """Resolution of one question of a batch: report, fallback, or failure."""

    #: outcomes computed in this process are never journal replays
    replayed = False

    question: Any
    report: "NedExplainReport | None" = None
    failure: FailureInfo | None = None
    #: the original exception, for callers that want to re-raise
    error: ReproError | None = None
    #: the ladder rung that resolved the question (see
    #: :data:`DEGRADATION_LEVELS`); derived when left at the default
    degradation_level: str = "full"
    #: the Why-Not baseline answer, when the ladder fell back to it
    baseline: "WhyNotBaselineReport | None" = None

    def __post_init__(self) -> None:
        if self.baseline is not None and self.report is not None:
            raise ValueError(
                "a baseline-fallback outcome carries no full report"
            )
        if self.baseline is None and (
            (self.report is None) == (self.failure is None)
        ):
            raise ValueError(
                "a QuestionOutcome carries exactly one of report / "
                "failure (or a baseline fallback)"
            )
        # derive a consistent level when the caller left the default
        if self.degradation_level == "full":
            if self.baseline is not None:
                object.__setattr__(self, "degradation_level", "baseline")
            elif self.report is None:
                object.__setattr__(self, "degradation_level", "failed")
            elif getattr(self.report, "partial", False):
                object.__setattr__(self, "degradation_level", "partial")
        if self.degradation_level not in DEGRADATION_LEVELS:
            raise ValueError(
                f"unknown degradation level "
                f"{self.degradation_level!r}; choose from "
                f"{DEGRADATION_LEVELS}"
            )

    @property
    def ok(self) -> bool:
        """True when *some* answer was produced -- a report at any
        ladder rung, including the baseline fallback."""
        return self.report is not None or self.baseline is not None

    @property
    def partial(self) -> bool:
        """True for a degraded (budget-exhausted) but usable report."""
        return self.report is not None and bool(
            getattr(self.report, "partial", False)
        )

    def to_dict(self) -> dict:
        """JSON-ready view (the ``--json`` CLI report format)."""
        return {
            "question": str(self.question),
            "ok": self.ok,
            "report": self.report.to_dict()
            if self.report is not None
            else None,
            "failure": self.failure.to_dict()
            if self.failure is not None
            else None,
            "degradation_level": self.degradation_level,
            "baseline": self.baseline.to_dict()
            if self.baseline is not None
            else None,
        }

    def unwrap(self) -> "NedExplainReport":
        """The report, or re-raise the question's original error."""
        if self.report is not None:
            return self.report
        if self.error is not None:
            raise self.error
        assert self.failure is not None
        raise ReproError(self.failure.describe())

    def __repr__(self) -> str:
        level = (
            f", level={self.degradation_level}"
            if self.degradation_level != "full"
            else ""
        )
        if self.ok:
            flag = " (partial)" if self.partial else ""
            return (
                f"QuestionOutcome(ok{flag}{level}, "
                f"{self.question!r})"
            )
        assert self.failure is not None
        return (
            f"QuestionOutcome(failed {self.failure.error_class}"
            f"{level}, {self.question!r})"
        )


@dataclass(frozen=True)
class ReplayedOutcome:
    """An outcome served verbatim from a :class:`~repro.robustness.journal.BatchJournal`.

    Resumed batches return these for questions a previous run already
    completed: the stored JSON record *is* the result (``to_dict``
    returns it unchanged, which is what makes a resumed ``--json``
    document identical to an uninterrupted run's), and no report object
    is reconstructed -- the question was not re-executed.
    """

    replayed = True
    #: live objects a replay cannot reconstruct
    report = None
    failure = None
    error = None
    baseline = None

    question: Any
    #: the ``QuestionOutcome.to_dict()`` payload stored in the journal
    record: dict

    @property
    def ok(self) -> bool:
        return bool(self.record.get("ok", False))

    @property
    def partial(self) -> bool:
        return self.degradation_level == "partial"

    @property
    def degradation_level(self) -> str:
        return str(self.record.get("degradation_level", "full"))

    def to_dict(self) -> dict:
        return dict(self.record)

    def __repr__(self) -> str:
        status = "ok" if self.ok else "failed"
        return f"ReplayedOutcome({status}, {self.question!r})"
