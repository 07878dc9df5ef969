"""Why-Not answer types (Defs. 2.12-2.14 of the paper).

Three granularities are produced per c-tuple:

* **detailed** -- pairs ``(t_I, Q')`` of a direct compatible tuple and
  the subquery picky for it, plus ``(None, Q')`` pairs for subqueries
  violating the aggregation condition (the paper writes the latter as
  ``(null, m3)`` in use case Crime9);
* **condensed** -- just the set of picky subqueries;
* **secondary** -- subqueries after which an entire indirect relation
  disappears (empty intermediate results, Ex. 2.7 / use case Crime5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..relational.algebra import Query
from .whynot_question import CTuple


@dataclass(frozen=True)
class DetailedEntry:
    """One pair of the detailed answer.

    ``tid`` is the identifier of the picked compatible tuple, or
    ``None`` (the paper's ``⊥``/null) for an aggregation-condition
    violation.
    """

    tid: str | None
    subquery: Query

    @property
    def subquery_label(self) -> str:
        return self.subquery.name or self.subquery.describe()

    def to_dict(self) -> dict:
        """JSON-ready view (the ``--json`` CLI report format)."""
        return {"tid": self.tid, "subquery": self.subquery_label}

    def __repr__(self) -> str:
        who = self.tid if self.tid is not None else "null"
        return f"({who}, {self.subquery_label})"


@dataclass
class WhyNotAnswer:
    """All answers for one (unrenamed) c-tuple."""

    ctuple: CTuple
    detailed: tuple[DetailedEntry, ...] = ()
    secondary: tuple[Query, ...] = ()
    #: labels of subqueries with empty output (diagnostic)
    empty_outputs: tuple[Query, ...] = ()
    #: True when no source tuple was compatible with the c-tuple
    no_compatible_data: bool = False
    #: True when the "missing" answer is actually present in the result
    answer_not_missing: bool = False
    #: True when the traversal was cut short by an exhausted execution
    #: budget: the detailed entries are a best-effort prefix of the
    #: full answer, not the complete blame set
    partial: bool = False

    @property
    def condensed(self) -> tuple[Query, ...]:
        """The condensed answer: picky subqueries, deduplicated
        (Def. 2.13)."""
        seen: set[int] = set()
        out: list[Query] = []
        for entry in self.detailed:
            if id(entry.subquery) not in seen:
                seen.add(id(entry.subquery))
                out.append(entry.subquery)
        return tuple(out)

    @property
    def condensed_labels(self) -> tuple[str, ...]:
        return tuple(q.name or q.describe() for q in self.condensed)

    @property
    def secondary_labels(self) -> tuple[str, ...]:
        return tuple(q.name or q.describe() for q in self.secondary)

    @property
    def detailed_pairs(self) -> tuple[tuple[str | None, str], ...]:
        """Detailed answer as ``(tid, label)`` pairs for display."""
        return tuple(
            (entry.tid, entry.subquery_label) for entry in self.detailed
        )

    def is_empty(self) -> bool:
        return not self.detailed and not self.secondary

    def to_dict(self) -> dict:
        """JSON-ready view (the ``--json`` CLI report format)."""
        return {
            "ctuple": str(self.ctuple),
            "detailed": [entry.to_dict() for entry in self.detailed],
            "condensed": list(self.condensed_labels),
            "secondary": list(self.secondary_labels),
            "empty_outputs": [
                q.name or q.describe() for q in self.empty_outputs
            ],
            "no_compatible_data": self.no_compatible_data,
            "answer_not_missing": self.answer_not_missing,
            "partial": self.partial,
        }

    def __repr__(self) -> str:
        parts = [f"detailed={list(self.detailed)!r}"]
        if self.secondary:
            parts.append(f"secondary={list(self.secondary_labels)!r}")
        if self.no_compatible_data:
            parts.append("no_compatible_data=True")
        if self.answer_not_missing:
            parts.append("answer_not_missing=True")
        if self.partial:
            parts.append("partial=True")
        return f"WhyNotAnswer({', '.join(parts)})"


@dataclass
class NedExplainReport:
    """Full output of one NedExplain run over a predicate.

    The overall Why-Not answer of a predicate is the union of the
    answers of each (unrenamed) c-tuple (Sec. 2.5 / Sec. 3.1); the
    per-c-tuple breakdown is preserved because the paper reports union
    use cases (Gov7) as one answer set per c-tuple.
    """

    answers: tuple[WhyNotAnswer, ...] = ()
    #: milliseconds per phase: Initialization, CompatibleFinder,
    #: SuccessorsFinder, BottomUp (the four phases of Fig. 5)
    phase_times_ms: dict[str, float] = field(default_factory=dict)
    #: True when an execution budget ran out mid-run: the report is an
    #: explicit best-effort, degraded answer (see docs/robustness.md)
    partial: bool = False
    #: human-readable reason the run was degraded, when ``partial``
    degraded_reason: str | None = None

    def __iter__(self) -> Iterator[WhyNotAnswer]:
        return iter(self.answers)

    @property
    def detailed(self) -> tuple[DetailedEntry, ...]:
        """Union of the detailed answers over all c-tuples."""
        out: list[DetailedEntry] = []
        seen: set[tuple[str | None, int]] = set()
        for answer in self.answers:
            for entry in answer.detailed:
                key = (entry.tid, id(entry.subquery))
                if key not in seen:
                    seen.add(key)
                    out.append(entry)
        return tuple(out)

    @property
    def condensed(self) -> tuple[Query, ...]:
        seen: set[int] = set()
        out: list[Query] = []
        for answer in self.answers:
            for query in answer.condensed:
                if id(query) not in seen:
                    seen.add(id(query))
                    out.append(query)
        return tuple(out)

    @property
    def condensed_labels(self) -> tuple[str, ...]:
        return tuple(q.name or q.describe() for q in self.condensed)

    @property
    def secondary(self) -> tuple[Query, ...]:
        seen: set[int] = set()
        out: list[Query] = []
        for answer in self.answers:
            for query in answer.secondary:
                if id(query) not in seen:
                    seen.add(id(query))
                    out.append(query)
        return tuple(out)

    @property
    def secondary_labels(self) -> tuple[str, ...]:
        return tuple(q.name or q.describe() for q in self.secondary)

    @property
    def total_time_ms(self) -> float:
        return sum(self.phase_times_ms.values())

    @property
    def degradation_level(self) -> str:
        """The degradation level of this report: ``"full"`` or
        ``"partial"`` (``"cancelled"`` and ``"failed"`` have no report
        -- they live on the
        :class:`~repro.robustness.outcomes.QuestionOutcome`)."""
        return "partial" if self.partial else "full"

    def is_empty(self) -> bool:
        return all(answer.is_empty() for answer in self.answers)

    def to_dict(self) -> dict:
        """JSON-ready view (the ``--json`` CLI report format)."""
        return {
            "answers": [answer.to_dict() for answer in self.answers],
            "phase_times_ms": dict(self.phase_times_ms),
            "total_time_ms": self.total_time_ms,
            "partial": self.partial,
            "degraded_reason": self.degraded_reason,
            "degradation_level": self.degradation_level,
        }

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines: list[str] = []
        for index, answer in enumerate(self.answers):
            lines.append(f"c-tuple {index}: {answer.ctuple!r}")
            if answer.no_compatible_data:
                lines.append("  no compatible source data")
            if answer.answer_not_missing:
                lines.append("  the requested answer is not missing")
            if answer.detailed:
                rendered = ", ".join(repr(e) for e in answer.detailed)
                lines.append(f"  detailed : {rendered}")
                lines.append(
                    "  condensed: "
                    + ", ".join(answer.condensed_labels)
                )
            elif not answer.no_compatible_data:
                lines.append("  detailed : (empty)")
            if answer.partial:
                lines.append("  (partial: execution budget exhausted)")
            if answer.secondary:
                lines.append(
                    "  secondary: " + ", ".join(answer.secondary_labels)
                )
        if self.partial:
            reason = self.degraded_reason or "execution budget exhausted"
            lines.append(f"PARTIAL RESULT: {reason}")
        return "\n".join(lines)
