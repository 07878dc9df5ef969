"""The Why-Not algorithm (Chapman & Jagadish, SIGMOD 2009), bottom-up.

This is the paper's comparison baseline, re-implemented as described in
its Sections 1 and 4 -- *including the shortcomings the paper
documents*, which the test suite asserts explicitly:

* items matched per attribute-value by unqualified name (self-join
  confusion, scattered-value blindness) -- see
  :mod:`repro.baseline.unpicked`;
* plain (non-valid) successor tracing -- see
  :mod:`repro.baseline.tracing`;
* a constraint whose item reaches the final result makes the algorithm
  "believe the answer is not missing": no blame is reported for it
  (the Crime8 / Imdb2 behaviour);
* the returned *frontier* keeps only the picky manipulations closest
  to the sources (deepest in the tree), which is why the paper's
  Table 5 shows a single subquery per use case where NedExplain's
  detailed answer splits blame across several;
* no aggregation support: :class:`~repro.errors.UnsupportedQueryError`
  is raised (the "n.a." rows of Table 5);
* each item is traced independently over the full intermediate results
  (the per-item lineage lookups that, through Trio, dominated the
  original implementation's runtime -- the reason behind Fig. 6's
  ordering).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import UnsupportedQueryError
from ..obs.clock import perf_counter
from ..robustness.budget import (
    Budget,
    ExecutionContext,
    current_context,
    execution_context,
)
from ..relational.algebra import Aggregate, Difference, Query
from ..relational.database import Database
from ..relational.evalcache import EvaluationCache
from ..relational.evaluator import EvaluationResult, evaluate
from ..relational.instance import DatabaseInstance
from ..core.canonical import CanonicalQuery
from ..core.whynot_question import CTuple, Predicate, parse_predicate
from .tracing import ItemTrace, trace_item, trace_item_top_down
from .unpicked import UnpickedItem, find_unpicked_items


@dataclass
class WhyNotBaselineReport:
    """Output of one Why-Not run."""

    #: frontier picky manipulations (the algorithm's answer)
    answers: tuple[Query, ...] = ()
    #: all item traces, for inspection
    traces: tuple[ItemTrace, ...] = ()
    #: constraints whose items reached the result ("not missing")
    satisfied_constraints: tuple[str, ...] = ()
    #: wall-clock milliseconds, split in two phases
    phase_times_ms: dict[str, float] = field(default_factory=dict)

    @property
    def answer_labels(self) -> tuple[str, ...]:
        return tuple(q.name or q.describe() for q in self.answers)

    @property
    def total_time_ms(self) -> float:
        return sum(self.phase_times_ms.values())

    def is_empty(self) -> bool:
        return not self.answers

    def to_dict(self) -> dict:
        """JSON-ready view (the ``--json`` CLI report format; also the
        shape journalled for baseline-fallback outcomes)."""
        return {
            "answers": list(self.answer_labels),
            "satisfied_constraints": list(self.satisfied_constraints),
            "phase_times_ms": dict(self.phase_times_ms),
            "total_time_ms": self.total_time_ms,
        }

    def summary(self) -> str:
        lines = []
        if self.answers:
            lines.append("answers: " + ", ".join(self.answer_labels))
        else:
            lines.append("answers: (none)")
        if self.satisfied_constraints:
            lines.append(
                "believed not missing: "
                + ", ".join(self.satisfied_constraints)
            )
        return "\n".join(lines)


class WhyNotBaseline:
    """Bottom-up Why-Not over the same canonical trees as NedExplain.

    Parameters mirror :class:`~repro.core.nedexplain.NedExplain` so the
    benchmark harness can swap algorithms freely.  *cache* is the
    :class:`~repro.relational.evalcache.EvaluationCache` the query is
    evaluated through; pass the engine's ``cache`` to reuse its
    evaluation, or leave it out for a private cache.
    ``use_cache=False`` evaluates from scratch on every explain call
    (the uncached run of the baseline fallback rung).
    """

    def __init__(
        self,
        canonical: CanonicalQuery,
        database: Database | None = None,
        instance: DatabaseInstance | None = None,
        strategy: str = "bottom-up",
        cache: EvaluationCache | None = None,
        use_cache: bool = True,
    ):
        if (database is None) == (instance is None):
            raise UnsupportedQueryError(
                "provide exactly one of database / instance"
            )
        if strategy not in ("bottom-up", "top-down"):
            raise UnsupportedQueryError(
                f"unknown traversal strategy {strategy!r}; the original "
                "algorithm offers 'bottom-up' and 'top-down'"
            )
        self.strategy = strategy
        self.canonical = canonical
        if database is not None:
            self.instance = database.input_instance(canonical.aliases)
        else:
            assert instance is not None
            self.instance = instance
        #: None = evaluate from scratch on every explain call
        self.cache: EvaluationCache | None = None
        if use_cache:
            self.cache = cache if cache is not None else EvaluationCache()
        self._check_supported()

    def _check_supported(self) -> None:
        for node in self.canonical.root.postorder():
            if isinstance(node, Aggregate):
                raise UnsupportedQueryError(
                    "the Why-Not baseline does not support aggregation "
                    "(reported as n.a. in the paper's Table 5)"
                )
            if isinstance(node, Difference):
                raise UnsupportedQueryError(
                    "the Why-Not baseline handles monotone workflows "
                    "only; set difference is unsupported"
                )

    # ------------------------------------------------------------------
    def explain(
        self,
        predicate: Predicate | CTuple | str,
        budget: Budget | None = None,
    ) -> WhyNotBaselineReport:
        """Run the Why-Not algorithm for *predicate*.

        With a *budget*, evaluation and tracing are tick-checked; on
        exhaustion a :class:`~repro.errors.BudgetExceededError`
        propagates (the baseline has no notion of a partial answer --
        NedExplain's degraded reports are part of what the re-design
        adds over it).
        """
        if budget is not None and current_context() is None:
            with execution_context(ExecutionContext(budget)):
                return self.explain(predicate)
        if isinstance(predicate, str):
            predicate = parse_predicate(predicate)
        if isinstance(predicate, CTuple):
            predicate = Predicate.of(predicate)

        phases: dict[str, float] = {}
        started = perf_counter()
        items = find_unpicked_items(
            predicate, self.instance, self.canonical.root
        )
        phases["UnpickedFinder"] = (perf_counter() - started) * 1000.0

        started = perf_counter()
        # The original implementation evaluates the workflow through
        # Trio and then looks lineage up per item; we evaluate once
        # (served from the shared cache when enabled) and trace each
        # item independently over the intermediate results.
        if self.cache is not None:
            result = self.cache.get_or_evaluate(
                self.canonical.root, self.instance, self.canonical.aliases
            )
        else:
            result = evaluate(self.canonical.root, self.instance)
        tracer = (
            trace_item if self.strategy == "bottom-up"
            else trace_item_top_down
        )
        traces = tuple(
            tracer(self.canonical.root, result, item) for item in items
        )
        answers, satisfied = self._frontier(traces)
        phases["Tracing"] = (perf_counter() - started) * 1000.0

        return WhyNotBaselineReport(
            answers=answers,
            traces=traces,
            satisfied_constraints=satisfied,
            phase_times_ms=phases,
        )

    def _frontier(
        self, traces: tuple[ItemTrace, ...]
    ) -> tuple[tuple[Query, ...], tuple[str, ...]]:
        """Frontier picky manipulations over all traced items.

        A constraint with any surviving item is considered satisfied
        ("the answer is not missing") and produces no blame.  Among the
        remaining blamed manipulations, only the ones closest to the
        sources (maximal depth) are kept.
        """
        survived_constraints = {
            trace.item.constraint.attribute
            for trace in traces
            if trace.survived
        }
        blamed = [
            trace
            for trace in traces
            if not trace.survived
            and trace.item.constraint.attribute not in survived_constraints
            and trace.blamed is not None
        ]
        if not blamed:
            return (), tuple(sorted(survived_constraints))
        deepest = max(trace.blamed_depth for trace in blamed)
        seen: set[int] = set()
        answers: list[Query] = []
        for trace in blamed:
            if trace.blamed_depth != deepest:
                continue
            assert trace.blamed is not None
            if id(trace.blamed) not in seen:
                seen.add(id(trace.blamed))
                answers.append(trace.blamed)
        return tuple(answers), tuple(sorted(survived_constraints))
