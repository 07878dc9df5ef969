"""The NedExplain algorithm (Sec. 3 of the paper, Algorithms 1-3).

Given a canonical query tree, a database instance, and a Why-Not
predicate, NedExplain:

1. unrenames the predicate (Def. 2.7) and runs once per resulting
   c-tuple (Alg. 1, outer loop);
2. computes the direct/indirect compatible sets (CompatibleFinder);
3. initializes ``TabQ`` and the secondary global structures;
4. visits the subqueries in decreasing-depth order, evaluating each
   manipulation on its input, finding the valid successors of the
   compatible tuples (Alg. 3), and recording picky subqueries -- both
   per blocked compatible origin (the ``(t_I, Q')`` pairs of Def. 2.12)
   and per violated aggregation condition (the ``(⊥, Q')`` pairs);
5. stops early when no compatible trace can survive
   (checkEarlyTermination, Alg. 2);
6. derives the secondary answer (Def. 2.14) from the survival of the
   indirect relations.

Phase timings (Initialization, CompatibleFinder, SuccessorsFinder,
Bottom-Up) are accumulated exactly as Fig. 5 of the paper reports them.
Each timed section reads the injectable clock of
:mod:`repro.obs.clock`; under an ambient tracer every section also
becomes a ``phase`` span whose duration *is* the accumulated
measurement, so per-phase span sums and ``report.phase_times_ms``
agree by construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..errors import (
    BudgetExceededError,
    CancelledError,
    ConfigurationError,
    EvaluationError,
    ReproError,
    WhyNotQuestionError,
)
from ..relational.algebra import Aggregate, Query, query_fingerprint
from ..relational.database import Database
from ..relational.evalcache import EvaluationCache
from ..relational.evaluator import EvaluationResult
from ..obs.clock import perf_counter
from ..obs.trace import current_tracer
from ..relational.instance import DatabaseInstance
from ..relational.tuples import Tuple
from ..robustness.budget import (
    Budget,
    ExecutionContext,
    current_context,
    execution_context,
)
from ..robustness.executor import CancellationToken, ParallelExecutor
from ..robustness.faults import fault_scope
from ..robustness.journal import BatchJournal
from ..robustness.outcomes import (
    FailureInfo,
    QuestionOutcome,
    ReplayedOutcome,
)
from .answers import DetailedEntry, NedExplainReport, WhyNotAnswer
from .canonical import CanonicalQuery
from .compatibility import (
    CompatibilitySets,
    CompatibleFinder,
    any_compatible,
)
from .successors import find_successors
from .tabq import TabEntry, TabQ, TabQPlan
from .unrename import unrename_ctuple
from .whynot_question import CTuple, Predicate, parse_predicate

if TYPE_CHECKING:  # runtime import would cycle through repro.baseline
    from ..baseline.whynot import WhyNotBaselineReport

#: The four phases of Fig. 5.
PHASES = ("Initialization", "CompatibleFinder", "SuccessorsFinder", "BottomUp")


class _PhaseTimer:
    """Times one section of a Fig. 5 phase.

    With tracing off: two reads of the injectable clock.  With tracing
    on: a ``phase`` span whose duration is *also* the value added to
    the engine's phase accumulator -- one measurement, two views, so
    ``sum(phase spans) == report.phase_times_ms`` exactly.  The section
    is recorded even when it unwinds on an exception (a degraded,
    budget-exhausted report still accounts the time it burned).
    """

    __slots__ = ("engine", "name", "_tracer", "_span", "_started")

    def __init__(self, engine: "NedExplain", name: str):
        self.engine = engine
        self.name = name

    def __enter__(self) -> "_PhaseTimer":
        self.engine._note_phase(self.name)
        self._tracer = current_tracer()
        if self._tracer is None:
            self._span = None
            self._started = perf_counter()
        else:
            self._span = self._tracer.start_span(
                self.name, category="phase", phase=self.name
            )
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._span is None:
            elapsed_ms = (perf_counter() - self._started) * 1000.0
        else:
            self._tracer.end_span(self._span)
            elapsed_ms = self._span.duration_ms
        self.engine._phases[self.name] += elapsed_ms
        return False


@dataclass
class NedExplainConfig:
    """Tunable behaviour of the algorithm.

    Alg. 1 always computes the secondary answer (Def. 2.14) and always
    reports when the "missing" answer is in fact present in the
    result; budgets are passed per call (``budget=``) or installed
    ambiently with :func:`~repro.robustness.budget.execution_context`.
    What remains tunable:

    ``early_termination`` toggles Alg. 2 (ablation A3 of DESIGN.md).
    ``use_shared_evaluation`` routes the bottom-up pass through one
    shared (cached) query evaluation instead of re-applying every
    manipulation per c-tuple; disabling it restores the paper's
    literal per-question loop (the oracle of the differential tests).
    ``use_columnar`` additionally runs that shared evaluation on the
    batch-at-a-time engine of :mod:`repro.columnar` (identical rows,
    lineage, and TabQ picks; the row engine stays the oracle); it
    selects only the evaluation engine, never how CompatibleFinder
    finds candidates, and it requires ``use_shared_evaluation``.
    """

    early_termination: bool = True
    use_shared_evaluation: bool = True
    use_columnar: bool = False


class NedExplain:
    """Reusable explainer for one canonical query over one database.

    Parameters
    ----------
    canonical:
        The canonicalized query (see :func:`repro.core.canonical.canonicalize`).
    database:
        A stored :class:`~repro.relational.database.Database`.  The
        query input instance is derived through the canonical alias
        mapping once, at construction; the engine answers over that
        snapshot, so later inserts into the database are not seen.
    instance:
        Alternatively, a ready-made query input instance.  Either way
        CompatibleFinder narrows through the hash indexes of the query
        input instance.
    cache:
        The :class:`~repro.relational.evalcache.EvaluationCache` the
        shared bottom-up evaluation is served from; without one the
        engine owns a private cache.  Pass one cache to several engines
        (or to a :class:`~repro.baseline.whynot.WhyNotBaseline`) to
        share evaluations between them.  Only consulted when
        ``config.use_shared_evaluation`` is on.
    """

    def __init__(
        self,
        canonical: CanonicalQuery,
        database: Database | None = None,
        instance: DatabaseInstance | None = None,
        config: NedExplainConfig | None = None,
        cache: EvaluationCache | None = None,
    ):
        if (database is None) == (instance is None):
            raise WhyNotQuestionError(
                "provide exactly one of database / instance"
            )
        self.canonical = canonical
        self.config = config or NedExplainConfig()
        if (
            self.config.use_columnar
            and not self.config.use_shared_evaluation
        ):
            raise ConfigurationError(
                "use_columnar requires use_shared_evaluation: the "
                "columnar engine evaluates the whole tree once and "
                "serves row views from the shared cache entry"
            )
        if database is not None:
            self.instance = database.input_instance(canonical.aliases)
        else:
            assert instance is not None
            self.instance = instance
        self.finder = CompatibleFinder(self.instance)
        self.cache = cache if cache is not None else EvaluationCache()
        # Facts fixed by the canonical tree, computed once and shared
        # read-only by every question and worker thread: TabQ's order,
        # levels, parents and aggregation checks, and the structural
        # half of the evaluation-cache key.
        self.plan = TabQPlan.build(canonical)
        self._fingerprint = query_fingerprint(
            canonical.root, canonical.aliases
        )
        # Per-explain mutable state lives in a threading.local: a
        # parallel batch runs explain() concurrently on one engine, and
        # each worker thread must see only its own question's shared
        # evaluation, phase accumulators, and TabQs.
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Per-thread explain state
    # ------------------------------------------------------------------
    @property
    def _shared(self) -> EvaluationResult | None:
        """The shared evaluation the current explain() call reads from
        (thread-local: one per concurrently explaining thread)."""
        return getattr(self._local, "shared", None)

    @_shared.setter
    def _shared(self, value: EvaluationResult | None) -> None:
        self._local.shared = value

    @property
    def _phases(self) -> dict[str, float]:
        phases = getattr(self._local, "phases", None)
        if phases is None:
            phases = {}
            self._local.phases = phases
        return phases

    @_phases.setter
    def _phases(self, value: dict[str, float]) -> None:
        self._local.phases = value

    @property
    def last_tabqs(self) -> list[TabQ]:
        """TabQ of each processed c-tuple from the last explain() call
        *on this thread* (a parallel batch's workers each keep their
        own; the submitting thread's list is untouched by them)."""
        tabqs = getattr(self._local, "last_tabqs", None)
        if tabqs is None:
            tabqs = []
            self._local.last_tabqs = tabqs
        return tabqs

    @last_tabqs.setter
    def last_tabqs(self, value: list[TabQ]) -> None:
        self._local.last_tabqs = value

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def explain(
        self,
        predicate: Predicate | CTuple | str,
        budget: Budget | None = None,
    ) -> NedExplainReport:
        """Answer a Why-Not question; returns the full report.

        With a *budget* (argument, or an ambient
        :func:`~repro.robustness.budget.execution_context` installed by
        the caller), exhaustion does not raise: the call returns a
        *degraded* report (``report.partial`` set, the partially-filled
        TabQ retained in ``last_tabqs``) holding every answer completed
        before the budget ran out.
        """
        predicate = self._coerce(predicate)
        predicate.validate_against(self.canonical.root)
        tracer = current_tracer()
        if tracer is None:
            if budget is not None and current_context() is None:
                with execution_context(ExecutionContext(budget)):
                    return self._explain_validated(predicate)
            return self._explain_validated(predicate)
        with tracer.span(
            "explain", category="run", predicate=str(predicate)
        ) as run_span:
            if budget is not None and current_context() is None:
                with execution_context(ExecutionContext(budget)):
                    report = self._explain_validated(predicate)
            else:
                report = self._explain_validated(predicate)
            run_span.set_tag("answers", len(report.answers))
            run_span.set_tag("partial", report.partial)
            return report

    def _explain_validated(self, predicate: Predicate) -> NedExplainReport:
        self._phases = {phase: 0.0 for phase in PHASES}
        self.last_tabqs = []
        answers: list[WhyNotAnswer] = []
        partial = False
        degraded_reason: str | None = None

        try:
            self._shared = None
            if self.config.use_shared_evaluation:
                # evaluation cost used to live in the per-entry
                # bottom-up pass; keep it in the same Fig. 5 phase for
                # comparability
                with _PhaseTimer(self, "BottomUp"):
                    self._shared = self.cache.get_or_evaluate(
                        self.canonical.root,
                        self.instance,
                        self.canonical.aliases,
                        engine=(
                            "columnar"
                            if self.config.use_columnar
                            else "row"
                        ),
                        fingerprint=self._fingerprint,
                    )

            with _PhaseTimer(self, "Initialization"):
                pairs: list[tuple[CTuple, CTuple]] = []
                for original in predicate:
                    for unrenamed in unrename_ctuple(
                        self.canonical.root, original
                    ):
                        pairs.append((original, unrenamed))

            for original, unrenamed in pairs:
                answer, tabq = self._explain_ctuple(unrenamed)
                if tabq is not None:
                    root_entry = tabq.entry(self.canonical.root)
                    # answer presence (Def. 2.8) reads the root's
                    # output, as BottomUp does, so it is timed there
                    with _PhaseTimer(self, "BottomUp"):
                        present = (
                            root_entry.output is not None
                            and any_compatible(root_entry.output, original)
                        )
                    if present:
                        answer.answer_not_missing = True
                    self.last_tabqs.append(tabq)
                answers.append(answer)
        except BudgetExceededError as exc:
            # Budgeted degradation: return what was completed plus a
            # best-effort answer for the in-flight c-tuple, explicitly
            # flagged -- never a bare traceback (cf. the approximate,
            # bounded-effort answers of Lee et al. 2020).
            partial = True
            degraded_reason = str(exc)
            if exc.partial_answer is not None:
                answers.append(exc.partial_answer)
            if exc.partial is not None:
                self.last_tabqs.append(exc.partial)
        return NedExplainReport(
            tuple(answers),
            dict(self._phases),
            partial=partial,
            degraded_reason=degraded_reason,
        )

    def explain_each(
        self,
        predicates: Iterable[Predicate | CTuple | str],
        budget: Budget | None = None,
        fallback_baseline: bool = False,
        journal: BatchJournal | None = None,
        workers: int = 1,
        cancel: CancellationToken | None = None,
    ) -> tuple[QuestionOutcome | ReplayedOutcome, ...]:
        """Fault-isolating batch: one outcome per question.

        Each question gets a fresh per-question
        :class:`~repro.robustness.budget.ExecutionContext` (built from
        *budget*) and resolves to
        either a report or a structured failure (error class, phase,
        budget spent) -- a failing question never takes the rest of the
        batch down, and an aborted evaluation never leaves a partial
        entry in the shared cache.  Unexpected non-library exceptions
        are wrapped in :class:`~repro.errors.EvaluationError` so the
        ``except ReproError`` contract holds for callers.

        Each question is resolved in exactly one attempt: the engine is
        deterministic in (query, instance, question), so re-running a
        failed question cannot change its outcome.

        *fallback_baseline*
            when the attempt fails, answer with the Why-Not baseline
            instead of failing
            (``outcome.degradation_level == "baseline"``,
            the answer in ``outcome.baseline``).
        *journal*
            a :class:`~repro.robustness.journal.BatchJournal`: every
            resolved outcome is appended and flushed as soon as it
            completes (``journal.close()`` fsyncs them), and questions
            a previous (killed) run already completed are replayed
            verbatim as
            :class:`~repro.robustness.outcomes.ReplayedOutcome`\\ s.
            A parallel batch appends in completion order; resume is by
            question identity (index + digest), so the merged result
            is still identical to an uninterrupted run.
        *workers*
            size of the worker pool (see
            :class:`~repro.robustness.executor.ParallelExecutor`);
            ``workers=1`` runs the same loop inline.  Ambient context
            (clock, tracer, budget context, fault scope) propagates to
            every worker; per-worker tracers and metrics are merged
            back into the caller's.  Outcomes are returned in
            submission order, and under a
            :class:`~repro.obs.clock.ManualClock` a ``workers=N`` run
            is byte-identical to the sequential one.
        *cancel*
            a :class:`~repro.robustness.executor.CancellationToken`
            (e.g. set from a SIGINT/SIGTERM handler): setting it drains
            the batch gracefully -- in-flight questions finish and are
            journalled, unstarted ones become ``"cancelled"`` outcomes.
            The batch only reads the token, never sets it.
        """
        executor = ParallelExecutor(workers=workers, cancel=cancel)

        def _replay(index, predicate):
            if journal is None:
                return None
            record = journal.completed(index, str(predicate))
            if record is None:
                return None
            return ReplayedOutcome(question=predicate, record=record)

        def _resolve(index, predicate):
            return self._resolve_outcome(
                predicate, budget, fallback_baseline
            )

        def _record(index, predicate, outcome):
            if journal is not None:
                journal.record(index, str(predicate), outcome.to_dict())

        def _on_cancelled(index, predicate, reason):
            error = CancelledError(
                f"question cancelled before start: {reason}",
                reason=reason,
            )
            return QuestionOutcome(
                question=predicate,
                failure=FailureInfo.from_error(error),
                error=error,
                degradation_level="cancelled",
            )

        return tuple(
            executor.run(
                predicates,
                _resolve,
                replay=_replay,
                record=_record,
                on_cancelled=_on_cancelled,
            )
        )

    def _resolve_outcome(
        self,
        predicate: Predicate | CTuple | str,
        budget: Budget | None,
        fallback_baseline: bool,
    ) -> QuestionOutcome:
        """One question, driven to an outcome: attempt -> optional
        Why-Not baseline rung -> structured failure.

        The resolution runs under a
        :func:`~repro.robustness.faults.fault_scope` keyed by the
        question, so question-scoped fault plans fire identically
        whether the batch is sequential or parallel."""
        context = ExecutionContext(budget)
        with fault_scope(str(predicate)):
            try:
                with execution_context(context):
                    report = self.explain(predicate)
            except ReproError as exc:
                error: ReproError = exc
            except Exception as exc:  # noqa: BLE001 -- containment
                error = EvaluationError(
                    f"unexpected {type(exc).__name__} while explaining "
                    f"{predicate!r}: {exc}"
                )
                error.__cause__ = exc
            else:
                return QuestionOutcome(question=predicate, report=report)
            failure = FailureInfo.from_error(
                error, phase=context.phase, spent=context.spent()
            )
            if fallback_baseline:
                baseline = self._baseline_answer(predicate)
                if baseline is not None:
                    return QuestionOutcome(
                        question=predicate,
                        failure=failure,
                        error=error,
                        baseline=baseline,
                    )
        return QuestionOutcome(
            question=predicate, failure=failure, error=error
        )

    def _baseline_answer(
        self, predicate: Predicate | CTuple | str
    ) -> WhyNotBaselineReport | None:
        """The baseline rung: the Why-Not (Chapman & Jagadish) answer
        to a question NedExplain failed on, or ``None`` if the baseline
        cannot resolve it either (e.g. the
        :class:`~repro.errors.UnsupportedQueryError` of aggregation
        queries, the paper's "n.a." rows).  The run is deliberately
        **uncached**: the shared evaluation cache may be the very site
        that failed."""
        from ..baseline.whynot import WhyNotBaseline

        tracer = current_tracer()
        try:
            question = self._coerce(predicate)
            # the baseline never checks a question against the query: a
            # malformed one must fail here, not come back as "(none)"
            question.validate_against(self.canonical.root)
            report = WhyNotBaseline(
                self.canonical, instance=self.instance, use_cache=False
            ).explain(question)
        except ReproError:
            if tracer is not None:
                tracer.metrics.counter("resilience.fallbacks.failed").inc()
            return None
        if tracer is not None:
            tracer.metrics.counter("resilience.fallbacks.baseline").inc()
        return report

    def _note_phase(self, name: str) -> None:
        """Point the ambient execution context at the running phase."""
        context = current_context()
        if context is not None:
            context.phase = name

    def _coerce(self, predicate: Predicate | CTuple | str) -> Predicate:
        if isinstance(predicate, str):
            return parse_predicate(predicate)
        if isinstance(predicate, CTuple):
            return Predicate.of(predicate)
        return predicate

    # ------------------------------------------------------------------
    # Alg. 1: main loop for one unrenamed c-tuple
    # ------------------------------------------------------------------
    def _explain_ctuple(
        self, tc: CTuple
    ) -> tuple[WhyNotAnswer, TabQ | None]:
        with _PhaseTimer(self, "CompatibleFinder"):
            compat = self.finder.find(tc)

        if compat.is_empty:
            return (
                WhyNotAnswer(ctuple=tc, no_compatible_data=True),
                None,
            )

        with _PhaseTimer(self, "Initialization"):
            tabq = TabQ(self.plan, self.instance, compat)

        detailed: list[DetailedEntry] = []
        try:
            for index in range(len(tabq)):
                entry = tabq[index]
                if self.config.early_termination and self._check_early_termination(
                    tabq, index
                ):
                    break
                self._process_entry(tabq, entry, compat, tc, detailed)
        except BudgetExceededError as exc:
            # Attach everything completed so far so the caller can
            # report a best-effort prefix of the answer (Alg. 1 cut
            # short mid-traversal).
            exc.partial = tabq
            exc.partial_answer = WhyNotAnswer(
                ctuple=tc, detailed=tuple(detailed), partial=True
            )
            raise

        with _PhaseTimer(self, "BottomUp"):
            picky_nodes = {id(e.subquery) for e in detailed}
            secondary = self._secondary_answer(tabq, compat, picky_nodes)

        answer = WhyNotAnswer(
            ctuple=tc,
            detailed=tuple(detailed),
            secondary=secondary,
            empty_outputs=tuple(
                e.node for e in tabq.empty_output_man
            ),
        )
        return answer, tabq

    def _process_entry(
        self,
        tabq: TabQ,
        entry: TabEntry,
        compat: CompatibilitySets,
        tc: CTuple,
        detailed: list[DetailedEntry],
    ) -> None:
        node = entry.node
        with _PhaseTimer(self, "BottomUp"):
            if self._shared is not None:
                # shared-evaluation path: per-node inputs/outputs are
                # the one cached evaluation's own lists (identical, by
                # construction, to what re-applying every manipulation
                # would produce), read and never copied
                if not entry.is_leaf:
                    entry.inputs = self._shared.inputs(node)
                entry.output = self._shared.output(node)
            else:
                if not entry.is_leaf:
                    entry.inputs = [
                        tabq.entry(child).output or []
                        for child in node.children
                    ]
                entry.output = node.apply(entry.inputs)
            parent = entry.parent
            if not entry.output:
                tabq.mark_empty(entry)

        if entry.is_leaf:
            if entry.compatibles:
                if parent is not None:
                    parent.add_compatibles(entry.compatibles)
                tabq.mark_non_picky(entry)
            return

        # Alg. 3: FindSuccessors
        with _PhaseTimer(self, "SuccessorsFinder"):
            step = find_successors(
                entry.output,
                entry.compatibles,
                compat.dir_tids,
                compat.indir_tids,
                children=(
                    self._shared.children_index(node)
                    if self._shared is not None and entry.compatibles
                    else None
                ),
            )
            if parent is not None:
                parent.add_compatibles(step.successors)
            if step.successors:
                tabq.mark_non_picky(entry)
            if step.blocked:
                tabq.mark_picky(entry, step.blocked)
            for origin in sorted(step.died):
                detailed.append(DetailedEntry(origin, node))

            # Aggregation-condition check (Def. 2.12, second part):
            # applies to nodes strictly above the breakpoint V of an
            # aggregation.
            aggregate = self.plan.aggregates.get(id(node))
            if aggregate is not None:
                tc_agg = tc.restricted_to(
                    set(aggregate.group_by)
                    | set(aggregate.aggregated_attributes)
                )
                if tc_agg is not None:
                    admits_in = self._admits(
                        aggregate, entry.compatibles, tc_agg
                    )
                    admits_out = self._admits(
                        aggregate, list(step.successors), tc_agg
                    )
                    already = any(
                        e.subquery is node and e.tid is not None
                        for e in detailed
                    )
                    if (
                        admits_in is True
                        and admits_out is False
                        and not already
                    ):
                        detailed.append(DetailedEntry(None, node))
                        if not step.blocked:
                            tabq.mark_picky(entry, ())

    # ------------------------------------------------------------------
    # Alg. 2: checkEarlyTermination
    # ------------------------------------------------------------------
    def _check_early_termination(self, tabq: TabQ, index: int) -> bool:
        if index == 0:
            return False
        entry = tabq[index]
        previous = tabq[index - 1]
        if entry.level == previous.level:
            return False
        # 1) any non-picky subquery at the previous (deeper) level?
        j = index - 1
        while j >= 0 and tabq[j].level == previous.level:
            if tabq[j] in tabq.non_picky_man:
                return False
            j -= 1
        # 2) any untouched relation leaf that could still introduce
        #    compatible tuples?
        k = index
        while k < len(tabq):
            if tabq[k].op == "relation schema":
                return False
            k += 1
        return True

    # ------------------------------------------------------------------
    # Aggregation-condition support
    # ------------------------------------------------------------------
    def _admits(
        self,
        aggregate: Aggregate,
        tuples: list[Tuple],
        tc_agg: CTuple,
    ) -> bool | None:
        """Does this tuple set still admit the constrained aggregate?

        Applies ``alpha_{G,F}`` to *tuples* (unless they already carry
        the aggregated attributes) and checks whether any resulting
        tuple is compatible with the G/Agg restriction of the c-tuple.
        Returns ``None`` when the check is not decidable at this node
        (attributes no longer visible).
        """
        needed_direct = tc_agg.type
        if tuples and needed_direct <= tuples[0].type:
            candidates = tuples
        elif not tuples or aggregate.needed_attributes <= tuples[0].type:
            candidates = aggregate.aggregate_tuples(tuples)
        else:
            return None
        return any_compatible(candidates, tc_agg)

    # ------------------------------------------------------------------
    # Def. 2.14: secondary answer
    # ------------------------------------------------------------------
    def _secondary_answer(
        self,
        tabq: TabQ,
        compat: CompatibilitySets,
        picky_nodes: set[int],
    ) -> tuple[Query, ...]:
        out: list[Query] = []
        seen: set[int] = set()
        for alias in sorted(compat.indirect_aliases):
            blocker = self._relation_blocker(tabq, alias)
            if blocker is None:
                continue
            node = blocker.node
            # complement the primary answer: a subquery already blamed
            # by the detailed answer is not repeated here
            if id(node) in picky_nodes or id(node) in seen:
                continue
            seen.add(id(node))
            out.append(node)
        return tuple(out)

    def _relation_blocker(
        self, tabq: TabQ, alias: str
    ) -> TabEntry | None:
        """Lowest evaluated subquery after which no tuple of *alias*
        has any (plain) successor."""
        leaf_entry = None
        for entry in tabq:
            if entry.is_leaf and entry.node.name == alias:
                leaf_entry = entry
                break
        # the relation's own tids, not an ``alias:`` prefix: a
        # hand-built instance may keep its tids verbatim
        tids = self.instance.relation(alias).tids
        if leaf_entry is None or not tids:
            return None  # empty stored relation: no d in I|S exists
        current: TabEntry | None = leaf_entry
        while current is not None and current.output is not None:
            alive = any(
                not tids.isdisjoint(t.lineage) for t in current.output
            )
            if not alive:
                return current
            current = current.parent
        return None
