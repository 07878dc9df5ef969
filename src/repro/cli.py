"""Command-line interface for NedExplain.

Four subcommands:

* ``explain`` -- load a CSV database, run a SQL query, and answer a
  Why-Not question::

      python -m repro.cli explain --data ./mydb \\
          --sql "SELECT A.name FROM A WHERE A.dob > -800" \\
          --why-not "(A.name: Homer)" [--baseline] [--repairs]

* ``demo`` -- run one of the paper's use cases end to end::

      python -m repro.cli demo Crime5

* ``evaluate`` -- regenerate the answers table (Table 5) over all use
  cases::

      python -m repro.cli evaluate

* ``serve`` -- run the fault-tolerant why-not HTTP service
  (:mod:`repro.service`; API in ``docs/service.md``)::

      python -m repro.cli serve --port 8080 --workers 4 \\
          --shed-after 8 --journal-dir ./journal

Every subcommand accepts the shared observability/output options:

``--json``
    emit one machine-readable JSON document on stdout instead of the
    human-readable text (errors still go to stderr *and* into the
    document, so nothing ever interleaves on stdout);
``--trace FILE`` / ``--chrome-trace FILE``
    run under a :class:`repro.obs.Tracer` and export the span tree as
    a JSON-lines artifact / a ``chrome://tracing`` document;
``--metrics``
    report the run's metrics snapshot (cache hits, budget ticks,
    operator cardinalities).

All output flows through one :class:`OutputWriter`: human text to
stdout, errors to stderr, the ``--json`` document as the single stdout
payload of a structured run.  The CLI is a thin layer over the public
API; everything it prints comes from the library.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from typing import Any, Sequence, TextIO

from .baseline import WhyNotBaseline
from .core import NedExplain, NedExplainConfig
from .core.repairs import suggest_repairs, verify_repair
from .errors import ConfigurationError, ReproError, UnsupportedQueryError
from .obs import (
    ManualClock,
    Tracer,
    render_trace,
    tracing,
    use_clock,
    write_chrome_trace,
    write_trace_jsonl,
)
from .relational.csv_io import load_database
from .relational.evaluator import evaluate
from .relational.sql import sql_to_canonical
from .robustness import (
    BatchJournal,
    Budget,
    CancellationToken,
)

#: exit codes (the full table lives in docs/robustness.md):
#: 0 = success; 2 = fatal error; 3 = the run completed but degraded --
#: a batch with per-question failures or a budget-limited partial
#: report; 5 = a drain signal (SIGINT/SIGTERM) was received --
#: in-flight questions finished and were journaled, not-yet-started
#: ones were cancelled.  Precedence when several apply: 5 > 3.
EXIT_OK = 0
EXIT_ERROR = 2
EXIT_DEGRADED = 3
EXIT_DRAINED = 5

#: Environment hook: run the whole CLI on a ManualClock, so every
#: reported duration is deterministically 0.0 -- the kill/resume
#: differential test compares --json documents byte-for-byte this way.
MANUAL_CLOCK_ENV = "REPRO_MANUAL_CLOCK"

#: Default ``--json`` error envelope per nonzero exit code.  Every
#: nonzero exit carries ``document["error"] = {type, message,
#: exit_code}``; a raised :class:`~repro.errors.ReproError` overrides
#: the default with its own class name and message, so scripted
#: callers branch on one stable shape instead of scraping stderr.
_EXIT_ENVELOPES: dict[int, tuple[str, str]] = {
    EXIT_ERROR: ("ReproError", "fatal error"),
    EXIT_DEGRADED: (
        "DegradedResult",
        "the run completed but at least one answer was degraded "
        "(partial, failed or cancelled)",
    ),
    EXIT_DRAINED: (
        "BatchDrained",
        "a drain signal stopped the run; in-flight questions "
        "finished, the rest were cancelled",
    ),
}


class OutputWriter:
    """The single sink for everything the CLI emits.

    Text mode: ``line``/``block`` go to stdout, ``error`` to stderr.
    JSON mode: human lines are suppressed, structured fields accumulate
    in one document that :meth:`finish` prints as the *only* stdout
    payload (errors are still mirrored to stderr) -- so traces,
    metrics, reports, and errors can never interleave on stdout.
    """

    def __init__(
        self,
        json_mode: bool = False,
        stdout: TextIO | None = None,
        stderr: TextIO | None = None,
    ):
        self.json_mode = json_mode
        self._stdout = stdout if stdout is not None else sys.stdout
        self._stderr = stderr if stderr is not None else sys.stderr
        self.document: dict[str, Any] = {}
        self._errors: list[str] = []
        self._error_envelope: tuple[str, str] | None = None

    # -- human text ----------------------------------------------------
    def line(self, text: str = "") -> None:
        if not self.json_mode:
            print(text, file=self._stdout)

    def block(self, text: str) -> None:
        """A multi-line chunk (summaries, rendered tables)."""
        if not self.json_mode:
            print(text, file=self._stdout)

    def error(self, text: str) -> None:
        """Errors: stderr always, plus the JSON document in json mode."""
        self._errors.append(text)
        print(text, file=self._stderr)

    def note_error(self, error_type: str, message: str) -> None:
        """Pin the ``--json`` error envelope (first caller wins).

        Without a note, :meth:`finish` falls back to the generic
        envelope for the exit code, so *every* nonzero exit carries
        ``document["error"]``.
        """
        if self._error_envelope is None:
            self._error_envelope = (error_type, message)

    # -- structured document -------------------------------------------
    def set(self, key: str, value: Any) -> None:
        if self.json_mode:
            self.document[key] = value

    def append(self, key: str, value: Any) -> None:
        if self.json_mode:
            self.document.setdefault(key, []).append(value)

    def finish(self, exit_code: int) -> None:
        """Emit the JSON document (json mode); a no-op in text mode."""
        if not self.json_mode:
            return
        self.document["exit_code"] = exit_code
        if exit_code != EXIT_OK:
            error_type, message = (
                self._error_envelope
                if self._error_envelope is not None
                else _EXIT_ENVELOPES.get(
                    exit_code, ("ReproError", "fatal error")
                )
            )
            self.document["error"] = {
                "type": error_type,
                "message": message,
                "exit_code": exit_code,
            }
        if self._errors:
            self.document["errors"] = list(self._errors)
        json.dump(self.document, self._stdout, indent=2, default=str)
        self._stdout.write("\n")


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability and output")
    group.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document on stdout "
        "instead of human-readable text",
    )
    group.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="run under tracing and write a JSON-lines span trace",
    )
    group.add_argument(
        "--chrome-trace",
        dest="chrome_trace",
        metavar="FILE",
        default=None,
        help="run under tracing and write a chrome://tracing document",
    )
    group.add_argument(
        "--metrics",
        action="store_true",
        help="report the run's metrics snapshot (cache hits, budget "
        "ticks, operator cardinalities)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nedexplain",
        description="Query-based why-not provenance (EDBT 2014)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    explain = commands.add_parser(
        "explain", help="answer a why-not question over CSV data"
    )
    explain.add_argument(
        "--data", required=True, help="directory of CSV files"
    )
    explain.add_argument("--sql", required=True, help="the SQL query")
    explain.add_argument(
        "--why-not",
        required=True,
        dest="why_not",
        action="append",
        help="predicate, e.g. \"(A.name: Homer)\"; repeatable -- "
        "several questions against one query evaluation",
    )
    explain.add_argument(
        "--batch",
        action="store_true",
        help="answer all --why-not questions through explain_each "
        "(one shared query evaluation) and report cache statistics",
    )
    explain.add_argument(
        "--baseline",
        action="store_true",
        help="also run the Why-Not baseline for comparison",
    )
    explain.add_argument(
        "--repairs",
        action="store_true",
        help="suggest (and verify) selection relaxations (single "
        "question only; refused on the batch path)",
    )
    explain.add_argument(
        "--show-result",
        action="store_true",
        help="print the query result first",
    )
    explain.add_argument(
        "--columnar",
        action="store_true",
        help="evaluate queries batch-at-a-time on the columnar "
        "engine (docs/columnar.md); answers are identical to the "
        "row engine, joins are substantially faster",
    )
    explain.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock execution budget; on exhaustion a partial "
        "(degraded) answer is printed and the exit code is 3",
    )
    explain.add_argument(
        "--max-rows",
        type=int,
        default=None,
        dest="max_rows",
        metavar="N",
        help="cap on intermediate rows materialized per question",
    )
    explain.add_argument(
        "--max-comparisons",
        type=int,
        default=None,
        dest="max_comparisons",
        metavar="N",
        help="cap on tuple comparisons performed per question",
    )
    resilience = explain.add_argument_group("resilience")
    resilience.add_argument(
        "--journal",
        metavar="FILE",
        default=None,
        help="write-ahead log of per-question outcomes (JSONL, "
        "checksum per record, one fsync at the end)",
    )
    resilience.add_argument(
        "--resume",
        action="store_true",
        help="replay completed questions from --journal and compute "
        "only the remainder",
    )
    parallel = explain.add_argument_group("parallel execution")
    parallel.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker threads for the batch (default: 1, inline "
        "sequential); results are always in submission order",
    )
    _add_common_options(explain)

    demo = commands.add_parser(
        "demo", help="run one of the paper's use cases"
    )
    demo.add_argument("use_case", help="e.g. Crime5, Imdb2, Gov7")
    demo.add_argument(
        "--columnar",
        action="store_true",
        help="evaluate the use case on the columnar engine",
    )
    _add_common_options(demo)

    evaluate = commands.add_parser(
        "evaluate", help="run all use cases and print the answers table"
    )
    _add_common_options(evaluate)

    serve = commands.add_parser(
        "serve",
        help="run the why-not HTTP service (see docs/service.md)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port; 0 picks a free port (default: 8080)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="cap on worker threads per batch request (default: 4)",
    )
    serve.add_argument(
        "--shed-after",
        dest="shed_after",
        type=int,
        default=None,
        metavar="N",
        help="admit at most N concurrent work requests; beyond that, "
        "arrivals are shed with HTTP 429 + Retry-After",
    )
    serve.add_argument(
        "--journal-dir",
        dest="journal_dir",
        default=None,
        metavar="DIR",
        help="directory for crash-safe request journaling; batches "
        "interrupted by a crash are re-run on restart",
    )
    serve.add_argument(
        "--request-timeout",
        dest="request_timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-connection socket timeout; a stalled client gets "
        "HTTP 408 and its connection closed; 0 disables "
        "(default: 30)",
    )
    serve.add_argument(
        "--drain-timeout",
        dest="drain_timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long a drain waits for in-flight requests before "
        "forcing shutdown (default: 10)",
    )
    _add_common_options(serve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if os.environ.get(MANUAL_CLOCK_ENV):
        # deterministic-clock mode: every measured duration is 0.0, so
        # two runs over the same inputs emit identical --json documents
        with use_clock(ManualClock()):
            return _main(argv)
    return _main(argv)


def _main(argv: Sequence[str] | None) -> int:
    args = build_parser().parse_args(argv)
    writer = OutputWriter(json_mode=getattr(args, "json", False))
    writer.set("command", args.command)
    want_tracing = bool(
        getattr(args, "trace", None)
        or getattr(args, "chrome_trace", None)
        or getattr(args, "metrics", False)
    )
    tracer = Tracer() if want_tracing else None
    code = EXIT_ERROR
    try:
        try:
            if tracer is not None:
                with tracing(tracer):
                    code = _dispatch(args, writer)
            else:
                code = _dispatch(args, writer)
        except ReproError as exc:
            writer.error(f"error: {exc}")
            writer.note_error(type(exc).__name__, str(exc))
            code = EXIT_ERROR
        if tracer is not None:
            _export_observability(args, tracer, writer)
    finally:
        writer.finish(code)
    return code


def _dispatch(args, writer: OutputWriter) -> int:
    if args.command == "explain":
        return _run_explain(args, writer)
    if args.command == "demo":
        return _run_demo(args, writer)
    if args.command == "serve":
        return _run_serve(args, writer)
    return _run_evaluate(writer)


def _export_observability(
    args, tracer: Tracer, writer: OutputWriter
) -> None:
    """Write the requested trace/metrics artifacts, post-run."""
    if getattr(args, "trace", None):
        path = write_trace_jsonl(tracer, args.trace)
        writer.line(f"trace written to {path}")
        writer.set("trace_file", str(path))
    if getattr(args, "chrome_trace", None):
        path = write_chrome_trace(tracer, args.chrome_trace)
        writer.line(f"chrome trace written to {path}")
        writer.set("chrome_trace_file", str(path))
    if getattr(args, "metrics", False):
        snapshot = tracer.metrics.snapshot()
        writer.set("metrics", snapshot)
        if not writer.json_mode:
            writer.line()
            writer.line("metrics:")
            for name, data in snapshot.items():
                if data["type"] == "histogram":
                    writer.line(
                        f"  {name}: count={data['count']} "
                        f"sum={data['sum']:.1f} mean={data['mean']:.2f}"
                    )
                else:
                    writer.line(f"  {name}: {data['value']}")
        if writer.json_mode:
            writer.set("trace_summary", tracer.phase_totals_ms())
        elif not getattr(args, "trace", None):
            writer.line()
            writer.line("trace tree:")
            writer.block(render_trace(tracer))


def _config_from(args) -> NedExplainConfig | None:
    """The engine config implied by the flags (None = defaults)."""
    if getattr(args, "columnar", False):
        return NedExplainConfig(use_columnar=True)
    return None


def _budget_from(args) -> Budget | None:
    limits = (
        getattr(args, "timeout", None),
        getattr(args, "max_rows", None),
        getattr(args, "max_comparisons", None),
    )
    if all(limit is None for limit in limits):
        return None
    return Budget(
        deadline_s=limits[0],
        max_rows=limits[1],
        max_comparisons=limits[2],
    )


def _run_explain(args, writer: OutputWriter) -> int:
    database = load_database(args.data)
    canonical = sql_to_canonical(args.sql, database.schema)
    writer.set("sql", args.sql)
    writer.set("canonical", canonical.pretty())
    writer.line("canonical query tree:")
    writer.block(canonical.pretty())
    writer.line()
    if args.show_result:
        result = evaluate(
            canonical.root, database.input_instance(canonical.aliases)
        )
        rows = result.result_values()
        writer.set("query_result", rows)
        writer.line("query result:")
        for row in rows:
            writer.line(f"   {row}")
        writer.line()

    questions = list(args.why_not)
    writer.set("questions", questions)
    writer.set("engine", "columnar" if args.columnar else "row")
    budget = _budget_from(args)
    if args.resume and not args.journal:
        raise ConfigurationError("--resume requires --journal FILE")
    if (
        args.batch
        or len(questions) > 1
        or args.journal
        or args.workers > 1
    ):
        # every resilience feature runs through the outcome-producing
        # batch path, even for a single question
        if args.repairs:
            raise ConfigurationError(
                "--repairs explains one question at a time; it cannot "
                "be combined with several --why-not, --batch, "
                "--journal or --workers > 1"
            )
        return _run_explain_batch(
            args, writer, database, canonical, questions, budget
        )

    engine = NedExplain(
        canonical, database=database, config=_config_from(args)
    )
    report = engine.explain(questions[0], budget=budget)
    writer.append("reports", report.to_dict())
    writer.line("NedExplain:")
    writer.block(report.summary())

    if args.repairs:
        writer.line()
        suggestions = suggest_repairs(engine, report)
        if not suggestions:
            writer.line(
                "no selection relaxation can unblock this answer"
            )
        for suggestion in suggestions:
            verified = verify_repair(engine, suggestion)
            writer.append("repairs", str(verified))
            writer.line(f"repair: {verified}")

    if args.baseline:
        writer.line()
        try:
            baseline = WhyNotBaseline(
                canonical, database=database, cache=engine.cache
            )
            summary = baseline.explain(questions[0]).summary()
            writer.set("baseline", summary)
            writer.line("Why-Not baseline:")
            writer.block(summary)
        except UnsupportedQueryError as exc:
            writer.set("baseline", f"n.a. ({exc})")
            writer.line(f"Why-Not baseline: n.a. ({exc})")
    return EXIT_DEGRADED if report.partial else EXIT_OK


def _run_explain_batch(
    args, writer: OutputWriter, database, canonical, questions, budget
) -> int:
    """Batched mode: N questions, one shared query evaluation.

    Fault-isolating: every question resolves to a report or a recorded
    failure; one bad question never drops the rest of the batch.  The
    exit code is 3 (not 0) when any question failed or was degraded,
    and 5 when a SIGINT/SIGTERM triggered a graceful drain (precedence
    5 > 3).
    """
    journal = None
    if args.journal:
        journal = BatchJournal(args.journal, resume=args.resume)
        writer.set("journal", str(journal.path))

    engine = NedExplain(
        canonical, database=database, config=_config_from(args)
    )
    cache = engine.cache

    # Graceful drain: the first SIGINT/SIGTERM cancels the batch's
    # admission (in-flight questions finish and are journaled); a
    # second signal restores the default disposition and re-raises
    # itself, so a stuck batch can still be killed the usual way.
    cancel = CancellationToken()
    drain_signal: list[str] = []

    def _drain_handler(signum, frame) -> None:
        name = signal.Signals(signum).name
        if cancel.cancel(f"drain requested by {name}"):
            drain_signal.append(name)
        else:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)

    previous_handlers: dict[int, Any] = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(
                signum, _drain_handler
            )
    try:
        outcomes = engine.explain_each(
            questions,
            budget=budget,
            journal=journal,
            workers=args.workers,
            cancel=cancel,
        )
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        if journal is not None:
            journal.close()
    degraded = False
    for question, outcome in zip(questions, outcomes):
        writer.append("outcomes", outcome.to_dict())
        writer.line(f"why-not {question}")
        if outcome.replayed:
            writer.line(
                "  (replayed from journal, "
                f"level={outcome.degradation_level})"
            )
            degraded = degraded or outcome.degradation_level != "full"
            writer.line()
            continue
        if outcome.report is not None:
            writer.block(outcome.report.summary())
            degraded = degraded or outcome.report.partial
        elif outcome.degradation_level == "cancelled":
            # a drain stopped the batch before this question started:
            # reported explicitly, never silently dropped
            writer.line(f"  CANCELLED: {outcome.failure.describe()}")
            degraded = True
        else:
            writer.line(f"  FAILED: {outcome.failure.describe()}")
            degraded = True
        writer.line()
    if journal is not None and journal.replayable_count:
        writer.line(
            f"resumed: {journal.replayable_count} question(s) "
            "replayed from the journal"
        )
    stats = cache.stats
    writer.set(
        "batch",
        {
            "questions": len(questions),
            "evaluations": stats.evaluations,
            "hits": stats.hits,
            "misses": stats.misses,
        },
    )
    writer.line(
        f"batch: {len(questions)} question(s), "
        f"{stats.evaluations} full query evaluation(s), "
        f"{stats.hits} cache hit(s)"
    )
    if args.baseline:
        writer.line()
        try:
            baseline = WhyNotBaseline(
                canonical, database=database, cache=cache
            )
        except UnsupportedQueryError as exc:
            writer.set("baseline", f"n.a. ({exc})")
            writer.line(f"Why-Not baseline: n.a. ({exc})")
        else:
            writer.line("Why-Not baseline:")
            for question in questions:
                writer.line(f"why-not {question}")
                # per-question containment: one failing question must
                # not drop the baseline answers of the remaining ones
                try:
                    summary = baseline.explain(question).summary()
                    writer.append("baseline_answers", summary)
                    writer.block(summary)
                except ReproError as exc:
                    message = f"{type(exc).__name__}: {exc}"
                    writer.append(
                        "baseline_answers", f"FAILED: {message}"
                    )
                    writer.line(f"  FAILED: {message}")
                    degraded = True
    if drain_signal:
        writer.set("drained_by", drain_signal[0])
        writer.line(
            f"drained: {drain_signal[0]} received; in-flight "
            "questions finished, the rest were cancelled"
        )
        return EXIT_DRAINED
    return EXIT_DEGRADED if degraded else EXIT_OK


def _run_demo(args, writer: OutputWriter) -> int:
    from .bench import run_use_case
    from .workloads import USE_CASE_INDEX

    if args.use_case not in USE_CASE_INDEX:
        raise ConfigurationError(
            f"unknown use case {args.use_case!r}; choose from "
            f"{', '.join(USE_CASE_INDEX)}"
        )
    result = run_use_case(args.use_case, config=_config_from(args))
    use_case = result.use_case
    writer.set("use_case", use_case.name)
    writer.set("engine", "columnar" if args.columnar else "row")
    writer.set("query", use_case.query)
    writer.set("predicate", use_case.predicate)
    writer.set("report", result.ned.to_dict())
    writer.set("baseline", result.whynot_answer_text())
    writer.line(
        f"use case {use_case.name}: query {use_case.query}"
    )
    writer.line(f"why-not question: {use_case.predicate}")
    writer.line()
    writer.line("NedExplain:")
    writer.block(result.ned.summary())
    writer.line()
    writer.line(f"Why-Not baseline: {result.whynot_answer_text()}")
    return EXIT_OK


def _run_serve(args, writer: OutputWriter) -> int:
    """Run the why-not HTTP service until a drain signal.

    Exit codes: 0 = clean drain (every admitted request finished,
    pending queue empty), 2 = startup/configuration failure (an
    invalid option value such as a negative --request-timeout, an
    unbindable --port, corrupt persisted registrations), 5 = forced
    shutdown (second signal, or the drain timed out).
    """
    from pathlib import Path

    from .service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        shed_after=args.shed_after,
        journal_dir=(
            Path(args.journal_dir)
            if args.journal_dir is not None
            else None
        ),
        # only 0 means "disabled"; ServiceConfig rejects a negative
        # value instead of silently waiting forever
        request_timeout_s=(
            None if args.request_timeout == 0 else args.request_timeout
        ),
        drain_timeout_s=args.drain_timeout,
    )
    writer.set("host", config.host)
    writer.set("port", config.port)
    code = serve(config, stdout=sys.stderr if args.json else None)
    writer.set("serve_exit", code)
    if code == EXIT_DRAINED:
        writer.note_error(
            "ServiceForcedShutdown",
            "the drain was forced (second signal or drain timeout); "
            "in-flight requests may not have finished",
        )
    return code


def _run_evaluate(writer: OutputWriter) -> int:
    from .bench import render_table5, run_all

    results = run_all()
    for result in results:
        writer.append(
            "use_cases",
            {
                "name": result.use_case.name,
                "query": result.use_case.query,
                "predicate": result.use_case.predicate,
                "report": result.ned.to_dict(),
                "baseline": result.whynot_answer_text(),
            },
        )
    writer.block(render_table5(results))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
