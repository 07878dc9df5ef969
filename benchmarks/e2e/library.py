"""The library workloads' child process.

Run as ``python -m benchmarks.e2e.library SPEC_JSON [--setup-only]``.  The parent
(:mod:`benchmarks.e2e.cli`) writes the spec -- workload settings and
the generated question stream -- and times this process from spawn to
its ``ready`` line: imports, database build and, for ``warm-row``,
cache warming.  Then the child runs the timed loop, or the traced
replay, and writes its raw measurements to the spec's ``result`` path.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import repro
from repro.workloads.usecases import QUERIES

from .oracle import Reservoir, normalize
from .stream import Question, build_databases


class Asker:
    """Answers one question the way its workload's caller would."""

    def __init__(self, spec: dict, questions: list[Question]):
        queries = sorted({q.query for q in questions})
        self.databases = build_databases(
            spec["scale"], sorted({QUERIES[q][0] for q in queries})
        )
        self.specs = {q: QUERIES[q][1]() for q in queries}
        self.config = repro.NedExplainConfig(use_columnar=spec["columnar"])
        self.engines: dict[str, repro.NedExplain] = {}
        if spec["warm"]:
            # one engine per query over a per-database cache warmed
            # now, as the service's engine_for + warm list do
            caches = {name: repro.EvaluationCache() for name in self.databases}
            for query in queries:
                name = QUERIES[query][0]
                database = self.databases[name]
                canonical = repro.canonicalize(
                    self.specs[query], database.schema
                )
                engine = repro.NedExplain(
                    canonical,
                    database=database,
                    cache=caches[name],
                    config=self.config,
                )
                engine.cache.get_or_evaluate(
                    canonical.root, engine.instance, canonical.aliases
                )
                self.engines[query] = engine

    def ask(self, question: Question) -> repro.NedExplainReport:
        engine = self.engines.get(question.query)
        if engine is None:
            database = self.databases[question.database]
            canonical = repro.canonicalize(
                self.specs[question.query], database.schema
            )
            engine = repro.NedExplain(
                canonical,
                database=database,
                cache=repro.EvaluationCache(),
                config=self.config,
            )
        return engine.explain(question.predicate)


def _answer(asker: Asker, question: Question):
    """The report, or ``None`` when the question failed."""
    try:
        report = asker.ask(question)
    except repro.ReproError as exc:
        print(f"question failed: {question}: {exc}", file=sys.stderr)
        return None
    return None if report.partial else report


def timed_loop(asker, questions, seconds, round_len, sampler) -> dict:
    """Closed loop over the stream (wrapping around) for *seconds*,
    stopping only at a round boundary."""
    latencies = []
    failed = 0
    started = perf_counter()
    deadline = started + seconds
    index = 0
    while index % round_len or perf_counter() < deadline:
        question = questions[index % len(questions)]
        t0 = perf_counter()
        report = _answer(asker, question)
        latencies.append((perf_counter() - t0) * 1000.0)
        if report is None:
            failed += 1
        else:
            sampler.offer(question, report)
        index += 1
    wall = perf_counter() - started
    return {
        "latencies_ms": latencies,
        "failed": failed,
        "wall_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_replay(asker, questions, seconds, round_len, sampler, trace_path):
    """Replay the first quarter of the stream round by round, each round
    once untraced and once under the tracer with every layer wrapper
    installed, for *seconds*.  The two passes alternate which goes first,
    so host speed drifts hit both alike and their difference is the
    tracing overhead."""
    from repro import Budget, ExecutionContext, execution_context
    from repro.obs import write_trace_jsonl

    from .layers import QUESTION, SpanSink, layer_spans

    rounds = max(len(questions) // round_len // 4, 1)
    quarter = questions[: rounds * round_len]
    # one unmeasured round first: the databases build their lazy
    # indexes on first use, which would otherwise count against
    # whichever pass runs first
    for question in quarter[:round_len]:
        _answer(asker, question)
    sink = SpanSink()
    tracer = sink.tracer
    untraced, traced = [], []
    failed = 0
    deadline = perf_counter() + seconds
    for start in range(0, len(quarter), round_len):
        if perf_counter() >= deadline:
            break
        block = range(start, start + round_len)
        traced_first = start // round_len % 2 == 1
        for traced_pass in (traced_first, not traced_first):
            if not traced_pass:
                for index in block:
                    t0 = perf_counter()
                    report = _answer(asker, quarter[index])
                    untraced.append((perf_counter() - t0) * 1000.0)
                    if report is None:
                        failed += 1
                    else:
                        sampler.offer(quarter[index], report)
                continue
            with layer_spans(sink), repro.tracing(tracer):
                for index in block:
                    with tracer.span(
                        QUESTION, category=QUESTION, index=index
                    ) as root:
                        # an explicit (unlimited) budget context mirrors
                        # row and comparison ticks into the tracer's
                        # budget.* counters
                        with execution_context(ExecutionContext(Budget())):
                            _answer(asker, quarter[index])
                    traced.append(root.duration_ms)
    write_trace_jsonl(tracer, trace_path)
    return {
        "failed": failed,
        "questions": len(traced),
        "untraced_ms": untraced,
        "traced_ms": traced,
    }


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    questions = [Question(*q) for q in spec["questions"]]
    asker = Asker(spec, questions)
    print("ready", flush=True)
    if argv[1:] == ["--setup-only"]:
        return 0
    sampler = Reservoir(spec["check_size"], spec["sample_seed"])
    if spec["trace"] is None:
        result = timed_loop(
            asker, questions, spec["seconds"], spec["round_len"], sampler
        )
    else:
        result = traced_replay(
            asker,
            questions,
            spec["seconds"],
            spec["round_len"],
            sampler,
            spec["trace"],
        )
    result["samples"] = [
        [[q.use_case, q.query, q.predicate], normalize(report.to_dict()["answers"])]
        for q, report in sampler.sample()
    ]
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
