"""The ``service-journaled`` workload: why-not questions over HTTP.

Two client threads of one process drive a closed loop against
``python -m repro.cli serve --port 0 --workers 2 --journal-dir DIR``.
The request mix is 70% ``POST /v1/explain``, 20% journaled
``POST /v1/explain_batch`` (a new request id, 8 questions of one query,
``workers: 2``) and 10% ``GET /v1/batches/<id>`` of the most recently
completed batch.  The traced replay hosts the same server in-process,
so the server-side layer wrappers see the calls.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.service import ReproServiceServer, ServiceConfig, ServiceHandler
from repro.service import ServiceState
from repro.service.client import ServiceClient
from repro.workloads.usecases import QUERIES

from .procs import HarnessError, finish, spawn_until, vm_hwm_mb
from .stream import (
    SERVICE_QUERIES,
    ConstantPool,
    Question,
    make_stream,
    query_sql,
    templates,
)

BATCH_SIZE = 8
CLIENTS = 2
#: how long shutting down the in-process server may take
TIMEOUT_JOIN_S = 30.0
#: request kinds of ten consecutive requests
KINDS = ("explain",) * 7 + ("batch",) * 2 + ("read",)
#: requests per round: ten shuffled KINDS blocks, whose 70 explains are
#: exactly seven rounds of the ten service templates
ROUND_LEN = 10 * len(KINDS)


@dataclass(frozen=True)
class Op:
    kind: str
    questions: tuple[Question, ...] = ()


def make_ops(seed: int, rounds: int, databases: dict) -> list[Op]:
    """*rounds* rounds of seeded requests."""
    rng = random.Random(f"ops-{seed}")
    explains = iter(
        make_stream(seed, rounds * 7, databases, SERVICE_QUERIES)
    )
    pool = ConstantPool(databases)
    by_query: dict[str, list] = {}
    for template in templates(SERVICE_QUERIES):
        by_query.setdefault(template.query, []).append(template)
    ops = []
    for _ in range(rounds):
        kinds = list(KINDS * 10)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "explain":
                ops.append(Op(kind, (next(explains),)))
            elif kind == "batch":
                chosen = by_query[rng.choice(SERVICE_QUERIES)]
                ops.append(
                    Op(
                        kind,
                        tuple(
                            rng.choice(chosen).draw(rng, pool)
                            for _ in range(BATCH_SIZE)
                        ),
                    )
                )
            else:
                ops.append(Op(kind))
    return ops


def register(client: ServiceClient, scale: int) -> None:
    """Register the databases of the service queries, warming each."""
    by_db: dict[str, list[str]] = {}
    for query in SERVICE_QUERIES:
        by_db.setdefault(QUERIES[query][0], []).append(query_sql(query))
    for name, warm in sorted(by_db.items()):
        response = client.register_database(
            {"name": name, "use_case_db": name, "scale": scale, "warm": warm}
        )
        if not response.ok:
            raise HarnessError(f"registering {name}: {response.body}")


@dataclass
class Drive:
    """What closed-loop drives recorded; client threads share it."""

    explain_ms: list = field(default_factory=list)
    #: /v1/explain latency minus the report's total_time_ms
    overhead_ms: list = field(default_factory=list)
    batch_ms: list = field(default_factory=list)
    read_ms: list = field(default_factory=list)
    sent: int = 0
    failed: int = 0
    non_2xx: int = 0
    answered: int = 0
    wall_s: float = 0.0
    #: request ids of completed batches, oldest first
    completed: list = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def all_ms(self) -> list:
        return self.explain_ms + self.batch_ms + self.read_ms

    def latest_batch(self) -> str | None:
        with self.lock:
            return self.completed[-1] if self.completed else None

    def record(self, op, request_id, seconds, response, sampler) -> None:
        latency = seconds * 1000.0
        body = response.body
        ok = response.status == 200
        if op.kind == "batch":
            ok = ok and body.get("degradation_level") == "full"
        with self.lock:
            self.sent += 1
            self.failed += not ok
            self.non_2xx += not 200 <= response.status < 300
            if op.kind == "explain":
                self.explain_ms.append(latency)
                if ok:
                    self.answered += 1
                    self.overhead_ms.append(
                        latency - body["report"]["total_time_ms"]
                    )
            elif op.kind == "batch":
                self.batch_ms.append(latency)
                if ok:
                    self.answered += len(op.questions)
                    self.completed.append(request_id)
            else:
                self.read_ms.append(latency)
        if not ok or sampler is None:
            return
        if op.kind == "explain":
            sampler.offer(op.questions[0], body["report"]["answers"])
        elif op.kind == "batch":
            for question, outcome in zip(op.questions, body["outcomes"]):
                sampler.offer(question, outcome["report"]["answers"])


class _Feed:
    """Hands the next request to whichever client is free.  It wraps
    around *ops* and stops at a round boundary once *seconds* passed;
    with *seconds* ``None`` it stops after one pass."""

    def __init__(self, ops, seconds):
        self.ops = ops
        self.deadline = None if seconds is None else perf_counter() + seconds
        self.index = 0
        self.lock = threading.Lock()

    def next(self):
        with self.lock:
            if self.deadline is None:
                if self.index == len(self.ops):
                    return None
            elif (
                self.index % ROUND_LEN == 0
                and perf_counter() >= self.deadline
            ):
                return None
            index = self.index
            self.index += 1
        return index, self.ops[index % len(self.ops)]


def _send(client, op, request_id, drive):
    """Send one request; returns (seconds, response), or (None, None)
    for a read with no completed batch to read yet."""
    if op.kind == "read":
        target = drive.latest_batch()
        if target is None:
            return None, None
        send, body = client.batch_result, target
    else:
        first = op.questions[0]
        body = {"database": first.database, "sql": query_sql(first.query)}
        if op.kind == "explain":
            send = client.explain
            body["why_not"] = first.predicate
        else:
            send = client.explain_batch
            body.update(
                request_id=request_id,
                why_not=[q.predicate for q in op.questions],
                workers=CLIENTS,
            )
    t0 = perf_counter()
    response = send(body)
    return perf_counter() - t0, response


def drive_ops(port, ops, seconds, sampler, prefix, drive=None) -> Drive:
    """Run *ops* from CLIENTS threads until the feed stops, recording
    into *drive* (a new one by default)."""
    drive = drive if drive is not None else Drive()
    feed = _Feed(ops, seconds)
    errors: list[BaseException] = []

    def client_loop():
        client = ServiceClient(port=port, timeout_s=60.0)
        while (item := feed.next()) is not None:
            index, op = item
            request_id = f"{prefix}{index}"
            try:
                seconds_, response = _send(client, op, request_id, drive)
            except OSError as exc:
                errors.append(exc)
                with drive.lock:
                    drive.sent += 1
                    drive.failed += 1
                continue
            if response is not None:
                drive.record(op, request_id, seconds_, response, sampler)

    started = perf_counter()
    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    drive.wall_s += perf_counter() - started
    if errors and drive.failed == drive.sent:
        raise HarnessError(f"every request failed: {errors[0]!r}")
    return drive


def start_server(journal: Path, env: dict, scale: int):
    """Spawn the service, wait until it is ready and registered; returns
    (process, port, seconds from spawn)."""
    started = perf_counter()
    proc, line, _ = spawn_until(
        [
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--workers",
            str(CLIENTS),
            "--journal-dir",
            str(journal),
        ],
        env,
        "service ready on",
    )
    try:
        port = int(line.split()[3].rsplit(":", 1)[1])
        register(ServiceClient(port=port), scale)
    except BaseException:
        finish(proc, terminate=True)
        raise
    return proc, port, perf_counter() - started


def timed_run(ops, seconds, setups, work, env, scale, sampler) -> dict:
    """Untraced run: *setups* server start-ups, the last one serving the
    timed loop."""
    setup_s = []
    for attempt in range(setups):
        proc, port, took = start_server(
            work / f"journal-{attempt}", env, scale
        )
        setup_s.append(took)
        if attempt < setups - 1:
            finish(proc, terminate=True)
    try:
        drive = drive_ops(port, ops, seconds, sampler, "b")
        rss_mb = vm_hwm_mb(proc.pid)
    finally:
        finish(proc, terminate=True)
    return {"setup_s": setup_s, "drive": drive, "rss_mb": rss_mb}


def traced_run(ops, seconds, work, scale, sampler, trace_path):
    """Traced replay against an in-process server: the first quarter of
    the requests, round by round, each round once untraced and once
    with the layer wrappers installed (alternating which goes first),
    for *seconds*."""
    from repro.obs import write_trace_jsonl

    from .layers import SpanSink, layer_spans
    from .metrics import TracedRun

    state = ServiceState(
        ServiceConfig(
            port=0, workers=CLIENTS, journal_dir=work / "journal-trace"
        )
    )
    httpd = ReproServiceServer(("127.0.0.1", 0), ServiceHandler, state)
    server = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05}
    )
    server.start()
    sink = SpanSink()
    untraced, traced = Drive(), Drive()
    try:
        state.recover()
        state.ready.set()
        port = httpd.server_address[1]
        register(ServiceClient(port=port), scale)
        rounds = max(len(ops) // ROUND_LEN // 4, 1)
        deadline = perf_counter() + seconds
        for r in range(rounds):
            if perf_counter() >= deadline:
                break
            block = ops[r * ROUND_LEN : (r + 1) * ROUND_LEN]
            for traced_pass in (r % 2 == 1, r % 2 == 0):
                if traced_pass:
                    with layer_spans(sink):
                        drive_ops(port, block, None, None, f"t{r}-", traced)
                else:
                    drive_ops(port, block, None, sampler, f"u{r}-", untraced)
    finally:
        httpd.shutdown()
        httpd.server_close()
        server.join(TIMEOUT_JOIN_S)
    write_trace_jsonl(sink.tracer, trace_path)
    run = TracedRun(
        questions=traced.answered,
        untraced_ms=untraced.all_ms,
        traced_ms=traced.all_ms,
        http_overhead_ms=traced.overhead_ms,
        non_2xx=untraced.non_2xx + traced.non_2xx,
        batch_ms=untraced.batch_ms,
        read_ms=untraced.read_ms,
    )
    return untraced, run
