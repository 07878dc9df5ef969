"""Application state of the why-not service.

The HTTP layer (:mod:`repro.service.server`) is a thin parser; every
decision lives here so it can be unit-tested without a socket:

* :class:`ServiceConfig` -- the ``serve`` knobs (worker pool size,
  admission limit, journal directory, timeouts);
* :class:`AdmissionGate` -- bounded concurrent admission with load
  shedding: past ``shed_after`` in-flight requests, new arrivals are
  refused with :class:`~repro.errors.LoadShedError` (mapped to ``429``
  + ``Retry-After``), never queued unboundedly;
* :class:`ServiceState` -- the registries (databases, warm engines,
  per-database evaluation caches), the shared
  :class:`~repro.obs.MetricsRegistry` behind ``/metrics``, the drain
  token wired to SIGTERM, and the crash-safe request journal.

**Crash-safe request journaling.**  Every ``/v1/explain_batch`` request
is one append-only :class:`~repro.robustness.journal.BatchJournal`
file, ``<id>.journal.jsonl``: the validated manifest is its first
record, written before any work starts, the question outcomes follow,
and the batch result is its last record.  Each record is flushed when
written, so a SIGKILL loses none; the file and its directory are
fsynced once each before the response is sent.  An OS crash before the
response may lose the batch, and the client's retry with the same
``request_id`` recomputes it.  On startup, :meth:`ServiceState.recover`
converts a directory of the older three-file layout, then re-runs
every journal whose last record is not a result, replaying the
questions it holds -- so a SIGKILLed server converges to the outcomes
an uninterrupted run would have produced (byte-identical under
``REPRO_MANUAL_CLOCK``).

**Registrations.**  Each accepted ``POST /v1/databases`` appends one
``{"registration": {"name": ..., "source": {...}}}`` record to
``registrations.journal.jsonl`` and syncs it (the file, then its
directory) before the response; a restart replays the records, the
last for a name winning, and writes nothing.
"""

from __future__ import annotations

import threading
import uuid
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Mapping

from ..baseline import WhyNotBaseline
from ..core import NedExplain
from ..errors import (
    ConfigurationError,
    LoadShedError,
    ReproError,
    ServiceError,
    StorageError,
    UnsupportedQueryError,
)
from ..obs import MetricsRegistry
from ..obs.clock import current_clock
from ..relational import EvaluationCache
from ..relational.csv_io import load_database
from ..relational.database import Database
from ..relational.sql import sql_to_canonical
from ..robustness import Budget, CancellationToken
from ..robustness.journal import load_records, read_result, record_line
from ..storage import StorageBackend, atomic_write_text

__all__ = [
    "AdmissionGate",
    "DEGRADATION_SEVERITY",
    "ServiceConfig",
    "ServiceState",
]

#: Order of degradation levels from best to worst; a batch envelope
#: reports the *worst* level across its outcomes.
DEGRADATION_SEVERITY: dict[str, int] = {
    "full": 0,
    "partial": 1,
    "baseline": 2,
    "cancelled": 3,
    "failed": 4,
}

#: The journal of database registrations, beside the batch journals.
_REGISTRATIONS = "registrations.journal.jsonl"

#: Request ids become journal file names; keep them boring, and off
#: the registrations journal's name.
_REQUEST_ID_RE = re.compile(r"^(?!registrations$)[A-Za-z0-9_-]{1,64}$")

#: Database names key registries and the persisted registrations.
_NAME_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")

#: Every field a single-question body may carry; any other is refused.
_EXPLAIN_FIELDS = ("database", "sql", "why_not", "budget", "baseline")

#: Every field a batch body may carry; any other is refused by name.
_BATCH_FIELDS: tuple[str, ...] = (
    "database", "sql", "why_not", "request_id", "workers", "budget"
)

#: Every field a registration body may carry; any other is refused.
_REGISTRATION_FIELDS = ("name", "use_case_db", "csv_dir", "scale", "warm")


def _without_id(document: Mapping[str, Any]) -> dict:
    """*document* as a journal record stores it: without the request
    id, the journal's file name."""
    return {k: v for k, v in document.items() if k != "request_id"}


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``serve`` needs to run one service process."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: worker threads available to one ``/v1/explain_batch`` request
    #: (a request asking for more is capped, never refused)
    workers: int = 4
    #: admission limit: max concurrently admitted explain requests;
    #: arrivals past it are shed with 429 (``None`` = unlimited)
    shed_after: int | None = None
    #: directory for batch journals + registrations (``None``
    #: disables request journaling and crash recovery)
    journal_dir: Path | None = None
    #: per-connection socket timeout in seconds: a client that stalls
    #: mid-request gets a clean 408 envelope instead of parking a
    #: worker thread forever (``None`` = wait indefinitely)
    request_timeout_s: float | None = 30.0
    #: seconds :func:`~repro.service.server.serve` waits for in-flight
    #: requests after the accept loop stops before giving up
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if (
            self.request_timeout_s is not None
            and self.request_timeout_s <= 0
        ):
            raise ConfigurationError(
                f"request_timeout_s must be positive, got "
                f"{self.request_timeout_s!r}"
            )
        if self.workers < 1:
            raise ConfigurationError(
                f"service workers must be >= 1, got {self.workers}"
            )
        if self.shed_after is not None and self.shed_after < 1:
            raise ConfigurationError(
                f"service shed_after must be >= 1, got "
                f"{self.shed_after}"
            )
        if self.port < 0 or self.port > 65535:
            raise ConfigurationError(
                f"service port must be in [0, 65535], got {self.port}"
            )
        if self.drain_timeout_s <= 0:
            raise ConfigurationError(
                f"drain_timeout_s must be positive, got "
                f"{self.drain_timeout_s!r}"
            )
        if self.journal_dir is not None:
            object.__setattr__(
                self, "journal_dir", Path(self.journal_dir)
            )


class AdmissionGate:
    """Bounded concurrent admission with explicit load shedding.

    ``limit=None`` admits everything (the gate still counts, for
    ``/metrics`` and the drain's idle check).  Past the limit,
    :meth:`acquire` raises :class:`~repro.errors.LoadShedError`
    *immediately* -- the pending "queue" of a thread-per-request server
    is its admitted-but-running request set, and refusing fast beats
    parking client threads without bound.
    """

    def __init__(self, limit: int | None):
        if limit is not None and limit < 1:
            raise ConfigurationError(
                f"admission limit must be >= 1, got {limit}"
            )
        self.limit = limit
        self._active = 0
        self._shed_total = 0
        self._lock = threading.Lock()

    def acquire(self) -> None:
        with self._lock:
            if self.limit is not None and self._active >= self.limit:
                self._shed_total += 1
                raise LoadShedError(
                    f"request shed: {self._active} request(s) already "
                    f"admitted (shed_after={self.limit})"
                )
            self._active += 1

    def release(self) -> None:
        with self._lock:
            if self._active <= 0:
                raise ConfigurationError(
                    "admission gate released more than acquired"
                )
            self._active -= 1

    @property
    def active(self) -> int:
        with self._lock:
            return self._active

    @property
    def shed_total(self) -> int:
        with self._lock:
            return self._shed_total

    def __repr__(self) -> str:
        return (
            f"AdmissionGate(limit={self.limit}, active={self.active})"
        )


class ServiceState:
    """Everything the handlers share; no HTTP types in here."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        #: the ambient clock at construction, re-installed by the HTTP
        #: layer in every handler thread: context vars do not cross
        #: thread boundaries, so without this a server started under
        #: REPRO_MANUAL_CLOCK would still measure handler work on the
        #: system clock -- breaking byte-identical kill/resume runs
        self.clock = current_clock()
        self.metrics = MetricsRegistry()
        self.gate = AdmissionGate(config.shed_after)
        self.cancel = CancellationToken()
        self.ready = threading.Event()
        self.draining = False
        self._drain_lock = threading.Lock()
        self._databases: dict[str, dict[str, Any]] = {}
        self._db_objects: dict[str, Database] = {}
        self._caches: dict[str, EvaluationCache] = {}
        self._engines: dict[tuple[str, str], tuple[Any, NedExplain]] = {}
        self._registry_lock = threading.RLock()
        #: recovery problems, surfaced on /readyz (the server starts
        #: regardless; a stuck manifest must not block the healthy ones)
        self._recovery_errors: list[str] = []
        #: the persistence layer; ``None`` (no journal directory)
        #: disables journaling and recovery entirely
        self.backend: StorageBackend | None = None
        #: the :class:`~repro.storage.backend.RecoveryReport` of the
        #: startup storage scan (``None`` without a backend)
        self.storage_recovery = None
        if config.journal_dir is not None:
            self.open_storage(
                StorageBackend(config.journal_dir, metrics=self.metrics)
            )

    def open_storage(self, backend: StorageBackend) -> None:
        """Journal to *backend* from now on.

        Storage-level recovery runs before anything reads the
        directory: stray temp files are quarantined.  Then the
        persisted registrations are replayed -- before the backend is
        attached, so the replay writes nothing.
        """
        self.storage_recovery = backend.recover()
        self._load_registrations(backend)
        self.backend = backend

    # ------------------------------------------------------------------
    # Database registry
    # ------------------------------------------------------------------
    def register_database(self, body: Mapping[str, Any]) -> dict:
        """Register (or re-register) a database and warm it.

        ``body`` carries ``name`` plus a source: ``use_case_db`` (one
        of the paper's evaluation databases, at an integer ``scale``
        >= 1) or ``csv_dir`` (a directory of CSV files on the server
        host).  Optional ``warm``: a list of SQL texts whose canonical
        trees and shared evaluations are primed right now, so the
        first explain against them pays no cold-start cost.

        The whole body is checked, and every ``warm`` query translated
        and evaluated against the new database, before anything
        changes: a refused registration leaves the served database and
        the journal as they were.  With a journal directory the
        registration record is durable before this returns.
        """
        for field in body:
            if field not in _REGISTRATION_FIELDS:
                raise ConfigurationError(
                    f"unknown registration field {field!r}; a "
                    f"registration takes {', '.join(_REGISTRATION_FIELDS)}"
                )
        name = body.get("name")
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ConfigurationError(
                f"database name must match {_NAME_RE.pattern}, got "
                f"{name!r}"
            )
        for key in ("use_case_db", "csv_dir"):
            if not isinstance(body.get(key, ""), str):
                raise ConfigurationError(
                    f"{key} must be a string, got {body[key]!r}"
                )
        scale, warm = body.get("scale", 1), body.get("warm", [])
        if isinstance(scale, bool) or not isinstance(scale, int) or scale < 1:
            raise ConfigurationError(
                f"scale must be an integer >= 1, got {scale!r}"
            )
        if not isinstance(warm, list) or not all(
            isinstance(sql, str) and sql.strip() for sql in warm
        ):
            raise ConfigurationError(
                f"warm must be a list of non-empty SQL strings, got {warm!r}"
            )
        source = {
            key: body[key]
            for key in ("use_case_db", "csv_dir", "scale")
            if key in body
        }
        database = self._build_database(source)
        cache = EvaluationCache()
        engines = {}
        for sql in dict.fromkeys(warm):  # primed off the live registry
            canonical = sql_to_canonical(sql, database.schema)
            engine = NedExplain(canonical, database=database, cache=cache)
            cache.get_or_evaluate(
                canonical.root, engine.instance, canonical.aliases
            )
            engines[(name, sql)] = (canonical, engine)
        with self._registry_lock:
            if self.backend is not None:  # disk order is registry order
                with self.backend.journal(
                    _REGISTRATIONS, resume=True
                ) as journal:
                    journal.finish(
                        {"name": name, "source": source},
                        key="registration",
                    )
            self._db_objects[name] = database
            self._caches[name] = cache
            # drop engines warmed against a previous registration
            self._engines = {
                key: value
                for key, value in self._engines.items()
                if key[0] != name
            }
            self._engines.update(engines)
            self._databases[name] = dict(source)
        self.metrics.counter("service.engines.warmed").inc(len(engines))
        self.metrics.counter("service.databases.registered").inc()
        return {
            "name": name,
            "source": dict(source),
            "relations": len(database.table_names()),
            "warmed_queries": list(warm),
        }

    @staticmethod
    def _build_database(source: Mapping[str, Any]) -> Database:
        use_case_db = source.get("use_case_db")
        csv_dir = source.get("csv_dir")
        if (use_case_db is None) == (csv_dir is None):
            raise ConfigurationError(
                "a database source needs exactly one of use_case_db / "
                "csv_dir"
            )
        if use_case_db is not None:
            from ..workloads.usecases import DATABASES

            builder = DATABASES.get(use_case_db)
            if builder is None:
                raise ConfigurationError(
                    f"unknown use-case database {use_case_db!r}; "
                    f"choose from {', '.join(DATABASES)}"
                )
            return builder(scale=source.get("scale", 1))
        return load_database(csv_dir)

    def database(self, name: str) -> Database:
        with self._registry_lock:
            database = self._db_objects.get(name)
        if database is None:
            raise ServiceError(
                f"unknown database {name!r}; register it via "
                "POST /v1/databases first",
                status=404,
            )
        return database

    def databases_document(self) -> dict:
        with self._registry_lock:
            return {
                name: {
                    "source": dict(source),
                    "relations": len(
                        self._db_objects[name].table_names()
                    ),
                }
                for name, source in sorted(self._databases.items())
            }

    def engine_for(
        self, database_name: str, sql: str
    ) -> tuple[Any, NedExplain]:
        """The warm engine for (database, query), created on first use.

        Engines share their database's :class:`EvaluationCache`, so
        repeated questions against one query, single or batched, hit
        one shared bottom-up evaluation.
        """
        if not isinstance(sql, str) or not sql.strip():
            raise ConfigurationError("sql must be a non-empty string")
        database = self.database(database_name)
        key = (database_name, sql)
        with self._registry_lock:
            cached = self._engines.get(key)
            if cached is not None:
                return cached
            canonical = sql_to_canonical(sql, database.schema)
            engine = NedExplain(
                canonical,
                database=database,
                cache=self._caches[database_name],
            )
            self._engines[key] = (canonical, engine)
            self.metrics.counter("service.engines.warmed").inc()
            return canonical, engine

    # ------------------------------------------------------------------
    # Registration persistence (storage backend only)
    # ------------------------------------------------------------------
    def _load_registrations(self, backend: StorageBackend) -> None:
        """Replay the registrations journal; the last record for a name
        wins.  An older directory's ``databases.json`` is converted
        first: the journal is written atomically from it, one record
        per name in sorted order, then it and its numbered snapshots
        (``databases.gen-N.*``) are removed, so a crash in between
        leaves old files the next start only removes."""
        path = backend.path_of(_REGISTRATIONS)
        legacy = [
            name
            for name in backend.io.listdir(backend.root)
            if name.startswith("databases.") and name.endswith(".json")
        ]
        if legacy and not backend.io.exists(path):
            try:
                stored = backend.read_document("databases.json") or {}
            except StorageError as exc:
                raise ConfigurationError(
                    f"persisted registrations "
                    f"{backend.path_of('databases.json')} are corrupt: "
                    f"{exc}; move the file aside to start fresh"
                ) from exc
            records = [
                record_line("registration", {"name": name, "source": source})
                for name, source in sorted(stored.items())
            ]
            atomic_write_text(path, "".join(records), io=backend.io)
        for name in legacy:
            backend.io.unlink(backend.path_of(name))
        if not backend.io.exists(path):
            return
        sources = {
            record["name"]: record["source"]
            for key, record in load_records(path, backend.io)[0]
            if key == "registration"
        }
        for name, source in sources.items():
            self.register_database({**source, "name": name})

    # ------------------------------------------------------------------
    # Explain (single question)
    # ------------------------------------------------------------------
    def explain_single(self, body: Mapping[str, Any]) -> dict:
        """One question, one report; degraded answers are explicit.

        The per-request deadline (``budget.deadline_ms`` or the
        ``X-Deadline-Ms`` header, already folded into ``body`` by the
        HTTP layer) becomes a :class:`~repro.robustness.Budget`: on
        exhaustion the engine returns a *partial* report and the
        envelope says so (``degradation_level: "partial"``), which the
        server maps to a 206 response -- a bounded-latency degraded
        answer, never a hang.
        """
        for field in body:
            if field not in _EXPLAIN_FIELDS:
                raise ConfigurationError(
                    f"unknown explain field {field!r}; an explain body "
                    f"takes {', '.join(_EXPLAIN_FIELDS)}"
                )
        if not isinstance(body.get("baseline", False), bool):
            raise ConfigurationError(
                f"baseline must be a boolean, got {body['baseline']!r}"
            )
        question = body.get("why_not")
        if not isinstance(question, str) or not question.strip():
            raise ConfigurationError(
                "why_not must be a non-empty predicate string"
            )
        budget = Budget.from_request(body.get("budget"))
        canonical, engine = self.engine_for(
            self._required_str(body, "database"),
            self._required_str(body, "sql"),
        )
        report = engine.explain(question, budget=budget)
        document: dict[str, Any] = {
            "question": question,
            "degradation_level": "partial" if report.partial else "full",
            "report": report.to_dict(),
        }
        if body.get("baseline"):
            try:
                baseline = WhyNotBaseline(
                    canonical,
                    database=self.database(body["database"]),
                    cache=engine.cache,
                )
                document["baseline"] = baseline.explain(
                    question
                ).summary()
            except UnsupportedQueryError as exc:
                document["baseline"] = f"n.a. ({exc})"
        return document

    # ------------------------------------------------------------------
    # Explain (batch, journaled)
    # ------------------------------------------------------------------
    def explain_batch(self, body: Mapping[str, Any]) -> tuple[dict, bool]:
        """A batch request: validate, journal the manifest, run, persist.

        Returns ``(document, fresh)``; ``fresh`` is False when the
        request id already has a completed result (idempotent retry:
        the stored result is served, nothing re-runs).
        """
        request_id = body.get("request_id") or uuid.uuid4().hex[:16]
        if not _REQUEST_ID_RE.match(str(request_id)):
            raise ConfigurationError(
                f"request_id must match {_REQUEST_ID_RE.pattern}, got "
                f"{request_id!r}"
            )
        manifest = dict(body)
        manifest["request_id"] = request_id
        # validate every field, and the engine inputs, before making
        # the request durable: a manifest on disk is re-run on restart
        self._batch_workers(manifest)
        self.engine_for(manifest["database"], manifest["sql"])
        existing = self._stored_result(request_id)
        if existing is not None:
            return existing, False
        return self._run_batch(request_id, manifest), True

    def _batch_workers(self, body: Any) -> int:
        """Validate a batch body; the worker count it runs with.

        Checked on a request before its manifest is written and again
        on every manifest a batch runs from, so a bad manifest already
        on disk (hand-edited, or from an older version) fails with a
        :class:`~repro.errors.ConfigurationError` that :meth:`recover`
        reports on ``/readyz``.  ``workers`` must be an int >= 1 and is
        capped at the server's ``--workers``.
        """
        if not isinstance(body, Mapping):
            raise ConfigurationError("a batch body must be a JSON object")
        for field in body:
            if field not in _BATCH_FIELDS:
                raise ConfigurationError(
                    f"unknown batch field {field!r}; a batch body "
                    f"takes {', '.join(_BATCH_FIELDS)} (bound each "
                    "question with budget.deadline_ms)"
                )
        questions = body.get("why_not")
        if (
            not isinstance(questions, list)
            or not questions
            or not all(
                isinstance(q, str) and q.strip() for q in questions
            )
        ):
            raise ConfigurationError(
                "why_not must be a non-empty list of predicate strings"
            )
        self._required_str(body, "database")
        self._required_str(body, "sql")
        Budget.from_request(body.get("budget"))
        workers = body.get("workers", 1)
        if (
            isinstance(workers, bool)
            or not isinstance(workers, int)
            or workers < 1
        ):
            raise ConfigurationError(
                f"workers must be an integer >= 1, got {workers!r}"
            )
        return min(workers, self.config.workers)

    def _journal_path(self, request_id: str) -> Path:
        return self.backend.path_of(f"{request_id}.journal.jsonl")

    def _stored_result(self, request_id: str) -> dict | None:
        """The finished result of *request_id*, else ``None``."""
        if self.backend is None:
            return None
        path = self._journal_path(request_id)
        result = read_result(path, self.backend.io)
        if result is None:
            return None
        return {"request_id": request_id, **result}

    def batch_result(self, request_id: str) -> dict:
        """The stored result of *request_id* (404 when unknown,
        409-shaped answer while it is still in flight)."""
        if not _REQUEST_ID_RE.match(str(request_id)):
            raise ConfigurationError(
                f"request_id must match {_REQUEST_ID_RE.pattern}"
            )
        stored = self._stored_result(request_id)
        if stored is not None:
            return stored
        if self.backend is not None and self.backend.io.exists(
            self._journal_path(request_id)
        ):
            raise ServiceError(
                f"batch {request_id} is journaled but not finished -- "
                "in flight, or awaiting crash recovery",
                status=409,
            )
        raise ServiceError(
            f"unknown batch request {request_id!r}", status=404
        )

    def _run_batch(
        self, request_id: str, manifest: Mapping[str, Any]
    ) -> dict:
        workers = self._batch_workers(manifest)
        questions = list(manifest["why_not"])
        budget = Budget.from_request(manifest.get("budget"))
        _, engine = self.engine_for(
            manifest["database"], manifest["sql"]
        )
        journal = None
        if self.backend is not None:
            name = self._journal_path(request_id).name
            journal = self.backend.journal(name, resume=True)
            if journal.manifest is None:
                journal.begin(_without_id(manifest))
        try:
            outcomes = engine.explain_each(
                questions,
                budget=budget,
                journal=journal,
                workers=workers,
                cancel=self.cancel,
            )
            replayed = journal.replayable_count if journal else 0
            levels = [o.degradation_level for o in outcomes]
            worst = max(
                levels, key=lambda level: DEGRADATION_SEVERITY[level]
            )
            stats = engine.cache.stats
            document = {
                "request_id": request_id,
                "questions": questions,
                "workers": workers,
                "degradation_level": worst,
                "replayed": replayed,
                "outcomes": [o.to_dict() for o in outcomes],
                "batch": {
                    "questions": len(questions),
                    "evaluations": stats.evaluations,
                    "hits": stats.hits,
                    "misses": stats.misses,
                },
            }
            if journal is not None:  # durable before the response
                journal.finish(_without_id(document))
        finally:
            if journal is not None:
                journal.close()
        self.metrics.counter("service.batches").inc()
        self.metrics.counter("service.questions").inc(len(questions))
        return document

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def recover(self) -> list[str]:
        """Re-run every journal whose last record is not a result; the
        ids.

        Runs before the service flips ready.  Each unfinished batch
        resumes from its manifest record -- completed questions replay
        verbatim, the remainder is computed -- so its result converges
        to what an uninterrupted run would have written.  A journal
        without a manifest never started (no client was answered) and
        is quarantined.  A batch that cannot be recovered (its database
        source vanished, say) is left in place and reported; it never
        blocks the server from starting.
        """
        if self.backend is None:
            return []
        self._convert_legacy_batches()
        recovered: list[str] = []
        for name in self.backend.io.listdir(self.backend.root):
            if not name.endswith(".journal.jsonl") or name == _REGISTRATIONS:
                continue
            request_id = name[: -len(".journal.jsonl")]
            try:
                if self._stored_result(request_id) is not None:
                    continue
                journal = self.backend.journal(name, resume=True)
                journal.close()
                if journal.manifest is None:
                    self.backend.quarantine(name)
                    continue
                manifest = {**journal.manifest, "request_id": request_id}
                self._run_batch(request_id, manifest)
            except (ReproError, OSError) as exc:
                self._recovery_failed(request_id, exc)
                continue
            recovered.append(request_id)
            self.metrics.counter("service.recovery.batches").inc()
        return recovered

    def _recovery_failed(self, request_id: str, exc: Exception) -> None:
        self.metrics.counter("service.recovery.failed").inc()
        self._recovery_errors.append(
            f"{request_id}: {type(exc).__name__}: {exc}"
        )

    def _convert_legacy_batches(self) -> None:
        """Fold each ``<id>.request.json`` / ``.journal.jsonl`` /
        ``.result.json`` batch of the older layout into one journal,
        rewritten atomically before the old documents are removed (a
        crash in between leaves documents the next start only removes).
        A torn old result means "not finished"; an old batch that
        cannot be converted (its manifest does not parse, say) has its
        manifest quarantined and is reported."""
        backend = self.backend
        for name in backend.io.listdir(backend.root):
            if not name.endswith(".request.json"):
                continue
            request_id = name[: -len(".request.json")]
            result_name = f"{request_id}.result.json"
            try:
                manifest = backend.read_document(name)
                try:
                    result = backend.read_document(result_name)
                except StorageError:
                    result = None
                path = self._journal_path(request_id)
                journal = backend.journal(path.name, resume=True)
                journal.close()
                if journal.manifest is None:
                    text = record_line("manifest", _without_id(manifest))
                    text += backend.io.read_text(path)
                    if result is not None:
                        text += record_line("result", _without_id(result))
                    atomic_write_text(path, text, io=backend.io)
                backend.io.unlink(backend.path_of(result_name))
                backend.io.unlink(backend.path_of(name))
            except (ReproError, OSError) as exc:
                self._recovery_failed(request_id, exc)
                backend.quarantine(name)

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def begin_drain(self, reason: str) -> bool:
        """Flip the service into draining; True iff this call did it.

        Readiness goes 503 immediately; in-flight batches read the
        shared :class:`CancellationToken` and finish their running
        questions while cancelling unstarted ones; unstarted questions
        are *not* journaled, so a later restart recomputes them.  Only
        this method sets the token.
        """
        with self._drain_lock:
            if self.draining:
                return False
            self.draining = True
        self.cancel.cancel(reason)
        self.metrics.counter("service.drains").inc()
        return True

    def wait_idle(self, timeout_s: float) -> bool:
        """Wait (real time) for admitted requests to finish."""
        import time

        deadline = time.monotonic() + timeout_s
        while self.gate.active > 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.02)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health_document(self) -> dict:
        return {
            "status": "alive",
            "draining": self.draining,
            "active_requests": self.gate.active,
        }

    def ready_document(self) -> tuple[bool, dict]:
        ready = self.ready.is_set() and not self.draining
        status = "ready"
        if not self.ready.is_set():
            status = "starting"
        elif self.draining:
            status = "draining"
        document = {
            "status": status,
            "draining": self.draining,
            "storage": (
                self.backend.describe()
                if self.backend is not None
                else {"kind": "none"}
            ),
        }
        if getattr(self.storage_recovery, "quarantined", None):
            document["storage_recovery"] = asdict(self.storage_recovery)
        if self._recovery_errors:
            document["recovery_errors"] = list(self._recovery_errors)
        return ready, document

    def metrics_document(self) -> dict:
        """The /metrics payload: service counters + cache state."""
        self.metrics.gauge("service.active_requests").set(
            float(self.gate.active)
        )
        self.metrics.gauge("service.shed_total").set(
            float(self.gate.shed_total)
        )
        with self._registry_lock:
            caches = dict(self._caches)
        for name, cache in sorted(caches.items()):
            stats = cache.stats
            for stat in ("hits", "misses", "evaluations", "evictions"):
                self.metrics.gauge(
                    f"service.cache.{name}.{stat}"
                ).set(float(getattr(stats, stat)))
        snapshot = self.metrics.snapshot()
        return {
            "metrics": snapshot,
            "draining": self.draining,
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _required_str(body: Mapping[str, Any], key: str) -> str:
        value = body.get(key)
        if not isinstance(value, str) or not value.strip():
            raise ConfigurationError(
                f"request body needs a non-empty {key!r} string"
            )
        return value
