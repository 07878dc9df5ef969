"""Why-not-as-a-service: admission, the HTTP surface, chaos.

Four layers of proof, mirroring how the service is built:

1. **units** -- the admission gate, request-budget parsing, config
   validation;
2. **state** -- the socket-free application core: registration,
   journaled batches, idempotent retries, recovery, readiness;
3. **live server** -- a real ``ThreadingHTTPServer`` on an ephemeral
   port driven through :class:`repro.service.client.ServiceClient`:
   happy paths, error envelopes, deterministic overload (429 +
   ``Retry-After`` while ``/healthz`` stays 200), degraded 206
   answers, drain semantics, and seeded
   :class:`~repro.robustness.FaultPlan` chaos over the socket;
4. **subprocess** -- the acceptance proofs: a ``workers=4`` batch over
   HTTP SIGKILLed mid-run resumes on restart *byte-identical* to an
   uninterrupted run (under ``REPRO_MANUAL_CLOCK``), and SIGTERM
   drains to exit code 0 with an empty pending queue.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from io import StringIO
from pathlib import Path

import pytest

import repro
from repro.errors import (
    ConfigurationError,
    JournalError,
    LoadShedError,
    ServiceError,
    SqlSyntaxError,
)
from repro.obs import ManualClock, use_clock
from repro.robustness import BatchJournal, Budget, FaultPlan, inject
from repro.service import (
    AdmissionGate,
    ServiceConfig,
    ServiceState,
    serve,
)
from repro.service.client import ServiceClient
from repro.storage import MemoryIO, SimIO, StorageBackend

_SRC = str(Path(repro.__file__).resolve().parents[1])

SQL = "SELECT Person.name FROM Person WHERE Person.hair = 'brown'"
REGISTER = {"name": "crime", "use_case_db": "crime"}


def _memory_state(io=None) -> ServiceState:
    """A service journaling to an in-memory disk (*io*, a fresh
    ``MemoryIO`` by default): the full journaling and recovery path,
    and no files left behind."""
    state = ServiceState(ServiceConfig())
    state.open_storage(
        StorageBackend(
            Path("/memory"),
            metrics=state.metrics,
            io=io if io is not None else MemoryIO(),
        )
    )
    return state


def _explain_body(question="(Person.name: Roger)", **extra):
    body = {"database": "crime", "sql": SQL, "why_not": question}
    body.update(extra)
    return body


def _batch_body(questions=None, **extra):
    return _explain_body(
        questions
        if questions is not None
        else ["(Person.name: Roger)", "(Person.name: Hannah)"],
        **extra,
    )


# ---------------------------------------------------------------------------
# admission gate
# ---------------------------------------------------------------------------
class TestAdmissionGate:
    def test_unlimited_gate_counts(self):
        gate = AdmissionGate(None)
        gate.acquire()
        gate.acquire()
        assert gate.active == 2
        gate.release()
        gate.release()
        assert gate.active == 0

    def test_sheds_past_the_limit_immediately(self):
        gate = AdmissionGate(2)
        gate.acquire()
        gate.acquire()
        with pytest.raises(LoadShedError):
            gate.acquire()
        assert gate.shed_total == 1
        gate.release()
        gate.acquire()  # a freed slot admits again

    def test_release_underflow_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionGate(None).release()

    def test_limit_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionGate(0)


# ---------------------------------------------------------------------------
# request budgets and config
# ---------------------------------------------------------------------------
class TestBudgetFromRequest:
    def test_none_and_empty_mean_no_budget(self):
        assert Budget.from_request(None) is None
        assert Budget.from_request({}) is None

    def test_deadline_ms_becomes_seconds(self):
        budget = Budget.from_request(
            {"deadline_ms": 1500, "max_rows": 10}
        )
        assert budget.deadline_s == pytest.approx(1.5)
        assert budget.max_rows == 10
        assert budget.max_comparisons is None

    @pytest.mark.parametrize(
        "spec",
        [
            "fast",
            {"deadline_s": 1},
            {"deadline_ms": "soon"},
            {"max_rows": True},
            {"max_rows": -5},
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            Budget.from_request(spec)


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(workers=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(shed_after=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(port=70000)
        with pytest.raises(ConfigurationError):
            ServiceConfig(drain_timeout_s=0)

    def test_journal_dir_coerced_to_path(self, tmp_path):
        config = ServiceConfig(journal_dir=str(tmp_path))
        assert isinstance(config.journal_dir, Path)


# ---------------------------------------------------------------------------
# the socket-free application core
# ---------------------------------------------------------------------------
class TestServiceState:
    def _state(self, tmp_path=None, **kw):
        if tmp_path is not None:
            kw.setdefault("journal_dir", tmp_path / "journal")
        state = ServiceState(ServiceConfig(**kw))
        state.ready.set()
        return state

    def test_register_validates_name_and_source(self):
        state = self._state()
        with pytest.raises(ConfigurationError, match="name"):
            state.register_database({"use_case_db": "crime"})
        with pytest.raises(ConfigurationError, match="exactly one"):
            state.register_database({"name": "x"})
        with pytest.raises(ConfigurationError, match="exactly one"):
            state.register_database(
                {"name": "x", "use_case_db": "crime", "csv_dir": "y"}
            )
        with pytest.raises(ConfigurationError, match="unknown use-case"):
            state.register_database({"name": "x", "use_case_db": "nope"})

    def test_unknown_database_is_404(self):
        state = self._state()
        with pytest.raises(ServiceError) as excinfo:
            state.explain_single(_explain_body())
        assert excinfo.value.status == 404

    def test_explain_single_full_report(self):
        state = self._state()
        state.register_database(REGISTER)
        document = state.explain_single(_explain_body())
        assert document["degradation_level"] == "full"
        assert document["report"]["answers"]

    @pytest.mark.parametrize(
        "extra,match",
        [
            ({"baselin": True}, "unknown explain field 'baselin'"),
            ({"why": "typo"}, "unknown explain field 'why'"),
            ({"baseline": "no"}, "baseline must be a boolean"),
            ({"baseline": 1}, "baseline must be a boolean"),
        ],
    )
    def test_explain_refuses_unknown_or_mistyped_fields(self, extra, match):
        state = self._state()
        state.register_database(REGISTER)
        with pytest.raises(ConfigurationError, match=match):
            state.explain_single(_explain_body(**extra))

    def test_explain_baseline_shares_the_engine_cache(self):
        state = self._state()
        state.register_database(REGISTER)
        document = state.explain_single(_explain_body(baseline=True))
        assert "baseline" in document
        assert state._caches["crime"].stats.evaluations == 1

    def test_engine_cache_is_shared_per_database(self):
        state = self._state()
        state.register_database(REGISTER)
        state.explain_single(_explain_body())
        state.explain_single(_explain_body("(Person.name: Hannah)"))
        stats = state._caches["crime"].stats
        assert stats.evaluations == 1  # second question hit the cache

    def test_batch_journals_and_is_idempotent(self, tmp_path):
        state = self._state(tmp_path)
        state.register_database(REGISTER)
        body = _batch_body(request_id="b1", workers=2)
        document, fresh = state.explain_batch(body)
        assert fresh
        assert document["degradation_level"] == "full"
        journal_dir = state.config.journal_dir
        # one file per batch: manifest first, result last
        assert [p.name for p in journal_dir.glob("b1.*")] == [
            "b1.journal.jsonl"
        ]
        lines = [
            json.loads(line)
            for line in (journal_dir / "b1.journal.jsonl")
            .read_text()
            .splitlines()
        ]
        assert list(lines[0]) == ["manifest"]
        assert list(lines[-1]) == ["result"]
        assert len(lines) == 2 + len(body["why_not"])
        again, fresh = state.explain_batch(body)
        assert not fresh  # served from the stored result, no re-run
        assert again["outcomes"] == document["outcomes"]
        assert state.batch_result("b1")["outcomes"] == document[
            "outcomes"
        ]

    def test_journaled_batch_pays_for_durability_once(self):
        """An 8-question batch creates one file and makes it durable
        with one file fsync and one directory fsync, after its result
        record is written."""
        sim = SimIO()
        state = _memory_state(sim)
        state.ready.set()
        state.register_database(REGISTER)
        start = len(sim.log)
        questions = ["(Person.name: Roger)", "(Person.name: Hannah)"] * 4
        document, fresh = state.explain_batch(
            _batch_body(questions, request_id="durable", workers=2)
        )
        assert fresh and document["degradation_level"] == "full"
        ops = sim.log[start:]
        journal = str(state.backend.path_of("durable.journal.jsonl"))
        root = str(state.backend.root)
        # one file created: every file operation is on the journal
        assert {op.path for op in ops} == {journal, root}
        appends = [op.data for op in ops if op.kind == "append"]
        assert len(appends) == len(questions) + 2
        assert list(json.loads(appends[0])) == ["manifest"]
        assert list(json.loads(appends[-1])) == ["result"]
        # the result record follows the last question record, and
        # both syncs follow the result record
        assert [op.kind for op in ops][-2:] == ["fsync", "fsync_dir"]
        assert [op.kind for op in ops].count("fsync") == 1
        assert [op.kind for op in ops].count("fsync_dir") == 1

    def test_batch_result_distinguishes_unknown_from_in_flight(
        self, tmp_path
    ):
        state = self._state(tmp_path)
        with pytest.raises(ServiceError) as excinfo:
            state.batch_result("nope")
        assert excinfo.value.status == 404
        # a journal without a result means in flight / crashed: 409
        (state.config.journal_dir / "hang.journal.jsonl").write_text(
            json.dumps({"manifest": _batch_body()}) + "\n"
        )
        with pytest.raises(ServiceError) as excinfo:
            state.batch_result("hang")
        assert excinfo.value.status == 409

    def test_recover_reruns_unfinished_manifests(self, tmp_path):
        state = self._state(tmp_path)
        state.register_database(REGISTER)
        journal_path = state.config.journal_dir / "crashed.journal.jsonl"
        journal_path.write_text(
            json.dumps({"manifest": _batch_body()}) + "\n"
        )

        # a fresh state (the restarted process) sees the registration
        # (replayed from its journal) and finishes the batch
        fresh = self._state(tmp_path)
        recovered = fresh.recover()
        assert recovered == ["crashed"]
        result = fresh.batch_result("crashed")
        assert len(result["outcomes"]) == 2
        assert fresh.recover() == []  # second recovery: nothing to do

    def test_recovery_failure_never_blocks_startup(self, tmp_path):
        state = self._state(tmp_path)
        (state.config.journal_dir / "bad.request.json").write_text(
            "{not json"
        )
        assert state.recover() == []
        ready, document = state.ready_document()
        assert ready  # degraded info is reported, not fatal
        assert any("bad" in e for e in document["recovery_errors"])

    def test_readiness_states(self):
        state = ServiceState(ServiceConfig())
        ready, document = state.ready_document()
        assert not ready and document["status"] == "starting"
        state.ready.set()
        ready, document = state.ready_document()
        assert ready and document["status"] == "ready"
        assert set(document) == {"status", "draining", "storage"}
        assert state.begin_drain("test")
        assert not state.begin_drain("again")  # idempotent
        ready, document = state.ready_document()
        assert not ready and document["status"] == "draining"

    def test_failed_questions_leave_readiness_alone(self):
        """Malformed questions fail deterministically; they say nothing
        about the service's health, so /readyz must stay ready."""
        state = self._state()
        state.register_database(REGISTER)
        document, _ = state.explain_batch(
            _batch_body(["(Person.nope: x)"] * 4)
        )
        assert [o["ok"] for o in document["outcomes"]] == [False] * 4
        assert {o["degradation_level"] for o in document["outcomes"]} == {
            "failed"
        }
        ready, readiness = state.ready_document()
        assert ready and readiness["status"] == "ready"

    def test_invalid_request_id_rejected(self, tmp_path):
        state = self._state(tmp_path)
        state.register_database(REGISTER)
        with pytest.raises(ConfigurationError, match="request_id"):
            state.explain_batch(
                _batch_body(request_id="../escape")
            )
        with pytest.raises(ConfigurationError):
            state.batch_result("../escape")


# ---------------------------------------------------------------------------
# registrations: validated whole, one synced record each, replayed
# ---------------------------------------------------------------------------
REGISTRATIONS = "registrations.journal.jsonl"


def _restarted(sim) -> tuple[ServiceState, SimIO]:
    """A fresh state started over a copy of *sim*'s files, on a new
    simulator whose op log shows what the start wrote."""
    again = SimIO()
    again.files = dict(sim.files)
    again.dirs = set(sim.dirs)
    return _memory_state(again), again


class TestRegistrations:
    def test_refused_reregistration_leaves_the_served_database(self):
        """A re-registration whose warm query does not translate is a
        400 that changes nothing, in memory or after a restart."""
        io = MemoryIO()
        state = _memory_state(io)
        state.register_database({"name": "db", "use_case_db": "crime"})
        with pytest.raises(SqlSyntaxError):  # a 400
            state.register_database(
                {
                    "name": "db",
                    "use_case_db": "gov",
                    "warm": ["SELECT nope FROM Nowhere"],
                }
            )
        crime = {"source": {"use_case_db": "crime"}, "relations": 4}
        assert state.databases_document() == {"db": crime}
        assert _memory_state(io).databases_document() == {"db": crime}

    @pytest.mark.parametrize(
        "extra",
        [
            {"scale": "x"},
            {"scale": 0},
            {"scale": -3},
            {"scale": 2.7},
            {"scale": True},
            {"warm": SQL},
            {"warm": [""]},
            {"warm": [5]},
            {"shed_after": 1},
            {"use_case_db": ["crime"]},
        ],
        ids=[
            "scale-word", "scale-zero", "scale-negative", "scale-float",
            "scale-bool", "warm-string", "warm-empty", "warm-number",
            "unknown-field", "source-list",
        ],
    )
    def test_bad_registration_is_400_and_leaves_nothing(self, extra):
        sim = SimIO()
        state = _memory_state(sim)
        with pytest.raises(ConfigurationError) as excinfo:  # a 400
            state.register_database({**REGISTER, **extra})
        assert next(iter(extra)) in str(excinfo.value)
        assert state.databases_document() == {}
        assert len(sim.log) == 0

    def test_registration_is_one_synced_record(self):
        """One registration appends one record, then syncs the file and
        its directory once each, before it returns."""
        sim = SimIO()
        state = _memory_state(sim)
        state.register_database(REGISTER)
        start = len(sim.log)
        state.register_database({**REGISTER, "scale": 2, "warm": [SQL]})
        ops = sim.log[start:]
        assert [op.kind for op in ops] == ["append", "fsync", "fsync_dir"]
        assert json.loads(ops[0].data) == {
            "registration": {
                "name": "crime",
                "source": {"use_case_db": "crime", "scale": 2},
            }
        }
        assert {op.path for op in ops[:2]} == {
            str(state.backend.path_of(REGISTRATIONS))
        }

    def test_restart_replays_and_writes_nothing(self):
        """A start with K registrations serves the last record of each
        name and leaves the journal byte-identical, with no write,
        rename or fsync."""
        sim = SimIO()
        state = _memory_state(sim)
        state.register_database(REGISTER)
        state.register_database({"name": "gov", "use_case_db": "gov"})
        state.register_database({**REGISTER, "scale": 2})
        path = str(state.backend.path_of(REGISTRATIONS))
        before = sim.files[path]
        restarted, again = _restarted(sim)
        assert again.log.ops == []
        assert again.files[path] == before
        assert restarted.databases_document() == (
            state.databases_document()
        )
        assert restarted.databases_document()["crime"]["source"] == {
            "use_case_db": "crime",
            "scale": 2,
        }

    def test_concurrent_registrations_both_survive_restart(self):
        io = MemoryIO()
        state = _memory_state(io)
        barrier = threading.Barrier(2)
        errors = []

        def register(name, use_case_db):
            barrier.wait()
            try:
                state.register_database(
                    {"name": name, "use_case_db": use_case_db}
                )
            except Exception as exc:  # noqa: BLE001 -- reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=register, args=("one", "crime")),
            threading.Thread(target=register, args=("two", "gov")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert sorted(_memory_state(io).databases_document()) == [
            "one",
            "two",
        ]

    def test_deadline_header_is_not_a_registration_field(self):
        """``X-Deadline-Ms`` bounds explain requests; a registration
        sent with it is not refused for a ``budget`` it never sent."""
        with _live_server() as (_httpd, client):
            response = client.request(
                "POST",
                "/v1/databases",
                body=REGISTER,
                headers={"X-Deadline-Ms": "500"},
            )
        assert response.status == 200, response.body

    def test_registrations_journal_is_not_a_batch(self):
        state = _memory_state()
        state.register_database(REGISTER)
        assert state.recover() == []
        assert state.backend.io.exists(
            state.backend.path_of(REGISTRATIONS)
        )
        with pytest.raises(ConfigurationError, match="request_id"):
            state.explain_batch(_batch_body(request_id="registrations"))
        with pytest.raises(ConfigurationError, match="request_id"):
            state.batch_result("registrations")


# ---------------------------------------------------------------------------
# live in-process server
# ---------------------------------------------------------------------------
@contextmanager
def _live_server(**config_kw):
    config_kw.setdefault("port", 0)
    config = ServiceConfig(**config_kw)
    started: dict = {}
    ready = threading.Event()
    result: dict = {}

    def _on_started(httpd):
        started["httpd"] = httpd
        ready.set()

    thread = threading.Thread(
        target=lambda: result.setdefault(
            "code",
            serve(
                config,
                stdout=StringIO(),
                install_signal_handlers=False,
                on_started=_on_started,
            ),
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(20), "server never started"
    httpd = started["httpd"]
    client = ServiceClient(port=httpd.server_address[1])
    client.wait_ready(20)
    try:
        yield httpd, client
    finally:
        client.close()
        httpd.state.begin_drain("test teardown")
        threading.Thread(target=httpd.shutdown, daemon=True).start()
        thread.join(20)
        assert result.get("code") == 0


class TestLiveServer:
    def test_health_routes_and_envelopes(self):
        with _live_server() as (httpd, client):
            assert client.healthz().status == 200
            assert client.readyz().body["status"] == "ready"
            missing = client.request("GET", "/nope")
            assert missing.status == 404
            assert set(missing.error) == {"type", "message", "status"}
            no_body = client.request("POST", "/v1/explain")
            assert no_body.status == 400
            bad_json = client.request("POST", "/v1/databases")
            assert bad_json.status == 400

    def test_explain_and_batch_over_http(self):
        with _live_server(workers=2) as (httpd, client):
            assert client.register_database(REGISTER).ok
            single = client.explain(_explain_body())
            assert single.status == 200
            assert single.body["degradation_level"] == "full"
            # X-Tenant is an ordinary header: it selects nothing
            tagged = client.request(
                "POST",
                "/v1/explain",
                body=_explain_body(),
                headers={"X-Tenant": "alice"},
            )
            assert tagged.status == 200
            assert (
                tagged.body["report"]["answers"]
                == single.body["report"]["answers"]
            )
            batch = client.explain_batch(_batch_body(workers=2))
            assert batch.status == 200
            assert len(batch.body["outcomes"]) == 2
            assert batch.body["cached_result"] is False
            listed = client.databases()
            assert "crime" in listed.body["databases"]

    def test_degraded_answer_is_206_not_a_hang(self):
        with _live_server() as (httpd, client):
            client.register_database(REGISTER)
            degraded = client.explain(
                _explain_body(budget={"max_comparisons": 1})
            )
            assert degraded.status == 206
            assert degraded.body["degradation_level"] == "partial"
            assert degraded.body["report"]["partial"] is True

    def test_deadline_header_feeds_the_budget(self):
        with _live_server() as (httpd, client):
            client.register_database(REGISTER)
            bad = client.explain(_explain_body(), deadline_ms=-5)
            assert bad.status == 400  # validated, not silently ignored
            ok = client.explain(_explain_body(), deadline_ms=60_000)
            assert ok.status == 200

    def test_unknown_explain_field_is_400(self):
        with _live_server() as (httpd, client):
            client.register_database(REGISTER)
            bad = client.explain(_explain_body(baselin=True))
            assert bad.status == 400
            assert bad.error["type"] == "ConfigurationError"
            assert "'baselin'" in bad.error["message"]

    def test_overload_sheds_429_while_healthz_stays_200(self):
        """The acceptance criterion, deterministically: with both
        admission slots held, new work is refused with 429 +
        Retry-After while liveness stays green; freed slots admit
        again and those requests complete."""
        with _live_server(shed_after=2) as (httpd, client):
            client.register_database(REGISTER)
            gate = httpd.state.gate
            gate.acquire()
            gate.acquire()
            try:
                shed = client.explain(_explain_body())
                assert shed.status == 429
                assert shed.error["type"] == "LoadShedError"
                assert shed.retry_after_s >= 1
                assert client.healthz().status == 200
                assert httpd.state.gate.shed_total >= 1
            finally:
                gate.release()
                gate.release()
            admitted = client.explain(_explain_body())
            assert admitted.status == 200  # admitted work completes

    def test_draining_refuses_work_but_stays_alive(self):
        with _live_server() as (httpd, client):
            client.register_database(REGISTER)
            httpd.state.begin_drain("test drain")
            refused = client.explain(_explain_body())
            assert refused.status == 503
            assert refused.retry_after_s >= 1
            assert client.healthz().status == 200
            not_ready = client.readyz()
            assert not_ready.status == 503
            assert not_ready.body["status"] == "draining"

    def test_metrics_json_and_prometheus(self):
        with _live_server() as (httpd, client):
            client.register_database(REGISTER)
            client.explain(_explain_body())
            snapshot = client.metrics().body["metrics"]
            assert snapshot["service.responses"]["value"] >= 2
            assert snapshot["service.route.explain"]["value"] == 1
            text = client.metrics_prometheus().body["raw"]
            assert "# TYPE service_responses counter" in text
            assert "service_route_explain 1" in text

    def test_prometheus_scrapes_are_counted(self):
        with _live_server() as (httpd, client):
            client.metrics_prometheus()
            client.metrics_prometheus()
            snapshot = client.metrics().body["metrics"]
            # two text scrapes counted before this JSON one responds
            assert snapshot["service.route.metrics"]["value"] == 2
            assert snapshot["service.responses.200"]["value"] >= 2

    def test_batch_result_lifecycle_over_http(self, tmp_path):
        with _live_server(journal_dir=tmp_path / "journal") as (
            httpd,
            client,
        ):
            client.register_database(REGISTER)
            assert client.batch_result("nope").status == 404
            first = client.explain_batch(
                _batch_body(request_id="http-batch")
            )
            assert first.status == 200
            replay = client.explain_batch(
                _batch_body(request_id="http-batch")
            )
            assert replay.body["cached_result"] is True
            stored = client.batch_result("http-batch")
            assert stored.body["outcomes"] == first.body["outcomes"]

    def test_non_numeric_content_length_is_400(self):
        with _live_server() as (httpd, client):
            port = httpd.server_address[1]
            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.settimeout(15)
                sock.sendall(
                    b"POST /v1/explain HTTP/1.1\r\n"
                    b"Host: t\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: abc\r\n"
                    b"Connection: close\r\n"
                    b"\r\n"
                )
                chunks = []
                while chunk := sock.recv(65536):
                    chunks.append(chunk)
            head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
            assert b" 400 " in head.splitlines()[0]
            error = json.loads(payload)["error"]
            assert error["type"] == "ConfigurationError"
            assert "Content-Length" in error["message"]
            assert client.healthz().status == 200


# ---------------------------------------------------------------------------
# batch requests: field validation and isolation between batches
# ---------------------------------------------------------------------------
class TestBatchRequests:
    def test_failed_journal_append_leaves_later_batches_alone(
        self, monkeypatch
    ):
        """An internal error stops its own batch only: the service's
        drain token outlives every batch and must stay unset, so the
        next batch on the same state is answered in full."""
        state = _memory_state()
        state.ready.set()
        state.register_database(REGISTER)
        record = BatchJournal.record
        calls = []

        def fail_first_append(journal, index, question, outcome):
            calls.append(index)
            if len(calls) == 1:
                raise JournalError("injected append failure")
            record(journal, index, question, outcome)

        monkeypatch.setattr(BatchJournal, "record", fail_first_append)
        with pytest.raises(JournalError, match="injected"):
            state.explain_batch(_batch_body(request_id="fails", workers=2))
        assert not state.cancel.cancelled
        for workers in (2, 1):
            document, fresh = state.explain_batch(
                _batch_body(request_id=f"next-{workers}", workers=workers)
            )
            assert fresh
            assert document["degradation_level"] == "full"
            assert all(o["ok"] for o in document["outcomes"])
        assert not state.cancel.cancelled
        ready, readiness = state.ready_document()
        assert ready and readiness["status"] == "ready"

    def test_bad_batch_fields_are_400_and_leave_nothing_durable(
        self, tmp_path
    ):
        journal_dir = tmp_path / "journal"
        bad_fields = [
            {"workers": "x"},
            {"workers": 0},
            {"workers": -1},
            {"workers": True},
            {"shed_after": 1},
            {"batch_deadline_ms": 1000},
        ]
        with _live_server(journal_dir=journal_dir) as (httpd, client):
            client.register_database(REGISTER)
            for n, extra in enumerate(bad_fields):
                request_id = f"bad-{n}"
                response = client.explain_batch(
                    _batch_body(request_id=request_id, **extra)
                )
                assert response.status == 400, extra
                assert response.error["type"] == "ConfigurationError"
                (field,) = extra
                assert field in response.error["message"]
                assert not (
                    journal_dir / f"{request_id}.request.json"
                ).exists()
                assert not (
                    journal_dir / f"{request_id}.journal.jsonl"
                ).exists()
            good = client.explain_batch(
                _batch_body(request_id="good", workers=2)
            )
            assert good.status == 200

    def test_bad_manifests_on_disk_are_reported_not_raised(
        self, tmp_path
    ):
        journal_dir = tmp_path / "journal"
        state = ServiceState(ServiceConfig(journal_dir=journal_dir))
        state.register_database(REGISTER)
        manifests = {
            "word-workers": _batch_body(workers="x"),
            "zero-workers": _batch_body(workers=0),
            "old-shed": _batch_body(shed_after=1),
            "no-questions": {"database": "crime", "sql": SQL},
            "not-an-object": ["a", "list"],
        }
        for request_id, manifest in manifests.items():
            (journal_dir / f"{request_id}.request.json").write_text(
                json.dumps(manifest)
            )
        restarted = ServiceState(ServiceConfig(journal_dir=journal_dir))
        assert restarted.recover() == []
        restarted.ready.set()
        ready, document = restarted.ready_document()
        assert ready
        errors = document["recovery_errors"]
        assert len(errors) == len(manifests)
        for request_id in manifests:
            assert any(e.startswith(f"{request_id}:") for e in errors)


# ---------------------------------------------------------------------------
# chaos over the socket
# ---------------------------------------------------------------------------
CHAOS_SEEDS = range(0, 10)


class TestChaosOverSocket:
    """Seeded fault plans against a *live* server: injected operator /
    cache / compatibility faults must surface as structured degraded
    envelopes, never as hung sockets or dead processes."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_seeded_faults_yield_envelopes_not_crashes(self, seed):
        plan = FaultPlan.random(seed, faults=1 + seed % 3)
        with _live_server(workers=2) as (httpd, client):
            client.register_database(REGISTER)
            questions = [
                "(Person.name: Roger)",
                "(Person.name: Hannah)",
                "(Person.name: Zo)",
            ]
            with inject(plan):
                response = client.explain_batch(
                    _batch_body(questions, workers=2)
                )
            # totality: one outcome per question, 200 or 206, never a
            # connection reset
            assert response.status in (200, 206)
            outcomes = response.body["outcomes"]
            assert len(outcomes) == len(questions)
            for outcome in outcomes:
                assert outcome["degradation_level"] in (
                    "full",
                    "partial",
                    "failed",
                )
            # the process survived: liveness green, and a clean batch
            # right after the chaos one still answers in full
            assert client.healthz().status == 200
            clean = client.explain_batch(_batch_body(questions))
            assert clean.status in (200, 206)
            assert all(
                o["degradation_level"] == "full"
                for o in clean.body["outcomes"]
            )


# ---------------------------------------------------------------------------
# subprocess acceptance: kill/resume byte-identity and SIGTERM drain
# ---------------------------------------------------------------------------
KILL_QUESTIONS = [
    "(Person.name: Roger)",
    "(Person.name: Hannah)",
    "(Person.name: Ana)",
    "(Person.name: Zo)",
    "(Person.name: Ofelia)",
    "(Person.name: Milo)",
]


class _ServerProcess:
    """One ``repro.cli serve`` subprocess bound to an ephemeral port."""

    def __init__(self, journal_dir: Path, env_extra=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        env["REPRO_MANUAL_CLOCK"] = "1"
        env.pop("REPRO_JOURNAL_CRASH_AFTER", None)
        env.pop("REPRO_JOURNAL_SIGINT_AFTER", None)
        env.update(env_extra or {})
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--workers",
                "4",
                "--journal-dir",
                str(journal_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        assert self.proc.stdout is not None
        first = self.proc.stdout.readline()
        assert "listening on" in first, first
        self.port = int(first.rsplit(":", 1)[1])
        self.client = ServiceClient(port=self.port)
        self.client.wait_ready(30)

    def kill_wait(self) -> int:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        return self.proc.returncode


def _artifact_dir(tmp_path: Path, name: str) -> Path:
    configured = os.environ.get("REPRO_CHAOS_ARTIFACT_DIR")
    root = Path(configured) if configured else tmp_path
    path = root / name
    path.mkdir(parents=True, exist_ok=True)
    return path


class TestServiceKillResume:
    """The service-level resume proof: a journaled workers=4 batch over
    HTTP, SIGKILLed mid-run by the deterministic crash hook, converges
    after restart to outcomes byte-identical to an uninterrupted run."""

    def test_sigkilled_batch_resumes_byte_identical(self, tmp_path):
        clean_dir = _artifact_dir(tmp_path, "service-clean")
        killed_dir = _artifact_dir(tmp_path, "service-killed")
        body = {
            "request_id": "kill-batch",
            "database": "crime",
            "sql": SQL,
            "why_not": KILL_QUESTIONS,
            "workers": 4,
        }

        # 1. the uninterrupted oracle run
        server = _ServerProcess(clean_dir)
        try:
            assert server.client.register_database(REGISTER).ok
            clean = server.client.explain_batch(body)
            assert clean.status in (200, 206)
            clean_outcomes = clean.body["outcomes"]
            assert len(clean_outcomes) == len(KILL_QUESTIONS)
        finally:
            server.kill_wait()

        # 2. same batch, server SIGKILLed right after the second
        #    journal record is flushed (a kill -9, not a shutdown)
        server = _ServerProcess(
            killed_dir, env_extra={"REPRO_JOURNAL_CRASH_AFTER": "2"}
        )
        assert server.client.register_database(REGISTER).ok
        with pytest.raises(OSError):
            server.client.explain_batch(body)
        assert server.kill_wait() == -signal.SIGKILL
        # the flushed prefix survived: manifest + exactly 2 records,
        # and no result record
        journal_lines = (
            (killed_dir / "kill-batch.journal.jsonl")
            .read_text()
            .splitlines()
        )
        assert len(journal_lines) == 3
        assert list(json.loads(journal_lines[0])) == ["manifest"]
        assert all(
            "index" in json.loads(line) for line in journal_lines[1:]
        )

        # 3. restart on the same journal dir: recovery resumes the
        #    journal (replaying the durable records) before ready
        server = _ServerProcess(killed_dir)
        try:
            recovered = server.client.batch_result("kill-batch")
            assert recovered.status == 200
            assert recovered.body["replayed"] == 2
            # 4. byte-identical to the uninterrupted run
            assert json.dumps(
                recovered.body["outcomes"], sort_keys=True
            ) == json.dumps(clean_outcomes, sort_keys=True)
        finally:
            server.kill_wait()

    def test_registrations_survive_restart(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir()
        server = _ServerProcess(journal_dir)
        try:
            assert server.client.register_database(REGISTER).ok
        finally:
            server.kill_wait()
        server = _ServerProcess(journal_dir)
        try:
            # no re-registration: the registrations journal was
            # replayed, so explains work immediately after restart
            assert server.client.explain(_explain_body()).status == 200
        finally:
            server.kill_wait()


class TestServiceDrain:
    def test_sigterm_drains_to_exit_zero_with_empty_queue(
        self, tmp_path
    ):
        server = _ServerProcess(tmp_path / "journal")
        assert server.client.register_database(REGISTER).ok
        assert server.client.explain(_explain_body()).status == 200
        server.proc.send_signal(signal.SIGTERM)
        output, _ = server.proc.communicate(timeout=30)
        assert server.proc.returncode == 0, output
        assert "draining: SIGTERM received" in output
        assert "active_requests=0" in output

    def test_serve_rejects_bad_config_with_exit_2(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        # only 0 disables the request timeout: a negative one is a
        # configuration error, not a silent wait-forever
        for args, named in (
            (["--workers", "0"], "workers"),
            (["--request-timeout", "-5"], "request_timeout_s"),
        ):
            result = subprocess.run(
                [sys.executable, "-m", "repro.cli", "serve", *args,
                 "--json"],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert result.returncode == 2, args
            document = json.loads(result.stdout)
            assert document["error"]["type"] == "ConfigurationError"
            assert named in document["error"]["message"]


# ---------------------------------------------------------------------------
# storage backends behind the service
# ---------------------------------------------------------------------------
class TestStorageKinds:
    def test_storage_config_validation(self, tmp_path):
        """The service journals if and only if it has a journal
        directory, which it creates."""
        assert ServiceState(ServiceConfig()).backend is None
        journal_dir = tmp_path / "deep" / "j"
        state = ServiceState(ServiceConfig(journal_dir=journal_dir))
        assert state.backend.root == journal_dir
        assert journal_dir.is_dir()
        _ready, document = state.ready_document()
        assert document["storage"] == {
            "kind": "local",
            "root": str(journal_dir),
        }
        with pytest.raises(TypeError):
            ServiceConfig(storage="memory")

    def test_memory_storage_batches_without_touching_disk(self):
        state = _memory_state()
        state.ready.set()
        state.register_database(REGISTER)
        body = _batch_body(request_id="m1", workers=2)
        document, fresh = state.explain_batch(body)
        assert fresh
        again, fresh = state.explain_batch(body)
        assert not fresh  # idempotency via the stored result record
        assert again["outcomes"] == document["outcomes"]
        names = state.backend.io.listdir(state.backend.root)
        assert [n for n in names if n.startswith("m1.")] == [
            "m1.journal.jsonl"
        ]

    def test_journaled_storage_over_http(self, tmp_path):
        with _live_server(journal_dir=tmp_path / "journal") as (
            httpd,
            client,
        ):
            client.register_database(REGISTER)
            first = client.explain_batch(
                _batch_body(request_id="disk-http")
            )
            assert first.status == 200
            replay = client.explain_batch(
                _batch_body(request_id="disk-http")
            )
            assert replay.body["cached_result"] is True
            ready = client.readyz()
            assert ready.body["storage"]["kind"] == "local"
        assert (tmp_path / "journal" / "disk-http.journal.jsonl").exists()

    def test_readyz_reports_storage_recovery(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir()
        # a temp file stranded by a crash mid-atomic-write: recovery
        # quarantines it before the service flips ready
        (journal_dir / "junk.json.tmp").write_text("half a doc")
        state = ServiceState(ServiceConfig(journal_dir=journal_dir))
        _ready, document = state.ready_document()
        assert document["storage"]["kind"] == "local"
        assert document["storage_recovery"]["quarantined"] == [
            "junk.json.tmp"
        ]
        assert (journal_dir / "quarantine" / "junk.json.tmp").exists()


LEGACY_DIR = Path(__file__).parent / "fixtures" / "three_file_journal"


class TestLegacyJournalDirectory:
    """A journal directory of the older three-file layout recovers.

    ``tests/fixtures/three_file_journal`` was written by the service
    of that layout, under a manual clock: ``databases.json`` with its
    snapshot, a finished batch (``finished.request.json``,
    ``.journal.jsonl``, ``.result.json``) and an unfinished one
    (``unfinished.request.json`` and a journal of 2 of its 4 question
    records, left by ``REPRO_JOURNAL_CRASH_AFTER=2``).  Both ran with
    ``workers: 1``.
    """

    def _restart(self, journal_dir):
        with use_clock(ManualClock()):
            state = ServiceState(ServiceConfig(journal_dir=journal_dir))
            recovered = state.recover()
        state.ready.set()
        return state, recovered

    def test_converted_once_finished_served_unfinished_converges(
        self, tmp_path
    ):
        journal_dir = tmp_path / "journal"
        shutil.copytree(LEGACY_DIR, journal_dir)
        legacy_result = json.loads(
            (LEGACY_DIR / "finished.result.json").read_text()
        )
        manifests = {
            request_id: json.loads(
                (LEGACY_DIR / f"{request_id}.request.json").read_text()
            )
            for request_id in ("finished", "unfinished")
        }
        state, recovered = self._restart(journal_dir)
        assert recovered == ["unfinished"]
        assert state.ready_document()[1].get("recovery_errors") is None
        # one file per batch, databases.json and its snapshot became
        # the registrations journal, and no file of the old layout is
        # left
        assert sorted(p.name for p in journal_dir.iterdir()) == [
            "finished.journal.jsonl",
            REGISTRATIONS,
            "unfinished.journal.jsonl",
        ]
        assert (journal_dir / REGISTRATIONS).read_text() == (
            '{"registration":{"name":"crime","source":'
            '{"use_case_db":"crime"}}}\n'
        )
        # the finished batch is served unchanged
        assert state.batch_result("finished") == legacy_result
        again, fresh = state.explain_batch(manifests["finished"])
        assert not fresh and again == legacy_result
        # the unfinished one resumed from its two records and converged
        # to what an uninterrupted run of its manifest answers
        resumed = state.batch_result("unfinished")
        assert resumed["replayed"] == 2
        with use_clock(ManualClock()):
            clean_state = _memory_state()
            clean_state.register_database(REGISTER)
            clean, _ = clean_state.explain_batch(manifests["unfinished"])
        assert json.dumps(resumed["outcomes"], sort_keys=True) == (
            json.dumps(clean["outcomes"], sort_keys=True)
        )
        # a second start finds nothing to convert or re-run
        restarted, recovered = self._restart(journal_dir)
        assert recovered == []
        assert restarted.batch_result("unfinished") == resumed
        assert restarted.batch_result("finished") == legacy_result

    def test_old_documents_beside_a_converted_journal_are_removed(
        self, tmp_path
    ):
        """A crash after the journal's rename, before the old documents
        are unlinked: the next start only removes them."""
        journal_dir = tmp_path / "journal"
        shutil.copytree(LEGACY_DIR, journal_dir)
        self._restart(journal_dir)
        converted = {
            name: (journal_dir / name).read_text()
            for name in ("finished.journal.jsonl", REGISTRATIONS)
        }
        for name in (
            "finished.request.json",
            "finished.result.json",
            "databases.json",
            "databases.gen-1.snap.json",
        ):
            shutil.copy(LEGACY_DIR / name, journal_dir / name)
        state, recovered = self._restart(journal_dir)
        assert recovered == []
        for name, text in converted.items():
            assert (journal_dir / name).read_text() == text
        assert sorted(p.name for p in journal_dir.iterdir()) == [
            "finished.journal.jsonl",
            REGISTRATIONS,
            "unfinished.journal.jsonl",
        ]
        assert state.databases_document()["crime"]["source"] == {
            "use_case_db": "crime"
        }

    def test_unparsable_databases_json_refuses_startup(self, tmp_path):
        journal_dir = tmp_path / "journal"
        shutil.copytree(LEGACY_DIR, journal_dir)
        (journal_dir / "databases.json").write_text('{"crime": {"use')
        with pytest.raises(ConfigurationError, match="move the file"):
            ServiceState(ServiceConfig(journal_dir=journal_dir))
        assert not (journal_dir / REGISTRATIONS).exists()


# ---------------------------------------------------------------------------
# request timeouts: a stalled client must not hold a worker forever
# ---------------------------------------------------------------------------
class TestRequestTimeout:
    def test_config_rejects_non_positive_timeout(self):
        with pytest.raises(ConfigurationError, match="timeout"):
            ServiceConfig(request_timeout_s=0)
        with pytest.raises(ConfigurationError, match="timeout"):
            ServiceConfig(request_timeout_s=-1)
        assert ServiceConfig(request_timeout_s=None).request_timeout_s is None

    def test_stalled_body_gets_408_and_connection_close(self):
        with _live_server(request_timeout_s=0.4) as (httpd, client):
            client.register_database(REGISTER)
            port = httpd.server_address[1]
            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.settimeout(15)
                # promise 4096 body bytes, deliver 8, then stall: the
                # read blocks until the socket timeout fires
                sock.sendall(
                    b"POST /v1/explain HTTP/1.1\r\n"
                    b"Host: t\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 4096\r\n"
                    b"\r\n"
                    b'{"data":'
                )
                chunks = []
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break  # server closed the connection: good
                    chunks.append(chunk)
            response = b"".join(chunks)
            assert b" 408 " in response.splitlines()[0]
            assert b"RequestTimeout" in response
            # no worker was left hung: the server still answers
            assert client.healthz().status == 200
            assert client.explain(_explain_body()).status == 200
            timeouts = client.metrics().body["metrics"]
            assert timeouts["service.timeouts"]["value"] >= 1


# ---------------------------------------------------------------------------
# keep-alive connections: reuse, early-response closes, no Nagle stall
# ---------------------------------------------------------------------------
def _connections(httpd) -> int:
    return httpd.state.metrics.counter("service.connections").value


def _prepare_starting(httpd):
    httpd.state.ready.clear()
    return httpd.state.ready.set


def _prepare_draining(httpd):
    httpd.state.begin_drain("test drain")
    return lambda: None


def _prepare_shed(httpd):
    httpd.state.gate.acquire()
    return httpd.state.gate.release


def _no_preparation(httpd):
    return lambda: None


_JSON = {"Content-Type": "application/json"}

#: (id, config, prepare, path, headers, expected status): every way a
#: response goes out before the request's declared body is read
_EARLY_RESPONSES = [
    ("404-post-route", {}, _no_preparation, "/v1/nope", {}, 404),
    ("503-starting", {}, _prepare_starting, "/v1/explain", {}, 503),
    ("503-draining", {}, _prepare_draining, "/v1/explain", {}, 503),
    ("429-shed", {"shed_after": 1}, _prepare_shed, "/v1/explain", {}, 429),
    (
        "bad-content-length",
        {},
        _no_preparation,
        "/v1/explain",
        {"Content-Length": "abc"},
        400,
    ),
    (
        "oversized-content-length",
        {},
        _no_preparation,
        "/v1/explain",
        {"Content-Length": str(8 * 1024 * 1024 + 1)},
        400,
    ),
    (
        "chunked-body",
        {},
        _no_preparation,
        "/v1/explain",
        {"Transfer-Encoding": "chunked"},
        400,
    ),
    # /v1/admin/reload is not a route: a 404 like any unknown path
    (
        "admin-reload-with-body",
        {},
        _no_preparation,
        "/v1/admin/reload",
        {},
        404,
    ),
]


class TestKeepAlive:
    @pytest.mark.parametrize(
        "config, prepare, path, headers, status",
        [case[1:] for case in _EARLY_RESPONSES],
        ids=[case[0] for case in _EARLY_RESPONSES],
    )
    def test_early_response_closes_the_connection(
        self, config, prepare, path, headers, status
    ):
        """A response sent before the declared body was read closes
        the connection, so the unread body is never parsed as the next
        request line."""
        with _live_server(**config) as (httpd, client):
            client.register_database(REGISTER)
            restore = prepare(httpd)
            connection = http.client.HTTPConnection(
                "127.0.0.1", httpd.server_address[1], timeout=15
            )
            try:
                connection.request(
                    "POST",
                    path,
                    body=json.dumps(_explain_body()).encode(),
                    headers={**_JSON, **headers},
                )
                response = connection.getresponse()
                assert response.status == status
                assert response.getheader("Connection") == "close"
                assert isinstance(json.loads(response.read()), dict)
                restore()
                # the same client object asks again: a JSON answer,
                # not a 400 page parsed out of the leftover body
                connection.request("GET", "/healthz")
                follow_up = connection.getresponse()
                assert follow_up.status == 200
                assert json.loads(follow_up.read())["status"] == "alive"
            finally:
                connection.close()

    def test_read_body_keeps_the_connection(self):
        """A request whose body was read -- even one answered with an
        error -- leaves the connection open for the next request."""
        with _live_server() as (httpd, client):
            client.register_database(REGISTER)
            connection = http.client.HTTPConnection(
                "127.0.0.1", httpd.server_address[1], timeout=15
            )
            try:
                connection.request(
                    "POST", "/v1/explain", body=b"not json", headers=_JSON
                )
                bad = connection.getresponse()
                assert bad.status == 400
                assert bad.getheader("Connection") is None
                bad.read()
                sock = connection.sock
                connection.request(
                    "POST",
                    "/v1/explain",
                    body=json.dumps(_explain_body()).encode(),
                    headers=_JSON,
                )
                good = connection.getresponse()
                assert good.status == 200
                assert json.loads(good.read())["report"]["answers"]
                assert connection.sock is sock  # no reconnect
            finally:
                connection.close()

    def test_no_nagle_stall_on_sequential_requests(self):
        """50 keep-alive requests on one connection: with Nagle on,
        each would wait out a delayed ACK (~44 ms, ~2.2 s in all)."""
        with _live_server() as (httpd, client):
            connection = http.client.HTTPConnection(
                "127.0.0.1", httpd.server_address[1], timeout=15
            )
            try:
                connection.request("GET", "/healthz")
                connection.getresponse().read()
                sock = connection.sock
                started = time.perf_counter()
                for _ in range(50):
                    connection.request("GET", "/healthz")
                    response = connection.getresponse()
                    assert response.status == 200
                    response.read()
                elapsed = time.perf_counter() - started
                assert connection.sock is sock
                assert elapsed < 1.0, f"50 requests took {elapsed:.2f}s"
            finally:
                connection.close()

    def test_one_client_thread_uses_one_connection(self, tmp_path):
        with _live_server(journal_dir=tmp_path / "journal") as (
            httpd,
            client,
        ):
            assert client.register_database(REGISTER).ok
            for _ in range(5):
                assert client.explain(_explain_body()).status == 200
            assert client.explain_batch(
                _batch_body(request_id="keep-alive")
            ).ok
            assert client.batch_result("keep-alive").ok
            assert client.request("GET", "/nope").status == 404
            assert client.explain(_explain_body(database="nope")).status == (
                404
            )
            assert client.metrics().ok
            # wait_ready, register and all the rest: one connection
            assert _connections(httpd) == 1

    def test_client_reconnects_after_idle_reap(self):
        """The server drops an idle connection after its socket
        timeout; the client's next request reconnects and resends."""
        with _live_server(request_timeout_s=0.2) as (httpd, client):
            assert client.register_database(REGISTER).ok
            before = _connections(httpd)
            time.sleep(0.6)  # the server reaps the idle connection
            response = client.explain(_explain_body())
            assert response.status == 200
            assert response.body["report"]["answers"]
            assert _connections(httpd) == before + 1
            assert client.healthz().status == 200
            assert _connections(httpd) == before + 1

    def test_client_shared_by_four_threads(self):
        questions = ["(Person.name: Roger)", "(Person.name: Hannah)"]
        with _live_server() as (httpd, client):
            client.register_database(REGISTER)
            expected = {
                q: client.explain(_explain_body(q)).body["report"]["answers"]
                for q in questions
            }
            before = _connections(httpd)
            answers: list = []
            errors: list = []

            def ask(offset: int) -> None:
                try:
                    for i in range(6):
                        question = questions[(offset + i) % 2]
                        response = client.explain(_explain_body(question))
                        answers.append(
                            (
                                question,
                                response.status,
                                response.body["report"]["answers"],
                            )
                        )
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=ask, args=(n,)) for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not errors, errors
            assert len(answers) == 24
            for question, status, got in answers:
                assert status == 200
                assert got == expected[question]
            # one connection per calling thread
            assert _connections(httpd) == before + 4

    def test_close_and_context_manager(self):
        with _live_server() as (httpd, client):
            port = httpd.server_address[1]
            with ServiceClient(port=port) as scoped:
                assert scoped.healthz().ok
                assert scoped.healthz().ok
            before = _connections(httpd)
            scoped.close()  # idempotent
            # a closed client reconnects on its next request
            assert scoped.healthz().ok
            assert _connections(httpd) == before + 1
            scoped.close()


# ---------------------------------------------------------------------------
# storage is never replicated: /readyz carries no replica block
# ---------------------------------------------------------------------------
class TestReplicatedService:
    def test_unreplicated_readyz_has_no_replica_block(self):
        state = _memory_state()
        state.ready.set()
        ready, document = state.ready_document()
        assert ready and document["status"] == "ready"
        assert "replicas" not in document


# ---------------------------------------------------------------------------
# client pushback retry (RetryPolicy + Retry-After)
# ---------------------------------------------------------------------------
class _ScriptedClient(ServiceClient):
    """A client whose transport replays a scripted response list."""

    def __init__(self, responses, **kw):
        super().__init__(**kw)
        self.responses = list(responses)
        self.sent = 0

    def _send(self, method, path, body=None, headers=None):
        response = self.responses[
            min(self.sent, len(self.responses) - 1)
        ]
        self.sent += 1
        return response


class TestClientRetry:
    def test_retries_pushback_until_success(self):
        from repro.service.client import RetryPolicy, ServiceResponse

        clock = ManualClock()
        client = _ScriptedClient(
            [
                ServiceResponse(status=429, retry_after_s=2.0),
                ServiceResponse(status=503),
                ServiceResponse(status=200, body={"ok": True}),
            ],
            retry=RetryPolicy(
                max_attempts=5, backoff_ms=100.0, jitter=0.0
            ),
        )
        with use_clock(clock):
            response = client.explain_batch({"why_not": ["(q: x)"]})
        assert response.status == 200
        assert client.sent == 3
        # first wait honours Retry-After (2.0 > 0.1); second falls
        # back to the policy backoff (0.2) -- and no real time passed
        assert clock.monotonic() == pytest.approx(2.2)

    def test_retry_budget_is_bounded(self):
        from repro.service.client import RetryPolicy, ServiceResponse

        client = _ScriptedClient(
            [ServiceResponse(status=429, retry_after_s=0.5)],
            retry=RetryPolicy(max_attempts=3, jitter=0.0),
        )
        with use_clock(ManualClock()):
            response = client.healthz()
        assert response.status == 429  # surfaced after the budget
        assert client.sent == 3

    def test_non_pushback_statuses_return_immediately(self):
        from repro.service.client import RetryPolicy, ServiceResponse

        client = _ScriptedClient(
            [ServiceResponse(status=404)],
            retry=RetryPolicy(max_attempts=5),
        )
        response = client.healthz()
        assert response.status == 404
        assert client.sent == 1

    def test_no_policy_means_single_shot(self):
        from repro.service.client import ServiceResponse

        client = _ScriptedClient([ServiceResponse(status=503)])
        assert client.healthz().status == 503
        assert client.sent == 1
