"""The HTTP/JSON surface of why-not-as-a-service.

A deliberately stdlib-only server (``http.server.ThreadingHTTPServer``)
following the client <-> server <-> storage split of swh-provenance:
the handlers here only parse HTTP and delegate every decision to
:class:`~repro.service.state.ServiceState`.  Robustness is the
organizing principle, layered in this order on every work request:

1. **drain check** -- a draining server refuses new work with 503 (and
   ``Retry-After``) while ``/healthz`` stays 200: liveness and
   readiness are different questions;
2. **admission control** -- a bounded in-flight request set
   (:class:`~repro.service.state.AdmissionGate`); past ``shed_after``,
   arrivals are shed with 429 immediately (mapping
   :class:`~repro.errors.LoadShedError`), never parked unboundedly;
3. **deadline propagation** -- ``X-Deadline-Ms`` / ``budget`` become a
   :class:`~repro.robustness.Budget`, so a slow question returns a
   *partial* answer in a 206 envelope instead of hanging the client.

Routes::

    GET  /healthz              liveness (200 while the process runs)
    GET  /readyz               readiness (503 while starting or
                               draining)
    GET  /metrics              MetricsRegistry snapshot (JSON, or
                               Prometheus text with ?format=prometheus)
    GET  /v1/databases         the registered databases
    POST /v1/databases         register + warm a database
    POST /v1/explain           one question -> one report
    POST /v1/explain_batch     N questions through ParallelExecutor,
                               journaled crash-safe when a journal
                               directory is configured
    GET  /v1/batches/<id>      stored result of a journaled batch

Connections carry a socket timeout (``--request-timeout``): a client
that stalls mid-request gets a clean 408 envelope and its connection
closed instead of parking a worker thread forever, and idle keep-alive
connections are reaped by the same clock.

Connections are HTTP/1.1 keep-alive with ``TCP_NODELAY`` set, and a
response leaves in one send when it fits the 64 KiB write buffer.  A
response closes its connection (``Connection: close``) when it was
sent before the request's declared body was read -- a 404 on a POST,
a 429 or 503 refusal, a bad ``Content-Length`` -- because the unread
body would be parsed as the next request, and every response closes
it once the server is draining.

Every error is one JSON envelope -- ``{"error": {"type", "message",
"status"}}`` -- mirroring the CLI's ``--json`` error contract.

:func:`serve` owns the process lifecycle: bind, recover journaled
batches, flip ready, serve until SIGTERM/SIGINT, drain (in-flight
requests finish; batch executors cancel unstarted questions through
the shared :class:`~repro.robustness.CancellationToken`), exit 0 on a
clean drain.  A second signal forces shutdown (exit 5).
"""

from __future__ import annotations

import json
import math
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, TextIO
from urllib.parse import urlparse, parse_qs

from ..errors import (
    ConditionError,
    ConfigurationError,
    LoadShedError,
    QueryError,
    ReproError,
    SchemaError,
    ServiceError,
    SqlSyntaxError,
    UnknownRelationError,
    UnsupportedQueryError,
    WhyNotQuestionError,
)
from ..obs.clock import use_clock
from ..obs.export import render_prometheus
from .state import ServiceConfig, ServiceState

__all__ = ["ReproServiceServer", "ServiceHandler", "serve"]

#: serve() exit codes (the full table lives in docs/robustness.md):
#: 0 = clean drain (every admitted request finished, pending queue
#: empty); 2 = startup/configuration failure; 5 = forced shutdown (a
#: second signal arrived, or in-flight work outlived --drain-timeout).
SERVE_EXIT_OK = 0
SERVE_EXIT_ERROR = 2
SERVE_EXIT_FORCED = 5

#: ``Retry-After`` seconds reported on shed, starting and draining
#: responses.
RETRY_AFTER_S = 1.0

#: HTTP status for each library error class the handlers map.  Order
#: matters: the first isinstance match wins, so the throttling class
#: precedes the catch-all bad-request ones.
_ERROR_STATUS: dict[type, int] = {
    LoadShedError: 429,
    ConfigurationError: 400,
    SqlSyntaxError: 400,
    UnsupportedQueryError: 400,
    WhyNotQuestionError: 400,
    UnknownRelationError: 400,
    SchemaError: 400,
    QueryError: 400,
    ConditionError: 400,
}

MAX_BODY_BYTES = 8 * 1024 * 1024


class ReproServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared :class:`ServiceState`."""

    #: handler threads must not block process exit after a forced stop
    daemon_threads = True
    #: the drain waits on the admission gate, not on thread joins
    block_on_close = False
    allow_reuse_address = True

    def __init__(self, address, handler, state: ServiceState):
        self.state = state
        super().__init__(address, handler)


class ServiceHandler(BaseHTTPRequestHandler):
    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"
    #: with Nagle on, a kept-alive client waits out the delayed ACK
    #: whenever a response leaves in more than one send
    disable_nagle_algorithm = True
    #: buffer each response so headers and body leave in one send
    #: (handle_one_request flushes after every request)
    wbufsize = 64 * 1024
    #: the route of the current request, counted per response
    _route = "unknown"
    #: whether the current request's body has been read
    _body_read = False

    # -- plumbing ------------------------------------------------------
    @property
    def state(self) -> ServiceState:
        return self.server.state  # type: ignore[attr-defined]

    def setup(self) -> None:
        # per-connection socket timeout: BaseHTTPRequestHandler applies
        # self.timeout to the connection in setup(), which both reaps
        # idle keep-alive connections and bounds how long a stalled
        # sender can hold a handler thread (see _fail_from's 408 path)
        self.timeout = self.state.config.request_timeout_s
        super().setup()
        self.state.metrics.counter("service.connections").inc()

    def log_message(self, format: str, *args: Any) -> None:
        # access logging goes to /metrics, not stderr noise
        pass

    def _unread_body(self) -> bool:
        """Whether the request declared a body this handler never read.

        Such a body is still in the socket: on a kept-alive connection
        it would be parsed as the next request line.
        """
        if self._body_read:
            return False
        length = self.headers.get("Content-Length")
        return (
            length is not None and length.strip() != "0"
        ) or "Transfer-Encoding" in self.headers

    def _respond(
        self,
        status: int,
        document: dict,
        retry_after_s: float | None = None,
    ) -> None:
        # compact separators keep json.dumps on its C encoder
        payload = (
            json.dumps(
                document,
                sort_keys=True,
                separators=(",", ":"),
                default=str,
            )
            + "\n"
        ).encode("utf-8")
        self._write_response(
            status, "application/json", payload, retry_after_s
        )

    def _respond_text(self, status: int, text: str) -> None:
        self._write_response(
            status, "text/plain; version=0.0.4", text.encode("utf-8")
        )

    def _write_response(
        self,
        status: int,
        content_type: str,
        payload: bytes,
        retry_after_s: float | None = None,
    ) -> None:
        # count before the bytes hit the wire: a client that reads the
        # response and immediately scrapes /metrics must see this one
        self.state.metrics.counter("service.responses").inc()
        self.state.metrics.counter(
            f"service.responses.{status}"
        ).inc()
        self.state.metrics.counter(
            f"service.route.{self._route}"
        ).inc()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if retry_after_s is not None:
            self.send_header(
                "Retry-After", str(max(1, math.ceil(retry_after_s)))
            )
        if self.state.draining or self._unread_body():
            # answered before the body was read (404, 429, 503, a bad
            # Content-Length), or the server is going away: the
            # connection cannot carry another request
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _fail(
        self,
        status: int,
        error_type: str,
        message: str,
        retry_after_s: float | None = None,
    ) -> None:
        self._respond(
            status,
            {
                "error": {
                    "type": error_type,
                    "message": message,
                    "status": status,
                }
            },
            retry_after_s=retry_after_s,
        )

    def _fail_from(self, exc: Exception) -> None:
        if isinstance(exc, TimeoutError):
            # the client stalled mid-request past the socket timeout:
            # answer 408 (the write side of the socket still works)
            # and drop the connection -- its unread body makes it
            # unusable for keep-alive
            self.close_connection = True
            self.state.metrics.counter("service.timeouts").inc()
            self._fail(
                408,
                "RequestTimeout",
                "client stalled while sending the request (socket "
                f"timeout {self.state.config.request_timeout_s}s)",
            )
            return
        if isinstance(exc, ServiceError) and exc.status is not None:
            self._fail(exc.status, type(exc).__name__, str(exc))
            return
        retry_after = None
        status = 500
        for klass, mapped in _ERROR_STATUS.items():
            if isinstance(exc, klass):
                status = mapped
                break
        if isinstance(exc, LoadShedError):
            retry_after = RETRY_AFTER_S
        if status == 500 and not isinstance(exc, ReproError):
            # never leak a raw traceback as a closed connection
            self._fail(500, "InternalError", f"{type(exc).__name__}: {exc}")
            return
        self._fail(
            status, type(exc).__name__, str(exc),
            retry_after_s=retry_after,
        )

    def _read_body(self) -> dict:
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise ConfigurationError(
                f"Content-Length must be an integer, got {raw_length!r}"
            ) from None
        if length <= 0:
            raise ConfigurationError(
                "request needs a JSON body (Content-Length missing "
                "or zero)"
            )
        if length > MAX_BODY_BYTES:
            raise ConfigurationError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length)
        self._body_read = True
        try:
            body = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigurationError(
                f"request body is not valid JSON: {exc}"
            ) from exc
        if not isinstance(body, dict):
            raise ConfigurationError(
                "request body must be a JSON object"
            )
        return body

    def _with_deadline(self, body: dict) -> dict:
        """*body* with an ``X-Deadline-Ms`` header folded into its
        ``budget.deadline_ms`` (explain requests only)."""
        deadline_ms = self.headers.get("X-Deadline-Ms")
        if deadline_ms is not None:
            try:
                parsed = float(deadline_ms)
            except ValueError:
                raise ConfigurationError(
                    f"X-Deadline-Ms must be a number, got "
                    f"{deadline_ms!r}"
                ) from None
            budget = dict(body.get("budget") or {})
            budget.setdefault("deadline_ms", parsed)
            body["budget"] = budget
        return body

    # -- routing -------------------------------------------------------
    # Each verb re-installs the state's clock first: handler threads
    # start with a fresh contextvars context, so the manual clock a
    # REPRO_MANUAL_CLOCK server was started under would otherwise not
    # reach the work these threads run.
    # A kept-alive connection reuses this handler, so per-request
    # state is reset first.
    def do_GET(self) -> None:  # noqa: N802 -- BaseHTTPRequestHandler API
        self._route, self._body_read = "unknown", False
        with use_clock(self.state.clock):
            self._do_get()

    def do_POST(self) -> None:  # noqa: N802 -- BaseHTTPRequestHandler API
        self._route, self._body_read = "unknown", False
        with use_clock(self.state.clock):
            self._do_post()

    def _do_get(self) -> None:
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        try:
            if path == "/healthz":
                self._route = "healthz"
                self._respond(200, self.state.health_document())
            elif path == "/readyz":
                self._route = "readyz"
                ready, document = self.state.ready_document()
                self._respond(
                    200 if ready else 503,
                    document,
                    retry_after_s=None if ready else RETRY_AFTER_S,
                )
            elif path == "/metrics":
                self._route = "metrics"
                document = self.state.metrics_document()
                wants_text = parse_qs(parsed.query).get(
                    "format", ["json"]
                )[0] == "prometheus"
                if wants_text:
                    self._respond_text(
                        200, render_prometheus(document["metrics"])
                    )
                else:
                    self._respond(200, document)
            elif path == "/v1/databases":
                self._route = "databases"
                self._respond(
                    200,
                    {"databases": self.state.databases_document()},
                )
            elif path.startswith("/v1/batches/"):
                self._route = "batch_result"
                request_id = path[len("/v1/batches/"):]
                self._respond(
                    200, self.state.batch_result(request_id)
                )
            else:
                self._fail(
                    404, "ServiceError", f"no such route: GET {path}"
                )
        except Exception as exc:  # noqa: BLE001 -- envelope, not socket reset
            self._fail_from(exc)

    def _do_post(self) -> None:
        path = urlparse(self.path).path.rstrip("/")
        try:
            if path == "/v1/databases":
                self._route = "register"
                self._respond(
                    200,
                    self.state.register_database(self._read_body()),
                )
            elif path == "/v1/explain":
                self._route = "explain"
                self._handle_work(batch=False)
            elif path == "/v1/explain_batch":
                self._route = "explain_batch"
                self._handle_work(batch=True)
            else:
                self._fail(
                    404, "ServiceError", f"no such route: POST {path}"
                )
        except Exception as exc:  # noqa: BLE001 -- envelope, not socket reset
            self._fail_from(exc)

    # -- the work endpoints --------------------------------------------
    def _handle_work(self, batch: bool) -> None:
        state = self.state
        if state.draining or not state.ready.is_set():
            self._fail(
                503,
                "ServiceUnavailable",
                "service is draining"
                if state.draining
                else "service is starting",
                retry_after_s=RETRY_AFTER_S,
            )
            return
        state.gate.acquire()
        try:
            body = self._with_deadline(self._read_body())
            if batch:
                document, fresh = state.explain_batch(body)
                document["cached_result"] = not fresh
            else:
                document = state.explain_single(body)
            level = document.get("degradation_level", "full")
            self._respond(200 if level == "full" else 206, document)
        finally:
            state.gate.release()


def serve(
    config: ServiceConfig,
    stdout: TextIO | None = None,
    install_signal_handlers: bool = True,
    on_started=None,
) -> int:
    """Run the service until a drain signal; the process exit code.

    Lifecycle: bind (a bind failure raises
    :class:`~repro.errors.ConfigurationError` -- exit 2 through the
    CLI), recover journaled batches, flip ready, serve.  The first
    SIGTERM/SIGINT starts a graceful drain: readiness flips to 503, the
    accept loop stops, admitted requests run to completion (batch
    executors cancel their unstarted questions cooperatively), and the
    process exits 0 with an empty pending queue.  A second signal -- or
    in-flight work that outlives ``drain_timeout_s`` -- forces exit 5.

    *on_started* (mainly for tests) receives the bound
    :class:`ReproServiceServer` once it is ready.
    """
    out = stdout if stdout is not None else sys.stdout
    state = ServiceState(config)
    try:
        httpd = ReproServiceServer(
            (config.host, config.port), ServiceHandler, state
        )
    except OSError as exc:
        raise ConfigurationError(
            f"cannot bind {config.host}:{config.port}: {exc}"
        ) from exc
    host, port = httpd.server_address[0], httpd.server_address[1]
    print(f"listening on {host}:{port}", file=out, flush=True)
    recovered = state.recover()
    if recovered:
        print(
            f"recovered {len(recovered)} journaled batch(es): "
            f"{', '.join(recovered)}",
            file=out,
            flush=True,
        )
    state.ready.set()
    print(
        f"service ready on {host}:{port} "
        f"(workers={config.workers}, shed_after={config.shed_after}, "
        f"journal_dir={config.journal_dir})",
        file=out,
        flush=True,
    )

    forced: list[str] = []

    def _signal_handler(signum, frame) -> None:
        name = signal.Signals(signum).name
        if state.begin_drain(f"drain requested by {name}"):
            print(f"draining: {name} received", file=out, flush=True)
        else:
            forced.append(name)
            print(
                f"forcing shutdown: second signal {name}",
                file=out,
                flush=True,
            )
        # shutdown() must not run on the serve_forever thread
        threading.Thread(target=httpd.shutdown, daemon=True).start()

    previous: dict[int, Any] = {}
    if (
        install_signal_handlers
        and threading.current_thread() is threading.main_thread()
    ):
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _signal_handler)
    try:
        if on_started is not None:
            on_started(httpd)
        httpd.serve_forever(poll_interval=0.05)
    finally:
        httpd.server_close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    drained = state.wait_idle(config.drain_timeout_s)
    print(
        f"drain complete: active_requests={state.gate.active} "
        f"shed_total={state.gate.shed_total} "
        f"forced={bool(forced)} clean={drained and not forced}",
        file=out,
        flush=True,
    )
    if forced or not drained:
        return SERVE_EXIT_FORCED
    return SERVE_EXIT_OK
