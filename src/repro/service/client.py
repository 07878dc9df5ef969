"""A thin stdlib client for the why-not service.

Used by the test suite and the CI smoke driver; also a reasonable
starting point for real callers.  Every call returns a
:class:`ServiceResponse` -- status code, parsed JSON body, and the
``Retry-After`` header when the server sent one -- and *never* raises
on HTTP error status: shedding and draining refusals are expected
behaviour of a robust service, so the caller inspects
``response.status`` instead of catching exceptions.  Transport-level
failures (connection refused, reset) do raise ``OSError`` and friends;
:meth:`ServiceClient.wait_ready` wraps the retry loop callers need at
startup.

Requests reuse one kept-alive HTTP/1.1 connection per calling thread,
so a client shared by several threads never interleaves two exchanges
on one socket.  A server ``Connection: close`` is honoured (the next
request opens a fresh connection).  When a *reused* connection fails
before any response byte arrives -- the server reaped it as idle --
the request is sent once more on a new connection: every route is safe
to repeat (explain is pure, a batch is keyed by its ``request_id``, and
re-registering a database ends in the same state).  :meth:`close`, or
leaving a ``with`` block, closes every connection the client opened.

A client built with a :class:`RetryPolicy` also retries *pushback*
responses -- 429 (shedding) and 503 (draining) -- waiting the
larger of the server's ``Retry-After`` and the policy's backoff between
attempts.  The wait runs on the ambient clock
(:func:`repro.obs.clock.current_clock`), so tests drive it with a
:class:`~repro.obs.clock.ManualClock` and never sleep for real.  Other
statuses are returned immediately: only pushback is a promise that
retrying can help.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import ConfigurationError
from ..obs.clock import current_clock

__all__ = [
    "RETRY_STATUSES",
    "RetryPolicy",
    "ServiceClient",
    "ServiceResponse",
]

#: response statuses the retry policy treats as server pushback
RETRY_STATUSES = (429, 503)

#: how a reused keep-alive connection fails when the server closed it
#: before the request reached it (``RemoteDisconnected`` is the
#: empty-status-line case of ``ConnectionResetError``)
_STALE_CONNECTION_ERRORS = (
    http.client.RemoteDisconnected,
    BrokenPipeError,
    ConnectionResetError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """How often, and how patiently, a pushed-back request is re-sent.

    ``max_attempts`` counts *total* attempts (1 = no retry).  The delay
    before retry *k* (0-based) is::

        min(backoff_ms * multiplier**k, max_backoff_ms) * jitter_factor

    where ``jitter_factor`` is drawn deterministically from
    ``(seed, key, k)`` in ``[1 - jitter, 1 + jitter]`` -- spreading a
    thundering herd without sacrificing reproducibility.
    """

    max_attempts: int = 3
    #: base delay before the first retry, in milliseconds
    backoff_ms: float = 100.0
    multiplier: float = 2.0
    max_backoff_ms: float = 30_000.0
    #: +- fraction of deterministic jitter applied to each delay
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_ms < 0 or self.max_backoff_ms < 0:
            raise ConfigurationError(
                "backoff_ms and max_backoff_ms must be >= 0, got "
                f"{self.backoff_ms!r} / {self.max_backoff_ms!r}"
            )
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier!r}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter!r}"
            )

    def delay_s(self, retry_index: int, key: str = "") -> float:
        """Seconds to wait before retry *retry_index* (0-based)."""
        if retry_index < 0:
            raise ConfigurationError(
                f"retry_index must be >= 0, got {retry_index}"
            )
        delay_ms = min(
            self.backoff_ms * self.multiplier ** retry_index,
            self.max_backoff_ms,
        )
        if self.jitter and delay_ms > 0:
            rng = random.Random(f"{self.seed}:{key}:{retry_index}")
            delay_ms *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay_ms / 1000.0


@dataclass(frozen=True)
class ServiceResponse:
    """One HTTP exchange: status, parsed body, selected headers."""

    status: int
    body: dict = field(default_factory=dict)
    retry_after_s: float | None = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def error(self) -> dict | None:
        """The server's error envelope, or ``None`` on success."""
        value = self.body.get("error")
        return value if isinstance(value, dict) else None

    def __repr__(self) -> str:
        suffix = (
            f", error={self.error['type']}" if self.error else ""
        )
        return f"ServiceResponse(status={self.status}{suffix})"


class ServiceClient:
    """HTTP client bound to one server address."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout_s: float = 30.0,
        retry: RetryPolicy | None = None,
    ):
        self.host = host
        self.port = port
        self.base = f"http://{host}:{port}"
        self.timeout_s = timeout_s
        #: when set, 429/503 responses are retried (bounded by
        #: ``retry.max_attempts``), honouring ``Retry-After``
        self.retry = retry
        #: this thread's kept-alive connection
        self._local = threading.local()
        #: every connection opened, so :meth:`close` reaches all threads'
        self._connections: list[http.client.HTTPConnection] = []
        self._connections_lock = threading.Lock()

    # -- transport -----------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> ServiceResponse:
        """One logical request: a single exchange, plus the bounded
        pushback-retry loop when a :class:`RetryPolicy` is set.

        The wait before retry *k* is the larger of the server's
        ``Retry-After`` and the policy's backoff for *k* -- the server
        knows how loaded it is, the policy knows how patient the
        caller can afford to be.
        """
        response = self._send(method, path, body, headers)
        if self.retry is None:
            return response
        retry_index = 0
        while (
            response.status in RETRY_STATUSES
            and retry_index < self.retry.max_attempts - 1
        ):
            delay = self.retry.delay_s(retry_index, key=path)
            if response.retry_after_s is not None:
                delay = max(delay, response.retry_after_s)
            if delay > 0:
                current_clock().sleep(delay)
            retry_index += 1
            response = self._send(method, path, body, headers)
        return response

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
            self._local.connection = connection
            with self._connections_lock:
                self._connections.append(connection)
        return connection

    def _send(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> ServiceResponse:
        data = (
            json.dumps(body).encode("utf-8")
            if body is not None
            else None
        )
        request_headers: dict[str, str] = {}
        if data is not None:
            request_headers["Content-Type"] = "application/json"
        request_headers.update(headers or {})
        connection = self._connection()
        # http.client drops the socket after a Connection: close
        # response and reconnects on the next request by itself
        reused = connection.sock is not None
        try:
            try:
                connection.request(
                    method, path, body=data, headers=request_headers
                )
                response = connection.getresponse()
            except _STALE_CONNECTION_ERRORS:
                if not reused:
                    raise
                # the server reaped this idle connection before the
                # request reached it: resend once on a fresh one
                connection.close()
                connection.request(
                    method, path, body=data, headers=request_headers
                )
                response = connection.getresponse()
            raw = response.read()
        except BaseException:
            # a half-finished exchange leaves the socket unusable
            connection.close()
            raise
        return self._wrap(
            response.status, raw, response.getheader("Retry-After")
        )

    def close(self) -> None:
        """Close every connection this client opened (any thread).

        Safe to call more than once; a later request reconnects.
        """
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            connection.close()
        self._local = threading.local()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @staticmethod
    def _wrap(
        status: int, raw: bytes, retry_after: str | None
    ) -> ServiceResponse:
        try:
            body = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            body = {"raw": raw.decode("utf-8", "replace")}
        if not isinstance(body, dict):
            body = {"value": body}
        return ServiceResponse(
            status=status,
            body=body,
            retry_after_s=(
                float(retry_after) if retry_after is not None else None
            ),
        )

    # -- lifecycle -----------------------------------------------------
    def wait_ready(self, timeout_s: float = 20.0) -> ServiceResponse:
        """Poll ``/readyz`` until the server reports ready.

        Raises ``TimeoutError`` (carrying the last observed state) if
        readiness never arrives -- a started-but-stuck server should
        fail the caller loudly, not hang it.
        """
        deadline = time.monotonic() + timeout_s
        last: str = "no response yet"
        while time.monotonic() < deadline:
            try:
                response = self.readyz()
            except OSError as exc:
                last = f"transport: {exc}"
            else:
                if response.ok:
                    return response
                last = f"status {response.status}: {response.body}"
            time.sleep(0.05)
        raise TimeoutError(
            f"server at {self.base} not ready after {timeout_s}s "
            f"(last: {last})"
        )

    # -- endpoints -----------------------------------------------------
    def healthz(self) -> ServiceResponse:
        return self.request("GET", "/healthz")

    def readyz(self) -> ServiceResponse:
        return self.request("GET", "/readyz")

    def metrics(self) -> ServiceResponse:
        return self.request("GET", "/metrics")

    def metrics_prometheus(self) -> ServiceResponse:
        return self.request("GET", "/metrics?format=prometheus")

    def databases(self) -> ServiceResponse:
        return self.request("GET", "/v1/databases")

    def register_database(
        self, body: Mapping[str, Any]
    ) -> ServiceResponse:
        return self.request("POST", "/v1/databases", body=body)

    def explain(
        self,
        body: Mapping[str, Any],
        deadline_ms: float | None = None,
    ) -> ServiceResponse:
        headers = (
            {"X-Deadline-Ms": str(deadline_ms)}
            if deadline_ms is not None
            else None
        )
        return self.request(
            "POST", "/v1/explain", body=body, headers=headers
        )

    def explain_batch(
        self, body: Mapping[str, Any]
    ) -> ServiceResponse:
        return self.request("POST", "/v1/explain_batch", body=body)

    def batch_result(self, request_id: str) -> ServiceResponse:
        return self.request("GET", f"/v1/batches/{request_id}")
