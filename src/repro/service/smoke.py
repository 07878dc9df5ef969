"""End-to-end smoke scenario for the why-not service (the CI job).

Run as ``python -m repro.service.smoke [--journal-dir DIR]``.  The
driver starts a real ``python -m repro.cli serve`` subprocess on an
ephemeral port and walks the whole happy path plus the drain story:

1. wait for ``/readyz``;
2. register the ``crime`` use-case database (with a warm query);
3. run a journaled ``/v1/explain_batch`` over it (workers=2) and check
   every outcome came back ``full``;
4. fetch the stored result back by id (idempotence), and check the
   journal directory holds exactly ``registrations.journal.jsonl`` and
   ``smoke-batch.journal.jsonl``: one file per batch and one for the
   registrations, nothing else;
5. scrape ``/metrics`` (JSON and Prometheus text) and check the batch
   counters moved, and that every request travelled over one kept-alive
   connection;
6. SIGTERM the server and assert exit code 0 with
   ``active_requests=0`` in the drain summary -- a clean drain with an
   empty pending queue.

Any failed step exits nonzero with a diagnostic on stderr; the journal
directory is left in place so CI can upload it as an artifact.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from .client import ServiceClient

SQL = "SELECT Person.name FROM Person WHERE Person.hair = 'brown'"
QUESTIONS = ["(Person.name: Roger)", "(Person.name: Hannah)"]


def _fail(step: str, detail: str) -> int:
    print(f"SMOKE FAIL [{step}]: {detail}", file=sys.stderr)
    return 1


def run_smoke(journal_dir: Path, timeout_s: float = 60.0) -> int:
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--workers",
            "2",
            "--journal-dir",
            str(journal_dir),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=dict(os.environ),
    )
    try:
        assert server.stdout is not None
        first = server.stdout.readline().strip()
        if "listening on" not in first:
            return _fail("startup", f"unexpected first line {first!r}")
        port = int(first.rsplit(":", 1)[1])
        print(f"smoke: server up on port {port}")
        client = ServiceClient(port=port)
        client.wait_ready(timeout_s)

        response = client.register_database(
            {"name": "crime", "use_case_db": "crime", "warm": [SQL]}
        )
        if not response.ok or response.body.get("relations") != 4:
            return _fail("register", repr(response.body))
        print("smoke: registered crime database")

        response = client.explain_batch(
            {
                "request_id": "smoke-batch",
                "database": "crime",
                "sql": SQL,
                "why_not": QUESTIONS,
                "workers": 2,
            }
        )
        body = response.body
        if not response.ok:
            return _fail("batch", repr(body))
        if body.get("degradation_level") != "full":
            return _fail(
                "batch", f"degraded: {body.get('degradation_level')}"
            )
        if len(body.get("outcomes", [])) != len(QUESTIONS):
            return _fail("batch", f"outcome count: {body}")
        print("smoke: batch ran clean")

        stored = client.batch_result("smoke-batch")
        if not stored.ok or stored.body.get("outcomes") != body.get(
            "outcomes"
        ):
            return _fail("result", repr(stored.body))
        print("smoke: stored result matches")
        files = sorted(p.name for p in journal_dir.iterdir())
        if files != [
            "registrations.journal.jsonl",
            "smoke-batch.journal.jsonl",
        ]:
            return _fail("layout", f"unexpected journal files: {files}")
        print("smoke: one journal for the batch, one for registrations")

        metrics = client.metrics()
        snapshot = metrics.body.get("metrics", {})
        if snapshot.get("service.batches", {}).get("value") != 1:
            return _fail("metrics", repr(snapshot.get("service.batches")))
        prometheus = client.metrics_prometheus()
        text = prometheus.body.get("raw", "")
        if "service_batches 1" not in text:
            return _fail(
                "metrics", "prometheus text missing service_batches"
            )
        print("smoke: metrics scraped (json + prometheus)")
        # the scrape counts every connection up to and including its own
        if "service_connections 1\n" not in text:
            return _fail(
                "keep-alive",
                "requests opened more than one connection: "
                + repr(snapshot.get("service.connections")),
            )
        client.close()
        print("smoke: every request reused one connection")

        server.send_signal(signal.SIGTERM)
        try:
            output, _ = server.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            server.kill()
            return _fail("drain", "server did not exit after SIGTERM")
        if server.returncode != 0:
            return _fail(
                "drain",
                f"exit code {server.returncode}; output:\n{output}",
            )
        if "active_requests=0" not in output:
            return _fail(
                "drain", f"pending queue not empty:\n{output}"
            )
        print("smoke: clean drain, empty pending queue -- PASS")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="why-not service smoke scenario (CI)"
    )
    parser.add_argument(
        "--journal-dir",
        default=None,
        help="journal directory to use (kept for artifact upload); "
        "default: a fresh temporary directory",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="per-step timeout in seconds (default: 60)",
    )
    args = parser.parse_args(argv)
    if args.journal_dir is not None:
        journal_dir = Path(args.journal_dir)
        journal_dir.mkdir(parents=True, exist_ok=True)
        return run_smoke(journal_dir, args.timeout)
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        return run_smoke(Path(tmp), args.timeout)


if __name__ == "__main__":
    raise SystemExit(main())
