"""Crash-safe batch journal: an append-only JSONL write-ahead log.

A killed batch should not restart from zero.  A :class:`BatchJournal`
records every resolved :class:`~repro.robustness.outcomes.QuestionOutcome`
as one JSON line with a SHA-256 checksum over the record's canonical
JSON, so whatever survives a crash is a set of fully-completed
questions.  A service batch is one journal: the batch manifest is its
first record and the batch result its last, as one-key objects
(``{"manifest": ...}``, ``{"result": ...}``) that a torn or zeroed line
can never parse as; :func:`read_result` parses the last line alone.
The service's registrations journal holds one-key ``{"registration":
...}`` records, each appended and synced by :meth:`BatchJournal.finish`;
:func:`load_records` reads every kind of record.

Durability is paid once per batch, not once per question.  Each record
is flushed to the kernel before it returns, so a killed process
(SIGKILL, OOM kill) loses none of them; :meth:`BatchJournal.close`
makes them durable with one ``fsync``, and :meth:`BatchJournal.finish`
adds one ``fsync`` of the directory.  An OS crash before that may lose
unsynced records, or leave a torn tail; they are recomputed on resume,
which is safe because NedExplain is deterministic.  On resume,
``NedExplain.explain_each(journal=...)`` replays the journalled
outcomes verbatim and computes only the remainder; the merged result is
identical to an uninterrupted run.

Crash-safety rules on load:

* a torn trailing line (the process died mid-``write``) is discarded;
* replay stops at the *first* record that fails to parse or verify --
  an append-only log is only trustworthy up to its first corruption --
  and the rest is cut off before anything is appended, so the records
  a resume writes are read back by the next one;
* a record whose question identity (text + digest) differs from the
  batch being resumed raises :class:`~repro.errors.JournalError`:
  that journal belongs to a different batch, and replaying it would
  silently merge two runs.

Records are keyed by **question identity**: the submission index plus a
stable SHA-256 digest of the question text.  A parallel batch journals
outcomes in *completion* order, so resume must not assume a positional
prefix -- any subset of indexes may be present after a crash, each
replayed independently.  Appends are serialized under an internal lock
(worker threads of a :class:`~repro.robustness.executor.
ParallelExecutor` share one journal).

Two environment hooks drive the crash/drain test harnesses (inert
unless explicitly set):

* ``REPRO_JOURNAL_CRASH_AFTER`` -- SIGKILL this process immediately
  after the N-th question record is flushed: the deterministic "kill
  -9" of the kill/resume differential (the ``chaos-resume`` and
  ``chaos-parallel`` CI jobs);
* ``REPRO_JOURNAL_SIGINT_AFTER`` -- send this process one SIGINT after
  the N-th question record: the deterministic trigger of the
  graceful-drain test (the CLI finishes in-flight questions, journals
  them, and exits with the documented drain code).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
from pathlib import Path
from typing import Any, Mapping

from ..errors import ConfigurationError, JournalError, StorageError

__all__ = ["BatchJournal", "load_records", "question_digest", "read_result"]

#: Journal record format version.  Version 2 added the ``qdigest``
#: question-identity field; version-1 records fail verification and are
#: discarded on load (a v1 journal simply resumes from zero).
JOURNAL_VERSION = 2

#: Environment hook: SIGKILL this process after N flushed appends.
CRASH_AFTER_ENV = "REPRO_JOURNAL_CRASH_AFTER"

#: Environment hook: SIGINT this process (once) after N flushed appends.
SIGINT_AFTER_ENV = "REPRO_JOURNAL_SIGINT_AFTER"


def question_digest(question: str) -> str:
    """Stable identity digest of one question's text (SHA-256 prefix)."""
    return hashlib.sha256(question.encode("utf-8")).hexdigest()[:16]


def _open_journal_file(path: Path, mode: str):
    """Open the journal file, surfacing OS failures as library errors.

    A module-level hook (rather than an inline ``open``) so tests can
    exercise the permission-denied path even when the suite runs as
    root, where filesystem permission bits do not bite.
    """
    return open(path, mode, encoding="utf-8")


def _canonical(payload: Mapping[str, Any]) -> str:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )


def _digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _checksum(record: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON of *record* (checksum excluded)."""
    return _digest(
        _canonical({k: v for k, v in record.items() if k != "checksum"})
    )


#: The one-key records: a batch's first and last, and a registration.
_RECORD_KEYS = ("manifest", "result", "registration")


def record_line(key: str, document: Mapping[str, Any]) -> str:
    """The journal line of a one-key record (:data:`_RECORD_KEYS`)."""
    return _canonical({key: document}) + "\n"


def _document(record: Any, key: str) -> dict | None:
    """The document of a ``{key: {...}}`` record, else ``None``."""
    if isinstance(record, dict) and len(record) == 1:
        document = record.get(key)
        return document if isinstance(document, dict) else None
    return None


def read_result(path: Path, io) -> dict | None:
    """The result record of the journal at *path*; ``None`` when the
    file is missing or its last line is not a whole result record (a
    torn one means "not finished")."""
    if not io.exists(path):
        return None
    last = io.read_text(path).rstrip("\n").rpartition("\n")[2]
    try:
        return _document(json.loads(last), "result")
    except json.JSONDecodeError:
        return None


def _verify(record: Any) -> bool:
    if not isinstance(record, dict):
        return False
    required = {
        "v", "index", "question", "qdigest", "outcome", "checksum",
    }
    if not required <= set(record):
        return False
    if record["v"] != JOURNAL_VERSION:
        return False
    if record["qdigest"] != question_digest(str(record["question"])):
        return False
    return _checksum(record) == record["checksum"]


def load_records(path: Path, io) -> tuple[list[tuple[str, dict]], int]:
    """The intact ``(key, document)`` records of the journal at *path*,
    and how many were discarded.

    ``key`` is ``"manifest"``, ``"result"`` or ``"registration"`` for a
    one-key record and ``"question"`` for a verified question record.
    Reading stops at the first line that is neither (a torn write,
    zeroed blocks); that line and the rest are cut off the file, so
    records appended later are read back by the next load.
    """
    try:
        text = io.read_text(path)
    except (OSError, StorageError) as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    records: list[tuple[str, dict]] = []
    discarded = 0
    intact = ""
    for line in text.split("\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record = None  # torn write
        keys = [k for k in _RECORD_KEYS if _document(record, k) is not None]
        key = keys[0] if keys else "question"
        if key == "question" and not _verify(record):
            discarded += 1
            break  # nothing after it is trustworthy
        records.append((key, record if key == "question" else record[key]))
        intact += line + "\n"
    if intact != text:
        # cut the rest off first: appended after it, new records
        # would be unreachable on the next load
        from ..storage.backend import atomic_write_text

        try:
            atomic_write_text(path, intact, io=io)
        except (OSError, StorageError) as exc:
            raise JournalError(
                f"cannot cut the torn tail of {path}: {exc}"
            ) from exc
    return records, discarded


class BatchJournal:
    """Write-ahead log of per-question outcomes for one batch.

    ``resume=False`` (the default) truncates any existing file: the
    journal describes exactly one run.  ``resume=True`` loads the valid
    record prefix of an existing journal and appends new records after
    it; :meth:`completed` then serves the replayed outcomes.

    All file access flows through a :class:`~repro.storage.io.
    StorageIO` shim (*io*).  The default is the real filesystem with
    the disk-fault sites armed; a :class:`~repro.storage.backend.
    StorageBackend` passes its own shim so the journal shares the
    backend's fault plan -- and the crash-state harness passes a
    recording simulator.
    """

    def __init__(
        self,
        path: str | Path,
        resume: bool = False,
        io=None,
    ):
        if io is None:
            # resolve the module-level open hook *per call* so the
            # permission-path tests can monkeypatch it
            from ..storage.io import LocalIO

            io = LocalIO(
                open_hook=lambda p, m: _open_journal_file(p, m)
            )
        self._io = io
        self.path = Path(path)
        self.resume = resume
        self._lock = threading.RLock()
        self._records: dict[int, dict] = {}
        #: a service batch's manifest record, when loaded
        self.manifest: dict | None = None
        self.discarded = 0  # torn/corrupt records dropped on load
        if resume and io.exists(self.path):
            records, self.discarded = load_records(self.path, io)
            for key, document in records:
                if key == "manifest":
                    self.manifest = document
                elif key == "question":
                    self._records[int(document["index"])] = document
        if not io.is_dir(self.path.parent):
            # refuse to invent directories for a durability artifact: a
            # typo'd --journal path must fail loudly, not journal into
            # a freshly created wrong place
            raise JournalError(
                f"journal directory {self.path.parent} does not exist "
                f"(for journal {self.path}); create it first"
            )
        try:
            self._file = io.open(self.path, "a" if resume else "w")
        except (OSError, StorageError) as exc:
            raise JournalError(
                f"cannot open journal {self.path}: {exc}"
            ) from exc
        self._appended = 0
        raw = os.environ.get(CRASH_AFTER_ENV, "")
        self._crash_after = int(raw) if raw.strip() else 0
        raw = os.environ.get(SIGINT_AFTER_ENV, "")
        self._sigint_after = int(raw) if raw.strip() else 0
        self._sigint_sent = False

    # ------------------------------------------------------------------
    # API used by explain_each
    # ------------------------------------------------------------------
    def completed(self, index: int, question: str) -> dict | None:
        """The journalled outcome dict for *index*, or ``None``.

        Records are matched by full question identity -- submission
        index plus question digest -- so a resumed parallel batch
        (whose journal holds an arbitrary, gap-filled subset of
        indexes, appended in completion order) replays exactly the
        questions that finished.  Raises
        :class:`~repro.errors.JournalError` when the journal has a
        record at *index* for a *different* question -- the log belongs
        to another batch.
        """
        with self._lock:
            record = self._records.get(index)
        if record is None:
            return None
        if (
            record["question"] != question
            or record["qdigest"] != question_digest(question)
        ):
            raise JournalError(
                f"journal {self.path} records question "
                f"{record['question']!r} at index {index}, but the "
                f"batch being resumed asks {question!r} there -- "
                "refusing to merge unrelated runs"
            )
        return record["outcome"]

    def _write_line(self, line: str) -> None:
        """Write and flush one record line (the caller holds the lock)."""
        if self._io.closed(self._file):
            raise ConfigurationError(
                f"journal {self.path} is closed; no further "
                "records can be appended"
            )
        try:
            self._io.write(self._file, line)
            self._io.flush(self._file)
        except (OSError, StorageError) as exc:
            # a failed append (ENOSPC, EIO, short write) may leave
            # torn bytes at the tail; they are exactly what the
            # torn-tail discard drops on the next resume
            raise JournalError(
                f"journal append to {self.path} failed: {exc}"
            ) from exc

    def begin(self, manifest: Mapping[str, Any]) -> None:
        """Append the batch manifest, the first record of a service
        batch (write + flush, no fsync)."""
        with self._lock:
            self._write_line(record_line("manifest", manifest))

    def finish(self, document: Mapping[str, Any], key="result") -> None:
        """Append a closing one-key record -- a batch's result, or one
        ``"registration"`` -- then make the file durable: one ``fsync``
        of the file and one of its directory."""
        with self._lock:
            self._write_line(record_line(key, document))
            self.close()
        self._io.fsync_dir(self.path.parent)

    def record(
        self, index: int, question: str, outcome: Mapping[str, Any]
    ) -> None:
        """Append one resolved question (write + flush, no fsync).

        Safe to call from several worker threads: the write + flush +
        bookkeeping of one record is atomic under the journal lock, so
        concurrent appends interleave as whole lines, never torn ones.
        The flushed record survives a killed process; :meth:`close`
        makes it survive an OS crash.
        """
        entry: dict[str, Any] = {
            "v": JOURNAL_VERSION,
            "index": index,
            "question": question,
            "qdigest": question_digest(question),
            "outcome": dict(outcome),
        }
        canonical = _canonical(entry)
        entry["checksum"] = _digest(canonical)
        # "checksum" sorts before every other key, so the line is the
        # whole entry's canonical JSON from one encoding pass
        line = f'{{"checksum":"{entry["checksum"]}",{canonical[1:]}\n'
        with self._lock:
            self._write_line(line)
            self._records[index] = entry
            self._appended += 1
            crash = (
                self._crash_after
                and self._appended >= self._crash_after
            )
            drain = (
                self._sigint_after
                and not self._sigint_sent
                and self._appended >= self._sigint_after
            )
            if drain:
                self._sigint_sent = True
        if crash:
            # the chaos-resume harness: die like kill -9, AFTER the
            # record is flushed -- no atexit, no cleanup
            os.kill(os.getpid(), signal.SIGKILL)
        if drain:
            # the graceful-drain harness: ask the process to stop, once,
            # exactly as an operator's Ctrl-C would
            os.kill(os.getpid(), signal.SIGINT)

    # ------------------------------------------------------------------
    @property
    def replayable_count(self) -> int:
        """Records loaded from a previous run (before any appends)."""
        with self._lock:
            return len(self._records) - self._appended

    def close(self) -> None:
        """Make every record durable with one ``fsync``, then close.

        The batch's only file fsync: a service batch ends through
        :meth:`finish`, and a drain or the CLI's ``--journal`` through
        here.  Idempotent.
        """
        with self._lock:
            if self._io.closed(self._file):
                return
            try:
                self._io.flush(self._file)
                self._io.fsync(self._file)
            except (OSError, StorageError) as exc:
                raise JournalError(
                    f"journal fsync of {self.path} failed: {exc}"
                ) from exc
            finally:
                self._io.close(self._file)

    def __enter__(self) -> "BatchJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return (
            f"BatchJournal({str(self.path)!r}, records={len(self)}, "
            f"resume={self.resume})"
        )
