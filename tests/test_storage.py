"""The storage subsystem: shim faults, the backend, recovery.

Three layers under test:

* the :class:`~repro.storage.io.StorageIO` shim -- the real and the
  in-memory disks speak one primitive surface, and the
  ``io.*`` fault sites make either misbehave deterministically
  (partial writes land, renames tear, reads fail);
* the :class:`~repro.storage.backend.StorageBackend`, over both disks
  -- atomic durable documents, quarantine-not-delete recovery;
* the integration with :class:`~repro.robustness.journal.BatchJournal`
  (ENOSPC mid-append, unreadable files, read-only directories) and
  with the service's registration persistence.
"""

from __future__ import annotations

import errno
import json
from pathlib import Path

import pytest

from repro.errors import JournalError, StorageError
from repro.robustness import FaultPlan, FaultSpec, inject
from repro.robustness.faults import ALL_FAULT_SITES, IO_FAULT_SITES
from repro.robustness.journal import BatchJournal
from repro.storage import (
    MemoryIO,
    StorageBackend,
    atomic_write_json,
    atomic_write_text,
)


def _spec(site: str, at_call: int = 0) -> FaultPlan:
    return FaultPlan([FaultSpec(site, at_call=at_call)])


def _memory_backend(metrics=None) -> StorageBackend:
    """The backend over an in-memory disk: same logic, no files."""
    return StorageBackend(Path("/memory"), metrics=metrics, io=MemoryIO())


# ---------------------------------------------------------------------------
# The I/O shim
# ---------------------------------------------------------------------------
class TestFaultSites:
    def test_io_sites_are_registered_but_separate(self):
        assert set(IO_FAULT_SITES) <= set(ALL_FAULT_SITES)
        assert all(site.startswith("io.") for site in IO_FAULT_SITES)

    def test_enospc_lands_a_partial_write(self, tmp_path):
        path = tmp_path / "doc.json"
        with inject(_spec("io.enospc")):
            with pytest.raises(StorageError) as excinfo:
                atomic_write_text(path, "x" * 300)
        assert excinfo.value.errno == errno.ENOSPC
        # the partial write landed in the temp file -- exactly what a
        # full disk leaves behind -- and the destination was never made
        tmp = tmp_path / "doc.json.tmp"
        assert tmp.exists()
        assert 0 < len(tmp.read_text()) < 300
        assert not path.exists()

    def test_short_write_is_eio_with_torn_bytes(self, tmp_path):
        path = tmp_path / "doc.json"
        with inject(_spec("io.write_short")):
            with pytest.raises(StorageError) as excinfo:
                atomic_write_text(path, "y" * 100)
        assert excinfo.value.errno == errno.EIO
        assert len((tmp_path / "doc.json.tmp").read_text()) == 50

    def test_torn_rename_strands_the_temp_file(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_text(path, "old")
        with inject(_spec("io.torn_rename")):
            with pytest.raises(StorageError):
                atomic_write_text(path, "new")
        assert path.read_text() == "old"  # destination untouched
        assert (tmp_path / "doc.json.tmp").read_text() == "new"

    def test_eio_fails_reads(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("data")
        backend = StorageBackend(tmp_path)
        with inject(_spec("io.eio")):
            with pytest.raises(StorageError) as excinfo:
                backend.io.read_text(path)
        assert excinfo.value.errno == errno.EIO

    def test_fsync_lost_is_silent(self, tmp_path):
        # the lying disk: invisible on a healthy run (only the
        # crash-state harness can observe the damage)
        with inject(_spec("io.fsync_lost")):
            atomic_write_text(tmp_path / "doc.json", "data")
        assert (tmp_path / "doc.json").read_text() == "data"


class TestMemoryIO:
    def test_round_trip_and_listdir(self, tmp_path):
        io = MemoryIO()
        io.mkdir(tmp_path)
        io.write_text(tmp_path / "a.json", "A")
        io.write_text(tmp_path / "b.json", "B")
        assert io.read_text(tmp_path / "a.json") == "A"
        assert io.listdir(tmp_path) == ["a.json", "b.json"]
        assert io.exists(tmp_path / "a.json")
        assert io.is_dir(tmp_path)
        assert not io.exists(tmp_path / "missing.json")

    def test_append_mode_and_replace(self, tmp_path):
        io = MemoryIO()
        io.mkdir(tmp_path)
        io.write_text(tmp_path / "log", "one\n")
        handle = io.open(tmp_path / "log", "a")
        io.write(handle, "two\n")
        io.close(handle)
        assert io.read_text(tmp_path / "log") == "one\ntwo\n"
        io.replace(tmp_path / "log", tmp_path / "log2")
        assert not io.exists(tmp_path / "log")
        assert io.read_text(tmp_path / "log2") == "one\ntwo\n"

    def test_open_missing_parent_fails(self, tmp_path):
        io = MemoryIO()
        with pytest.raises(StorageError) as excinfo:
            io.open(tmp_path / "nowhere" / "f", "w")
        assert excinfo.value.errno == errno.ENOENT

    def test_read_missing_file_fails(self, tmp_path):
        io = MemoryIO()
        with pytest.raises(StorageError):
            io.read_text(tmp_path / "missing")


# ---------------------------------------------------------------------------
# Backend documents
# ---------------------------------------------------------------------------
@pytest.fixture(params=["local", "memory"])
def backend(request, tmp_path):
    if request.param == "local":
        return StorageBackend(tmp_path)
    return _memory_backend()


class TestDocuments:
    def test_round_trip(self, backend):
        backend.write_document("doc.json", {"k": "v"})
        assert backend.read_document("doc.json") == {"k": "v"}
        assert backend.read_document("missing.json") is None

    def test_corrupt_document_raises(self, backend):
        backend.io.write_text(backend.path_of("bad.json"), "{not json")
        with pytest.raises(StorageError):
            backend.read_document("bad.json")

    def test_names_must_be_flat(self, backend):
        with pytest.raises(StorageError):
            backend.path_of("../escape.json")
        with pytest.raises(StorageError):
            backend.path_of(".hidden.json")


class TestRecovery:
    def test_stray_tmp_files_are_quarantined(self, backend):
        backend.write_document("doc.json", {"k": 1})
        backend.io.write_text(
            backend.path_of("doc.json.tmp"), "half-writ"
        )
        report = backend.recover()
        assert "doc.json.tmp" in report.quarantined
        assert not backend.io.exists(backend.path_of("doc.json.tmp"))
        # the committed document is untouched
        assert backend.read_document("doc.json") == {"k": 1}

    def test_corrupt_manifests_are_left_for_service_recovery(
        self, backend
    ):
        # the service layer owns batch journal semantics: storage
        # recovery must leave even a corrupt one in place and visible
        backend.io.write_text(
            backend.path_of("bad.journal.jsonl"), "{not json"
        )
        backend.recover()
        assert backend.io.exists(backend.path_of("bad.journal.jsonl"))

    def test_recovery_is_idempotent(self, backend):
        backend.write_document("doc.json", {"k": 1})
        backend.io.write_text(backend.path_of("doc.json.tmp"), "half")
        first = backend.recover()
        second = backend.recover()
        assert first.quarantined == ["doc.json.tmp"]
        assert second.quarantined == []
        assert first.scanned >= second.scanned


class TestQuarantineCap:
    def test_quarantine_growth_is_capped_oldest_first(self, monkeypatch):
        from repro.obs import MetricsRegistry

        monkeypatch.setattr("repro.storage.backend.QUARANTINE_KEEP", 3)
        metrics = MetricsRegistry()
        backend = _memory_backend(metrics=metrics)
        for i in range(5):
            backend.io.write_text(
                backend.path_of(f"bad-{i}.json.tmp"), "torn"
            )
            backend.quarantine(f"bad-{i}.json.tmp")
        qdir = backend.root / "quarantine"
        kept = sorted(backend.io.listdir(qdir))
        # newest three survive; the two oldest were pruned
        assert kept == [
            "bad-2.json.tmp",
            "bad-3.json.tmp",
            "bad-4.json.tmp",
        ]
        assert (
            metrics.counter("storage.quarantine.pruned").value == 2
        )

    def test_inherited_evidence_is_pruned_before_fresh(self, monkeypatch):
        monkeypatch.setattr("repro.storage.backend.QUARANTINE_KEEP", 2)
        backend = _memory_backend()
        # evidence left behind by an earlier process: on disk but not
        # in this process's quarantine order
        qdir = backend.root / "quarantine"
        backend.io.mkdir(qdir)
        backend.io.write_text(qdir / "zz-old.json", "ancient")
        backend.io.write_text(
            backend.path_of("fresh.json.tmp"), "torn"
        )
        backend.quarantine("fresh.json.tmp")
        backend.io.write_text(
            backend.path_of("newer.json.tmp"), "torn"
        )
        backend.quarantine("newer.json.tmp")
        kept = sorted(backend.io.listdir(qdir))
        assert kept == ["fresh.json.tmp", "newer.json.tmp"]


class TestOpenBackend:
    def test_kinds(self, tmp_path):
        """The backend runs on the real disk unless given another
        medium, and reports which one on /readyz."""
        local = StorageBackend(tmp_path / "journal")
        assert local.describe() == {
            "kind": "local",
            "root": str(tmp_path / "journal"),
        }
        memory = StorageBackend(tmp_path / "elsewhere", io=MemoryIO())
        memory.write_document("databases.json", {"a": 1})
        assert memory.describe()["kind"] == "memory"
        assert memory.read_document("databases.json") == {"a": 1}
        assert not (tmp_path / "elsewhere").exists()

    def test_local_needs_root(self, tmp_path):
        """The root is created with its parents; a root that cannot
        be created fails at startup, not at the first write."""
        StorageBackend(tmp_path / "a" / "b")
        assert (tmp_path / "a" / "b").is_dir()
        (tmp_path / "file").write_text("not a directory")
        with pytest.raises(StorageError):
            StorageBackend(tmp_path / "file" / "journal")


# ---------------------------------------------------------------------------
# Journal integration
# ---------------------------------------------------------------------------
def _outcome(i: int) -> dict:
    return {"question": f"(q: {i})", "ok": True, "i": i}


class TestJournalOnBackend:
    def test_journal_round_trip_on_memory(self):
        backend = _memory_backend()
        journal = backend.journal("batch.journal.jsonl")
        journal.record(0, "(q: 0)", _outcome(0))
        journal.record(1, "(q: 1)", _outcome(1))
        journal.close()
        resumed = backend.journal("batch.journal.jsonl", resume=True)
        assert resumed.completed(0, "(q: 0)") == _outcome(0)
        assert resumed.completed(1, "(q: 1)") == _outcome(1)
        assert resumed.completed(2, "(q: 2)") is None
        resumed.close()

    def test_enospc_mid_append_raises_journal_error(self, tmp_path):
        journal = BatchJournal(tmp_path / "b.jsonl")
        journal.record(0, "(q: 0)", _outcome(0))
        with inject(_spec("io.enospc")):
            with pytest.raises(JournalError) as excinfo:
                journal.record(1, "(q: 1)", _outcome(1))
        assert "ENOSPC" in str(excinfo.value)
        journal.close()
        # the torn tail the failed append left behind is discarded on
        # resume; the committed record survives
        resumed = BatchJournal(tmp_path / "b.jsonl", resume=True)
        assert resumed.completed(0, "(q: 0)") == _outcome(0)
        assert resumed.completed(1, "(q: 1)") is None
        assert resumed.discarded == 1
        resumed.close()

    def test_read_only_journal_dir_raises_journal_error(
        self, tmp_path, monkeypatch
    ):
        # permission bits do not bite when the suite runs as root, so
        # the open hook simulates the EACCES a read-only directory
        # produces
        import repro.robustness.journal as journal_module

        def denied(path, mode):
            raise PermissionError(
                errno.EACCES, "Permission denied", str(path)
            )

        monkeypatch.setattr(
            journal_module, "_open_journal_file", denied
        )
        with pytest.raises(JournalError) as excinfo:
            BatchJournal(tmp_path / "b.jsonl")
        assert "Permission denied" in str(excinfo.value)

    def test_unreadable_journal_on_resume_raises(self, tmp_path):
        path = tmp_path / "b.jsonl"
        journal = BatchJournal(path)
        journal.record(0, "(q: 0)", _outcome(0))
        journal.close()
        with inject(_spec("io.eio")):
            with pytest.raises(JournalError):
                BatchJournal(path, resume=True)


class TestAtomicWriteJson:
    def test_document_round_trip(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"b": 2, "a": 1})
        document = json.loads(path.read_text())
        assert document == {"a": 1, "b": 2}
        assert not (tmp_path / "doc.json.tmp").exists()
