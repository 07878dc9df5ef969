"""Crash-consistent storage for the why-not service.

Three layers, bottom up:

* :mod:`~repro.storage.io` -- the fault-injectable I/O shim
  (:class:`StorageIO`): every open/write/fsync/rename/listdir the
  subsystem performs flows through one primitive surface with
  deterministic disk-fault sites
  (:data:`~repro.robustness.faults.IO_FAULT_SITES`).  Implementations:
  :class:`LocalIO` (the real filesystem) and :class:`MemoryIO` (an
  in-memory file table speaking the same interface);

* :mod:`~repro.storage.backend` -- :class:`StorageBackend`: journals
  (the WAL; one file per service batch, and one of database
  registrations), documents (atomic durable JSON writes, including the
  parent-directory fsync), and a pre-ready recovery scan that
  quarantines stranded temp files under ``storage.*`` metrics.  It
  runs on :class:`LocalIO` by default; ``io=MemoryIO()`` runs the same
  logic without a disk;

* :mod:`~repro.storage.crashsim` -- the ALICE/CrashMonkey-style
  crash-state enumeration harness: :class:`SimIO` records an operation
  log, :class:`CrashSim` enumerates every legal post-crash filesystem
  state (fsync reordering, torn appends, lost renames), and the test
  suite runs real recovery on each one.
"""

from .backend import (
    QUARANTINE_KEEP,
    RecoveryReport,
    StorageBackend,
    atomic_write_json,
    atomic_write_text,
)
from .crashsim import (
    CrashSim,
    Op,
    OpLog,
    SimIO,
    enumerate_crash_states,
    journal_commit_horizon,
    materialize,
)
from .io import LocalIO, MemoryIO, StorageIO

__all__ = [
    "CrashSim",
    "LocalIO",
    "MemoryIO",
    "Op",
    "OpLog",
    "QUARANTINE_KEEP",
    "RecoveryReport",
    "SimIO",
    "StorageBackend",
    "StorageIO",
    "atomic_write_json",
    "atomic_write_text",
    "enumerate_crash_states",
    "journal_commit_horizon",
    "materialize",
]
