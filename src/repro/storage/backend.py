"""The storage backend: one durability story for everything.

A :class:`StorageBackend` holds the service's two kinds of durable
state -- one :class:`~repro.robustness.journal.BatchJournal` file per
batch and the ``databases.json`` registration table -- behind four
primitives:

* **documents** -- whole JSON files written atomically (temp file +
  fsync + rename + *parent-directory fsync*: a rename is not durable
  until the directory entry is on disk, the bug every hand-rolled
  helper has); only the registrations use them;
* **journals** -- append-only WALs
  (:class:`~repro.robustness.journal.BatchJournal` routed through the
  backend's I/O shim), keeping the established torn-tail-discard /
  stop-at-first-corruption semantics; a batch's manifest, question
  records and result are one journal, made durable by one file fsync
  and one directory fsync;
* **snapshots** -- checksummed, generation-numbered copies of a
  document family (``databases.gen-3.snap.json``); a corrupt primary
  document is *repaired* from the newest valid generation instead of
  refusing to start;
* **recovery** -- a scan that runs before the service flips ready:
  stranded temp files and corrupt snapshots are moved into a
  ``quarantine/`` directory (never deleted -- they are evidence), and
  every decision is counted under ``storage.*`` metrics and wrapped
  in a ``storage.recover`` span.

One class serves every use.  By default it runs on
:class:`~repro.storage.io.LocalIO`, a directory on the real
filesystem; tests pass ``io=MemoryIO()`` or the crash simulator's
``SimIO`` to run the same logic without a disk.

Layout compatibility: a directory holds ``databases.json``, its
``databases.gen-N.snap.json`` snapshots and one ``<id>.journal.jsonl``
per batch.  Directories of the older layout, where a batch also had an
atomic ``<id>.request.json`` manifest and ``<id>.result.json`` result,
are converted once by the service's recovery
(:meth:`~repro.service.state.ServiceState.recover`); nothing else
reads those names.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Any, Mapping

from ..errors import StorageError
from ..obs import MetricsRegistry, span
from ..obs.trace import metric_counter
from .io import LocalIO, StorageIO

__all__ = [
    "QUARANTINE_KEEP",
    "RecoveryReport",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_KEEP",
    "StorageBackend",
    "atomic_write_text",
    "atomic_write_json",
]

SNAPSHOT_FORMAT = "repro.storage.snapshot"
SNAPSHOT_VERSION = 1

#: Generations kept per snapshot family; older ones are pruned.
SNAPSHOT_KEEP = 3

#: Quarantined artifacts kept per backend; recovery evidence past this
#: is pruned oldest-first (counted by ``storage.quarantine.pruned``).
QUARANTINE_KEEP = 32

_SNAPSHOT_RE = re.compile(
    r"^(?P<family>[A-Za-z0-9_-]+)\.gen-(?P<gen>\d+)\.snap\.json$"
)

#: Suffix of in-flight atomic writes; recovery quarantines strays.
TMP_SUFFIX = ".tmp"


def atomic_write_text(
    path: Path, text: str, io: StorageIO | None = None
) -> None:
    """Write *text* to *path* atomically **and durably**.

    temp file -> write -> flush -> fsync -> rename -> fsync(parent
    directory).  The final directory fsync is the step the previous
    ad-hoc helpers skipped: without it a crash after ``os.replace``
    can still lose the rename, resurrecting the old file contents.
    """
    io = io if io is not None else LocalIO()
    path = Path(path)
    tmp = path.with_suffix(path.suffix + TMP_SUFFIX)
    handle = io.open(tmp, "w")
    try:
        io.write(handle, text)
        io.flush(handle)
        io.fsync(handle)
    finally:
        io.close(handle)
    io.replace(tmp, path)
    io.fsync_dir(path.parent)


def atomic_write_json(
    path: Path, document: Mapping[str, Any], io: StorageIO | None = None
) -> None:
    """Atomic + durable JSON document write (stable key order).

    Indented, for files people read and diff (gate baselines, the
    trajectory); :meth:`StorageBackend.write_document` writes compact.
    """
    atomic_write_text(
        path,
        json.dumps(document, indent=2, sort_keys=True, default=str)
        + "\n",
        io=io,
    )


def _snapshot_checksum(payload: Mapping[str, Any]) -> str:
    canonical = json.dumps(
        {k: v for k, v in payload.items() if k != "checksum"},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RecoveryReport:
    """What one recovery pass found and did."""

    def __init__(self):
        self.scanned = 0
        self.quarantined: list[str] = []
        self.repaired: list[str] = []

    def to_dict(self) -> dict:
        return {
            "scanned": self.scanned,
            "quarantined": list(self.quarantined),
            "repaired": list(self.repaired),
        }

    def __repr__(self) -> str:
        return (
            f"RecoveryReport(scanned={self.scanned}, "
            f"quarantined={len(self.quarantined)}, "
            f"repaired={len(self.repaired)})"
        )


class StorageBackend:
    """One directory-shaped namespace of documents, journals, snapshots.

    All I/O flows through ``self.io``, a
    :class:`~repro.storage.io.StorageIO` (``LocalIO`` unless given).
    That makes the backend fault-injectable and crash-enumerable with
    the same code on a real disk, in memory, or in the simulator.
    The root directory is created (with its parents) when missing.
    Names are plain relative filenames (``databases.json``,
    ``abc123.journal.jsonl``); nesting is deliberately unsupported.
    """

    def __init__(
        self,
        root: Path,
        metrics: MetricsRegistry | None = None,
        io: StorageIO | None = None,
    ):
        self.root = Path(root)
        self.io = io if io is not None else LocalIO()
        self.metrics = metrics
        #: quarantine names in the order this process created them;
        #: entries found on disk but not listed here (a previous run's)
        #: are treated as oldest
        self._quarantine_order: list[str] = []
        self.io.mkdir(self.root)

    # -- metrics -------------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)
        metric_counter(name, n)

    # -- paths ---------------------------------------------------------
    def path_of(self, name: str) -> Path:
        if "/" in name or name.startswith("."):
            raise StorageError(
                f"storage names are flat relative filenames, got "
                f"{name!r}",
                path=name,
            )
        return self.root / name

    def _quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    # -- documents -----------------------------------------------------
    def read_document(self, name: str) -> dict | None:
        """The parsed document, ``None`` when absent.

        A file that exists but does not parse raises
        :class:`~repro.errors.StorageError` -- the caller decides
        between snapshot repair and refusing to start.
        """
        path = self.path_of(name)
        if not self.io.exists(path):
            return None
        text = self.io.read_text(path)
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            self._count("storage.documents.corrupt")
            raise StorageError(
                f"document {path} is corrupt: {exc}", path=str(path)
            ) from exc
        if not isinstance(document, dict):
            self._count("storage.documents.corrupt")
            raise StorageError(
                f"document {path} is not a JSON object",
                path=str(path),
            )
        self._count("storage.documents.read")
        return document

    def write_document(self, name: str, document: Mapping[str, Any]) -> None:
        # compact separators keep json.dumps on its C encoder: nobody
        # reads these documents but the service
        atomic_write_text(
            self.path_of(name),
            json.dumps(
                document,
                sort_keys=True,
                separators=(",", ":"),
                default=str,
            )
            + "\n",
            io=self.io,
        )
        self._count("storage.documents.written")

    # -- journals ------------------------------------------------------
    def journal(self, name: str, resume: bool = False):
        """A :class:`~repro.robustness.journal.BatchJournal` at *name*,
        its appends routed through this backend's I/O shim."""
        from ..robustness.journal import BatchJournal

        return BatchJournal(
            self.path_of(name), resume=resume, io=self.io
        )

    # -- snapshots -----------------------------------------------------
    def _snapshot_name(self, family: str, generation: int) -> str:
        return f"{family}.gen-{generation}.snap.json"

    def snapshot_generations(self, family: str) -> list[int]:
        """Existing generation numbers of *family*, ascending."""
        generations = []
        for name in self.io.listdir(self.root):
            match = _SNAPSHOT_RE.match(name)
            if match and match.group("family") == family:
                generations.append(int(match.group("gen")))
        return sorted(generations)

    def write_snapshot(
        self, family: str, document: Mapping[str, Any]
    ) -> int:
        """Write the next checksummed generation of *family*; prune old
        generations past :data:`SNAPSHOT_KEEP`.  Returns the new
        generation number."""
        generations = self.snapshot_generations(family)
        generation = (generations[-1] + 1) if generations else 1
        payload: dict[str, Any] = {
            "format": SNAPSHOT_FORMAT,
            "v": SNAPSHOT_VERSION,
            "family": family,
            "generation": generation,
            "document": dict(document),
        }
        payload["checksum"] = _snapshot_checksum(payload)
        atomic_write_json(
            self.path_of(self._snapshot_name(family, generation)),
            payload,
            io=self.io,
        )
        self._count("storage.snapshots.written")
        for old in generations[: max(0, len(generations) + 1 - SNAPSHOT_KEEP)]:
            self.io.unlink(
                self.path_of(self._snapshot_name(family, old))
            )
            self._count("storage.snapshots.pruned")
        return generation

    def read_snapshot(self, family: str) -> tuple[dict, int] | None:
        """The newest *valid* generation of *family* as
        ``(document, generation)``; ``None`` when no generation
        verifies.  Corrupt generations are quarantined (evidence, not
        garbage) and never considered again."""
        for generation in reversed(self.snapshot_generations(family)):
            name = self._snapshot_name(family, generation)
            try:
                payload = json.loads(
                    self.io.read_text(self.path_of(name))
                )
                valid = (
                    isinstance(payload, dict)
                    and payload.get("format") == SNAPSHOT_FORMAT
                    and payload.get("family") == family
                    and payload.get("generation") == generation
                    and isinstance(payload.get("document"), dict)
                    and payload.get("checksum")
                    == _snapshot_checksum(payload)
                )
            except (json.JSONDecodeError, StorageError):
                valid = False
            if valid:
                self._count("storage.snapshots.read")
                return dict(payload["document"]), generation
            self._count("storage.snapshots.corrupt")
            self.quarantine(name)
        return None

    # -- quarantine + recovery -----------------------------------------
    def quarantine(self, name: str) -> str | None:
        """Move *name* into ``quarantine/``; the quarantined name.

        A corrupt durability artifact is evidence of a disk or crash
        problem, so it is retained rather than deleted -- up to
        :data:`QUARANTINE_KEEP` entries, after which the *oldest* evidence
        is pruned (counted by ``storage.quarantine.pruned``) so a
        crash-looping deployment cannot fill the disk with it.
        Returns ``None`` when the file vanished or cannot be moved (in
        which case it is unlinked as a last resort so recovery still
        converges).
        """
        source = self.path_of(name)
        if not self.io.exists(source):
            return None
        qdir = self._quarantine_dir()
        self.io.mkdir(qdir)
        target = qdir / name
        suffix = 0
        while self.io.exists(target):
            suffix += 1
            target = qdir / f"{name}.{suffix}"
        try:
            self.io.replace(source, target)
        except StorageError:
            self.io.unlink(source)
            self._count("storage.recovery.quarantine_failed")
            return None
        self._count("storage.recovery.quarantined")
        self._quarantine_order.append(target.name)
        self._prune_quarantine()
        return target.name

    def _prune_quarantine(self) -> None:
        """Drop the oldest quarantined evidence past
        :data:`QUARANTINE_KEEP`.

        Entries this process quarantined age in creation order; ones
        inherited from an earlier run (present on disk, not in the
        in-memory order) are considered older still, by sorted name.
        """
        qdir = self._quarantine_dir()
        if not self.io.exists(qdir):
            return
        present = self.io.listdir(qdir)
        excess = len(present) - QUARANTINE_KEEP
        if excess <= 0:
            return
        known = [n for n in self._quarantine_order if n in set(present)]
        inherited = sorted(set(present) - set(known))
        for victim in (inherited + known)[:excess]:
            self.io.unlink(qdir / victim)
            self._count("storage.quarantine.pruned")
        self._quarantine_order = [
            n for n in self._quarantine_order
            if n not in set((inherited + known)[:excess])
        ]

    def recover(self) -> RecoveryReport:
        """The pre-ready recovery scan.

        * stray ``*.tmp`` files (a crash between temp-write and
          rename) are quarantined -- they are uncommitted by
          definition and must never be resurrected;
        * every snapshot generation is verified; corrupt ones are
          quarantined, and a family whose primary document is corrupt
          or missing-but-snapshotted is repaired from its newest valid
          generation.
        """
        report = RecoveryReport()
        with span("storage.recover", category="storage"):
            names = list(self.io.listdir(self.root))
            families: set[str] = set()
            for name in names:
                if name == "quarantine":
                    continue
                report.scanned += 1
                if name.endswith(TMP_SUFFIX):
                    quarantined = self.quarantine(name)
                    if quarantined is not None:
                        report.quarantined.append(name)
                    continue
                match = _SNAPSHOT_RE.match(name)
                if match:
                    families.add(match.group("family"))
            for family in sorted(families):
                self._repair_family(family, report)
            self._count("storage.recovery.runs")
        return report

    def _repair_family(
        self, family: str, report: RecoveryReport
    ) -> None:
        """Verify snapshots of *family*; repair its primary document
        (``<family>.json``) from the newest valid generation when the
        primary is corrupt or missing."""
        primary = f"{family}.json"
        try:
            document = self.read_document(primary)
            needs_repair = document is None
        except StorageError:
            needs_repair = True
            quarantined = self.quarantine(primary)
            if quarantined is not None:
                report.quarantined.append(primary)
        before = set(self.io.listdir(self._quarantine_dir())) if (
            self.io.exists(self._quarantine_dir())
        ) else set()
        snapshot = self.read_snapshot(family)
        after = set(self.io.listdir(self._quarantine_dir())) if (
            self.io.exists(self._quarantine_dir())
        ) else set()
        report.quarantined.extend(sorted(after - before))
        if needs_repair and snapshot is not None:
            restored, generation = snapshot
            self.write_document(primary, restored)
            self._count("storage.recovery.repaired")
            report.repaired.append(
                f"{primary} <- gen-{generation}"
            )

    # -- introspection -------------------------------------------------
    def describe(self) -> dict:
        return {"kind": self.io.kind, "root": str(self.root)}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self.root)!r})"
