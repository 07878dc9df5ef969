"""The fault-injectable I/O shim under every storage backend.

Every byte the storage subsystem persists -- batch journals and the
registrations journal -- flows through a
:class:`StorageIO`, never through bare ``open``/``os.replace``.  That
single chokepoint buys two things:

* **deterministic disk faults.**  :class:`LocalIO` routes each
  primitive through the :func:`~repro.robustness.faults.fault_point`
  sites of :data:`~repro.robustness.faults.IO_FAULT_SITES`, so a
  seeded :class:`~repro.robustness.faults.FaultPlan` can make the disk
  misbehave exactly once, at exactly the chosen call -- the same
  adversarial treatment the engine sites have had since the first
  chaos suite.  The shim *imitates* the failure rather than merely
  raising: ``io.write_short`` and ``io.enospc`` land a partial write
  before failing (what a real short write / full disk leaves behind),
  ``io.torn_rename`` strands the temp file, ``io.eio`` fails reads and
  directory listings, and ``io.fsync_lost`` silently skips the fsync
  -- a lying disk whose damage only a later crash reveals;

* **a simulatable disk.**  :class:`MemoryIO` implements the same
  interface over an in-memory file table, which is what the
  in-memory backend runs on and what the crash-state enumeration
  harness (:mod:`repro.storage.crashsim`) extends with an operation
  log and ALICE-style durability modelling.

The interface is deliberately narrow -- open/write/flush/fsync/close,
whole-file reads, replace + directory fsync, listdir/mkdir/unlink --
because those are the only primitives a write-ahead log and an
atomic-rename document store need.
"""

from __future__ import annotations

import errno as _errno
import io as _stdio
import os
import threading
from pathlib import Path

from ..errors import InjectedFaultError, StorageError
from ..robustness.faults import fault_point

__all__ = [
    "LocalIO",
    "MemoryIO",
    "StorageIO",
    "fsync_lost",
    "read_fault",
    "rename_fault",
    "write_fault",
]


def _fires(site: str) -> bool:
    """True when the active fault plan fires at *site*.

    The engine sites let :func:`fault_point` raise straight through;
    the I/O shim instead turns a firing into the *behaviour* of the
    named disk fault, so the injected exception is consumed here and
    replaced by what a disk would actually have done.
    """
    try:
        fault_point(site)
    except InjectedFaultError:
        return True
    return False


def write_fault(text: str, path) -> tuple[str, StorageError | None]:
    """What an injected write fault lands on disk before failing.

    Returns ``(prefix_that_lands, error)``; error is ``None`` on the
    healthy path.  Shared by the real and the simulated shim so both
    disks misbehave identically for the same seed.
    """
    if _fires("io.write_short"):
        return text[: max(1, len(text) // 2)], StorageError(
            f"short write to {path} (injected EIO after partial "
            "write)",
            path=str(path),
            errno=_errno.EIO,
        )
    if _fires("io.enospc"):
        return text[: max(1, len(text) // 3)], StorageError(
            f"no space left on device writing {path} "
            "(injected ENOSPC)",
            path=str(path),
            errno=_errno.ENOSPC,
        )
    return text, None


def read_fault(path) -> StorageError | None:
    """The injected unreadable-file fault (``io.eio``), if armed."""
    if _fires("io.eio"):
        return StorageError(
            f"I/O error reading {path} (injected EIO)",
            path=str(path),
            errno=_errno.EIO,
        )
    return None


def rename_fault(src, dst) -> StorageError | None:
    """The injected torn-rename fault: the rename never happens and
    the temp file is stranded for recovery to quarantine."""
    if _fires("io.torn_rename"):
        return StorageError(
            f"rename {src} -> {dst} failed (injected EIO); "
            "temp file left behind",
            path=str(dst),
            errno=_errno.EIO,
        )
    return None


def fsync_lost() -> bool:
    """True when the lying-disk fault (``io.fsync_lost``) is armed:
    the fsync must silently "succeed" while persisting nothing."""
    return _fires("io.fsync_lost")


class StorageIO:
    """The primitive surface a storage backend writes through.

    Handles: ``open(path, mode)`` (``"r"``, ``"w"`` or ``"a"``),
    ``write(handle, text)``, ``flush``, ``fsync``, ``close``,
    ``closed``.  Whole files: ``read_text``, ``exists``, ``is_dir``,
    ``listdir``, ``mkdir``, ``unlink``, ``replace(src, dst)`` and
    ``fsync_dir``.  :class:`LocalIO` and :class:`MemoryIO` implement
    all of them.  Handles are opaque; all mutation goes through the
    shim (``io.write(handle, text)``) so a fault plan -- or the crash
    simulator's op log -- sees every byte.
    """

    #: short name of the medium, reported on ``/readyz``
    kind = "abstract"

    # -- conveniences shared by the implementations --------------------
    def write_text(self, path: Path, text: str, durable: bool = True):
        """Plain (non-atomic) whole-file write; ``durable`` fsyncs."""
        handle = self.open(path, "w")
        try:
            self.write(handle, text)
            self.flush(handle)
            if durable:
                self.fsync(handle)
        finally:
            self.close(handle)


class LocalIO(StorageIO):
    """The real filesystem, with the disk-fault sites armed.

    ``open_hook`` (used by :class:`~repro.robustness.journal.
    BatchJournal`'s root-safe permission tests) replaces the builtin
    ``open`` for handle creation; everything else is plain ``os``.
    """

    kind = "local"

    def __init__(self, open_hook=None):
        self._open_hook = open_hook

    # -- handles -------------------------------------------------------
    def open(self, path: Path, mode: str):
        error = read_fault(path)
        if error is not None:
            raise error
        opener = self._open_hook or (
            lambda p, m: open(p, m, encoding="utf-8")
        )
        try:
            return opener(path, mode)
        except OSError as exc:
            raise StorageError(
                f"cannot open {path}: {exc}",
                path=str(path),
                errno=exc.errno,
            ) from exc

    def write(self, handle, text: str) -> None:
        landed, error = write_fault(
            text, getattr(handle, "name", "?")
        )
        try:
            # on an injected fault only the prefix lands -- and the
            # torn bytes STAY on disk, which is exactly what
            # torn-tail discard must survive
            handle.write(landed)
            if error is not None:
                handle.flush()
        except OSError as exc:
            raise StorageError(
                f"write to {getattr(handle, 'name', '?')} failed: "
                f"{exc}",
                path=str(getattr(handle, "name", "?")),
                errno=exc.errno,
            ) from exc
        if error is not None:
            raise error

    def flush(self, handle) -> None:
        handle.flush()

    def fsync(self, handle) -> None:
        if fsync_lost():
            # the lying disk: fsync "succeeds" but persists nothing.
            # Invisible on a healthy run; the crash-state harness is
            # what proves recovery survives it.
            return
        os.fsync(handle.fileno())

    def close(self, handle) -> None:
        handle.close()

    def closed(self, handle) -> bool:
        return handle.closed

    # -- whole files ---------------------------------------------------
    def read_text(self, path: Path) -> str:
        error = read_fault(path)
        if error is not None:
            raise error
        try:
            return Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise StorageError(
                f"cannot read {path}: {exc}",
                path=str(path),
                errno=exc.errno,
            ) from exc

    def exists(self, path: Path) -> bool:
        return Path(path).exists()

    def is_dir(self, path: Path) -> bool:
        return Path(path).is_dir()

    def listdir(self, path: Path) -> list[str]:
        error = read_fault(path)
        if error is not None:
            raise error
        try:
            return sorted(os.listdir(path))
        except OSError as exc:
            raise StorageError(
                f"cannot list {path}: {exc}",
                path=str(path),
                errno=exc.errno,
            ) from exc

    def mkdir(self, path: Path) -> None:
        try:
            Path(path).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageError(
                f"cannot create directory {path}: {exc}",
                path=str(path),
                errno=exc.errno,
            ) from exc

    def unlink(self, path: Path) -> None:
        try:
            Path(path).unlink()
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise StorageError(
                f"cannot remove {path}: {exc}",
                path=str(path),
                errno=exc.errno,
            ) from exc

    def replace(self, src: Path, dst: Path) -> None:
        # an injected torn rename never happens: the temp file is
        # stranded next to the (old) destination, exactly what a crash
        # between write and rename leaves for recovery to quarantine
        error = rename_fault(src, dst)
        if error is not None:
            raise error
        try:
            os.replace(src, dst)
        except OSError as exc:
            raise StorageError(
                f"cannot rename {src} -> {dst}: {exc}",
                path=str(dst),
                errno=exc.errno,
            ) from exc

    def fsync_dir(self, path: Path) -> None:
        """fsync the *directory*: a rename is not durable until the
        directory entry itself is on disk (the missing half of most
        hand-rolled atomic-write helpers)."""
        if fsync_lost():
            return
        try:
            fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
        except OSError:
            return  # platforms without directory fds: best effort
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


class _MemoryHandle:
    """One open file of a :class:`MemoryIO`."""

    __slots__ = (
        "path",
        "mode",
        "buffer",
        "closed",
        "name",
        "logged_len",  # used by the crash simulator's op log
    )

    def __init__(self, path: str, mode: str):
        self.path = path
        self.name = path
        self.mode = mode
        self.buffer = _stdio.StringIO()
        self.closed = False
        self.logged_len = 0


class MemoryIO(StorageIO):
    """An in-memory filesystem speaking the same primitive surface.

    Files live in one dict; directories are implicit (any prefix of a
    stored path "exists").  Thread-safe under one lock -- worker
    threads of a parallel batch append through one shim.  Subclasses
    (the crash simulator) override the mutation points to record an
    operation log and model durability.
    """

    kind = "memory"

    def __init__(self):
        self.files: dict[str, str] = {}
        self.dirs: set[str] = {"/"}
        self._lock = threading.RLock()

    # -- path helpers --------------------------------------------------
    @staticmethod
    def _key(path: Path) -> str:
        return str(Path(path))

    def _parent_exists(self, key: str) -> bool:
        parent = str(Path(key).parent)
        with self._lock:
            if parent in self.dirs:
                return True
            return any(
                str(Path(existing).parent) == parent
                for existing in self.files
            )

    # -- handles -------------------------------------------------------
    def open(self, path: Path, mode: str):
        key = self._key(path)
        if mode not in ("r", "w", "a"):
            raise StorageError(
                f"MemoryIO supports r/w/a, got {mode!r}", path=key
            )
        with self._lock:
            if mode == "r":
                if key not in self.files:
                    raise StorageError(
                        f"cannot open {key}: no such file",
                        path=key,
                        errno=_errno.ENOENT,
                    )
            elif not self._parent_exists(key):
                raise StorageError(
                    f"cannot open {key}: parent directory missing",
                    path=key,
                    errno=_errno.ENOENT,
                )
            handle = _MemoryHandle(key, mode)
            if mode == "a" and key in self.files:
                handle.buffer.write(self.files[key])
            elif mode == "r":
                handle.buffer.write(self.files[key])
                handle.buffer.seek(0)
            if mode == "w":
                self.files[key] = ""
            return handle

    def write(self, handle: _MemoryHandle, text: str) -> None:
        if handle.closed or handle.mode == "r":
            raise StorageError(
                f"handle for {handle.path} is not writable",
                path=handle.path,
            )
        handle.buffer.write(text)

    def flush(self, handle: _MemoryHandle) -> None:
        # flush reaches the "page cache": the file table sees the
        # bytes (subsequent reads observe them) but only fsync makes
        # them durable in the crash simulator's model
        with self._lock:
            self.files[handle.path] = handle.buffer.getvalue()

    def fsync(self, handle: _MemoryHandle) -> None:
        self.flush(handle)

    def close(self, handle: _MemoryHandle) -> None:
        if not handle.closed and handle.mode in ("w", "a"):
            self.flush(handle)
        handle.closed = True

    def closed(self, handle: _MemoryHandle) -> bool:
        return handle.closed

    # -- whole files ---------------------------------------------------
    def read_text(self, path: Path) -> str:
        key = self._key(path)
        with self._lock:
            if key not in self.files:
                raise StorageError(
                    f"cannot read {key}: no such file",
                    path=key,
                    errno=_errno.ENOENT,
                )
            return self.files[key]

    def exists(self, path: Path) -> bool:
        key = self._key(path)
        with self._lock:
            if key in self.files or key in self.dirs:
                return True
            return any(f.startswith(key + os.sep) for f in self.files)

    def is_dir(self, path: Path) -> bool:
        key = self._key(path)
        with self._lock:
            if key in self.dirs:
                return True
            return any(f.startswith(key + os.sep) for f in self.files)

    def listdir(self, path: Path) -> list[str]:
        key = self._key(path)
        with self._lock:
            names = {
                str(Path(f).name)
                for f in self.files
                if str(Path(f).parent) == key
            }
            names |= {
                str(Path(d).name)
                for d in self.dirs
                if str(Path(d).parent) == key and d != key
            }
        return sorted(names)

    def mkdir(self, path: Path) -> None:
        with self._lock:
            self.dirs.add(self._key(path))

    def unlink(self, path: Path) -> None:
        with self._lock:
            self.files.pop(self._key(path), None)

    def replace(self, src: Path, dst: Path) -> None:
        skey, dkey = self._key(src), self._key(dst)
        with self._lock:
            if skey not in self.files:
                raise StorageError(
                    f"cannot rename {skey}: no such file",
                    path=skey,
                    errno=_errno.ENOENT,
                )
            self.files[dkey] = self.files.pop(skey)

    def fsync_dir(self, path: Path) -> None:
        pass
