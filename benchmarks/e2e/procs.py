"""Child processes of the benchmark: spawn, wait for ready, stop."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

#: the checkout root (this file is benchmarks/e2e/procs.py)
ROOT = Path(__file__).resolve().parents[2]

#: how long a child may take to become ready or to stop
TIMEOUT_S = 120.0


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a wrong answer)."""


def child_env(work: Path) -> dict:
    """Environment of every child: the repo's sources importable, and
    temporary files kept inside the checkout's work directory."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = str(work)
    return env


def spawn_until(args, env, marker: str) -> tuple[subprocess.Popen, str, float]:
    """Start ``python *args*`` and read its output up to the first line
    starting with *marker*; returns the process, that line, and the
    seconds from spawn to it."""
    started = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=ROOT,
    )
    seen = []
    assert proc.stdout is not None
    for line in proc.stdout:
        if line.startswith(marker):
            return proc, line.strip(), perf_counter() - started
        seen.append(line)
    proc.wait(TIMEOUT_S)
    raise HarnessError(
        f"{' '.join(args)} exited {proc.returncode} before {marker!r}:\n"
        + "".join(seen)
    )


def finish(proc: subprocess.Popen, terminate: bool = False) -> str:
    """Wait for *proc* (after SIGTERM when *terminate*), return the rest
    of its output, and fail on a non-zero exit."""
    if terminate:
        proc.send_signal(signal.SIGTERM)
    try:
        output, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"child {proc.args} did not stop") from None
    if proc.returncode != 0:
        raise HarnessError(
            f"child {proc.args} exited {proc.returncode}:\n{output}"
        )
    return output


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a running process (Linux ``VmHWM``)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise HarnessError(f"no VmHWM for pid {pid}")
