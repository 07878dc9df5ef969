"""Injectable clocks: one time source for the whole engine.

Every layer that measures time -- the execution budgets of
:mod:`repro.robustness.budget`, the phase accounting of
:mod:`repro.core.nedexplain`, the spans of :mod:`repro.obs.trace` --
reads it through the ambient :class:`Clock` installed here instead of
calling :mod:`time` directly.  Two payoffs:

* **determinism** -- tests install a :class:`ManualClock` and advance
  it explicitly, so deadline and tracing behaviour is reproducible
  without sleeping (the chaos and budget suites do);
* **consistency** -- span durations, phase totals, and budget
  deadlines are all measured against the *same* source, which is what
  makes "per-phase span durations sum to the reported total" a
  checkable invariant rather than a hope.

The ambient clock is a :class:`contextvars.ContextVar` (mirroring
:func:`repro.robustness.budget.execution_context`), defaulting to the
process :class:`SystemClock`; production code pays one context-var read
per measured section, nothing more.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from ..errors import ConfigurationError


class Clock:
    """A monotonic time source.

    ``monotonic`` is the coarse scheduling clock (budget deadlines);
    ``perf_counter`` is the high-resolution measurement clock (span
    durations, phase accounting).  The system clock keeps the two
    distinct exactly as :mod:`time` does; manual clocks collapse them
    into one controllable value.
    """

    def monotonic(self) -> float:
        raise NotImplementedError

    def perf_counter(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block until *seconds* have passed on this clock.

        The service client's pushback backoff
        (:class:`repro.service.client.RetryPolicy`) waits through this
        method rather than :func:`time.sleep`, so a test under a
        :class:`ManualClock` advances instantly and never sleeps for
        real.
        """
        raise NotImplementedError


class SystemClock(Clock):
    """The real wall clock (:func:`time.monotonic` and friends)."""

    def monotonic(self) -> float:
        return time.monotonic()

    def perf_counter(self) -> float:
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def __repr__(self) -> str:
        return "SystemClock()"


class ManualClock(Clock):
    """A clock that only moves when told to.

    Tests install one via :func:`use_clock` and :meth:`advance` it past
    deadlines instead of sleeping::

        clock = ManualClock()
        with use_clock(clock):
            context = ExecutionContext(Budget(deadline_s=5.0))
            clock.advance(6.0)
            context.check_deadline()   # raises BudgetExceededError
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = threading.Lock()

    def advance(self, seconds: float) -> float:
        """Move the clock forward; returns the new reading."""
        if seconds < 0:
            raise ConfigurationError(
                f"cannot advance a clock by {seconds!r} seconds"
            )
        with self._lock:
            self._now += seconds
            return self._now

    def monotonic(self) -> float:
        return self._now

    def perf_counter(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        """Sleeping on a manual clock just advances it -- instantly."""
        if seconds > 0:
            self.advance(seconds)

    def __repr__(self) -> str:
        return f"ManualClock(now={self._now:.6f})"


#: The process-wide default time source.
SYSTEM_CLOCK = SystemClock()

_CLOCK: ContextVar[Clock] = ContextVar("repro_clock", default=SYSTEM_CLOCK)


def current_clock() -> Clock:
    """The ambient :class:`Clock` (the system clock unless overridden)."""
    return _CLOCK.get()


@contextmanager
def use_clock(clock: Clock) -> Iterator[Clock]:
    """Install *clock* as the ambient time source for the block."""
    token = _CLOCK.set(clock)
    try:
        yield clock
    finally:
        _CLOCK.reset(token)


def monotonic() -> float:
    """Ambient-clock :func:`time.monotonic`."""
    return _CLOCK.get().monotonic()


def perf_counter() -> float:
    """Ambient-clock :func:`time.perf_counter`."""
    return _CLOCK.get().perf_counter()
