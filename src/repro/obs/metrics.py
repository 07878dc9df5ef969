"""Metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the numeric side of the observability subsystem: where
spans (:mod:`repro.obs.trace`) answer *where time went*, metrics answer
*how much work happened* -- cache hits, budget ticks, operator output
cardinalities, fault-site firings.  The instruments are deliberately
minimal (no labels, no exposition format) because their one consumer is
the snapshot exporter feeding ``--metrics`` and the bench artifacts.

Instruments are created lazily through the registry accessors, so
instrumentation sites never need registration boilerplate::

    registry.counter("cache.hits").inc()
    registry.histogram("evaluator.rows_out").observe(len(output))

Well-known names emitted by the Why-Not baseline rung of
``NedExplain.explain_each(fallback_baseline=True)``:
``resilience.fallbacks.baseline`` / ``resilience.fallbacks.failed``
count the questions the baseline answered / could not answer either.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Mapping, Sequence

from ..errors import ConfigurationError

#: Default histogram buckets: powers of ten from 1 to 1M -- wide enough
#: for row counts and comparison batches, small enough to stay flat.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)


class Counter:
    """A monotonically increasing count.

    ``inc`` is atomic under an internal lock (a bare ``+=`` is a
    read-modify-write that loses updates across threads)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc by {n})"
            )
        with self._lock:
            self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        # a single attribute store: already atomic, no lock needed
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A fixed-bucket histogram (cumulative-style bucket counts).

    ``buckets`` are the inclusive upper bounds; observations above the
    last bound land in the implicit overflow bucket.  Bucket counts are
    *per bucket* (not cumulative) internally; the snapshot reports them
    alongside ``count`` and ``sum`` so consumers can derive either view.
    """

    __slots__ = (
        "name", "buckets", "bucket_counts", "count", "sum", "_lock",
    )

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be strictly "
                f"increasing and non-empty, got {buckets!r}"
            )
        self.name = name
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # + overflow
        self.count = 0
        self.sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.bucket_counts[bisect_left(self.buckets, value)] += 1
            self.count += 1
            self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, count={self.count}, "
            f"sum={self.sum:.3f})"
        )


class MetricsRegistry:
    """Lazily-created named instruments, one flat namespace.

    A name is permanently bound to the first instrument kind that
    claimed it; asking for the same name as a different kind is a
    :class:`~repro.errors.ConfigurationError` (silent shadowing would
    corrupt the snapshot).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind: type, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(
            name, Histogram, lambda: Histogram(name, buckets)
        )

    def snapshot(self) -> dict[str, dict]:
        """Flat, JSON-ready view of every instrument, sorted by name."""
        out: dict[str, dict] = {}
        with self._lock:
            instruments = dict(self._instruments)
        for name in sorted(instruments):
            instrument = instruments[name]
            if isinstance(instrument, Counter):
                out[name] = {"type": "counter", "value": instrument.value}
            elif isinstance(instrument, Gauge):
                out[name] = {"type": "gauge", "value": instrument.value}
            else:
                out[name] = {
                    "type": "histogram",
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "mean": instrument.mean,
                    "buckets": list(instrument.buckets),
                    "bucket_counts": list(instrument.bucket_counts),
                }
        return out

    def absorb(self, snapshot: Mapping[str, Mapping]) -> None:
        """Fold one :meth:`snapshot` into this registry's instruments.

        Counters and histograms add; gauges take the snapshot's value
        (last write wins, matching :func:`merge_snapshots`).  The
        parallel executor uses this to merge each worker's private
        registry back into the batch caller's tracer, so a traced
        ``workers=N`` run reports the same totals one thread would.
        """
        for name, data in snapshot.items():
            kind = data["type"]
            if kind == "counter":
                self.counter(name).inc(int(data["value"]))
            elif kind == "gauge":
                self.gauge(name).set(data["value"])
            else:
                histogram = self.histogram(
                    name, buckets=tuple(data["buckets"])
                )
                if list(histogram.buckets) != list(data["buckets"]):
                    raise ConfigurationError(
                        f"cannot absorb histogram {name!r}: bucket "
                        "layout mismatch"
                    )
                with histogram._lock:
                    histogram.count += data["count"]
                    histogram.sum += data["sum"]
                    histogram.bucket_counts = [
                        a + b
                        for a, b in zip(
                            histogram.bucket_counts,
                            data["bucket_counts"],
                        )
                    ]

    def reset(self) -> None:
        """Drop every instrument (names become free again)."""
        with self._lock:
            self._instruments.clear()

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._instruments)} instruments)"


def counter_values(
    snapshot: Mapping[str, Mapping], prefix: str | None = None
) -> dict[str, int]:
    """The counter subset of a :meth:`MetricsRegistry.snapshot`.

    Returns ``{name: value}`` for every counter instrument, optionally
    restricted to names starting with *prefix*.  Counters are the
    deterministic face of the metrics registry -- row/comparison ticks,
    cache hits and misses, traversal steps -- so this is the projection
    the benchmark regression gate (:mod:`repro.bench.gate`) compares
    exactly, immune to wall-clock jitter.
    """
    return {
        name: int(data["value"])
        for name, data in snapshot.items()
        if data.get("type") == "counter"
        and (prefix is None or name.startswith(prefix))
    }


def merge_snapshots(
    snapshots: Sequence[Mapping[str, Mapping]],
) -> dict[str, dict]:
    """Combine several snapshots (counters/histograms add, gauges keep
    the last value) -- used by the bench runner to aggregate runs."""
    out: dict[str, dict] = {}
    for snapshot in snapshots:
        for name, data in snapshot.items():
            if name not in out:
                out[name] = {k: (list(v) if isinstance(v, list) else v)
                             for k, v in data.items()}
                continue
            merged = out[name]
            if merged["type"] != data["type"]:
                raise ConfigurationError(
                    f"cannot merge metric {name!r}: kind mismatch "
                    f"({merged['type']} vs {data['type']})"
                )
            if data["type"] == "counter":
                merged["value"] += data["value"]
            elif data["type"] == "gauge":
                merged["value"] = data["value"]
            else:
                if list(merged["buckets"]) != list(data["buckets"]):
                    raise ConfigurationError(
                        f"cannot merge histogram {name!r}: "
                        "bucket layout mismatch"
                    )
                merged["count"] += data["count"]
                merged["sum"] += data["sum"]
                merged["bucket_counts"] = [
                    a + b
                    for a, b in zip(
                        merged["bucket_counts"], data["bucket_counts"]
                    )
                ]
                merged["mean"] = (
                    merged["sum"] / merged["count"]
                    if merged["count"]
                    else 0.0
                )
    return out
