"""Percentiles, spreads and span self times for the end-to-end benchmark."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Percentile:
    """One percentile of a latency sample, with the sample behind it."""

    q: float
    value: float
    #: samples the percentile was taken over
    samples: int
    #: samples strictly above the value (a tail percentile needs ten)
    beyond: int

    def describe(self, unit: str = "ms") -> str:
        return (
            f"p{self.q:g}={self.value:.4f} {unit} "
            f"(n={self.samples}, {self.beyond} beyond)"
        )


def percentile(values, q: float) -> Percentile:
    """The *q*-th percentile of *values*, linearly interpolated between
    closest ranks (``statistics.quantiles(..., method="inclusive")``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    beyond = sum(1 for v in ordered if v > value)
    return Percentile(q, value, len(ordered), beyond)


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median -- the repeatability measure the comparison protocol uses."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def self_times(spans) -> dict[int, float]:
    """Self time (ms) of every span record of a trace.

    A span's self time is its duration minus the part of its interval
    that its child spans cover.  Children are clipped to the parent and
    overlapping children (parallel workers) are counted once.
    """
    children: dict[int, list[dict]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        start = span["start_ms"]
        end = start + span["duration_ms"]
        covered = 0.0
        cursor = start
        for child in sorted(
            children.get(span["id"], ()), key=lambda c: c["start_ms"]
        ):
            lo = max(child["start_ms"], cursor)
            hi = min(child["start_ms"] + child["duration_ms"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = span["duration_ms"] - covered
    return result
