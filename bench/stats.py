"""The benchmark's own arithmetic: tail selection, run-to-run spread and
span self time.  It is pure, so `test_stats.py` pins it.
"""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile that still has `beyond` samples above it.

    Returns (value, percentile, samples beyond).  With n sorted samples the
    value is the one of rank n - beyond (1-based), i.e. the nearest-rank
    percentile 100 * (n - beyond) / n.  With too few samples it falls back
    to the maximum, reported as percentile 100 with 0 samples beyond.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, 0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def self_times(
    starts: list[float], ends: list[float], parents: list[int]
) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans are indexed 0..n-1; parents[i] is the index of span i's parent or
    -1.  Children of one span come from a single thread, so they do not
    overlap one another; each child's interval is clipped to its parent's
    before it is subtracted.
    """
    covered = [0.0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            lo = max(starts[i], starts[parent])
            hi = min(ends[i], ends[parent])
            if hi > lo:
                covered[parent] += hi - lo
    return [max(0.0, e - s - c) for s, e, c in zip(starts, ends, covered)]
