"""Summary statistics shared by the benchmark and its self-tests."""

from __future__ import annotations

import statistics

# A tail is only reported where at least this many samples lie beyond it.
TAIL_MARGIN = 10


def median(samples: list[float]) -> float:
    if not samples:
        raise ValueError("no samples")
    return statistics.median(samples)


def tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least TAIL_MARGIN samples beyond it.

    Returns (percentile, value), where the value is the sample with exactly
    TAIL_MARGIN larger ones after sorting, and the percentile is the share
    of samples at or below it. None when there are too few samples.
    """
    n = len(samples)
    if n <= TAIL_MARGIN:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - TAIL_MARGIN) / n, ordered[n - TAIL_MARGIN - 1]

