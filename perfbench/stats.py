"""Order statistics shared by the run, the series report and compare."""

from __future__ import annotations

import statistics

# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond
    it.  Below 20 samples that percentile is under the median, so the
    median is reported, as percentile 50."""
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(xs), 50.0
    k = n - TAIL_BEYOND
    return xs[k - 1], 100.0 * k / n


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")
