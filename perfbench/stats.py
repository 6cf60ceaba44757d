"""Order statistics shared by the runner and the compare entry point."""

from __future__ import annotations

import statistics

# Tail percentiles, highest first.  The reported tail is a workload's own
# step of this ladder, or the next lower step that leaves at least ten
# samples beyond it when a run has too few samples.
TAIL_LADDER = (99, 95, 90, 75)
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int, highest: int = TAIL_LADDER[0]) -> int:
    """Highest ladder percentile, at most ``highest``, leaving at least ten
    of n samples beyond it; the median when no ladder step does."""
    for p in TAIL_LADDER:
        if p <= highest and int(n * (100 - p) / 100) >= TAIL_MIN_BEYOND:
            return p
    return 50


def quartiles(values) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")
