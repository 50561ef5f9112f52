"""Order statistics shared by the benchmark and its sweep script."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def median(values: list[float]) -> float:
    return statistics.median(values)


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile that has at least ``beyond`` samples above it.

    Returns (value, percentile level, samples beyond).  With N sorted samples
    that is the (N - beyond)-th smallest, at level 100 * (N - beyond) / N.
    With too few samples for the rule the minimum is returned, and the
    reported count says how many samples really lie beyond it.
    """
    if not values:
        raise ValueError("tail() needs at least one sample")
    ordered = sorted(values)
    index = max(0, len(ordered) - beyond - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
