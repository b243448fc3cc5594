"""Estimators over per-round samples, and the driver's run-to-run spread.

Timings report the 10th percentile over rounds, rates the 90th: a round is
sized so that everything the program does periodically (GC, group-commit
fsync, pool polling) happens inside every round, so what a low quantile
drops is the host, not the program. On the host this was written on no
estimator is steady (measurements in perf/README.md): the median, p90 and
their ratio to the p10 are printed beside every timing so a reader can see
what kind of run it was.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

__all__ = [
    "LOW_Q",
    "percentile",
    "low",
    "high",
    "fold",
    "noise_ratio",
    "summary",
    "quartile_spread",
]

#: Timings report this quantile over rounds, rates its mirror image.
LOW_Q = 0.10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1] (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be within [0, 1], got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    below = int(position)
    above = min(below + 1, len(ordered) - 1)
    return ordered[below] + (ordered[above] - ordered[below]) * (position - below)


def low(values: Sequence[float]) -> float:
    """The estimator for a time: what it costs when the host keeps out of it."""
    return percentile(values, LOW_Q)


def high(values: Sequence[float]) -> float:
    """The estimator for a rate (work per second)."""
    return percentile(values, 1.0 - LOW_Q)


def fold(unit: str, values: Sequence[float]) -> float:
    """Samples -> one number, by the metric's unit: times take the low
    quantile, rates the high one, counts, sizes and shares the median."""
    if unit in ("s", "ms"):
        return low(values)
    if unit == "1/s":
        return high(values)
    return statistics.median(values)


def noise_ratio(values: Sequence[float]) -> float:
    """median / low quantile of round times: 1.0 on a perfectly quiet host."""
    return statistics.median(values) / low(values)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """The figures printed beside every timing metric."""
    return {
        "p10": percentile(values, 0.10),
        "median": statistics.median(values),
        "p90": percentile(values, 0.90),
        "n": len(values),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median over runs — the driver's run-to-run spread."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
