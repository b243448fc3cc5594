"""Statistical analysis of benchmark results (Figure 1: "Results
Analysis & Modeling").

Raw job records become defensible comparisons here: summary statistics
with confidence intervals for repeated measurements, pairwise speedup
matrices between platforms, and significance tests on whether one
platform is really faster than another given run-to-run variability
(§4.7 measures that variability; this module consumes it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.harness.results import ResultsDatabase

__all__ = [
    "MeasurementSummary",
    "summarize_measurements",
    "speedup_matrix",
    "check_distinct_platforms",
    "compare_platforms",
]


@dataclass(frozen=True)
class MeasurementSummary:
    """Statistics of repeated Tproc measurements for one workload."""

    count: int
    mean: float
    std: float
    cv: float
    ci_low: float
    ci_high: float

    @property
    def ci_halfwidth(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0


def _t_critical(df: int, confidence: float) -> float:
    """Two-sided t critical value (scipy when present, normal fallback)."""
    try:
        from scipy import stats

        return float(stats.t.ppf(0.5 + confidence / 2.0, df))
    except ImportError:  # pragma: no cover - scipy is installed here
        return 1.96


def summarize_measurements(
    samples: Sequence[float], *, confidence: float = 0.95
) -> MeasurementSummary:
    """Mean, sample std, CV, and a t-based confidence interval."""
    values = np.asarray(list(samples), dtype=np.float64)
    if len(values) < 2:
        raise ConfigurationError("need at least two measurements")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must be in (0,1), got {confidence}")
    mean = float(values.mean())
    std = float(values.std(ddof=1))
    half = _t_critical(len(values) - 1, confidence) * std / math.sqrt(len(values))
    return MeasurementSummary(
        count=len(values),
        mean=mean,
        std=std,
        cv=std / mean if mean > 0 else 0.0,
        ci_low=mean - half,
        ci_high=mean + half,
    )


def speedup_matrix(
    database: ResultsDatabase,
    *,
    algorithm: str,
    dataset: str,
    machines: Optional[int] = None,
) -> Dict[Tuple[str, str], float]:
    """{(row platform, column platform): Tproc_row / Tproc_col}.

    Values above 1 mean the *column* platform is faster. Platforms
    without a successful measurement are omitted.
    """
    means: Dict[str, float] = {}
    platforms = sorted({r.platform for r in database})
    for platform in platforms:
        times = database.processing_times(
            platform=platform, algorithm=algorithm, dataset=dataset,
            machines=machines,
        )
        if times:
            means[platform] = float(np.mean(times))
    matrix: Dict[Tuple[str, str], float] = {}
    for row, row_mean in means.items():
        for col, col_mean in means.items():
            matrix[(row, col)] = row_mean / col_mean
    return matrix


@dataclass(frozen=True)
class PlatformComparison:
    """Outcome of a two-platform significance test on one workload."""

    faster: str
    slower: str
    speedup: float
    significant: bool
    p_value: Optional[float]


def check_distinct_platforms(platform_a: str, platform_b: str) -> None:
    """Refuse a head-to-head of one platform with itself.

    Platform names match case-insensitively, so ``giraph`` and
    ``GIRAPH`` would pool one sample on both sides of the test.
    """
    if platform_a.lower() == platform_b.lower():
        raise ConfigurationError(
            f"cannot compare platform {platform_a!r} with itself "
            f"({platform_b!r}); name two different platforms"
        )


def compare_platforms(
    database: ResultsDatabase,
    platform_a: str,
    platform_b: str,
    *,
    algorithm: str,
    dataset: str,
    alpha: float = 0.05,
) -> PlatformComparison:
    """Welch's t-test over repeated measurements of two platforms.

    With fewer than two repetitions per side the comparison falls back
    to the point estimate and is reported as not significant. The two
    platforms must differ (:func:`check_distinct_platforms`).
    """
    check_distinct_platforms(platform_a, platform_b)
    times_a = database.processing_times(
        platform=platform_a, algorithm=algorithm, dataset=dataset
    )
    times_b = database.processing_times(
        platform=platform_b, algorithm=algorithm, dataset=dataset
    )
    if not times_a or not times_b:
        raise ConfigurationError(
            f"no successful measurements for {platform_a!r} and/or "
            f"{platform_b!r} on ({algorithm}, {dataset})"
        )
    mean_a, mean_b = float(np.mean(times_a)), float(np.mean(times_b))
    if mean_a <= mean_b:
        faster, slower, speedup = platform_a, platform_b, mean_b / mean_a
    else:
        faster, slower, speedup = platform_b, platform_a, mean_a / mean_b
    if len(times_a) < 2 or len(times_b) < 2:
        return PlatformComparison(faster, slower, speedup, False, None)
    try:
        from scipy import stats

        _, p_value = stats.ttest_ind(times_a, times_b, equal_var=False)
        p_value = float(p_value)
    except ImportError:  # pragma: no cover
        p_value = None
    significant = p_value is not None and p_value < alpha
    return PlatformComparison(faster, slower, speedup, significant, p_value)
