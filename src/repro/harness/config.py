"""Benchmark configuration (paper Figure 1, boxes 1–2).

The Graphalytics team provides the benchmark description (algorithms,
datasets, per-dataset parameters); the benchmark user may select a
subset of the workload and pick the resources of the system under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.exceptions import ConfigurationError
from repro.algorithms.registry import ALGORITHMS
from repro.harness.datasets import DATASETS
from repro.harness.sla import SLA_MAKESPAN_SECONDS
from repro.platforms.cluster import ClusterResources
from repro.platforms.registry import EXTRA_PLATFORMS, PLATFORMS

__all__ = ["BenchmarkConfig"]


@dataclass
class BenchmarkConfig:
    """One benchmark selection: platforms × datasets × algorithms."""

    platforms: List[str] = field(default_factory=lambda: list(PLATFORMS))
    datasets: List[str] = field(default_factory=lambda: list(DATASETS))
    algorithms: List[str] = field(default_factory=lambda: list(ALGORITHMS))
    resources: ClusterResources = field(default_factory=ClusterResources)
    repetitions: int = 1
    seed: int = 0
    validate_outputs: bool = True
    sla_seconds: float = SLA_MAKESPAN_SECONDS
    #: Skip (platform, dataset, algorithm) combos the platform cannot run
    #: (e.g. SSSP on unweighted datasets) instead of erroring.
    skip_impossible: bool = True

    def __post_init__(self):
        self.platforms = [p.lower() for p in self.platforms]
        self.algorithms = [a.lower() for a in self.algorithms]
        known_platforms = set(PLATFORMS) | set(EXTRA_PLATFORMS)
        unknown = [p for p in self.platforms if p not in known_platforms]
        if unknown:
            raise ConfigurationError(f"unknown platforms: {unknown}")
        unknown = [d for d in self.datasets if d not in DATASETS]
        if unknown:
            raise ConfigurationError(f"unknown datasets: {unknown}")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ConfigurationError(f"unknown algorithms: {unknown}")
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        if self.sla_seconds <= 0:
            raise ConfigurationError("sla_seconds must be positive")

    def subset(self, **overrides) -> "BenchmarkConfig":
        """A copy with the given fields replaced."""
        data = {
            "platforms": list(self.platforms),
            "datasets": list(self.datasets),
            "algorithms": list(self.algorithms),
            "resources": self.resources,
            "repetitions": self.repetitions,
            "seed": self.seed,
            "validate_outputs": self.validate_outputs,
            "sla_seconds": self.sla_seconds,
            "skip_impossible": self.skip_impossible,
        }
        data.update(overrides)
        return BenchmarkConfig(**data)
