"""Granula modeler: platform performance models as phase hierarchies.

"The Granula modeler allows experts to explicitly define once their
evaluation method for a graph analysis platform, such that the
evaluation process can be fully automated. This includes defining phases
in the execution of a job (e.g., graph loading), and recursively
defining phases as a collection of smaller, lower-level phases (e.g.,
graph loading includes reading and partitioning), up to the required
level of granularity." (paper §2.5.2)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.exceptions import ConfigurationError

__all__ = [
    "ChildRule",
    "PhaseSpec",
    "PlatformPerformanceModel",
    "DEFAULT_MODEL",
    "model_for_platform",
]


@dataclass(frozen=True)
class ChildRule:
    """Derive a sub-phase as a fixed fraction of its parent's duration.

    Real Granula models derive such values from platform log lines; our
    simulated platforms do not log at sub-phase granularity, so expert
    models encode the known cost split instead. Derived records are
    marked ``source="derived"`` in the archive, keeping them traceable.
    """

    name: str
    fraction: float
    description: str = ""

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(
                f"child fraction must be in (0,1], got {self.fraction}"
            )


@dataclass(frozen=True)
class PhaseSpec:
    """One phase in the model: matched by name against a job's phase spans."""

    name: str
    description: str = ""
    children: Tuple[ChildRule, ...] = ()

    def __post_init__(self):
        total = sum(rule.fraction for rule in self.children)
        if self.children and total > 1.0 + 1e-9:
            raise ConfigurationError(
                f"phase {self.name!r}: child fractions sum to {total} > 1"
            )


@dataclass(frozen=True)
class PlatformPerformanceModel:
    """The evaluation method for one platform, defined once."""

    platform: str
    phases: Tuple[PhaseSpec, ...]

    def spec_for(self, phase_name: str) -> PhaseSpec:
        for spec in self.phases:
            if spec.name == phase_name:
                return spec
        # Unmodeled phases still archive, with an empty description.
        return PhaseSpec(name=phase_name)


def _basic_phases(load_children: Tuple[ChildRule, ...]) -> Tuple[PhaseSpec, ...]:
    return (
        PhaseSpec("startup", "Deploy the platform and allocate resources"),
        PhaseSpec("load", "Load the graph into the platform", load_children),
        PhaseSpec("processing", "Execute the algorithm (this is Tproc)"),
        PhaseSpec("cleanup", "Tear down the job and free resources"),
    )


#: Fallback model used when no expert model exists for a platform.
DEFAULT_MODEL = PlatformPerformanceModel(
    platform="*",
    phases=_basic_phases(()),
)

#: Expert models, one per platform (paper: "for each platform, we have
#: developed a basic performance model"). The load split reflects each
#: platform's architecture: JVM platforms spend most of the load phase
#: deserializing; partition-heavy platforms spend it partitioning.
_MODELS: Dict[str, PlatformPerformanceModel] = {
    "giraph": PlatformPerformanceModel(
        "Giraph",
        _basic_phases(
            (
                ChildRule("read", 0.55, "Read input splits from HDFS"),
                ChildRule("partition", 0.45, "Hash-partition vertices to workers"),
            )
        ),
    ),
    "graphx": PlatformPerformanceModel(
        "GraphX",
        _basic_phases(
            (
                ChildRule("read", 0.5, "Materialize edge RDDs"),
                ChildRule("partition", 0.5, "Build the partitioned graph"),
            )
        ),
    ),
    "powergraph": PlatformPerformanceModel(
        "PowerGraph",
        _basic_phases(
            (
                ChildRule("read", 0.3, "Parse the edge list"),
                ChildRule("partition", 0.7, "Greedy vertex-cut placement"),
            )
        ),
    ),
    "graphmat": PlatformPerformanceModel(
        "GraphMat",
        _basic_phases(
            (
                ChildRule("read", 0.6, "Read the edge list"),
                ChildRule("partition", 0.4, "Build sparse-matrix tiles"),
            )
        ),
    ),
    "openg": PlatformPerformanceModel(
        "OpenG",
        _basic_phases((ChildRule("read", 1.0, "Read the CSR binary"),)),
    ),
    "pgx.d": PlatformPerformanceModel(
        "PGX.D",
        _basic_phases(
            (
                ChildRule("read", 0.35, "Read the edge list"),
                ChildRule("partition", 0.65, "Distribute and index the graph"),
            )
        ),
    ),
    # Not a graph platform: the benchmark runtime archives its own
    # scheduler timeline (expand/execute/merge) through the same modeler.
    "runtime": PlatformPerformanceModel(
        "runtime",
        (
            PhaseSpec("expand", "Expand the matrix into the job DAG"),
            PhaseSpec("execute", "Dispatch jobs to the worker pool"),
            PhaseSpec("merge", "Deterministically merge worker results"),
        ),
    ),
}


def model_for_platform(platform: str) -> PlatformPerformanceModel:
    """The expert model for a platform, or :data:`DEFAULT_MODEL`."""
    return _MODELS.get(platform.lower(), DEFAULT_MODEL)
