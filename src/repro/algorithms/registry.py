"""Algorithm registry: metadata + uniform dispatch for the six kernels.

The harness addresses algorithms by their Graphalytics acronym (``bfs``,
``pr``, ``wcc``, ``cdlp``, ``lcc``, ``sssp``). Each entry records the
survey class it was selected from (paper Table 1), whether it needs edge
weights, which parameters it takes, and a relative *work factor* used by
the platform performance models (work per edge relative to one BFS edge
visit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, UnsupportedAlgorithmError
from repro.graph.graph import Graph
from repro.algorithms.bfs import breadth_first_search
from repro.algorithms.pagerank import pagerank
from repro.algorithms.wcc import weakly_connected_components
from repro.algorithms.cdlp import community_detection_lp
from repro.algorithms.lcc import local_clustering_coefficient
from repro.algorithms.sssp import single_source_shortest_paths

__all__ = [
    "Algorithm",
    "ALGORITHMS",
    "UNWEIGHTED_ALGORITHMS",
    "WEIGHTED_ALGORITHMS",
    "get_algorithm",
    "run_reference",
]


@dataclass(frozen=True)
class Algorithm:
    """Static description of one core algorithm."""

    acronym: str
    name: str
    survey_class: str
    weighted: bool
    parameters: Tuple[str, ...]
    #: Work per edge relative to a BFS edge visit; consumed by perf models.
    work_factor: float
    #: Does per-vertex work grow with degree^2 (LCC)? Drives SLA failures.
    quadratic_in_degree: bool = False
    _runner: Callable = field(repr=False, default=None)  # type: ignore[assignment]

    def run(self, graph: Graph, params: Mapping[str, object] = None) -> np.ndarray:
        """Execute the reference implementation with validated parameters
        (those given only: the defaults are the kernels' own)."""
        params = dict(params or {})
        unknown = set(params) - set(self.parameters)
        if unknown:
            raise ConfigurationError(
                f"{self.acronym}: unknown parameters {sorted(unknown)}"
            )
        return self._runner(graph, **params)


def _run_bfs(graph: Graph, source_vertex: int = None) -> np.ndarray:
    if source_vertex is None:
        raise ConfigurationError("bfs requires a source_vertex parameter")
    return breadth_first_search(graph, source_vertex)


def _run_sssp(graph: Graph, source_vertex: int = None) -> np.ndarray:
    if source_vertex is None:
        raise ConfigurationError("sssp requires a source_vertex parameter")
    return single_source_shortest_paths(graph, source_vertex)


ALGORITHMS: Dict[str, Algorithm] = {
    "bfs": Algorithm(
        acronym="bfs",
        name="Breadth-first search",
        survey_class="Traversal",
        weighted=False,
        parameters=("source_vertex",),
        work_factor=1.0,
        _runner=_run_bfs,
    ),
    "pr": Algorithm(
        acronym="pr",
        name="PageRank",
        survey_class="Statistics",
        weighted=False,
        parameters=("iterations", "damping"),
        work_factor=7.5,
        _runner=pagerank,
    ),
    "wcc": Algorithm(
        acronym="wcc",
        name="Weakly connected components",
        survey_class="Components",
        weighted=False,
        parameters=(),
        work_factor=3.0,
        _runner=weakly_connected_components,
    ),
    "cdlp": Algorithm(
        acronym="cdlp",
        name="Community detection using label propagation",
        survey_class="Components",
        weighted=False,
        parameters=("iterations",),
        work_factor=9.0,
        _runner=community_detection_lp,
    ),
    "lcc": Algorithm(
        acronym="lcc",
        name="Local clustering coefficient",
        survey_class="Statistics",
        weighted=False,
        parameters=(),
        work_factor=2.0,
        quadratic_in_degree=True,
        _runner=local_clustering_coefficient,
    ),
    "sssp": Algorithm(
        acronym="sssp",
        name="Single-source shortest paths",
        survey_class="Distances/Paths",
        weighted=True,
        parameters=("source_vertex",),
        work_factor=2.5,
        _runner=_run_sssp,
    ),
}

UNWEIGHTED_ALGORITHMS: Tuple[str, ...] = ("bfs", "pr", "wcc", "cdlp", "lcc")
WEIGHTED_ALGORITHMS: Tuple[str, ...] = ("sssp",)


def get_algorithm(acronym: str) -> Algorithm:
    """Look up an algorithm by acronym; raises for unknown names."""
    try:
        return ALGORITHMS[acronym.lower()]
    except KeyError:
        raise UnsupportedAlgorithmError("<registry>", acronym) from None


def run_reference(
    acronym: str, graph: Graph, params: Mapping[str, object] = None
) -> np.ndarray:
    """Run a reference implementation by acronym."""
    return get_algorithm(acronym).run(graph, params)
