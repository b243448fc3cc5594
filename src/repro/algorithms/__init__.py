"""The six Graphalytics core algorithms and output validation.

Paper §2.2.3 selects five core algorithms for unweighted graphs — BFS,
PageRank, WCC, CDLP, LCC — and one for weighted graphs, SSSP. Each
module provides the reference implementation; correctness of a platform
is *defined* as output equivalence to these references (validated by the
rules in :mod:`repro.algorithms.validation`).

All algorithms are deterministic, take dense vertex indices internally,
and return numpy arrays indexed by dense index. Use :func:`as_vertex_map`
to convert to an ``{external_id: value}`` mapping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.facade import lazy_exports

# ``pagerank`` names both a function and the module defining it: the
# function is bound here, or the module's first import would bind the
# module over it.
from repro.algorithms.pagerank import pagerank

if TYPE_CHECKING:
    import numpy as np


def as_vertex_map(graph, values: np.ndarray) -> Dict[int, object]:
    """Convert a dense-index result array to {external_vertex_id: value}."""
    ids = graph.vertex_ids
    return {int(ids[i]): values[i].item() for i in range(len(ids))}


__all__ = [
    "breadth_first_search",
    "BFS_UNREACHABLE",
    "pagerank",
    "weakly_connected_components",
    "community_detection_lp",
    "local_clustering_coefficient",
    "single_source_shortest_paths",
    "SSSP_UNREACHABLE",
    "Algorithm",
    "ALGORITHMS",
    "UNWEIGHTED_ALGORITHMS",
    "WEIGHTED_ALGORITHMS",
    "get_algorithm",
    "run_reference",
    "ExactMatchRule",
    "EpsilonMatchRule",
    "EquivalenceMatchRule",
    "validation_rule_for",
    "validate_output",
    "as_vertex_map",
    "write_output",
    "read_output",
    "align_output",
    "validate_output_file",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "repro.algorithms.bfs": ("breadth_first_search", "BFS_UNREACHABLE"),
    "repro.algorithms.wcc": ("weakly_connected_components",),
    "repro.algorithms.cdlp": ("community_detection_lp",),
    "repro.algorithms.lcc": ("local_clustering_coefficient",),
    "repro.algorithms.sssp": (
        "single_source_shortest_paths", "SSSP_UNREACHABLE",
    ),
    "repro.algorithms.registry": (
        "Algorithm", "ALGORITHMS", "UNWEIGHTED_ALGORITHMS",
        "WEIGHTED_ALGORITHMS", "get_algorithm", "run_reference",
    ),
    "repro.algorithms.validation": (
        "ExactMatchRule", "EpsilonMatchRule", "EquivalenceMatchRule",
        "validation_rule_for", "validate_output",
    ),
    "repro.algorithms.output_io": (
        "write_output", "read_output", "align_output", "validate_output_file",
    ),
})
