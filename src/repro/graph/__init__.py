"""Graph substrate: data model, CSR storage, I/O, and structural statistics.

The Graphalytics data model (paper §2.2.1): a graph is a collection of
vertices, each identified by a unique integer, and a collection of edges,
each a pair of distinct vertex identifiers. Graphs are directed or
undirected; every edge is unique; vertices and edges may carry properties
(here: optional double-precision edge weights).
"""

from repro.facade import lazy_exports

__all__ = [
    "Graph",
    "read_graph",
    "write_graph",
    "read_edge_list",
    "parse_edge_line",
    "GraphStatistics",
    "compute_statistics",
    "graph_scale",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "repro.graph.graph": ("Graph",),
    "repro.graph.io": (
        "read_graph", "write_graph", "read_edge_list", "parse_edge_line",
    ),
    "repro.graph.stats": (
        "GraphStatistics", "compute_statistics", "graph_scale",
    ),
})
