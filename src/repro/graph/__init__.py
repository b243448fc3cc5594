"""Graph substrate: data model, CSR storage, I/O, and structural statistics.

The Graphalytics data model (paper §2.2.1): a graph is a collection of
vertices, each identified by a unique integer, and a collection of edges,
each a pair of distinct vertex identifiers. Graphs are directed or
undirected; every edge is unique; vertices and edges may carry properties
(here: optional double-precision edge weights).
"""

from repro.graph.graph import Graph
from repro.graph.io import read_graph, write_graph, read_edge_list, parse_edge_line
from repro.graph.stats import GraphStatistics, compute_statistics, graph_scale

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
