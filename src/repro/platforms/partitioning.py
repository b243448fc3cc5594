"""Graph partitioning strategies and their measured cost (paper §3.1, §4.5).

The platforms under test differ fundamentally in how they place a graph
on a cluster:

* **hash edge-cut** (Giraph, GraphX default, GraphMat): vertices are
  hashed to machines; every edge crossing machines forces a *ghost*
  (remote replica) of its endpoint. On skewed graphs nearly all edges of
  a hub cross machines.
* **greedy vertex-cut** (PowerGraph): *edges* are placed on machines and
  a vertex is replicated on every machine holding one of its edges.
  PowerGraph "is designed for real-world graphs which have a skewed
  power-law degree distribution" (§3.1) precisely because vertex-cuts
  bound the replication of hubs by the machine count, while edge-cuts
  ghost a hub once per remote neighbor machine anyway — and unbalance
  edges badly.

These implementations really partition the miniature graphs, so the
replication factors and balance numbers that justify the performance
models' memory terms can be *measured*, not assumed (see
``graphalytics reproduce ablation-partitioning``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graph.graph import Graph

__all__ = [
    "PartitionStats",
    "hash_edge_cut",
    "greedy_vertex_cut",
    "EdgeCutPartition",
    "VertexCutPartition",
]


@dataclass(frozen=True)
class PartitionStats:
    """Quality measures of one partitioning."""

    machines: int
    strategy: str
    #: Average number of machine-local copies (master + ghosts/mirrors)
    #: per vertex; 1.0 is ideal.
    replication_factor: float
    #: Fraction of edges whose endpoints live on different machines
    #: (edge-cut) or that required a new vertex replica (vertex-cut).
    cut_fraction: float
    #: Edges on the most loaded machine divided by the mean (1.0 ideal).
    edge_imbalance: float
    #: Vertex copies on the most loaded machine divided by the mean.
    vertex_imbalance: float


@dataclass(frozen=True)
class EdgeCutPartition:
    """A vertex assignment plus derived placement data."""

    machines: int
    #: machine of each vertex (dense index -> machine).
    vertex_owner: np.ndarray
    #: machine of each logical edge (owner of its source).
    edge_owner: np.ndarray
    stats: PartitionStats


@dataclass(frozen=True)
class VertexCutPartition:
    """An edge assignment plus the induced vertex replication."""

    machines: int
    #: machine of each logical edge.
    edge_owner: np.ndarray
    #: boolean matrix [machines, vertices]: replica present?
    replicas: np.ndarray
    stats: PartitionStats


def _check(graph: Graph, machines: int) -> None:
    if machines < 1:
        raise ConfigurationError("machines must be >= 1")
    if graph.num_vertices == 0:
        raise ConfigurationError("cannot partition an empty graph")


def _imbalance(counts: np.ndarray) -> float:
    mean = counts.mean()
    return float(counts.max() / mean) if mean > 0 else 1.0


def hash_edge_cut(graph: Graph, machines: int, *, seed: int = 0) -> EdgeCutPartition:
    """Hash vertices to machines; edges live with their source vertex.

    A vertex is replicated (ghosted) on every remote machine that owns a
    neighbor, which is how Pregel-style systems exchange messages.
    """
    _check(graph, machines)
    rng = np.random.default_rng(seed)
    # Salted hash: a permutation of vertices, then modulo machines.
    perm = rng.permutation(graph.num_vertices)
    vertex_owner = perm % machines
    src, dst = graph.edge_src, graph.edge_dst
    edge_owner = vertex_owner[src]

    # Ghosts: machine m needs a copy of v if an edge it owns touches v
    # and v is owned elsewhere. Count exact copies per (machine, vertex).
    copies = np.zeros((machines, graph.num_vertices), dtype=bool)
    copies[vertex_owner, np.arange(graph.num_vertices)] = True  # masters
    copies[edge_owner, dst] = True
    if not graph.directed:
        # Undirected engines exchange in both directions.
        reverse_owner = vertex_owner[dst]
        copies[reverse_owner, src] = True

    total_copies = copies.sum()
    cut = np.count_nonzero(vertex_owner[src] != vertex_owner[dst])
    edge_counts = np.bincount(edge_owner, minlength=machines)
    vertex_counts = copies.sum(axis=1)
    stats = PartitionStats(
        machines=machines,
        strategy="hash-edge-cut",
        replication_factor=float(total_copies / graph.num_vertices),
        cut_fraction=float(cut / max(1, graph.num_edges)),
        edge_imbalance=_imbalance(edge_counts),
        vertex_imbalance=_imbalance(vertex_counts),
    )
    return EdgeCutPartition(
        machines=machines,
        vertex_owner=vertex_owner,
        edge_owner=edge_owner,
        stats=stats,
    )


def greedy_vertex_cut(graph: Graph, machines: int) -> VertexCutPartition:
    """PowerGraph's greedy heuristic: place each edge to minimize new
    vertex replicas, breaking ties toward the least-loaded machine.

    Rules (Gonzalez et al., OSDI'12):
    1. both endpoints have replicas on a common machine -> use it;
    2. one endpoint has replicas -> place with that endpoint;
    3. neither has replicas -> least-loaded machine.
    """
    _check(graph, machines)
    n = graph.num_vertices
    replicas = np.zeros((machines, n), dtype=bool)
    load = np.zeros(machines, dtype=np.int64)
    edge_owner = np.zeros(graph.num_edges, dtype=np.int64)

    for k in range(graph.num_edges):
        u = int(graph.edge_src[k])
        v = int(graph.edge_dst[k])
        u_set = replicas[:, u]
        v_set = replicas[:, v]
        common = np.nonzero(u_set & v_set)[0]
        if len(common):
            candidates = common
        else:
            either = np.nonzero(u_set | v_set)[0]
            candidates = either if len(either) else np.arange(machines)
        machine = int(candidates[np.argmin(load[candidates])])
        edge_owner[k] = machine
        replicas[machine, u] = True
        replicas[machine, v] = True
        load[machine] += 1

    placed = replicas.sum(axis=0)
    # Isolated vertices still need one master copy.
    total_copies = int(placed.sum() + np.count_nonzero(placed == 0))
    new_replica_edges = int((placed > 1).sum())
    stats = PartitionStats(
        machines=machines,
        strategy="greedy-vertex-cut",
        replication_factor=float(total_copies / n),
        cut_fraction=float(new_replica_edges / max(1, n)),
        edge_imbalance=_imbalance(load.astype(np.float64)),
        vertex_imbalance=_imbalance(replicas.sum(axis=1).astype(np.float64)),
    )
    return VertexCutPartition(
        machines=machines,
        edge_owner=edge_owner,
        replicas=replicas,
        stats=stats,
    )


def compare_strategies(
    graph: Graph, machines: int, *, seed: int = 0
) -> Tuple[PartitionStats, PartitionStats]:
    """(edge-cut stats, vertex-cut stats) for one graph and cluster size."""
    return (
        hash_edge_cut(graph, machines, seed=seed).stats,
        greedy_vertex_cut(graph, machines).stats,
    )
