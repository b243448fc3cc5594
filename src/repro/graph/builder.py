"""Incremental graph construction with Graphalytics data-model validation.

The builder accepts vertices and edges one at a time (or in bulk), checks
the data-model constraints from paper §2.2.1 — unique edges connecting two
distinct vertices — and produces an immutable :class:`~repro.graph.graph.
Graph`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.exceptions import GraphFormatError
from repro.graph.graph import Graph

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Accumulates vertices/edges and validates the Graphalytics data model.

    Parameters
    ----------
    directed:
        Whether edges are ordered pairs.
    weighted:
        Whether every edge carries a double-precision weight.
    dedup:
        If True, silently drop duplicate edges (and reciprocal duplicates in
        undirected graphs) instead of raising.
    """

    def __init__(
        self,
        *,
        directed: bool = True,
        weighted: bool = False,
        dedup: bool = False,
    ):
        self._directed = directed
        self._weighted = weighted
        self._dedup = dedup
        self._vertices: set = set()
        self._src: list = []
        self._dst: list = []
        self._weights: list = []
        self._seen: set = set()

    @property
    def directed(self) -> bool:
        return self._directed

    @property
    def weighted(self) -> bool:
        return self._weighted

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._src)

    def add_vertex(self, vertex_id: int) -> "GraphBuilder":
        """Register a vertex (also happens implicitly via add_edge)."""
        vid = int(vertex_id)
        if vid < 0:
            raise GraphFormatError(f"vertex id must be non-negative, got {vid}")
        self._vertices.add(vid)
        return self

    def add_vertices(self, vertex_ids: Iterable[int]) -> "GraphBuilder":
        for v in vertex_ids:
            self.add_vertex(v)
        return self

    def _edge_key(self, src: int, dst: int) -> Tuple[int, int]:
        if self._directed:
            return (src, dst)
        return (src, dst) if src <= dst else (dst, src)

    def add_edge(self, src: int, dst: int, weight: Optional[float] = None) -> "GraphBuilder":
        """Add one edge; validates loops, duplicates, and weight presence."""
        s, d = int(src), int(dst)
        if s == d:
            raise GraphFormatError(f"self-loop on vertex {s} is not allowed")
        if self._weighted:
            if weight is None:
                raise GraphFormatError(f"edge ({s},{d}) is missing a weight")
            w = float(weight)
            if not np.isfinite(w) or w < 0:
                raise GraphFormatError(f"edge ({s},{d}) has invalid weight {weight}")
        elif weight is not None:
            raise GraphFormatError("weight given for an unweighted graph")

        key = self._edge_key(s, d)
        if key in self._seen:
            if self._dedup:
                return self
            raise GraphFormatError(f"duplicate edge ({s},{d})")
        self._seen.add(key)

        self.add_vertex(s)
        self.add_vertex(d)
        self._src.append(s)
        self._dst.append(d)
        if self._weighted:
            self._weights.append(float(weight))
        return self

    def add_edges(
        self,
        edges: Iterable[Tuple[int, int]],
        weights: Optional[Iterable[float]] = None,
    ) -> "GraphBuilder":
        if weights is not None:
            for (s, d), w in zip(edges, weights):
                self.add_edge(s, d, w)
        else:
            for s, d in edges:
                self.add_edge(s, d)
        return self

    def has_edge(self, src: int, dst: int) -> bool:
        return self._edge_key(int(src), int(dst)) in self._seen

    def build(self, name: str = "") -> Graph:
        """Finalize into an immutable Graph; vertex ids sorted ascending."""
        vertex_ids = np.fromiter(self._vertices, dtype=np.int64, count=len(self._vertices))
        vertex_ids.sort()
        src = np.searchsorted(vertex_ids, np.array(self._src, dtype=np.int64))
        dst = np.searchsorted(vertex_ids, np.array(self._dst, dtype=np.int64))
        weights = np.array(self._weights, dtype=np.float64) if self._weighted else None
        return Graph(
            vertex_ids=vertex_ids,
            src=src,
            dst=dst,
            directed=self._directed,
            weights=weights,
            name=name,
        )
