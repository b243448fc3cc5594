"""The in-memory graph: immutable, CSR-backed, directed or undirected.

Vertices carry arbitrary non-negative integer identifiers (as in the
Graphalytics datasets, where ids are sparse). Internally every vertex is
mapped to a dense index ``0..n-1``; all adjacency arrays are indexed by
dense index. Use :meth:`Graph.index_of` / :meth:`Graph.id_of` to convert.

Adjacency is stored in compressed-sparse-row form:

* ``out_indptr`` / ``out_indices`` — out-neighbors (for undirected graphs,
  each edge appears in both endpoints' lists);
* ``in_indptr`` / ``in_indices`` — in-neighbors (aliases the out arrays
  for undirected graphs);
* ``out_weights`` / ``in_weights`` — edge weights aligned with the
  corresponding index arrays, present only for weighted graphs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphFormatError

__all__ = ["Graph", "first_occurrences"]


def _build_csr_fast(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """CSR of the distinct slots ``src[k] -> dst[k]`` (dense indices in
    ``[0, n)``), rows following the source and each row ascending by
    destination.

    One sort of the packed key ``src * n + dst`` (exact while
    ``n * n < 2**63``), which numpy runs unstably and vectorised. With
    every key distinct the order is the stable ``np.lexsort((dst, src))``'s.
    Raises :class:`GraphFormatError` on two equal slots: a parallel edge,
    or an undirected duplicate or self-loop, which the data model forbids.
    """
    key = src * np.int64(n)
    key += dst
    order = np.argsort(key)
    ranked = key[order]
    del key
    if np.any(ranked[1:] == ranked[:-1]):
        raise GraphFormatError("two slots are equal")
    w = weights[order] if weights is not None else None
    del order
    # The quotient is the row and the remainder, written over the
    # sorted key, the column.
    row = np.empty_like(ranked)
    np.divmod(ranked, n, out=(row, ranked))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return indptr, ranked, w


def first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Positions of the first occurrence of each distinct key, ascending.

    The same array as ``np.sort(np.unique(keys, return_index=True)[1])``,
    from one unstable sort: the first occurrence of a key is the least
    position among its equals, whatever order the sort left them in.
    """
    order = np.argsort(keys)
    ranked = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    first.sort()
    return first


def _id_order(vertex_ids: np.ndarray) -> Optional[np.ndarray]:
    """The permutation that sorts ``vertex_ids``, or ``None`` when they
    already ascend strictly (what every builder and generator produces).

    Raises :class:`GraphFormatError` on a repeated id.
    """
    if np.all(vertex_ids[1:] > vertex_ids[:-1]):
        return None
    order = np.argsort(vertex_ids, kind="stable")
    ranked = vertex_ids[order]
    if np.any(ranked[1:] == ranked[:-1]):
        raise GraphFormatError("duplicate vertex identifiers")
    return order


def _check_endpoints(n: int, src: np.ndarray, dst: np.ndarray) -> None:
    """Every endpoint must be a dense index in ``[0, n)``: the packed CSR
    key would silently alias another vertex otherwise."""
    if not len(src):
        return
    if min(src.min(), dst.min()) >= 0 and max(src.max(), dst.max()) < n:
        return
    outside = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    k = int(np.argmax(outside))
    raise GraphFormatError(
        f"edge {k} ({src[k]},{dst[k]}) has an endpoint outside the "
        f"dense index range [0, {n})"
    )


def _check_weights(
    ids: np.ndarray, src: np.ndarray, dst: np.ndarray, weights: np.ndarray
) -> None:
    """Every weight must be finite and non-negative (``-0.0`` is), the rule
    :func:`~repro.graph.io.read_graph` applies to a file, so any graph
    written reads back."""
    if not len(weights) or (weights.min() >= 0 and weights.max() < np.inf):
        return  # a NaN fails the first comparison
    k = int(np.argmax(~np.isfinite(weights) | (weights < 0)))
    raise GraphFormatError(
        f"edge {k} ({ids[src[k]]},{ids[dst[k]]}) has weight {float(weights[k])}, "
        "not a finite non-negative number"
    )


def _model_error(
    ids: np.ndarray, src: np.ndarray, dst: np.ndarray, directed: bool
) -> GraphFormatError:
    """The error for the first edge, in input order, that the data model
    forbids: a self-loop, or a repeat of an earlier edge (undirected: in
    either direction)."""
    lo, hi = (src, dst) if directed else (np.minimum(src, dst), np.maximum(src, dst))
    key = lo * np.int64(len(ids)) + hi
    offends = np.ones(len(key), dtype=bool)
    offends[first_occurrences(key)] = False
    offends |= src == dst
    k = int(np.argmax(offends))
    j = int(np.argmax(key == key[k]))  # k itself exactly when a self-loop
    what = "a self-loop"
    if j != k:
        what = f"a duplicate of edge {j} ({ids[src[j]]},{ids[dst[j]]})"
    return GraphFormatError(f"edge {k} ({ids[src[k]]},{ids[dst[k]]}) is {what}")


_INT64 = np.iinfo(np.int64)


class Graph:
    """An immutable graph in the Graphalytics data model (paper §2.2.1):
    unique edges between distinct vertices (undirected: no edge and its
    reverse), and weights, if any, finite and non-negative.

    The constructor is the one place that judges a graph: it takes dense
    endpoint indices into ``vertex_ids`` and rejects anything outside the
    model with a :class:`GraphFormatError` naming the first offending edge
    in input order. :meth:`from_edges` builds one from external-id pairs,
    and :func:`~repro.graph.io.read_graph` from EVL files.
    """

    def __init__(
        self,
        *,
        vertex_ids: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        directed: bool,
        weights: Optional[np.ndarray] = None,
        name: str = "",
    ):
        self._vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        self._directed = bool(directed)
        self._name = name
        n = len(self._vertex_ids)
        self._id_order = _id_order(self._vertex_ids)

        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise GraphFormatError("edge source/destination arrays differ in length")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != src.shape:
                raise GraphFormatError("edge weight array length mismatch")
        _check_endpoints(n, src, dst)
        if weights is not None:
            _check_weights(self._vertex_ids, src, dst, weights)
        self._num_edges = len(src)
        self._edge_src = src
        self._edge_dst = dst
        self._edge_weights = weights

        # The data model is enforced here, once: two equal slots tie in
        # the out-CSR's sort, and a directed self-loop is the one
        # violation that makes no tie.
        if not self._directed:
            both_w = np.concatenate([weights, weights]) if weights is not None else None
            slots = np.concatenate([src, dst]), np.concatenate([dst, src]), both_w
        elif (src == dst).any():
            raise _model_error(self._vertex_ids, src, dst, directed=True)
        else:
            slots = src, dst, weights
        try:
            out = _build_csr_fast(n, *slots)
        except GraphFormatError:
            raise _model_error(self._vertex_ids, src, dst, self._directed) from None
        inn = _build_csr_fast(n, dst, src, weights) if self._directed else out
        self._out_indptr, self._out_indices, self._out_weights = out
        self._in_indptr, self._in_indices, self._in_weights = inn

    # -- identity ---------------------------------------------------------

    @property
    def name(self) -> str:
        """Dataset name, if any (e.g. ``"datagen-300"``)."""
        return self._name

    @property
    def directed(self) -> bool:
        return self._directed

    @property
    def is_weighted(self) -> bool:
        return self._edge_weights is not None

    @property
    def num_vertices(self) -> int:
        return len(self._vertex_ids)

    @property
    def num_edges(self) -> int:
        """Logical edge count: ordered pairs if directed, unordered if not."""
        return self._num_edges

    @property
    def scale(self) -> float:
        """Graphalytics scale, ``log10(|V| + |E|)`` rounded to one decimal."""
        total = self.num_vertices + self.num_edges
        if total <= 0:
            return 0.0
        return round(float(np.log10(total)), 1)

    # -- vertex id mapping --------------------------------------------------

    @property
    def vertex_ids(self) -> np.ndarray:
        """External identifiers, indexed by dense index (read-only view)."""
        view = self._vertex_ids.view()
        view.flags.writeable = False
        return view

    def _find(self, vertex_id: int) -> int:
        """Dense index of an external identifier, or -1 if it is absent."""
        vid = int(vertex_id)
        ids = self._vertex_ids
        if not _INT64.min <= vid <= _INT64.max:
            return -1
        pos = int(np.searchsorted(ids, vid, sorter=self._id_order))
        if pos == len(ids):
            return -1
        index = pos if self._id_order is None else int(self._id_order[pos])
        return index if ids[index] == vid else -1

    def index_of(self, vertex_id: int) -> int:
        """Dense index of an external vertex identifier."""
        index = self._find(vertex_id)
        if index < 0:
            raise GraphFormatError(f"unknown vertex id {vertex_id}")
        return index

    def id_of(self, index: int) -> int:
        """External identifier of a dense index."""
        return int(self._vertex_ids[index])

    def has_vertex(self, vertex_id: int) -> bool:
        return self._find(vertex_id) >= 0

    # -- adjacency -----------------------------------------------------------

    @property
    def out_indptr(self) -> np.ndarray:
        return self._out_indptr

    @property
    def out_indices(self) -> np.ndarray:
        return self._out_indices

    @property
    def out_weights(self) -> Optional[np.ndarray]:
        return self._out_weights

    @property
    def in_indptr(self) -> np.ndarray:
        return self._in_indptr

    @property
    def in_indices(self) -> np.ndarray:
        return self._in_indices

    @property
    def in_weights(self) -> Optional[np.ndarray]:
        return self._in_weights

    def out_neighbors(self, index: int) -> np.ndarray:
        """Out-neighbors (dense indices) of a vertex, sorted ascending."""
        return self._out_indices[self._out_indptr[index]:self._out_indptr[index + 1]]

    def in_neighbors(self, index: int) -> np.ndarray:
        """In-neighbors (dense indices) of a vertex, sorted ascending."""
        return self._in_indices[self._in_indptr[index]:self._in_indptr[index + 1]]

    def out_edges(self, index: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """(neighbors, weights) leaving a vertex; weights is None if unweighted."""
        lo, hi = self._out_indptr[index], self._out_indptr[index + 1]
        w = self._out_weights[lo:hi] if self._out_weights is not None else None
        return self._out_indices[lo:hi], w

    def out_degrees(self) -> np.ndarray:
        return np.diff(self._out_indptr)

    def in_degrees(self) -> np.ndarray:
        return np.diff(self._in_indptr)

    def degrees(self) -> np.ndarray:
        """Total degree: in+out for directed graphs, plain degree otherwise."""
        if self._directed:
            return self.out_degrees() + self.in_degrees()
        return self.out_degrees()

    def has_edge(self, src_index: int, dst_index: int) -> bool:
        """Whether an edge src->dst exists (either direction if undirected)."""
        neighbors = self.out_neighbors(src_index)
        pos = np.searchsorted(neighbors, dst_index)
        return bool(pos < len(neighbors) and neighbors[pos] == dst_index)

    # -- edge list -------------------------------------------------------------

    @property
    def edge_src(self) -> np.ndarray:
        """Source dense indices of the logical edge list."""
        return self._edge_src

    @property
    def edge_dst(self) -> np.ndarray:
        """Destination dense indices of the logical edge list."""
        return self._edge_dst

    @property
    def edge_weights(self) -> Optional[np.ndarray]:
        return self._edge_weights

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate logical edges as (src_id, dst_id) external-id pairs."""
        ids = self._vertex_ids
        for s, d in zip(self._edge_src, self._edge_dst):
            yield int(ids[s]), int(ids[d])

    # -- derived graphs -------------------------------------------------------

    def to_undirected(self, name: str = "") -> "Graph":
        """Undirected copy; reciprocal directed edges collapse to one."""
        if not self._directed:
            return self
        lo = np.minimum(self._edge_src, self._edge_dst)
        hi = np.maximum(self._edge_src, self._edge_dst)
        first = first_occurrences(lo * np.int64(self.num_vertices) + hi)
        weights = self._edge_weights[first] if self._edge_weights is not None else None
        return Graph(
            vertex_ids=self._vertex_ids,
            src=lo[first],
            dst=hi[first],
            directed=False,
            weights=weights,
            name=name or self._name,
        )

    def subgraph(self, vertex_indices: Sequence[int], name: str = "") -> "Graph":
        """Induced subgraph over the given dense indices."""
        keep = np.zeros(self.num_vertices, dtype=bool)
        idx = np.asarray(list(vertex_indices), dtype=np.int64)
        keep[idx] = True
        remap = np.full(self.num_vertices, -1, dtype=np.int64)
        remap[idx] = np.arange(len(idx))
        mask = keep[self._edge_src] & keep[self._edge_dst]
        weights = self._edge_weights[mask] if self._edge_weights is not None else None
        return Graph(
            vertex_ids=self._vertex_ids[idx],
            src=remap[self._edge_src[mask]],
            dst=remap[self._edge_dst[mask]],
            directed=self._directed,
            weights=weights,
            name=name or self._name,
        )

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        *,
        directed: bool = True,
        weights: Optional[Sequence[float]] = None,
        vertices: Optional[Iterable[int]] = None,
        name: str = "",
    ) -> "Graph":
        """Build a graph from (src_id, dst_id) pairs, one weight per pair.

        The vertices are the endpoints plus ``vertices`` (isolated ones
        allowed), ids ascending; edges keep their input order. The
        constructor judges the rest of the data model.
        """
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        listed = np.fromiter(vertices if vertices is not None else (), dtype=np.int64)
        every = np.concatenate([listed, pairs.ravel()])
        ids = np.unique(every)
        if len(ids) and ids[0] < 0:
            bad = int(every[np.argmax(every < 0)])
            raise GraphFormatError(f"vertex id must be non-negative, got {bad}")
        src, dst = np.searchsorted(ids, pairs.T)
        return cls(
            vertex_ids=ids, src=src, dst=dst, directed=directed, weights=weights, name=name
        )

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        w = ", weighted" if self.is_weighted else ""
        label = f" {self._name!r}" if self._name else ""
        return (
            f"<Graph{label} {kind}{w} |V|={self.num_vertices} "
            f"|E|={self.num_edges} scale={self.scale}>"
        )
