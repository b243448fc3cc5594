"""Small deterministic graph generators for tests and examples.

These produce structured graphs with known analytic properties (path,
cycle, star, complete, grid, binary tree), plus seeded Erdős–Rényi
graphs. The benchmark-scale generators (Datagen, Graph500) live in
``repro.datagen``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import GenerationError
from repro.graph.graph import Graph

__all__ = [
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "binary_tree",
    "erdos_renyi",
]


def _require_positive(n: int, what: str = "n") -> int:
    n = int(n)
    if n <= 0:
        raise GenerationError(f"{what} must be positive, got {n}")
    return n


def path_graph(n: int, *, directed: bool = False) -> Graph:
    """Path 0-1-...-(n-1). Diameter n-1; hop count from 0 to i is i."""
    n = _require_positive(n)
    edges = [(i, i + 1) for i in range(n - 1)]
    return Graph.from_edges(edges, directed=directed, vertices=[0], name=f"path-{n}")


def cycle_graph(n: int, *, directed: bool = False) -> Graph:
    """Cycle over n >= 3 vertices."""
    n = _require_positive(n)
    if n < 3:
        raise GenerationError(f"cycle needs at least 3 vertices, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(edges, directed=directed, name=f"cycle-{n}")


def star_graph(n_leaves: int, *, directed: bool = False) -> Graph:
    """Hub (vertex 0) connected to n_leaves leaves. LCC of every vertex is 0."""
    n_leaves = _require_positive(n_leaves, "n_leaves")
    edges = [(0, leaf) for leaf in range(1, n_leaves + 1)]
    return Graph.from_edges(edges, directed=directed, name=f"star-{n_leaves}")


def complete_graph(n: int, *, directed: bool = False) -> Graph:
    """Clique over n vertices. LCC of every vertex is 1 (for n >= 3)."""
    n = _require_positive(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for i, j in pairs for e in ((i, j), (j, i))] if directed else pairs
    return Graph.from_edges(edges, directed=directed, vertices=[0], name=f"complete-{n}")


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols undirected lattice; vertex (r,c) has id r*cols + c."""
    rows = _require_positive(rows, "rows")
    cols = _require_positive(cols, "cols")
    n = rows * cols
    # Each vertex's right neighbour (if not in the last column), then the
    # one below (if not in the last row).
    edges = [
        (v, w)
        for v in range(n)
        for w, inside in ((v + 1, (v + 1) % cols), (v + cols, v + cols < n))
        if inside
    ]
    return Graph.from_edges(edges, directed=False, vertices=[0], name=f"grid-{rows}x{cols}")


def binary_tree(depth: int, *, directed: bool = False) -> Graph:
    """Complete binary tree of the given depth (root at 0; depth 0 = root only)."""
    if depth < 0:
        raise GenerationError(f"depth must be >= 0, got {depth}")
    n = 2 ** (depth + 1) - 1
    edges = [(v, child) for v in range(n) for child in (2 * v + 1, 2 * v + 2) if child < n]
    return Graph.from_edges(edges, directed=directed, vertices=[0], name=f"btree-{depth}")


def erdos_renyi(
    n: int,
    p: float,
    *,
    directed: bool = False,
    weighted: bool = False,
    seed: int = 0,
    name: Optional[str] = None,
) -> Graph:
    """G(n, p) random graph with a deterministic seed.

    Weighted graphs get uniform(0, 1] weights. Self-loops are never
    generated; undirected graphs sample each unordered pair once.
    """
    n = _require_positive(n)
    if not 0.0 <= p <= 1.0:
        raise GenerationError(f"p must be in [0,1], got {p}")
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    if directed:
        np.fill_diagonal(mask, False)
        srcs, dsts = np.nonzero(mask)
    else:
        iu = np.triu_indices(n, k=1)
        keep = mask[iu]
        srcs, dsts = iu[0][keep], iu[1][keep]
    weights = None
    if weighted:
        weights = rng.uniform(np.finfo(np.float64).tiny, 1.0, size=len(srcs))
    # The pairs are distinct and loop-free by construction.
    return Graph(
        vertex_ids=np.arange(n, dtype=np.int64),
        src=srcs,
        dst=dsts,
        directed=directed,
        weights=weights,
        name=name or f"er-{n}-{p}",
    )
