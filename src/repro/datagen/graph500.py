"""Graph500 Kronecker (R-MAT) power-law graph generator.

Graphalytics uses Graph500 synthetic graphs (G22–G26, paper Table 4) to
cover "power-law graphs generated by Graph500". The Graph500 reference
specification generates edges by recursively descending a 2×2 probability
matrix (A, B, C, D) = (0.57, 0.19, 0.19, 0.05) over ``scale`` levels
(``2^scale`` vertex slots, ``edgefactor × 2^scale`` edges), then treats
the result as undirected.

These graphs are *much* more skewed than Datagen's social networks — a
property the paper leans on in §4.6 (platforms fail on a Graph500 graph
but succeed on a Datagen graph of the same scale).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import GenerationError
from repro.graph.graph import Graph, first_occurrences

__all__ = ["Graph500Config", "graph500"]


@dataclass(frozen=True)
class Graph500Config:
    """Kronecker generator parameters (Graph500 reference defaults)."""

    scale: int
    edgefactor: int = 16
    a: float = 0.57
    b: float = 0.19
    c: float = 0.19
    seed: int = 0

    def __post_init__(self):
        if self.scale < 1 or self.scale > 30:
            raise GenerationError(f"scale must be in [1,30], got {self.scale}")
        if self.edgefactor < 1:
            raise GenerationError("edgefactor must be positive")
        if min(self.a, self.b, self.c) < 0 or self.a + self.b + self.c >= 1.0:
            raise GenerationError("require a,b,c >= 0 and a+b+c < 1")

    @property
    def d(self) -> float:
        return 1.0 - self.a - self.b - self.c

    @property
    def num_vertex_slots(self) -> int:
        return 2 ** self.scale

    @property
    def num_edge_samples(self) -> int:
        return self.edgefactor * self.num_vertex_slots


def _rmat_edges(config: Graph500Config, rng: np.random.Generator):
    """Vectorized R-MAT sampling: one quadrant decision per bit level."""
    m = config.num_edge_samples
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    ab = config.a + config.b
    a_norm = config.a / ab
    c_norm = config.c / (config.c + config.d)
    for _ in range(config.scale):
        src <<= 1
        dst <<= 1
        go_down = rng.random(m) >= ab  # row bit: bottom half of the matrix
        # Column bit probability depends on which half we are in.
        col_prob = np.where(go_down, c_norm, a_norm)
        go_right = rng.random(m) >= col_prob
        src |= go_down.astype(np.int64)
        dst |= go_right.astype(np.int64)
    return src, dst


def graph500(
    scale: int,
    *,
    edgefactor: int = 16,
    weighted: bool = False,
    seed: int = 0,
    name: str = "",
) -> Graph:
    """Generate an undirected Graph500 Kronecker graph.

    Self-loops and duplicate edges from the sampler are dropped, and only
    vertices with at least one edge are kept (matching how the
    Graphalytics datasets report |V|: G22 has 2.40M < 2^22 vertices).
    Weights (for SSSP) are uniform in (0, 1], as in the Graph500 SSSP
    kernel.
    """
    config = Graph500Config(scale=scale, edgefactor=edgefactor, seed=seed)
    rng = np.random.default_rng(seed)
    src, dst = _rmat_edges(config, rng)

    # Canonicalize to undirected (lo, hi), drop self-loops, keep the
    # first occurrence of each edge.
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    del src, dst
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    del keep
    first = first_occurrences(lo * np.int64(config.num_vertex_slots) + hi)
    lo, hi = lo[first], hi[first]
    del first

    # Construct the Graph directly (the arrays are already validated:
    # no loops, no duplicates); a per-edge builder loop would dominate
    # generation time at the larger miniature scales. The vertices are
    # the marked slots, numbered in slot order.
    mark = np.zeros(config.num_vertex_slots, dtype=bool)
    mark[lo] = True
    mark[hi] = True
    vertex_ids = np.flatnonzero(mark)
    index = np.cumsum(mark, dtype=np.int64)
    index -= 1
    del mark
    src, dst = index[lo], index[hi]
    del index, lo, hi
    weights = None
    if weighted:
        weights = rng.uniform(np.finfo(np.float64).tiny, 1.0, size=len(src))
    return Graph(
        vertex_ids=vertex_ids,
        src=src,
        dst=dst,
        directed=False,
        weights=weights,
        name=name or f"graph500-{scale}",
    )
