"""Domain-flavored random models standing in for the real datasets.

Graphalytics' six real-world graphs (paper Table 3) come from SNAP, the
Game Trace Archive, and the MPI Twitter crawl; they are not
redistributable inside this offline reproduction. Per the substitution
policy in DESIGN.md we materialize *miniature synthetic replicas* whose
domain-specific shape matches the originals:

* ``talk``       — wiki-talk: directed, extremely skewed out-degree
                   (few talk-page stars), low reciprocity;
* ``citation``   — cit-patents: directed acyclic citations (edges point
                   from newer to older vertices), moderate in-degree skew;
* ``coplay``     — kgs / dota-league: undirected, dense co-play graphs
                   with strong community structure (players meet in
                   matches) and optional match-duration weights;
* ``social``     — com-friendster / twitter: undirected or directed
                   power-law social graphs (R-MAT-like skew).

The replicas preserve the *relative* |V|/|E| ratio, the degree-skew
regime, and directedness — the features the paper's findings depend on —
not the exact topology of the originals.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import GenerationError
from repro.graph.graph import Graph, first_occurrences
from repro.datagen.graph500 import graph500

__all__ = ["REPLICA_PROFILES", "synthetic_replica"]

#: Supported replica profiles.
REPLICA_PROFILES: Tuple[str, ...] = ("talk", "citation", "coplay", "social")

#: Orientation of the profiles that have only one (``social`` has both).
_ORIENTATION = {"talk": True, "citation": True, "coplay": False}

#: A replica's edge list: dense sources, destinations, weights or None.
Edges = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


def _preferential_targets(
    rng: np.random.Generator, n: int, count: int, *, exponent: float
) -> np.ndarray:
    """Skewed target choice: vertex v picked with weight ~ (v+1)^-exponent."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    weights /= weights.sum()
    return rng.choice(n, size=count, p=weights)


def _talk_edges(n: int, m: int, rng: np.random.Generator, weighted: bool) -> Edges:
    """Directed message graph: sources uniform-ish, targets highly skewed."""
    sources = _preferential_targets(rng, n, 2 * m, exponent=0.6)
    targets = _preferential_targets(rng, n, 2 * m, exponent=1.1)
    return _fill(n, sources, targets, m, rng, weighted, acyclic=False)


def _citation_edges(n: int, m: int, rng: np.random.Generator, weighted: bool) -> Edges:
    """Directed acyclic citations: vertex v cites lower-numbered vertices."""
    sources = rng.integers(1, n, size=2 * m)
    # Cited papers are skewed toward "famous" low ids, but must precede
    # the citing paper to keep the graph acyclic.
    raw_targets = _preferential_targets(rng, n, 2 * m, exponent=0.9)
    targets = raw_targets % np.maximum(sources, 1)
    return _fill(n, sources, targets, m, rng, weighted, acyclic=True)


def _coplay_edges(n: int, m: int, rng: np.random.Generator, weighted: bool) -> Edges:
    """Undirected co-play graph: players meet in matches (small cliques).

    Matches draw 2–10 players with skill-based locality: players with
    nearby ids play together, producing community structure. When local
    neighborhoods saturate (every nearby pair already met), the matching
    pool widens — as real ladders do. Each match's bounds depend on the
    edges so far, so the matches are drawn one at a time; an edge
    ``a < b`` is the packed int ``a * n + b``.
    """
    edges = set()
    attempts = 0
    spread = max(2, n // 40)
    max_attempts = 40 * m
    while len(edges) < m and attempts < max_attempts:
        attempts += 1
        size = int(rng.integers(2, 11))
        anchor = int(rng.integers(0, n))
        offsets = rng.integers(-spread, spread + 1, size=size).tolist()
        members = sorted({min(max(anchor + o, 0), n - 1) for o in offsets})
        before = len(edges)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if len(edges) >= m:
                    break
                edges.add(a * n + b)
        if len(edges) == before:
            # Neighborhood saturated: widen the matchmaking pool.
            spread = min(n, spread * 2)
    src, dst = np.divmod(np.array(sorted(edges), dtype=np.int64), n)
    weights = rng.uniform(0.1, 2.0, size=len(src)) if weighted else None
    return src, dst, weights


def _fill(
    n: int,
    sources: np.ndarray,
    targets: np.ndarray,
    m: int,
    rng: np.random.Generator,
    weighted: bool,
    *,
    acyclic: bool,
) -> Edges:
    """The first m candidate edges that are no self-loop, no repeat and,
    when ``acyclic``, point to a lower id."""
    keep = targets < sources if acyclic else sources != targets
    sources, targets = sources[keep], targets[keep]
    first = first_occurrences(sources * np.int64(n) + targets)[:m]
    weights = rng.uniform(0.05, 1.0, size=len(first)) if weighted else None
    return sources[first], targets[first], weights


def synthetic_replica(
    profile: str,
    num_vertices: int,
    num_edges: int,
    *,
    directed: bool = None,
    weighted: bool = False,
    seed: int = 0,
    name: str = "",
) -> Graph:
    """Generate a miniature replica graph with the given domain profile.

    ``directed`` may be left ``None``; only ``social`` takes either
    orientation, and contradicting another profile's is an error.
    """
    if profile not in REPLICA_PROFILES:
        raise GenerationError(
            f"unknown replica profile {profile!r}; expected one of {REPLICA_PROFILES}"
        )
    if num_vertices < 2 or num_edges < 1:
        raise GenerationError("need at least 2 vertices and 1 edge")
    fixed = _ORIENTATION.get(profile)
    if directed is not None and fixed is not None and bool(directed) != fixed:
        raise GenerationError(
            f"replica profile {profile!r} is always "
            f"{'directed' if fixed else 'undirected'}"
        )
    rng = np.random.default_rng(seed)

    if profile == "social":
        # Power-law social graph via R-MAT at the nearest scale; a
        # directed variant keeps each edge once, in its stored orientation.
        scale = max(4, int(np.ceil(np.log2(num_vertices))))
        edgefactor = max(1, int(round(num_edges / 2 ** scale)))
        g = graph500(scale, edgefactor=edgefactor, weighted=weighted, seed=seed)
        if not directed and not name:
            return g
        vertex_ids, src, dst, weights = g.vertex_ids, g.edge_src, g.edge_dst, g.edge_weights
        default = f"social-{num_vertices}" if directed else g.name
    else:
        vertex_ids = np.arange(num_vertices, dtype=np.int64)
        edges = {"talk": _talk_edges, "citation": _citation_edges, "coplay": _coplay_edges}
        src, dst, weights = edges[profile](num_vertices, num_edges, rng, weighted)
        default = f"{profile}-{num_vertices}"
    return Graph(
        vertex_ids=vertex_ids,
        src=src,
        dst=dst,
        directed=bool(directed) if fixed is None else fixed,
        weights=weights,
        name=name or default,
    )
