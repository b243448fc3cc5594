"""A miniature Gather-Apply-Scatter engine: PowerGraph's model.

Execution follows Gonzalez et al. (OSDI 2012): an algorithm is three
functions over a vertex's neighborhood —

* **gather**: combine values over the gather-direction edges with a
  commutative, associative sum;
* **apply**: compute the vertex's new value from the gathered result;
* **scatter**: decide which scatter-direction neighbors to activate.

Two execution modes mirror PowerGraph's engines: the *async-like*
active-set mode (convergent label-correcting algorithms: BFS, SSSP,
WCC) and the *synchronous* sweep mode (fixed-iteration algorithms:
PageRank, CDLP), where all vertices apply simultaneously against the
previous iteration's values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.exceptions import GraphFormatError
from repro.algorithms.sssp import check_sssp_input
from repro.graph.graph import Graph

__all__ = [
    "GASProgram",
    "GASEngine",
    "bfs_gas_program",
    "sssp_gas_program",
    "wcc_gas_program",
    "cdlp_gas_program",
    "run_bfs",
    "run_sssp",
    "run_wcc",
    "run_pagerank",
    "run_cdlp",
]


@dataclass(frozen=True)
class GASProgram:
    """One algorithm in the GAS abstraction.

    ``gather(u_value, weight)`` maps one gather-edge to a partial value;
    ``gather_sum`` combines partials (must be commutative/associative);
    ``apply(old_value, gathered)`` produces the new vertex value;
    ``gather_zero`` is the identity of ``gather_sum``. ``both_directions``
    gathers/scatters over in- and out-edges (WCC ignores direction).
    """

    name: str
    init: Callable[[Graph, int], object]
    gather: Callable[[object, Optional[float]], object]
    gather_sum: Callable[[object, object], object]
    gather_zero: object
    apply: Callable[[object, object], object]
    both_directions: bool = False


class GASEngine:
    """Active-set and synchronous executors for GAS programs.

    Each round/sweep is a ``round`` span on the current tracer; a
    measured job's Granula archive holds them under ``kernel`` as
    recorded.
    """

    def __init__(self, graph: Graph):
        self.graph = graph

    def _gather_edges(self, v: int, both: bool) -> List[Tuple[int, Optional[float]]]:
        """(neighbor, weight) pairs over the gather direction of v.

        Gather runs over *in*-edges (a vertex's new value depends on the
        vertices that point at it); ``both`` adds the out-edges.
        """
        graph = self.graph
        lo, hi = graph.in_indptr[v], graph.in_indptr[v + 1]
        weights = graph.in_weights
        edges = [
            (int(graph.in_indices[k]),
             float(weights[k]) if weights is not None else None)
            for k in range(lo, hi)
        ]
        if both and graph.directed:
            nbrs, out_weights = graph.out_edges(v)
            edges.extend(
                (int(u), float(w) if out_weights is not None else None)
                for u, w in zip(
                    nbrs,
                    out_weights if out_weights is not None else [None] * len(nbrs),
                )
            )
        return edges

    def _scatter_targets(self, v: int, both: bool) -> np.ndarray:
        graph = self.graph
        targets = graph.out_neighbors(v)
        if both and graph.directed:
            targets = np.union1d(targets, graph.in_neighbors(v))
        return targets

    def run_active_set(self, program: GASProgram, *, max_rounds: int = 100_000):
        """Label-correcting execution: converge, then stop.

        Returns (values, rounds). A vertex re-applies whenever a gather
        neighbor changed; the run ends when the active set drains.
        """
        from repro.trace import current_tracer

        tracer = current_tracer()
        graph = self.graph
        n = graph.num_vertices
        values = [program.init(graph, v) for v in range(n)]
        active = set(range(n))
        rounds = 0
        while active and rounds < max_rounds:
            rounds += 1
            with tracer.span("round", engine="gas", index=rounds - 1):
                next_active = set()
                # Deterministic order keeps runs bit-reproducible.
                for v in sorted(active):
                    gathered = program.gather_zero
                    for u, weight in self._gather_edges(v, program.both_directions):
                        gathered = program.gather_sum(
                            gathered, program.gather(values[u], weight)
                        )
                    new_value = program.apply(values[v], gathered)
                    if new_value != values[v]:
                        values[v] = new_value
                        next_active.update(
                            int(t)
                            for t in self._scatter_targets(v, program.both_directions)
                        )
                active = next_active
        return values, rounds

    def run_synchronous(self, program: GASProgram, iterations: int):
        """Fixed synchronous sweeps: every vertex applies against the
        previous iteration's values (PageRank, CDLP)."""
        from repro.trace import current_tracer

        tracer = current_tracer()
        graph = self.graph
        n = graph.num_vertices
        values = [program.init(graph, v) for v in range(n)]
        for iteration in range(iterations):
            with tracer.span("round", engine="gas", index=iteration):
                snapshot = list(values)
                new_values = []
                for v in range(n):
                    gathered = program.gather_zero
                    for u, weight in self._gather_edges(v, program.both_directions):
                        gathered = program.gather_sum(
                            gathered, program.gather(snapshot[u], weight)
                        )
                    new_values.append(program.apply(snapshot[v], gathered))
                values = new_values
        return values


# -- algorithm programs -------------------------------------------------------

_UNREACHED = np.iinfo(np.int64).max


def bfs_gas_program(graph: Graph, source: int) -> Tuple[GASProgram, Callable]:
    """BFS as min-gather over in-edges: d(v) = min(d(u) + 1)."""
    if not graph.has_vertex(source):
        raise GraphFormatError(f"BFS source vertex {source} not in graph")
    root = graph.index_of(source)
    program = GASProgram(
        name="bfs",
        init=lambda g, v: 0 if v == root else _UNREACHED,
        gather=lambda u_value, w: (
            u_value + 1 if u_value != _UNREACHED else _UNREACHED
        ),
        gather_sum=min,
        gather_zero=_UNREACHED,
        apply=lambda old, gathered: min(old, gathered),
    )
    return program, lambda values: np.array(values, dtype=np.int64)


def sssp_gas_program(graph: Graph, source: int) -> Tuple[GASProgram, Callable]:
    """SSSP as min-plus gather: d(v) = min(d(u) + w(u,v))."""
    check_sssp_input(graph, source)
    root = graph.index_of(source)
    program = GASProgram(
        name="sssp",
        init=lambda g, v: 0.0 if v == root else float("inf"),
        gather=lambda u_value, w: u_value + w,
        gather_sum=min,
        gather_zero=float("inf"),
        apply=lambda old, gathered: min(old, gathered),
    )
    return program, lambda values: np.array(values, dtype=np.float64)


def wcc_gas_program(graph: Graph) -> Tuple[GASProgram, Callable]:
    """WCC as min-label gather over both edge directions."""
    program = GASProgram(
        name="wcc",
        init=lambda g, v: int(g.vertex_ids[v]),
        gather=lambda u_value, w: u_value,
        gather_sum=min,
        gather_zero=np.iinfo(np.int64).max,
        apply=lambda old, gathered: min(old, gathered),
        both_directions=True,
    )
    return program, lambda values: np.array(values, dtype=np.int64)


def run_bfs(graph: Graph, source: int) -> np.ndarray:
    program, finalize = bfs_gas_program(graph, source)
    values, _ = GASEngine(graph).run_active_set(program)
    return finalize(values)


def run_sssp(graph: Graph, source: int) -> np.ndarray:
    program, finalize = sssp_gas_program(graph, source)
    values, _ = GASEngine(graph).run_active_set(program)
    return finalize(values)


def run_wcc(graph: Graph) -> np.ndarray:
    program, finalize = wcc_gas_program(graph)
    values, _ = GASEngine(graph).run_active_set(program)
    return finalize(values)


def run_pagerank(
    graph: Graph, iterations: int = 30, damping: float = 0.85
) -> np.ndarray:
    """PageRank as sum-gather of (rank/out-degree) with dangling mass.

    The dangling redistribution needs a global aggregate per sweep, so
    the program carries (rank, contribution) pairs and the front-end
    folds the dangling sum between sweeps — matching how PowerGraph
    implementations handle it (a global reduction between iterations).
    """
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.float64)
    out_degree = graph.out_degrees().astype(np.float64)
    dangling = out_degree == 0
    rank = np.full(n, 1.0 / n, dtype=np.float64)
    engine = GASEngine(graph)
    base = (1.0 - damping) / n

    for _ in range(iterations):
        contrib = np.zeros(n, dtype=np.float64)
        np.divide(rank, out_degree, out=contrib, where=~dangling)
        program = GASProgram(
            name="pr-sweep",
            init=lambda g, v: float(contrib[v]),
            gather=lambda u_value, w: u_value,
            gather_sum=lambda a, b: a + b,
            gather_zero=0.0,
            apply=lambda old, gathered: gathered,
        )
        gathered = engine.run_synchronous(program, 1)
        dangling_share = rank[dangling].sum() / n
        rank = base + damping * (np.array(gathered) + dangling_share)
    return rank


def cdlp_gas_program(graph: Graph, iterations: int = 10) -> Tuple[GASProgram, Callable]:
    """CDLP with a histogram gather (Counter merge is the gather sum)."""

    def gather(u_value, w):
        return Counter({u_value: 1})

    def gather_sum(a: Counter, b: Counter) -> Counter:
        merged = Counter(a)
        merged.update(b)
        return merged

    def apply(old, gathered: Counter):
        if not gathered:
            return old
        best = max(gathered.values())
        return min(
            label for label, count in gathered.items() if count == best
        )

    program = GASProgram(
        name="cdlp",
        init=lambda g, v: int(g.vertex_ids[v]),
        gather=gather,
        gather_sum=gather_sum,
        gather_zero=Counter(),
        apply=apply,
        both_directions=True,
    )
    return program, lambda values: np.array(values, dtype=np.int64)


def run_cdlp(graph: Graph, iterations: int = 10) -> np.ndarray:
    program, finalize = cdlp_gas_program(graph, iterations)
    values = GASEngine(graph).run_synchronous(program, iterations)
    return finalize(values)
