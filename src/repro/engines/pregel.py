"""A miniature Pregel engine: Giraph's vertex-centric model.

Execution follows Malewicz et al. (SIGMOD 2010): computation proceeds in
synchronous *supersteps*; in each superstep every active vertex runs the
same ``compute`` function, reading the messages sent to it in the
previous superstep and sending messages along out-edges; a vertex votes
to halt and is re-activated only by incoming messages. The job ends when
every vertex has halted and no messages are in flight (or a superstep
limit is reached, for fixed-iteration algorithms like PageRank).

The engine is sequential but semantically faithful: per-superstep
message delivery, halting, and re-activation behave exactly like the
distributed original, which is what makes the bundled vertex programs
(BFS, SSSP, WCC, CDLP, PR) legitimate examples of the programming model.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, GraphFormatError
from repro.algorithms.sssp import check_sssp_input
from repro.graph.graph import Graph

__all__ = [
    "Aggregator",
    "Combiner",
    "MIN_COMBINER",
    "HISTOGRAM_COMBINER",
    "VertexContext",
    "VertexProgram",
    "PregelEngine",
    "bfs_program",
    "sssp_program",
    "wcc_program",
    "cdlp_program",
    "pagerank_program",
]


@dataclass(frozen=True)
class Aggregator:
    """A Pregel aggregator (Malewicz et al. §3.3).

    Values a vertex contributes via :meth:`VertexContext.aggregate`
    during superstep S are combined with ``combine`` (which must be
    commutative and associative) and become visible to every vertex via
    :meth:`VertexContext.aggregated` in superstep S+1. This is the
    *only* sanctioned global channel for vertex programs — writing to
    closures or globals from ``compute`` breaks the superstep barrier
    (enforced by lint rule CON001).
    """

    initial: object
    combine: Callable[[object, object], object]


@dataclass(frozen=True)
class Combiner:
    """A Pregel message combiner (Malewicz et al. §3.2).

    A combiner lets the system merge the messages bound for one vertex
    *before* they cross a process boundary, cutting exchange volume.
    ``merge`` must be commutative and associative **and exact** (bit-for-
    bit independent of merge order): min over numbers and integer
    histogram addition qualify; float summation does not — a program
    whose message reduction is inexact (PageRank) declares no combiner
    and its messages travel individually, delivered in the canonical
    (sender, emission) order.

    ``lift`` maps one message onto the combined ("wire") representation;
    ``expand`` maps a wire value back to the message list the vertex
    program observes. The contract: for any message multiset M and any
    partition/merge tree over it, ``compute`` must behave identically on
    ``expand(merge-fold(lift(M)))`` and on M itself.
    """

    name: str
    lift: Callable[[object], object]
    merge: Callable[[object, object], object]
    expand: Callable[[object], List[object]]


def _expand_histogram(wire: object) -> List[object]:
    counts: Counter = wire  # type: ignore[assignment]
    expanded: List[object] = []
    for label in sorted(counts):
        expanded.extend([label] * counts[label])
    return expanded


#: Exact min-combining: BFS depths, SSSP distances, WCC labels.
MIN_COMBINER = Combiner(
    name="min",
    lift=lambda message: message,
    merge=min,
    expand=lambda wire: [wire],
)

#: Exact histogram-combining: CDLP label counts (integer addition).
HISTOGRAM_COMBINER = Combiner(
    name="histogram",
    lift=lambda message: Counter({message: 1}),
    merge=lambda a, b: a + b,
    expand=_expand_histogram,
)


@dataclass
class VertexContext:
    """Everything a vertex program may touch during one superstep."""

    graph: Graph
    vertex: int                     # dense index
    vertex_id: int                  # external id
    superstep: int
    value: object
    num_vertices: int
    out_neighbors: np.ndarray       # dense indices
    out_weights: Optional[np.ndarray]
    _outbox: List[Tuple[int, object]] = field(default_factory=list)
    _halted: bool = False
    _aggregator_defs: Dict[str, Aggregator] = field(default_factory=dict)
    _aggregated_prev: Dict[str, object] = field(default_factory=dict)
    _aggregated_next: Dict[str, object] = field(default_factory=dict)

    def send_message_to(self, target: int, message: object) -> None:
        """Queue a message for delivery in the next superstep."""
        self._outbox.append((int(target), message))

    def send_message_to_all_neighbors(self, message: object) -> None:
        for target in self.out_neighbors:
            self._outbox.append((int(target), message))

    def vote_to_halt(self) -> None:
        self._halted = True

    def aggregate(self, name: str, value: object) -> None:
        """Contribute a value to an aggregator for the *next* superstep."""
        try:
            combine = self._aggregator_defs[name].combine
        except KeyError:
            raise ConfigurationError(
                f"program declares no aggregator {name!r}"
            ) from None
        self._aggregated_next[name] = combine(
            self._aggregated_next[name], value
        )

    def aggregated(self, name: str) -> object:
        """An aggregator's value as of the end of the previous superstep."""
        try:
            return self._aggregated_prev[name]
        except KeyError:
            raise ConfigurationError(
                f"program declares no aggregator {name!r}"
            ) from None


@dataclass(frozen=True)
class VertexProgram:
    """One vertex-centric algorithm.

    ``init`` produces each vertex's initial value; ``compute`` is the
    per-superstep kernel (mutates ``ctx.value``, sends messages, votes
    to halt). ``max_supersteps`` bounds fixed-iteration programs.
    ``aggregators`` declares the engine-managed global channels
    available through ``ctx.aggregate``/``ctx.aggregated``.
    """

    name: str
    init: Callable[[Graph, int], object]
    compute: Callable[[VertexContext, List[object]], None]
    max_supersteps: Optional[int] = None
    aggregators: Dict[str, Aggregator] = field(default_factory=dict)
    #: Optional exact message combiner a distributed executor may apply
    #: before the wire; the sequential engine ignores it (delivering the
    #: raw messages is observationally identical, per the contract).
    combiner: Optional[Combiner] = None


class PregelEngine:
    """Superstep-synchronous executor for vertex programs.

    Each superstep is a ``superstep`` span on the current tracer; a
    measured job's Granula archive holds them under ``kernel`` as
    recorded.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self._reverse_indptr = graph.in_indptr
        self._reverse_indices = graph.in_indices

    def run(self, program: VertexProgram, *, superstep_limit: int = 10_000):
        """Execute to global halt; returns (values array, supersteps run)."""
        from repro.trace import current_tracer

        tracer = current_tracer()
        graph = self.graph
        n = graph.num_vertices
        values: List[object] = [
            program.init(graph, v) for v in range(n)
        ]
        active = np.ones(n, dtype=bool)
        inbox: Dict[int, List[object]] = defaultdict(list)
        limit = program.max_supersteps or superstep_limit
        supersteps = 0
        aggregated = {
            name: agg.initial for name, agg in sorted(program.aggregators.items())
        }
        for superstep in range(limit):
            if not active.any() and not inbox:
                break
            supersteps += 1
            superstep_span = tracer.start_span(
                "superstep", attributes={"engine": "pregel", "index": superstep}
            )
            outbox: Dict[int, List[object]] = defaultdict(list)
            next_active = np.zeros(n, dtype=bool)
            # Aggregator values contributed this superstep; the engine
            # swaps them in at the superstep barrier below.
            aggregating = {
                name: agg.initial for name, agg in sorted(program.aggregators.items())
            }
            workset = set(np.nonzero(active)[0].tolist()) | set(inbox)
            for v in sorted(workset):
                messages = inbox.get(v, [])
                nbrs, weights = graph.out_edges(v)
                ctx = VertexContext(
                    graph=graph,
                    vertex=v,
                    vertex_id=int(graph.vertex_ids[v]),
                    superstep=superstep,
                    value=values[v],
                    num_vertices=n,
                    out_neighbors=nbrs,
                    out_weights=weights,
                    _aggregator_defs=program.aggregators,
                    _aggregated_prev=aggregated,
                    _aggregated_next=aggregating,
                )
                program.compute(ctx, messages)
                values[v] = ctx.value
                for target, message in ctx._outbox:
                    outbox[target].append(message)
                if not ctx._halted:
                    next_active[v] = True
            inbox = outbox
            active = next_active
            aggregated = aggregating
            tracer.end_span(superstep_span)
        return values, supersteps


def _as_array(values: Iterable, dtype) -> np.ndarray:
    return np.array(list(values), dtype=dtype)


# -- vertex programs ---------------------------------------------------------

def bfs_program(graph: Graph, source: int) -> Tuple[VertexProgram, Callable]:
    """Frontier-by-message BFS; value = hop count (max int64 = unreached)."""
    if not graph.has_vertex(source):
        raise GraphFormatError(f"BFS source vertex {source} not in graph")
    root = graph.index_of(source)
    unreached = np.iinfo(np.int64).max

    def init(g: Graph, v: int):
        return 0 if v == root else unreached

    def compute(ctx: VertexContext, messages: List[object]) -> None:
        if ctx.superstep == 0:
            if ctx.value == 0:
                ctx.send_message_to_all_neighbors(1)
            ctx.vote_to_halt()
            return
        if messages:
            depth = min(messages)
            if depth < ctx.value:
                ctx.value = depth
                ctx.send_message_to_all_neighbors(depth + 1)
        ctx.vote_to_halt()

    program = VertexProgram("bfs", init, compute, combiner=MIN_COMBINER)
    return program, lambda values: _as_array(values, np.int64)


def sssp_program(graph: Graph, source: int) -> Tuple[VertexProgram, Callable]:
    """Pregel SSSP: relax on message, propagate distance + edge weight."""
    check_sssp_input(graph, source)
    root = graph.index_of(source)

    def init(g: Graph, v: int):
        return 0.0 if v == root else float("inf")

    def compute(ctx: VertexContext, messages: List[object]) -> None:
        best = min(messages) if messages else float("inf")
        if ctx.superstep == 0 and ctx.value == 0.0:
            best = 0.0
        if best < ctx.value or (ctx.superstep == 0 and ctx.value == 0.0):
            ctx.value = min(ctx.value, best)
            for nbr, weight in zip(ctx.out_neighbors, ctx.out_weights):
                ctx.send_message_to(int(nbr), ctx.value + float(weight))
        ctx.vote_to_halt()

    program = VertexProgram("sssp", init, compute, combiner=MIN_COMBINER)
    return program, lambda values: _as_array(values, np.float64)


def wcc_program(graph: Graph) -> Tuple[VertexProgram, Callable]:
    """HashMin WCC: propagate the smallest known id (both directions)."""

    def init(g: Graph, v: int):
        return int(g.vertex_ids[v])

    # Symmetric neighbor lists (cached): messages flow along both edge
    # directions so direction is ignored (weak connectivity).
    symmetric: Dict[int, np.ndarray] = {}

    def neighbors_of(g: Graph, v: int) -> np.ndarray:
        if v not in symmetric:
            symmetric[v] = np.union1d(g.out_neighbors(v), g.in_neighbors(v))
        return symmetric[v]

    def compute(ctx: VertexContext, messages: List[object]) -> None:
        candidate = min(messages) if messages else ctx.value
        if ctx.superstep == 0 or candidate < ctx.value:
            ctx.value = min(ctx.value, candidate)
            for nbr in neighbors_of(ctx.graph, ctx.vertex):
                ctx.send_message_to(int(nbr), ctx.value)
        ctx.vote_to_halt()

    program = VertexProgram("wcc", init, compute, combiner=MIN_COMBINER)
    return program, lambda values: _as_array(values, np.int64)


def cdlp_program(graph: Graph, iterations: int) -> Tuple[VertexProgram, Callable]:
    """Synchronous label propagation with the deterministic tie-break."""

    def init(g: Graph, v: int):
        return int(g.vertex_ids[v])

    symmetric: Dict[int, List[int]] = {}

    def targets_of(g: Graph, v: int) -> List[int]:
        # Send to everyone who should hear this vertex's label: out- and
        # in-neighbors (bidirectional pairs receive twice, per the spec).
        if v not in symmetric:
            symmetric[v] = (
                g.out_neighbors(v).tolist() + g.in_neighbors(v).tolist()
                if g.directed
                else g.out_neighbors(v).tolist()
            )
        return symmetric[v]

    def compute(ctx: VertexContext, messages: List[object]) -> None:
        if ctx.superstep > 0 and messages:
            counts = Counter(messages)
            best = max(counts.values())
            ctx.value = min(
                label for label, count in counts.items() if count == best
            )
        if ctx.superstep < iterations:
            for target in targets_of(ctx.graph, ctx.vertex):
                ctx.send_message_to(int(target), ctx.value)
        else:
            ctx.vote_to_halt()

    program = VertexProgram(
        "cdlp", init, compute, max_supersteps=iterations + 1,
        combiner=HISTOGRAM_COMBINER,
    )
    return program, lambda values: _as_array(values, np.int64)


def pagerank_program(
    graph: Graph, iterations: int, damping: float = 0.85
) -> Tuple[VertexProgram, Callable]:
    """Fixed-superstep PageRank with dangling-mass redistribution.

    Dangling vertices cannot message "everyone" cheaply in Pregel, so —
    exactly like Giraph implementations — their mass flows through an
    engine-managed :class:`Aggregator` and is folded in during the next
    superstep.
    """
    n = graph.num_vertices

    def init(g: Graph, v: int):
        return 1.0 / n

    def compute(ctx: VertexContext, messages: List[object]) -> None:
        if ctx.superstep > 0:
            incoming = sum(messages)
            dangling_share = ctx.aggregated("dangling") / n
            ctx.value = (1.0 - damping) / n + damping * (
                incoming + dangling_share
            )
        if ctx.superstep < iterations:
            degree = len(ctx.out_neighbors)
            if degree:
                share = ctx.value / degree
                ctx.send_message_to_all_neighbors(share)
            else:
                ctx.aggregate("dangling", ctx.value)
        else:
            ctx.vote_to_halt()

    program = VertexProgram(
        "pr", init, compute, max_supersteps=iterations + 1,
        aggregators={"dangling": Aggregator(0.0, lambda a, b: a + b)},
    )
    return program, lambda values: _as_array(values, np.float64)


# -- convenience front-ends -------------------------------------------------------

def run_bfs(graph: Graph, source: int) -> np.ndarray:
    program, finalize = bfs_program(graph, source)
    values, _ = PregelEngine(graph).run(program)
    return finalize(values)


def run_sssp(graph: Graph, source: int) -> np.ndarray:
    program, finalize = sssp_program(graph, source)
    values, _ = PregelEngine(graph).run(program)
    return finalize(values)


def run_wcc(graph: Graph) -> np.ndarray:
    program, finalize = wcc_program(graph)
    values, _ = PregelEngine(graph).run(program)
    return finalize(values)


def run_cdlp(graph: Graph, iterations: int = 10) -> np.ndarray:
    program, finalize = cdlp_program(graph, iterations)
    values, _ = PregelEngine(graph).run(program)
    return finalize(values)


def run_pagerank(graph: Graph, iterations: int = 30, damping: float = 0.85) -> np.ndarray:
    program, finalize = pagerank_program(graph, iterations, damping)
    values, _ = PregelEngine(graph).run(program)
    return finalize(values)
