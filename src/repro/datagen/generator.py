"""The LDBC Datagen substitute: correlated social-network generation.

Reproduces the two Datagen contributions of paper §2.5.1:

**Tunable clustering coefficient.** When ``target_clustering_coefficient``
is set, the university-dimension step builds *core–periphery communities*
(consecutive persons in the correlated ordering form a community; a dense
core plus attached periphery). The core density and the fraction of each
person's degree budget spent inside the community are solved analytically
from the target, so generated graphs hit the requested average LCC to
first order (verified empirically in the test suite).

**Old vs new execution flow.** Friendships are generated in one step per
correlation dimension. :data:`FlowVersion.V0_2_1` (old) runs the steps
sequentially — each step re-sorts everything produced so far to dedup
inline. :data:`FlowVersion.V0_2_6` (new) runs every step independently
and merges/dedups once at the end. Both paths produce the *identical*
graph; what differs is the recorded work trace (records sorted per step),
which drives the §4.8 cost model in :mod:`repro.datagen.flow`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GenerationError
from repro.graph.graph import Graph, first_occurrences
from repro.datagen.degrees import DEGREE_DISTRIBUTIONS
from repro.datagen.persons import (
    CORRELATION_DIMENSIONS,
    Person,
    generate_persons,
    sort_key_for,
)

__all__ = [
    "DatagenConfig",
    "FlowVersion",
    "StepTrace",
    "GenerationTrace",
    "generate",
    "generate_with_flow",
    "solve_community_parameters",
]


class FlowVersion(enum.Enum):
    """Datagen execution-flow versions compared in paper §4.8 / Figure 3."""

    V0_2_1 = "v0.2.1"  # old: sequential steps, inline dedup, growing sorts
    V0_2_6 = "v0.2.6"  # new: independent steps, merge-dedup at the end


@dataclass(frozen=True)
class DatagenConfig:
    """Parameters of one Datagen run.

    ``num_persons`` is the miniature size; the real tool is driven by a
    *scale factor* (≈ millions of edges) — the dataset registry maps scale
    factors to miniature person counts.
    """

    num_persons: int
    mean_degree: float = 18.0
    target_clustering_coefficient: Optional[float] = None
    block_size: int = 128
    community_size: int = 16
    #: "facebook" (default), "zipf", or "uniform" (paper §2.5.1 notes
    #: Datagen supports different degree distributions).
    degree_distribution: str = "facebook"
    degree_sigma: float = 1.0
    weighted: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.degree_distribution not in DEGREE_DISTRIBUTIONS:
            raise GenerationError(
                f"unknown degree distribution {self.degree_distribution!r}; "
                f"known: {', '.join(DEGREE_DISTRIBUTIONS)}"
            )
        if self.num_persons < 2:
            raise GenerationError("num_persons must be at least 2")
        if self.mean_degree <= 0:
            raise GenerationError("mean_degree must be positive")
        if self.mean_degree >= self.num_persons:
            raise GenerationError("mean_degree must be below num_persons")
        if self.block_size < 4:
            raise GenerationError("block_size must be at least 4")
        if self.community_size < 4:
            raise GenerationError("community_size must be at least 4")
        cc = self.target_clustering_coefficient
        if cc is not None and not 0.0 < cc < 1.0:
            raise GenerationError(
                f"target_clustering_coefficient must be in (0,1), got {cc}"
            )


@dataclass(frozen=True)
class StepTrace:
    """Work performed by one friendship-generation step (for cost models)."""

    dimension: str
    records_sorted: int
    edges_emitted: int


@dataclass
class GenerationTrace:
    """Per-run work trace consumed by the §4.8 flow cost model."""

    flow: FlowVersion
    num_persons: int
    steps: List[StepTrace] = field(default_factory=list)
    merge_records: int = 0

    @property
    def total_records_sorted(self) -> int:
        return sum(s.records_sorted for s in self.steps) + self.merge_records


def solve_community_parameters(
    target_cc: float, community_size: int, mean_degree: float
) -> Tuple[float, float]:
    """Solve (core_density, community_budget_fraction) for a target LCC.

    Model: a member's in-community neighborhood is an Erdős–Rényi subgraph
    of density ``p``, so its LCC ≈ p × (fraction of neighbors that are
    in-community)². With in-community degree ``p (m-1)`` out of total
    degree ``D``: ``cc ≈ p³ (m-1)² / D²`` ⇒ ``p = (cc D² / (m-1)²)^(1/3)``,
    clipped to (0, 1].
    """
    m1 = community_size - 1
    p = (target_cc * mean_degree**2 / m1**2) ** (1.0 / 3.0)
    p = float(min(1.0, max(1e-3, p)))
    fraction = min(0.9, p * m1 / mean_degree)
    return p, fraction


#: An undirected edge list as normalised ``(lo, hi)`` person-id arrays.
Edges = Tuple[np.ndarray, np.ndarray]


def _forward_decay_edges(
    order: np.ndarray,
    budgets: np.ndarray,
    *,
    block_size: int,
    rng: np.random.Generator,
) -> Edges:
    """Edges to nearby successors in a correlated ordering.

    Person at position ``pos`` connects to ``pos + gap`` with geometric
    gaps, so consecutive persons (same university/interest) connect with
    the highest probability — Datagen's correlation property. The gaps
    are one draw, in position order.
    """
    n = len(order)
    mean_gap = max(2.0, block_size / 8.0)
    gaps = rng.geometric(1.0 / mean_gap, size=int(budgets.sum()))
    positions = np.repeat(np.arange(n, dtype=np.int64), budgets)
    a = order[positions]
    positions += gaps
    positions %= n  # wrap to keep the degree budget
    b = order[positions]
    keep = a != b
    a, b = a[keep], b[keep]
    return np.minimum(a, b), np.maximum(a, b)


def _community_edges(
    order: np.ndarray,
    *,
    community_size: int,
    core_density: float,
    rng: np.random.Generator,
) -> Edges:
    """Core–periphery communities over consecutive persons in the ordering.

    Each community is a run of consecutive persons. The first ~60% form
    the core, wired as Erdős–Rényi with ``core_density``; periphery
    members attach to a few random core members, closing triangles
    through the dense core.
    """
    n = len(order)
    edges: List[Tuple[int, int]] = []
    pos = 0
    while pos < n:
        size = int(np.clip(rng.poisson(community_size), 4, 2 * community_size))
        members = order[pos:pos + size]
        pos += size
        m = len(members)
        if m < 2:
            continue
        core_count = max(2, int(np.ceil(0.6 * m)))
        core = members[:core_count]
        periphery = members[core_count:]
        # Dense core: ER(core_density).
        for i in range(core_count):
            for j in range(i + 1, core_count):
                if rng.random() < core_density:
                    edges.append((int(core[i]), int(core[j])))
        # Periphery: attach to k random core members each.
        k_attach = min(core_count, max(2, int(round(core_density * core_count))))
        for member in periphery:
            chosen = rng.choice(core_count, size=k_attach, replace=False)
            for c in chosen:
                edges.append((int(member), int(core[c])))
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return pairs.min(axis=1), pairs.max(axis=1)


def _generate_step(
    persons: Sequence[Person],
    dimension: str,
    budgets: np.ndarray,
    config: DatagenConfig,
    rng: np.random.Generator,
    *,
    community_mode: bool,
    core_density: float,
) -> Edges:
    """Run one friendship-generation step over one correlation dimension."""
    order = np.array(
        [p.person_id for p in sorted(persons, key=sort_key_for(dimension))],
        dtype=np.int64,
    )
    if community_mode:
        return _community_edges(
            order,
            community_size=config.community_size,
            core_density=core_density,
            rng=rng,
        )
    # positions follow `order`; budgets are indexed by person id
    step_budgets = budgets[order]
    # When another step carries community structure (CC-tuned runs), the
    # remaining budget must contribute as few triangles as possible, so
    # partners are spread over a much wider window.
    block_size = config.block_size * (16 if core_density > 0 else 1)
    return _forward_decay_edges(
        order, step_budgets, block_size=block_size, rng=rng
    )


def _plan_budgets(
    config: DatagenConfig, degrees: np.ndarray
) -> Tuple[Dict[str, np.ndarray], float, bool]:
    """Split each person's degree budget across the three dimensions.

    Returns ({dimension: per-person initiation budgets}, core_density,
    community_mode). Forward-decay steps initiate edges, and each vertex
    also *receives* about as many, so initiation budgets are half the
    degree share.
    """
    target_cc = config.target_clustering_coefficient
    budgets: Dict[str, np.ndarray] = {}
    if target_cc is None:
        for dimension, share in CORRELATION_DIMENSIONS:
            budgets[dimension] = np.maximum(
                0, np.rint(degrees * share / 2.0)
            ).astype(np.int64)
        return budgets, 0.0, False

    core_density, community_fraction = solve_community_parameters(
        target_cc, config.community_size, config.mean_degree
    )
    # The university step carries the community structure and consumes
    # `community_fraction` of the budget; the remaining fraction is split
    # between the other two dimensions proportionally to their shares.
    rest = 1.0 - community_fraction
    other = [(d, s) for d, s in CORRELATION_DIMENSIONS if d != "university"]
    total_other = sum(s for _, s in other)
    budgets["university"] = np.zeros(len(degrees), dtype=np.int64)  # implicit
    for dimension, share in other:
        effective = rest * share / total_other
        budgets[dimension] = np.maximum(
            0, np.rint(degrees * effective / 2.0)
        ).astype(np.int64)
    return budgets, core_density, True


def generate_with_flow(
    config: DatagenConfig, flow: FlowVersion = FlowVersion.V0_2_6
) -> Tuple[Graph, GenerationTrace]:
    """Generate a friendship graph and the work trace of the chosen flow.

    Both flows produce bit-identical graphs (asserted in the test suite);
    they differ in the recorded amount of sorted data, mirroring Figure 3
    of the paper.
    """
    rng = np.random.default_rng(config.seed)
    persons = generate_persons(config.num_persons, seed=config.seed)
    sampler = DEGREE_DISTRIBUTIONS[config.degree_distribution]
    degree_kwargs = (
        {"sigma": config.degree_sigma}
        if config.degree_distribution == "facebook"
        else {}
    )
    degrees = sampler(
        config.num_persons,
        mean_degree=config.mean_degree,
        rng=rng,
        **degree_kwargs,
    )
    budgets, core_density, community_mode = _plan_budgets(config, degrees)

    trace = GenerationTrace(flow=flow, num_persons=config.num_persons)
    step_edges: List[Edges] = []
    # Old flow: step i+1 re-sorts persons plus every edge produced by
    # steps 0..i (paper Figure 3), so cost grows with progress. New flow:
    # each step sorts only the persons, and one final merge removes the
    # duplicates.
    carried = 0
    for step_index, (dimension, _) in enumerate(CORRELATION_DIMENSIONS):
        step_rng = np.random.default_rng((config.seed, 7919, step_index))
        edges = _generate_step(
            persons,
            dimension,
            budgets.get(dimension, np.zeros(config.num_persons, dtype=np.int64)),
            config,
            step_rng,
            community_mode=community_mode and dimension == "university",
            core_density=core_density,
        )
        step_edges.append(edges)
        emitted = len(edges[0])
        trace.steps.append(
            StepTrace(
                dimension=dimension,
                records_sorted=config.num_persons + carried,
                edges_emitted=emitted,
            )
        )
        if flow is FlowVersion.V0_2_1:
            carried += emitted
    lo, hi = map(np.concatenate, zip(*step_edges))
    if flow is FlowVersion.V0_2_6:
        trace.merge_records = len(lo)

    # Every candidate edge draws a weight, a repeat too; the first
    # occurrence of each edge keeps its own.
    first = first_occurrences(lo * np.int64(config.num_persons) + hi)
    weights = None
    if config.weighted:
        weight_rng = np.random.default_rng((config.seed, 104729))
        weights = weight_rng.uniform(0.05, 1.0, size=len(lo))[first]
    name = f"datagen-p{config.num_persons}"
    if config.target_clustering_coefficient is not None:
        name += f"-cc{config.target_clustering_coefficient}"
    graph = Graph(
        vertex_ids=np.arange(config.num_persons, dtype=np.int64),
        src=lo[first],
        dst=hi[first],
        directed=False,
        weights=weights,
        name=name,
    )
    return graph, trace


def generate(
    num_persons: int,
    *,
    mean_degree: float = 18.0,
    target_clustering_coefficient: Optional[float] = None,
    weighted: bool = False,
    seed: int = 0,
    **kwargs,
) -> Graph:
    """Convenience front-end: generate a Datagen graph with defaults."""
    config = DatagenConfig(
        num_persons=num_persons,
        mean_degree=mean_degree,
        target_clustering_coefficient=target_clustering_coefficient,
        weighted=weighted,
        seed=seed,
        **kwargs,
    )
    graph, _ = generate_with_flow(config)
    return graph
