"""Replicas and Datagen against the per-edge pipelines they replaced.

Both used to push every candidate edge through a per-edge builder that
dropped repeated edges, drawing each accepted edge's weight on the way,
and the coplay replica kept its edges as a set of tuples. Those
pipelines, that builder included, are kept here as the oracle: the
random streams are unchanged, so every graph must be equal — ids, edge
list, CSR, weights and name, dtype and bytes — and so must the Datagen
work trace of both flows.
"""

import numpy as np
import pytest

from repro.datagen.degrees import DEGREE_DISTRIBUTIONS
from repro.datagen.generator import (
    DatagenConfig,
    FlowVersion,
    GenerationTrace,
    StepTrace,
    _plan_budgets,
    generate_with_flow,
)
from repro.datagen.graph500 import graph500
from repro.datagen.persons import CORRELATION_DIMENSIONS, generate_persons, sort_key_for
from repro.datagen.realworld import _preferential_targets, synthetic_replica
from repro.graph.graph import Graph
from repro.harness.datasets import DATASETS

from tests.datagen.test_graph500_oracle import ARRAYS


def _assert_same_graph(got, want):
    assert (got.name, got.directed) == (want.name, want.directed)
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


class _PerEdgeBuilder:
    """One edge at a time: the first occurrence of an edge is kept (an
    undirected edge either way round), a self-loop is refused, and the
    built graph's ids ascend."""

    def __init__(self, *, directed, weighted):
        self.directed, self.weighted = directed, weighted
        self.vertices, self.seen, self.edges, self.weights = set(), set(), [], []

    def add_vertices(self, ids):
        self.vertices.update(int(v) for v in ids)

    def has_edge(self, s, d):
        return ((s, d) if self.directed or s <= d else (d, s)) in self.seen

    def add_edge(self, s, d, weight=None):
        assert s != d, f"self-loop on vertex {s}"
        if self.has_edge(s, d):
            return
        self.seen.add((s, d) if self.directed or s <= d else (d, s))
        self.vertices.update((s, d))
        self.edges.append((s, d))
        self.weights.append(weight)

    def build(self, name):
        ids = np.array(sorted(self.vertices), dtype=np.int64)
        src, dst = np.searchsorted(ids, np.array(self.edges, dtype=np.int64).reshape(-1, 2).T)
        weights = np.array(self.weights, dtype=np.float64) if self.weighted else None
        return Graph(vertex_ids=ids, src=src, dst=dst, directed=self.directed,
                     weights=weights, name=name)


# -- replicas ----------------------------------------------------------------


def _fill(builder, sources, targets, m, rng, weighted, *, acyclic):
    added = 0
    for s, d in zip(sources, targets):
        s, d = int(s), int(d)
        if s == d or (acyclic and d >= s) or builder.has_edge(s, d):
            continue
        builder.add_edge(s, d, float(rng.uniform(0.05, 1.0)) if weighted else None)
        added += 1
        if added >= m:
            return


def _coplay(builder, n, m, rng, weighted):
    edges = set()
    attempts = 0
    spread = max(2, n // 40)
    while len(edges) < m and attempts < 40 * m:
        attempts += 1
        size = int(rng.integers(2, 11))
        anchor = int(rng.integers(0, n))
        members = np.unique(
            np.clip(anchor + rng.integers(-spread, spread + 1, size=size), 0, n - 1)
        )
        before = len(edges)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if len(edges) >= m:
                    break
                edges.add((int(members[i]), int(members[j])))
        if len(edges) == before:
            spread = min(n, spread * 2)
    for a, b in sorted(edges):
        builder.add_edge(a, b, float(rng.uniform(0.1, 2.0)) if weighted else None)


def _replica_oracle(profile, n, m, *, directed=None, weighted=False, seed=0, name=""):
    rng = np.random.default_rng(seed)
    if profile == "social":
        scale = max(4, int(np.ceil(np.log2(n))))
        edgefactor = max(1, int(round(m / 2 ** scale)))
        g = graph500(scale, edgefactor=edgefactor, weighted=weighted, seed=seed)
        if not directed:
            return g if not name else Graph(
                vertex_ids=g.vertex_ids, src=g.edge_src, dst=g.edge_dst,
                directed=False, weights=g.edge_weights, name=name,
            )
        builder = _PerEdgeBuilder(directed=True, weighted=weighted)
        builder.add_vertices(int(v) for v in g.vertex_ids)
        for k in range(g.num_edges):
            builder.add_edge(
                int(g.vertex_ids[g.edge_src[k]]),
                int(g.vertex_ids[g.edge_dst[k]]),
                float(g.edge_weights[k]) if weighted else None,
            )
        return builder.build(name=name or f"social-{n}")
    builder = _PerEdgeBuilder(directed=profile != "coplay", weighted=weighted)
    builder.add_vertices(range(n))
    if profile == "talk":
        sources = _preferential_targets(rng, n, 2 * m, exponent=0.6)
        targets = _preferential_targets(rng, n, 2 * m, exponent=1.1)
        _fill(builder, sources, targets, m, rng, weighted, acyclic=False)
    elif profile == "citation":
        sources = rng.integers(1, n, size=2 * m)
        raw = _preferential_targets(rng, n, 2 * m, exponent=0.9)
        _fill(builder, sources, raw % np.maximum(sources, 1), m, rng, weighted, acyclic=True)
    else:
        _coplay(builder, n, m, rng, weighted)
    return builder.build(name=name or f"{profile}-{n}")


# -- Datagen -----------------------------------------------------------------


def _forward_decay(order, budgets, *, block_size, rng):
    n = len(order)
    edges = []
    p_gap = 1.0 / max(2.0, block_size / 8.0)
    for pos in range(n):
        b = int(budgets[pos])
        if b <= 0:
            continue
        for gap in rng.geometric(p_gap, size=b):
            a, b2 = int(order[pos]), int(order[(pos + int(gap)) % n])
            if a != b2:
                edges.append((a, b2) if a < b2 else (b2, a))
    return edges


def _communities(order, *, community_size, core_density, rng):
    n = len(order)
    edges = []
    pos = 0
    while pos < n:
        size = int(np.clip(rng.poisson(community_size), 4, 2 * community_size))
        members = order[pos:pos + size]
        pos += size
        m = len(members)
        if m < 2:
            continue
        core_count = max(2, int(np.ceil(0.6 * m)))
        core, periphery = members[:core_count], members[core_count:]
        for i in range(core_count):
            for j in range(i + 1, core_count):
                if rng.random() < core_density:
                    a, b = int(core[i]), int(core[j])
                    edges.append((a, b) if a < b else (b, a))
        k_attach = min(core_count, max(2, int(round(core_density * core_count))))
        for member in periphery:
            for c in rng.choice(core_count, size=k_attach, replace=False):
                a, b = int(member), int(core[c])
                edges.append((a, b) if a < b else (b, a))
    return edges


def _datagen_oracle(config, flow):
    rng = np.random.default_rng(config.seed)
    persons = generate_persons(config.num_persons, seed=config.seed)
    kwargs = {"sigma": config.degree_sigma} if config.degree_distribution == "facebook" else {}
    degrees = DEGREE_DISTRIBUTIONS[config.degree_distribution](
        config.num_persons, mean_degree=config.mean_degree, rng=rng, **kwargs
    )
    budgets, core_density, community_mode = _plan_budgets(config, degrees)
    trace = GenerationTrace(flow=flow, num_persons=config.num_persons)
    all_edges = []
    for step_index, (dimension, _) in enumerate(CORRELATION_DIMENSIONS):
        step_rng = np.random.default_rng((config.seed, 7919, step_index))
        order = np.array(
            [p.person_id for p in sorted(persons, key=sort_key_for(dimension))],
            dtype=np.int64,
        )
        if community_mode and dimension == "university":
            edges = _communities(order, community_size=config.community_size,
                                 core_density=core_density, rng=step_rng)
        else:
            step_budgets = budgets.get(dimension, np.zeros(config.num_persons, dtype=np.int64))
            block_size = config.block_size * (16 if core_density > 0 else 1)
            edges = _forward_decay(order, step_budgets[order], block_size=block_size, rng=step_rng)
        carried = len(all_edges) if flow is FlowVersion.V0_2_1 else 0
        trace.steps.append(StepTrace(dimension, config.num_persons + carried, len(edges)))
        all_edges += edges
    if flow is FlowVersion.V0_2_6:
        trace.merge_records = len(all_edges)
    builder = _PerEdgeBuilder(directed=False, weighted=config.weighted)
    builder.add_vertices(range(config.num_persons))
    weight_rng = np.random.default_rng((config.seed, 104729))
    for src, dst in all_edges:
        builder.add_edge(src, dst, float(weight_rng.uniform(0.05, 1.0)) if config.weighted else None)
    name = f"datagen-p{config.num_persons}"
    if config.target_clustering_coefficient is not None:
        name += f"-cc{config.target_clustering_coefficient}"
    return builder.build(name=name), trace


# -- the grid ----------------------------------------------------------------

GENERATED = [ds for ds in DATASETS.values()
              if ds.recipe["generator"] in ("replica", "datagen")]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dataset", GENERATED, ids=lambda ds: ds.dataset_id)
def test_catalog_materializers(dataset, seed):
    arguments = {k: v for k, v in dataset.recipe.items() if k != "generator"}
    if dataset.recipe["generator"] == "replica":
        want = _replica_oracle(
            arguments.pop("profile"), arguments.pop("num_vertices"),
            arguments.pop("num_edges"), seed=seed, **arguments,
        )
    else:
        want, _ = _datagen_oracle(DatagenConfig(**arguments, seed=seed), FlowVersion.V0_2_6)
    _assert_same_graph(dataset.materialize(seed), want)


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize(
    "profile, directed",
    [("talk", None), ("talk", True), ("citation", None), ("citation", True),
     ("coplay", None), ("coplay", False),
     ("social", None), ("social", True), ("social", False)],
)
def test_synthetic_replica(profile, directed, weighted, seed):
    kwargs = dict(directed=directed, weighted=weighted, seed=seed)
    _assert_same_graph(
        synthetic_replica(profile, 300, 1500, **kwargs),
        _replica_oracle(profile, 300, 1500, **kwargs),
    )


def test_named_social_replica():
    _assert_same_graph(
        synthetic_replica("social", 300, 1500, name="friends"),
        _replica_oracle("social", 300, 1500, name="friends"),
    )


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("distribution", ["facebook", "zipf", "uniform"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("cc", [None, 0.1])
def test_generate(cc, weighted, distribution, seed):
    config = DatagenConfig(
        num_persons=300, mean_degree=12.0, target_clustering_coefficient=cc,
        degree_distribution=distribution, weighted=weighted, seed=seed,
    )
    for flow in FlowVersion:
        graph, trace = generate_with_flow(config, flow)
        want, want_trace = _datagen_oracle(config, flow)
        _assert_same_graph(graph, want)
        assert trace == want_trace
