"""The pipes transport on ``repro.proc``: what a shard counted and how it
failed both reach the coordinator (shard counters used to be shipped
and dropped; the fail envelope used to omit them); the arrays a pipe
delivers carry numpy's own dtype instances, so the products stay on
numpy's fast paths; and LCC's shards split the triangle pairs between
them instead of each enumerating all of them."""

import pickle

import numpy as np
import pytest

from repro.algorithms.lcc import local_clustering_coefficient
from repro.engines.partitioned import (
    PartitionedEngine,
    ShardFailure,
    run_bfs,
    shard,
)
from repro.engines.spmv import SpMVEngine
from repro.trace import Tracer, current_tracer, use_tracer

ALGORITHMS = ("bfs", "sssp", "wcc", "cdlp", "pr", "lcc")


def _params(graph, algorithm):
    source = {"source_vertex": int(graph.vertex_ids[0])}
    return {
        "bfs": source, "sssp": source,
        "cdlp": {"iterations": 5}, "pr": {"iterations": 10},
    }.get(algorithm, {})


def _is_canonical(array):
    return array.dtype is np.dtype(array.dtype.char)


def test_shard_counters_reach_the_coordinator(er_undirected, monkeypatch):
    original = shard.apply_product

    def counting(block, product):
        current_tracer().counter("shard.commands")
        return original(block, product)

    # Shards are forked from this process, so they inherit the patch.
    monkeypatch.setattr(shard, "apply_product", counting)
    tracer = Tracer()
    with use_tracer(tracer):
        run_bfs(er_undirected, 0, partitions=2, transport="pipes")
    computes = [
        s for s in tracer.finished_spans() if s.name == "shard-compute"
    ]
    assert computes
    assert tracer.counters["shard.commands"] == len(computes)


def test_failing_shard_ships_counters_with_its_failure(
    er_undirected, monkeypatch
):
    def failing(block, product):
        current_tracer().counter("shard.before-failure")
        raise RuntimeError("shard bug")

    monkeypatch.setattr(shard, "apply_product", failing)
    tracer = Tracer()
    with use_tracer(tracer), pytest.raises(
        ShardFailure, match="RuntimeError: shard bug"
    ):
        run_bfs(er_undirected, 0, partitions=2, transport="pipes")
    assert tracer.counters["shard.before-failure"] >= 1
    failed = [
        s for s in tracer.finished_spans()
        if s.name == "shard-compute" and s.status == "error"
    ]
    assert failed


@pytest.mark.parametrize("graph_from", ["generator", "pickle"])
def test_products_see_numpy_own_dtypes(er_weighted, monkeypatch, graph_from):
    """An unpickled array's dtype equals ``float64`` but is a copy, and
    ``np.minimum.at`` / ``np.maximum.at`` leave their fast path on it.
    No product may see one: not the state a shard receives, and not on
    a graph that itself came out of a pickle (a pool worker or service
    run child reads graphs from the disk cache that way)."""
    graph = er_weighted
    if graph_from == "pickle":
        graph = pickle.loads(pickle.dumps(graph))
    for name in ("spmv", "label_mode"):
        original = getattr(SpMVEngine, name)

        def counting(self, array, *args, _original=original, **kwargs):
            tracer = current_tracer()
            tracer.counter("products")
            if not _is_canonical(array):
                tracer.counter("products.copied-dtype")
            return _original(self, array, *args, **kwargs)

        # Shards are forked from this process, so they inherit the patch.
        monkeypatch.setattr(SpMVEngine, name, counting)
    tracer = Tracer()
    with use_tracer(tracer), PartitionedEngine(
        graph, partitions=2, transport="pipes"
    ) as engine:
        for algorithm in ALGORITHMS:
            engine.run(algorithm, _params(graph, algorithm))
    assert tracer.counters["products"] >= 1
    assert tracer.counters.get("products.copied-dtype", 0) == 0


def test_pipes_outputs_carry_numpy_own_dtypes(er_weighted):
    with PartitionedEngine(
        er_weighted, partitions=2, transport="pipes"
    ) as engine:
        for algorithm in ALGORITHMS:
            output = engine.run(algorithm, _params(er_weighted, algorithm))
            assert _is_canonical(output), algorithm


@pytest.mark.parametrize("transport", ["inline", "pipes"])
@pytest.mark.parametrize("partitions", [2, 3])
def test_lcc_shards_split_the_pairs(er_undirected, transport, partitions):
    """Each triangle pair is enumerated by the one shard owning its
    tail: the shards' ``lcc.pairs`` add up to the single-process count
    (it would be ``partitions`` times that if each counted them all)."""
    whole = Tracer()
    with use_tracer(whole):
        expected = local_clustering_coefficient(er_undirected)
    sharded = Tracer()
    with use_tracer(sharded), PartitionedEngine(
        er_undirected, partitions=partitions, transport=transport
    ) as engine:
        output = engine.run("lcc")
    assert output.tobytes() == expected.tobytes()
    assert whole.counters["lcc.pairs"] > 0
    assert sharded.counters["lcc.pairs"] == whole.counters["lcc.pairs"]
