"""SpMV WCC runs the reverse product only on directed graphs.

An undirected graph stores both directions in one CSR, so its reverse
``MIN_FIRST`` product is the forward one again. The oracle below is the
loop that always ran both: labels and iteration counts must equal it
on every catalog graph, through the single-process SpMV engine and the
sharded engine at one and two shards — which drives the same loop, one
superstep per product.
"""

import numpy as np
import pytest

from repro.engines import spmv
from repro.engines.partitioned import PartitionedEngine
from repro.engines.spmv import MIN_FIRST, SpMVEngine
from repro.harness.datasets import dataset_ids, get_dataset
from repro.trace import Tracer, use_tracer

SHARDS = {1: "inline", 2: "pipes"}


def _both_ways_wcc(graph):
    """(labels, iterations) of the formula that always ran both products."""
    engine = SpMVEngine(graph)
    labels = np.arange(graph.num_vertices, dtype=np.float64)
    iterations = 0
    while True:
        candidate = np.minimum(labels, engine.spmv(labels, MIN_FIRST))
        candidate = np.minimum(
            candidate, engine.spmv(labels, MIN_FIRST, reverse=True)
        )
        iterations += 1
        if np.array_equal(candidate, labels):
            break
        labels = candidate
    return graph.vertex_ids[labels.astype(np.int64)], iterations


def _iterations(tracer):
    return sum(
        1 for span in tracer.finished_spans()
        if span.name == "iteration" and span.attributes.get("algorithm") == "wcc"
    )


@pytest.fixture(scope="module")
def catalog():
    return {name: get_dataset(name).materialize(0) for name in dataset_ids()}


def test_catalog_has_both_kinds(catalog):
    assert {graph.directed for graph in catalog.values()} == {True, False}


@pytest.mark.parametrize("name", dataset_ids())
def test_spmv_matches_the_both_ways_formula(catalog, name):
    graph = catalog[name]
    expected, iterations = _both_ways_wcc(graph)
    tracer = Tracer()
    with use_tracer(tracer):
        labels = spmv.run_wcc(graph)
    assert labels.tobytes() == expected.tobytes()
    assert _iterations(tracer) == iterations


@pytest.mark.parametrize("shards", sorted(SHARDS))
def test_partitioned_matches_and_skips_the_repeat(catalog, shards):
    for name in dataset_ids():
        graph = catalog[name]
        expected, iterations = _both_ways_wcc(graph)
        with PartitionedEngine(
            graph, partitions=shards, transport=SHARDS[shards]
        ) as engine:
            labels = engine.run("wcc")
        assert labels.tobytes() == expected.tobytes(), name
        products_per_iteration = 2 if graph.directed else 1
        assert engine.supersteps == iterations * products_per_iteration, name
