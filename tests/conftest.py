"""Shared fixtures for the test suite."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.engines.partitioned import undeploy
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.graph import Graph


@pytest.fixture(autouse=True)
def no_deployment_outlives_its_test():
    """Shard deployments are per-process state that lives until the next
    graph (or exit): a test must not start on its predecessor's."""
    yield
    undeploy()


@pytest.fixture
def fresh_python():
    """Run a script in a new interpreter on this checkout's ``src``.

    Returns the JSON value of the script's last line of output, so a
    test can count what a cold process imports, never what this one
    already holds.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run(script: str, *args: str):
        completed = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script), *args],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        return json.loads(completed.stdout.splitlines()[-1])

    return run


@pytest.fixture
def path5():
    return path_graph(5)


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def star6():
    return star_graph(6)


@pytest.fixture
def cycle8():
    return cycle_graph(8)


@pytest.fixture
def grid4x5():
    return grid_graph(4, 5)


@pytest.fixture
def er_undirected():
    """A seeded 60-vertex undirected random graph."""
    return erdos_renyi(60, 0.10, seed=11)


@pytest.fixture
def er_directed():
    """A seeded 60-vertex directed random graph."""
    return erdos_renyi(60, 0.06, directed=True, seed=13)


@pytest.fixture
def er_weighted():
    """A seeded weighted undirected random graph."""
    return erdos_renyi(60, 0.10, weighted=True, seed=17)


@pytest.fixture
def two_triangles():
    """Two disconnected triangles: {0,1,2} and {10,11,12}."""
    edges = [(0, 1), (1, 2), (0, 2), (10, 11), (11, 12), (10, 12)]
    return Graph.from_edges(edges, directed=False, name="two-triangles")


def to_networkx(graph):
    """Convert a repro Graph to a networkx graph (test oracle)."""
    import networkx as nx

    g = nx.DiGraph() if graph.directed else nx.Graph()
    g.add_nodes_from(int(v) for v in graph.vertex_ids)
    weights = graph.edge_weights
    for k in range(graph.num_edges):
        s = int(graph.vertex_ids[graph.edge_src[k]])
        d = int(graph.vertex_ids[graph.edge_dst[k]])
        if weights is not None:
            g.add_edge(s, d, weight=float(weights[k]))
        else:
            g.add_edge(s, d)
    return g


@pytest.fixture
def nx_converter():
    return to_networkx
