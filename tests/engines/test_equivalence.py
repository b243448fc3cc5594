"""Cross-model equivalence: one abstract algorithm, three programming
models, identical output (paper §2.2.3 + requirement R1).

Every engine's implementation of every applicable algorithm must pass
the Graphalytics validation rules against the reference kernels, on
directed, undirected, and weighted graphs, plus arbitrary hypothesis-
generated graphs.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.algorithms.bfs import breadth_first_search
from repro.algorithms.cdlp import community_detection_lp
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import single_source_shortest_paths
from repro.algorithms.validation import validate_output
from repro.algorithms.wcc import weakly_connected_components
from repro.exceptions import GraphFormatError
from repro.graph.graph import Graph

from tests.algorithms.test_properties import random_graphs
from tests.engines.conftest import ENGINES


class TestBfs:
    def test_undirected(self, engine, er_undirected):
        source = int(er_undirected.vertex_ids[0])
        validate_output(
            "bfs",
            engine.run_bfs(er_undirected, source),
            breadth_first_search(er_undirected, source),
        )

    def test_directed(self, engine, er_directed):
        source = int(er_directed.vertex_ids[0])
        validate_output(
            "bfs",
            engine.run_bfs(er_directed, source),
            breadth_first_search(er_directed, source),
        )

    def test_disconnected(self, engine, two_triangles):
        validate_output(
            "bfs",
            engine.run_bfs(two_triangles, 0),
            breadth_first_search(two_triangles, 0),
        )

    def test_unknown_source(self, engine, er_undirected):
        with pytest.raises(GraphFormatError):
            engine.run_bfs(er_undirected, 99999)


class TestSssp:
    def test_weighted(self, engine, er_weighted):
        source = int(er_weighted.vertex_ids[0])
        validate_output(
            "sssp",
            engine.run_sssp(er_weighted, source),
            single_source_shortest_paths(er_weighted, source),
        )

    def test_unweighted_rejected(self, engine, er_undirected):
        with pytest.raises(GraphFormatError):
            engine.run_sssp(er_undirected, 0)


class TestWcc:
    def test_undirected(self, engine, er_undirected):
        assert np.array_equal(
            engine.run_wcc(er_undirected),
            weakly_connected_components(er_undirected),
        )

    def test_directed_ignores_direction(self, engine, er_directed):
        assert np.array_equal(
            engine.run_wcc(er_directed),
            weakly_connected_components(er_directed),
        )

    def test_ids_beyond_float64_precision_stay_distinct(self, engine):
        # 2**53 and 2**53 + 1 are the same float64: an engine that
        # carries the ids themselves as floats merges the components.
        base = 2 ** 53
        graph = Graph.from_edges(
            [(base + 1, base + 2)], directed=False, vertices=[base, base + 1, base + 2]
        )
        labels = engine.run_wcc(graph)
        assert labels.tolist() == [base, base + 1, base + 1]
        assert np.array_equal(labels, weakly_connected_components(graph))


class TestCdlp:
    @pytest.mark.parametrize("iterations", [1, 3, 10])
    def test_undirected(self, engine, er_undirected, iterations):
        assert np.array_equal(
            engine.run_cdlp(er_undirected, iterations),
            community_detection_lp(er_undirected, iterations=iterations),
        )

    def test_directed(self, engine, er_directed):
        assert np.array_equal(
            engine.run_cdlp(er_directed, 5),
            community_detection_lp(er_directed, iterations=5),
        )


class TestPagerank:
    def test_matches_reference_closely(self, engine, er_undirected):
        ours = engine.run_pagerank(er_undirected, 25)
        reference = pagerank(er_undirected, iterations=25)
        assert np.allclose(ours, reference, rtol=1e-10)

    def test_with_dangling_vertices(self, engine, er_directed):
        ours = engine.run_pagerank(er_directed, 25)
        reference = pagerank(er_directed, iterations=25)
        assert np.allclose(ours, reference, rtol=1e-10)

    def test_sums_to_one(self, engine, er_directed):
        assert engine.run_pagerank(er_directed, 20).sum() == pytest.approx(
            1.0, abs=1e-9
        )


class TestPropertyEquivalence:
    """Hypothesis sweeps: every engine on arbitrary graphs."""

    @settings(max_examples=20, deadline=None)
    @given(random_graphs(max_vertices=16))
    def test_bfs_all_engines(self, graph):
        source = int(graph.vertex_ids[0])
        reference = breadth_first_search(graph, source)
        for engine in ENGINES.values():
            assert np.array_equal(engine.run_bfs(graph, source), reference)

    @settings(max_examples=20, deadline=None)
    @given(random_graphs(max_vertices=16))
    def test_wcc_all_engines(self, graph):
        reference = weakly_connected_components(graph)
        for engine in ENGINES.values():
            assert np.array_equal(engine.run_wcc(graph), reference)

    @settings(max_examples=15, deadline=None)
    @given(random_graphs(max_vertices=14, weighted=True))
    def test_sssp_all_engines(self, graph):
        source = int(graph.vertex_ids[0])
        reference = single_source_shortest_paths(graph, source)
        for engine in ENGINES.values():
            result = engine.run_sssp(graph, source)
            assert np.array_equal(np.isinf(result), np.isinf(reference))
            assert np.allclose(
                result[np.isfinite(result)], reference[np.isfinite(reference)]
            )

    @settings(max_examples=15, deadline=None)
    @given(random_graphs(max_vertices=14))
    def test_cdlp_all_engines(self, graph):
        reference = community_detection_lp(graph, iterations=4)
        for engine in ENGINES.values():
            assert np.array_equal(engine.run_cdlp(graph, 4), reference)
