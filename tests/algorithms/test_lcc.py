"""Tests for the local clustering coefficient."""

import numpy as np
import pytest

from repro.algorithms.lcc import local_clustering_coefficient
from repro.graph.generators import complete_graph, path_graph, star_graph
from repro.graph.graph import Graph


class TestAnalyticCases:
    def test_complete_graph_all_ones(self):
        assert np.allclose(local_clustering_coefficient(complete_graph(5)), 1.0)

    def test_star_all_zero(self):
        assert np.all(local_clustering_coefficient(star_graph(8)) == 0.0)

    def test_path_all_zero(self):
        assert np.all(local_clustering_coefficient(path_graph(6)) == 0.0)

    def test_degree_below_two_is_zero(self):
        g = Graph.from_edges([(0, 1)], directed=False, vertices=[0, 1, 2])
        assert np.all(local_clustering_coefficient(g) == 0.0)

    def test_triangle_plus_pendant(self):
        # Vertex 0 is in a triangle {0,1,2} and has pendant 3:
        # N(0) = {1,2,3}, links among them = 1 edge = 2 ordered pairs,
        # lcc(0) = 2 / (3*2) = 1/3.
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3)], directed=False)
        lcc = local_clustering_coefficient(g)
        assert lcc[g.index_of(0)] == pytest.approx(1 / 3)
        assert lcc[g.index_of(1)] == pytest.approx(1.0)
        assert lcc[g.index_of(3)] == 0.0

    def test_values_in_unit_interval(self, er_undirected):
        lcc = local_clustering_coefficient(er_undirected)
        assert np.all(lcc >= 0.0)
        assert np.all(lcc <= 1.0)

    def test_empty_graph(self):
        g = Graph.from_edges([], directed=False, vertices=[])
        assert len(local_clustering_coefficient(g)) == 0


class TestDirected:
    def test_directed_triangle(self):
        # Cycle 0->1->2->0: N(v) unions in+out = 2 neighbors; among them
        # exactly one directed edge exists; lcc = 1/(2*1) = 0.5.
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)], directed=True)
        assert np.allclose(local_clustering_coefficient(g), 0.5)

    def test_directed_triangle_with_reciprocal(self):
        # Adding the reverse edge 1->0 doesn't change neighborhoods but
        # adds one more edge among N(2) = {0,1}: lcc(2) = 2/2 = 1.
        g = Graph.from_edges([(0, 1), (1, 0), (1, 2), (2, 0)], directed=True)
        lcc = local_clustering_coefficient(g)
        assert lcc[g.index_of(2)] == pytest.approx(1.0)

    def test_matches_networkx_on_directed(self, er_directed, nx_converter):
        # networkx's directed clustering (Fagiolo) differs from the
        # Graphalytics definition, but both agree on the zero set.
        import networkx as nx

        ours = local_clustering_coefficient(er_directed)
        theirs = nx.clustering(nx_converter(er_directed))
        for idx in range(er_directed.num_vertices):
            vid = er_directed.id_of(idx)
            if theirs[vid] == 0:
                assert ours[idx] == 0.0


class TestAgainstNetworkx:
    def test_matches_networkx_undirected(self, er_undirected, nx_converter):
        import networkx as nx

        ours = local_clustering_coefficient(er_undirected)
        expected = nx.clustering(nx_converter(er_undirected))
        for idx in range(er_undirected.num_vertices):
            assert ours[idx] == pytest.approx(
                expected[er_undirected.id_of(idx)], abs=1e-12
            )
