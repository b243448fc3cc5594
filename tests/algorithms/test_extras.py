"""Tests for the extension algorithms (global metrics)."""

import numpy as np
import pytest

from repro.exceptions import GraphFormatError
from tests.algorithms.extras import (
    assortativity,
    average_clustering_coefficient,
    degree_distribution,
    diameter,
    estimate_diameter,
    triangle_count,
)
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.graph.graph import Graph


class TestTriangleCount:
    def test_complete_graph(self):
        # K5 has C(5,3) = 10 triangles.
        assert triangle_count(complete_graph(5)) == 10

    def test_triangle(self):
        assert triangle_count(cycle_graph(3)) == 1

    def test_square_has_none(self):
        assert triangle_count(cycle_graph(4)) == 0

    def test_star_has_none(self):
        assert triangle_count(star_graph(10)) == 0

    def test_directed_cycle_counts_as_triangle(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)], directed=True)
        assert triangle_count(g) == 1

    def test_matches_networkx(self, er_undirected, nx_converter):
        import networkx as nx

        ours = triangle_count(er_undirected)
        theirs = sum(nx.triangles(nx_converter(er_undirected)).values()) // 3
        assert ours == theirs

    def test_consistent_with_lcc(self, er_undirected):
        # Sum over vertices of lcc(v)*d(v)*(d(v)-1) equals 6*T for
        # undirected graphs (each triangle counted twice at 3 vertices).
        from repro.algorithms.lcc import local_clustering_coefficient

        lcc = local_clustering_coefficient(er_undirected)
        degrees = er_undirected.degrees().astype(float)
        links = (lcc * degrees * (degrees - 1)).sum()
        assert links == pytest.approx(6 * triangle_count(er_undirected))


class TestDiameter:
    def test_path(self):
        assert diameter(path_graph(7)) == 6

    def test_cycle(self):
        assert diameter(cycle_graph(8)) == 4

    def test_complete(self):
        assert diameter(complete_graph(5)) == 1

    def test_star(self):
        assert diameter(star_graph(6)) == 2

    def test_disconnected_uses_largest_finite(self, two_triangles):
        assert diameter(two_triangles) == 1

    def test_empty_rejected(self):
        empty = Graph.from_edges([], directed=False, vertices=[])
        with pytest.raises(GraphFormatError):
            diameter(empty)

    def test_directed_measured_undirected(self):
        g = Graph.from_edges([(0, 1), (2, 1)], directed=True)
        assert diameter(g) == 2

    def test_matches_networkx(self, grid4x5, nx_converter):
        import networkx as nx

        assert diameter(grid4x5) == nx.diameter(nx_converter(grid4x5))


class TestEstimateDiameter:
    def test_exact_on_trees(self):
        from repro.graph.generators import binary_tree

        tree = binary_tree(4)
        assert estimate_diameter(tree, seed=1) == diameter(tree)

    def test_lower_bound(self, er_undirected):
        assert estimate_diameter(er_undirected, seed=2) <= diameter(er_undirected)

    def test_usually_tight_on_random_graphs(self, er_undirected):
        est = estimate_diameter(er_undirected, sweeps=6, seed=3)
        assert est >= diameter(er_undirected) - 1

    def test_deterministic(self, er_undirected):
        a = estimate_diameter(er_undirected, seed=5)
        b = estimate_diameter(er_undirected, seed=5)
        assert a == b


class TestClusteringAndDegrees:
    def test_average_cc_complete(self):
        assert average_clustering_coefficient(complete_graph(4)) == 1.0

    def test_degree_distribution_star(self):
        dist = degree_distribution(star_graph(5))
        assert dist == {1: 5, 5: 1}

    def test_degree_distribution_sums_to_vertices(self, er_undirected):
        dist = degree_distribution(er_undirected)
        assert sum(dist.values()) == er_undirected.num_vertices


class TestAssortativity:
    def test_star_is_disassortative(self):
        assert assortativity(star_graph(10)) < -0.5

    def test_regular_graph_degenerate(self):
        assert assortativity(cycle_graph(8)) == 0.0

    def test_no_edges(self):
        g = Graph.from_edges([], directed=False, vertices=[0, 1])
        assert assortativity(g) == 0.0

    def test_matches_networkx(self, er_undirected, nx_converter):
        import networkx as nx

        ours = assortativity(er_undirected)
        theirs = nx.degree_assortativity_coefficient(
            nx_converter(er_undirected)
        )
        assert ours == pytest.approx(theirs, abs=0.05)
