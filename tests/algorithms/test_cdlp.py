"""Tests for community detection using label propagation."""

import numpy as np
import pytest

from repro.exceptions import GenerationError
from repro.algorithms.cdlp import community_detection_lp
from repro.graph.graph import Graph


def two_cliques_with_bridge(k=5):
    """Two k-cliques {0..k-1} and {k..2k-1} joined by one edge."""
    edges = [
        (base + i, base + j) for base in (0, k) for i in range(k) for j in range(i + 1, k)
    ]
    return Graph.from_edges(edges + [(k - 1, k)], directed=False)


class TestCommunityStructure:
    def test_two_cliques_found(self):
        g = two_cliques_with_bridge(5)
        labels = community_detection_lp(g, iterations=10)
        first = {labels[g.index_of(v)] for v in range(5)}
        second = {labels[g.index_of(v)] for v in range(5, 10)}
        assert len(first) == 1
        assert len(second) == 1
        assert first != second

    def test_clique_label_is_min_id(self):
        g = two_cliques_with_bridge(5)
        labels = community_detection_lp(g, iterations=10)
        assert labels[g.index_of(0)] == 0

    def test_isolated_vertex_keeps_own_label(self):
        g = Graph.from_edges([(0, 1)], directed=False, vertices=[0, 1, 7])
        labels = community_detection_lp(g, iterations=5)
        assert labels[g.index_of(7)] == 7

    def test_zero_iterations_identity(self, er_undirected):
        labels = community_detection_lp(er_undirected, iterations=0)
        assert np.array_equal(labels, er_undirected.vertex_ids)


class TestDeterminism:
    def test_repeatable(self, er_undirected):
        a = community_detection_lp(er_undirected, iterations=8)
        b = community_detection_lp(er_undirected, iterations=8)
        assert np.array_equal(a, b)

    def test_tie_break_is_min_label(self):
        # Vertex 2 hears labels {0, 1}, one neighbor each: must pick 0.
        g = Graph.from_edges([(0, 2), (1, 2)], directed=False)
        labels = community_detection_lp(g, iterations=1)
        assert labels[g.index_of(2)] == 0

    def test_single_iteration_star(self):
        # After one synchronous round on a star, the hub adopts the
        # smallest leaf label and every leaf adopts the hub's label.
        g = Graph.from_edges([(5, 1), (5, 2), (5, 3)], directed=False)
        labels = community_detection_lp(g, iterations=1)
        assert labels[g.index_of(5)] == 1
        for leaf in (1, 2, 3):
            assert labels[g.index_of(leaf)] == 5


class TestDirected:
    def test_hears_both_directions(self):
        # 0 -> 2 and 2 -> 1: vertex 2 hears in-neighbor 0 and
        # out-neighbor 1; min-frequency tie-break picks label 0.
        g = Graph.from_edges([(0, 2), (2, 1)], directed=True)
        labels = community_detection_lp(g, iterations=1)
        assert labels[g.index_of(2)] == 0

    def test_bidirectional_counts_twice(self):
        # Vertex 3 has a bidirectional link to 9 (counts twice) and
        # single links from 0 and 1: label 9 wins with count 2.
        g = Graph.from_edges([(3, 9), (9, 3), (0, 3), (1, 3)], directed=True)
        labels = community_detection_lp(g, iterations=1)
        assert labels[g.index_of(3)] == 9


class TestParameters:
    def test_negative_iterations(self, er_undirected):
        with pytest.raises(GenerationError):
            community_detection_lp(er_undirected, iterations=-2)

    def test_empty_graph(self):
        g = Graph.from_edges([], directed=False, vertices=[])
        assert len(community_detection_lp(g)) == 0

    def test_early_convergence_stops(self):
        # A clique converges in 2 rounds; 100 iterations must give the
        # same answer (the loop exits at the fixpoint).
        g = two_cliques_with_bridge(4)
        a = community_detection_lp(g, iterations=3)
        b = community_detection_lp(g, iterations=100)
        assert np.array_equal(a, b)
