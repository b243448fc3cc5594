"""Tests for GraphBuilder and the Graphalytics data-model constraints."""

import pytest

from repro.exceptions import GraphFormatError
from repro.graph.builder import GraphBuilder


class TestVertices:
    def test_add_vertex(self):
        b = GraphBuilder()
        b.add_vertex(3)
        assert b.num_vertices == 1

    def test_add_vertex_idempotent(self):
        b = GraphBuilder()
        b.add_vertex(3).add_vertex(3)
        assert b.num_vertices == 1

    def test_negative_vertex_rejected(self):
        with pytest.raises(GraphFormatError, match="non-negative"):
            GraphBuilder().add_vertex(-1)

    def test_add_vertices_bulk(self):
        b = GraphBuilder().add_vertices([1, 2, 3])
        assert b.num_vertices == 3

    def test_edge_registers_endpoints(self):
        b = GraphBuilder().add_edge(5, 9)
        assert b.num_vertices == 2


class TestEdgeValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            GraphBuilder().add_edge(1, 1)

    def test_duplicate_directed_rejected(self):
        b = GraphBuilder(directed=True).add_edge(0, 1)
        with pytest.raises(GraphFormatError, match="duplicate"):
            b.add_edge(0, 1)

    def test_reverse_directed_edge_is_distinct(self):
        b = GraphBuilder(directed=True).add_edge(0, 1).add_edge(1, 0)
        assert b.num_edges == 2

    def test_reverse_undirected_edge_is_duplicate(self):
        b = GraphBuilder(directed=False).add_edge(0, 1)
        with pytest.raises(GraphFormatError, match="duplicate"):
            b.add_edge(1, 0)

    def test_dedup_mode_drops_duplicates(self):
        b = GraphBuilder(directed=False, dedup=True)
        b.add_edge(0, 1).add_edge(1, 0).add_edge(0, 1)
        assert b.num_edges == 1

    def test_missing_weight_rejected(self):
        with pytest.raises(GraphFormatError, match="missing a weight"):
            GraphBuilder(weighted=True).add_edge(0, 1)

    def test_unexpected_weight_rejected(self):
        with pytest.raises(GraphFormatError, match="unweighted"):
            GraphBuilder(weighted=False).add_edge(0, 1, 2.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphFormatError, match="invalid weight"):
            GraphBuilder(weighted=True).add_edge(0, 1, -3.0)

    def test_nan_weight_rejected(self):
        with pytest.raises(GraphFormatError, match="invalid weight"):
            GraphBuilder(weighted=True).add_edge(0, 1, float("nan"))

    def test_has_edge(self):
        b = GraphBuilder(directed=False).add_edge(0, 1)
        assert b.has_edge(0, 1)
        assert b.has_edge(1, 0)
        assert not b.has_edge(0, 2)


class TestBuild:
    def test_vertex_ids_sorted(self):
        g = GraphBuilder().add_vertices([9, 3, 7]).build()
        assert list(g.vertex_ids) == [3, 7, 9]

    def test_name_applied(self):
        g = GraphBuilder().add_vertex(0).build(name="tiny")
        assert g.name == "tiny"

    def test_weights_carried_through(self):
        g = GraphBuilder(weighted=True).add_edge(0, 1, 2.5).build()
        assert g.is_weighted
        assert g.edge_weights[0] == pytest.approx(2.5)

    def test_bulk_add_edges_with_weights(self):
        b = GraphBuilder(directed=True, weighted=True)
        b.add_edges([(0, 1), (1, 2)], weights=[1.0, 2.0])
        g = b.build()
        assert g.num_edges == 2

    def test_properties_exposed(self):
        b = GraphBuilder(directed=True, weighted=True)
        assert b.directed
        assert b.weighted
