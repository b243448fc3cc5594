"""Tests for the CSR-backed Graph data model."""

import pickle
import re

import numpy as np
import pytest

from repro.exceptions import GraphFormatError
from repro.graph.graph import Graph
from repro.graph.generators import complete_graph, erdos_renyi, path_graph


class TestConstruction:
    def test_from_edges_directed(self):
        g = Graph.from_edges([(0, 1), (1, 2)], directed=True)
        assert g.directed
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_from_edges_undirected(self):
        g = Graph.from_edges([(0, 1), (1, 2)], directed=False)
        assert not g.directed
        assert g.num_edges == 2

    def test_from_edges_with_weights(self):
        g = Graph.from_edges([(0, 1), (1, 2)], directed=True, weights=[0.5, 1.5])
        assert g.is_weighted
        assert np.allclose(sorted(g.edge_weights), [0.5, 1.5])

    def test_isolated_vertices_via_vertices_arg(self):
        g = Graph.from_edges([(0, 1)], directed=False, vertices=[0, 1, 7])
        assert g.num_vertices == 3
        assert g.has_vertex(7)
        assert len(g.out_neighbors(g.index_of(7))) == 0

    def test_sparse_vertex_ids(self):
        g = Graph.from_edges([(100, 2000), (2000, 30000)], directed=True)
        assert g.num_vertices == 3
        assert sorted(g.vertex_ids.tolist()) == [100, 2000, 30000]

    def test_duplicate_vertex_ids_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate vertex"):
            Graph(
                vertex_ids=np.array([1, 1]),
                src=np.array([0]),
                dst=np.array([1]),
                directed=True,
            )

    def test_mismatched_edge_arrays_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(
                vertex_ids=np.array([0, 1]),
                src=np.array([0, 1]),
                dst=np.array([1]),
                directed=True,
            )

    def test_mismatched_weight_length_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(
                vertex_ids=np.array([0, 1]),
                src=np.array([0]),
                dst=np.array([1]),
                directed=True,
                weights=np.array([1.0, 2.0]),
            )

    @pytest.mark.parametrize(
        "n, src, dst, named",
        [
            (3, [0, 1, 0], [1, 5, 2], "edge 1 (1,5)"),  # past the end
            (3, [0, 1, -1], [1, 2, 0], "edge 2 (-1,0)"),  # negative
            (3, [0, 3], [3, 1], "edge 0 (0,3)"),  # packed, 0 -> 3 is 1 -> 0
            (2, [1, 2], [0, 0], "edge 1 (2,0)"),
        ],
    )
    @pytest.mark.parametrize("directed", [True, False])
    def test_endpoint_outside_the_vertices_rejected(self, n, src, dst, named, directed):
        with pytest.raises(GraphFormatError, match=re.escape(named)) as info:
            Graph(
                vertex_ids=np.arange(n),
                src=np.array(src),
                dst=np.array(dst),
                directed=directed,
            )
        assert f"[0, {n})" in str(info.value)

    def test_no_vertices_no_edges(self):
        g = Graph(vertex_ids=np.array([], dtype=np.int64), src=[], dst=[], directed=True)
        assert g.num_vertices == 0 and g.out_indptr.tolist() == [0]
        with pytest.raises(GraphFormatError, match="outside"):
            Graph(vertex_ids=np.array([], dtype=np.int64), src=[0], dst=[0], directed=False)


class TestDataModelGate:
    """``Graph(...)`` is the one place the data model is enforced: no
    self-loop, no duplicate edge and, undirected, no edge next to its
    reverse. The error names the first offending edge in input order."""

    @staticmethod
    def _build(src, dst, *, directed, ids=None):
        n = max(src + dst) + 1
        return Graph(
            vertex_ids=np.arange(n) if ids is None else np.asarray(ids),
            src=np.array(src),
            dst=np.array(dst),
            directed=directed,
        )

    @pytest.mark.parametrize(
        "src, dst, directed, message",
        [
            # (1,0) is another edge when directed
            ([0, 1, 2, 0], [1, 0, 0, 1], True, "edge 3 (0,1) is a duplicate of edge 0 (0,1)"),
            ([0, 2, 1], [1, 0, 0], False, "edge 2 (1,0) is a duplicate of edge 0 (0,1)"),
            # a self-loop before a later duplicate
            ([0, 3, 0], [1, 3, 1], True, "edge 1 (3,3) is a self-loop"),
            ([0, 3, 1], [1, 3, 0], False, "edge 1 (3,3) is a self-loop"),
            # a duplicate before a later self-loop
            ([0, 1, 1, 2], [1, 0, 0, 2], True, "edge 2 (1,0) is a duplicate of edge 1 (1,0)"),
            ([0, 1, 2], [1, 0, 2], False, "edge 1 (1,0) is a duplicate of edge 0 (0,1)"),
        ],
        ids=["directed-duplicate", "undirected-reciprocal", "directed-loop-first",
             "undirected-loop-first", "directed-duplicate-first",
             "undirected-duplicate-first"],
    )
    def test_names_the_first_offending_edge(self, src, dst, directed, message):
        with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
            self._build(src, dst, directed=directed)

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("kind", ["duplicate", "reciprocal", "self-loop"])
    def test_deep_index_and_external_ids(self, directed, kind):
        # A path over sparse ids, with the offence deep in a long list:
        # the message counts edges (not CSR slots) and prints ids.
        m = 5_000
        src, dst = list(range(m)), list(range(1, m + 1))
        bad = {"duplicate": (1234, 1235), "reciprocal": (1235, 1234),
               "self-loop": (4321, 4321)}[kind]
        src.insert(4000, bad[0])
        dst.insert(4000, bad[1])
        ids = 10 * np.arange(m + 1) + 7
        if kind == "reciprocal" and directed:
            assert self._build(src, dst, directed=True, ids=ids).num_edges == m + 1
            return
        expected = {
            "duplicate": "edge 4000 (12347,12357) is a duplicate of edge 1234 (12347,12357)",
            "reciprocal": "edge 4000 (12357,12347) is a duplicate of edge 1234 (12347,12357)",
            "self-loop": "edge 4000 (43217,43217) is a self-loop",
        }[kind]
        with pytest.raises(GraphFormatError, match=f"^{re.escape(expected)}$"):
            self._build(src, dst, directed=directed, ids=ids)

    @pytest.mark.parametrize("directed", [True, False])
    def test_reciprocal_pair_is_two_edges_only_when_directed(self, directed):
        if directed:
            assert self._build([0, 1], [1, 0], directed=True).num_edges == 2
        else:
            with pytest.raises(GraphFormatError, match="duplicate of edge 0"):
                self._build([0, 1], [1, 0], directed=False)


class TestFromEdges:
    """``from_edges`` maps external ids onto ``Graph(...)``, which judges
    the data model."""

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match=r"^edge 0 \(1,1\) is a self-loop$"):
            Graph.from_edges([(1, 1)])

    def test_duplicate_directed_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate of edge 0"):
            Graph.from_edges([(0, 1), (0, 1)], directed=True)

    def test_reverse_directed_edge_is_distinct(self):
        assert Graph.from_edges([(0, 1), (1, 0)], directed=True).num_edges == 2

    def test_reverse_undirected_edge_is_duplicate(self):
        with pytest.raises(GraphFormatError, match="duplicate of edge 0"):
            Graph.from_edges([(0, 1), (1, 0)], directed=False)

    @pytest.mark.parametrize(
        "edges, vertices, named",
        [([(0, 1)], [2, -1, -3], -1), ([(0, 1), (4, -2), (-5, 0)], [7], -2)],
        ids=["listed", "endpoint"],
    )
    def test_negative_vertex_rejected(self, edges, vertices, named):
        # The first negative id in input order: listed vertices, then edges.
        message = f"^vertex id must be non-negative, got {named}$"
        with pytest.raises(GraphFormatError, match=message):
            Graph.from_edges(edges, vertices=vertices)

    @pytest.mark.parametrize("bad", [-3.0, float("nan")])
    def test_negative_and_nan_weight_rejected(self, bad):
        with pytest.raises(GraphFormatError, match="not a finite non-negative number"):
            Graph.from_edges([(0, 1)], weights=[bad])

    @pytest.mark.parametrize("weights", [[1.0], [1.0, 2.0, 3.0, 4.0]], ids=["too-few", "too-many"])
    @pytest.mark.parametrize("directed", [True, False])
    def test_weight_count_must_match_edge_count(self, weights, directed):
        # Too few weights used to drop the unpaired edges (and their
        # vertices); too many were ignored.
        with pytest.raises(GraphFormatError, match="edge weight array length mismatch"):
            Graph.from_edges([(0, 1), (1, 2), (2, 3)], weights=weights, directed=directed)

    def test_edge_registers_endpoints(self):
        assert Graph.from_edges([(5, 9)]).vertex_ids.tolist() == [5, 9]

    def test_repeated_vertex_is_one_vertex(self):
        assert Graph.from_edges([], vertices=[3, 3]).num_vertices == 1

    def test_vertex_ids_sorted(self):
        g = Graph.from_edges([(8, 1)], vertices=[9, 3, 7])
        assert g.vertex_ids.tolist() == [1, 3, 7, 8, 9]

    def test_edges_keep_input_order(self):
        g = Graph.from_edges([(9, 3), (3, 7), (7, 9)], directed=False)
        assert list(g.edges()) == [(9, 3), (3, 7), (7, 9)]

    def test_name_applied(self):
        assert Graph.from_edges([], vertices=[0], name="tiny").name == "tiny"

    def test_weights_carried_through(self):
        g = Graph.from_edges([(0, 1)], weights=[2.5])
        assert g.is_weighted
        assert g.edge_weights[0] == pytest.approx(2.5)

    def test_several_weighted_edges(self):
        g = Graph.from_edges([(0, 1), (1, 2)], directed=True, weights=[2.5, 1.0])
        assert g.num_edges == 2
        assert g.edge_weights.tolist() == [2.5, 1.0]


class TestWeightGate:
    """Weights are finite and non-negative: ``Graph(...)`` refuses any
    other, naming the first offending edge in input order, so SSSP and
    the EVL writer never see one."""

    @staticmethod
    def _build(weights, ids=(10, 20, 30, 40)):
        return Graph(
            vertex_ids=np.asarray(ids), src=np.array([0, 1, 2]), dst=np.array([1, 2, 3]),
            directed=False, weights=np.array(weights),
        )

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([1.0, float("nan"), -1.0], "edge 1 (20,30) has weight nan"),
            ([float("inf"), 0.0, 1.0], "edge 0 (10,20) has weight inf"),
            ([0.0, 1.0, float("-inf")], "edge 2 (30,40) has weight -inf"),
            ([2.0, -0.5, float("nan")], "edge 1 (20,30) has weight -0.5"),
        ],
        ids=["nan", "inf", "-inf", "negative"],
    )
    def test_names_the_first_offending_edge(self, weights, message):
        expected = f"^{re.escape(message)}, not a finite non-negative number$"
        with pytest.raises(GraphFormatError, match=expected):
            self._build(weights)

    def test_zero_negative_zero_subnormal_and_largest_accepted(self):
        weights = [0.0, -0.0, 5e-324]
        assert self._build(weights).edge_weights.tobytes() == np.array(weights).tobytes()
        assert self._build([np.finfo(np.float64).max] * 3).is_weighted

    def test_endpoints_are_judged_first(self):
        with pytest.raises(GraphFormatError, match="outside the dense index range"):
            Graph(vertex_ids=np.arange(2), src=np.array([0]), dst=np.array([2]),
                  directed=True, weights=np.array([float("nan")]))


class TestState:
    """A Graph is arrays and scalars: nothing per vertex lives in Python
    objects, so pickles, cache entries and worker envelopes stay small."""

    @pytest.mark.parametrize("directed", [True, False])
    def test_no_per_vertex_python_container(self, directed):
        g = erdos_renyi(300, 0.02, directed=directed, weighted=True, seed=3)
        for name, value in vars(g).items():
            assert not isinstance(value, (dict, list, set, tuple, frozenset)), name
            assert value is None or isinstance(value, (np.ndarray, str, bool, int)), name

    def test_pickle_round_trip_keeps_lookups(self):
        g = Graph(
            vertex_ids=np.array([50, 7, 900, 3]),
            src=np.array([0, 1, 2]),
            dst=np.array([1, 2, 3]),
            directed=True,
        )
        copy = pickle.loads(pickle.dumps(g))
        assert [copy.index_of(v) for v in (50, 7, 900, 3)] == [0, 1, 2, 3]


class TestIdentity:
    def test_scale_small(self):
        g = path_graph(5)  # 5 vertices + 4 edges = 9 elements
        assert g.scale == pytest.approx(1.0)

    def test_scale_empty_vertexless(self):
        g = Graph.from_edges([], directed=True, vertices=[0])
        assert g.scale == 0.0

    def test_repr_mentions_name_and_counts(self):
        g = path_graph(5)
        text = repr(g)
        assert "path-5" in text
        assert "|V|=5" in text

    def test_name_default_empty(self):
        g = Graph.from_edges([(0, 1)], directed=True)
        assert g.name == ""


class TestIndexMapping:
    def test_roundtrip(self, er_undirected):
        for idx in range(er_undirected.num_vertices):
            assert er_undirected.index_of(er_undirected.id_of(idx)) == idx

    def test_unknown_vertex_raises(self, path5):
        with pytest.raises(GraphFormatError, match="unknown vertex"):
            path5.index_of(999)

    def test_has_vertex(self, path5):
        assert path5.has_vertex(0)
        assert not path5.has_vertex(99)

    def test_unsorted_ids(self):
        ids = [40, 10, 30, 2**62, 0]
        g = Graph(
            vertex_ids=np.array(ids),
            src=np.array([0, 1]),
            dst=np.array([1, 2]),
            directed=True,
        )
        assert [g.index_of(v) for v in ids] == [0, 1, 2, 3, 4]
        for absent in (-1, 5, 20, 35, 41, 2**62 + 1, 2**63, -(2**64)):
            assert not g.has_vertex(absent)
            with pytest.raises(GraphFormatError, match="unknown vertex"):
                g.index_of(absent)

    def test_duplicate_among_unsorted_ids_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate vertex"):
            Graph(vertex_ids=np.array([5, 1, 5]), src=[], dst=[], directed=True)

    def test_lookup_accepts_numpy_integers(self, path5):
        assert path5.index_of(np.int64(3)) == 3
        assert path5.has_vertex(np.uint64(4))

    def test_vertex_ids_read_only(self, path5):
        with pytest.raises(ValueError):
            path5.vertex_ids[0] = 42


class TestAdjacency:
    def test_out_neighbors_sorted(self, er_directed):
        for v in range(er_directed.num_vertices):
            nb = er_directed.out_neighbors(v)
            assert np.all(np.diff(nb) > 0)

    def test_in_out_consistency_directed(self, er_directed):
        # u in out(v)  <=>  v in in(u)
        for v in range(er_directed.num_vertices):
            for u in er_directed.out_neighbors(v):
                assert v in er_directed.in_neighbors(int(u))

    def test_undirected_symmetry(self, er_undirected):
        for v in range(er_undirected.num_vertices):
            for u in er_undirected.out_neighbors(v):
                assert v in er_undirected.out_neighbors(int(u))

    def test_undirected_in_is_out(self, er_undirected):
        assert er_undirected.in_indptr is er_undirected.out_indptr
        assert er_undirected.in_indices is er_undirected.out_indices

    def test_degree_sums(self, er_directed):
        assert er_directed.out_degrees().sum() == er_directed.num_edges
        assert er_directed.in_degrees().sum() == er_directed.num_edges

    def test_undirected_degree_sum_is_twice_edges(self, er_undirected):
        assert er_undirected.out_degrees().sum() == 2 * er_undirected.num_edges

    def test_total_degrees_directed(self, er_directed):
        expected = er_directed.out_degrees() + er_directed.in_degrees()
        assert np.array_equal(er_directed.degrees(), expected)

    def test_has_edge(self, path5):
        assert path5.has_edge(path5.index_of(0), path5.index_of(1))
        assert not path5.has_edge(path5.index_of(0), path5.index_of(3))

    def test_has_edge_directed_one_way(self):
        g = Graph.from_edges([(0, 1)], directed=True)
        assert g.has_edge(g.index_of(0), g.index_of(1))
        assert not g.has_edge(g.index_of(1), g.index_of(0))

    def test_out_edges_weights_aligned(self, er_weighted):
        nbrs, weights = er_weighted.out_edges(0)
        assert len(nbrs) == len(weights)

    def test_csr_weights_match_edge_list(self, er_weighted):
        # Every CSR slot weight must equal the weight of its logical edge.
        g = er_weighted
        lookup = {}
        for k in range(g.num_edges):
            key = (int(g.edge_src[k]), int(g.edge_dst[k]))
            lookup[key] = float(g.edge_weights[k])
            lookup[key[::-1]] = float(g.edge_weights[k])
        for v in range(g.num_vertices):
            nbrs, weights = g.out_edges(v)
            for u, w in zip(nbrs, weights):
                assert lookup[(v, int(u))] == pytest.approx(float(w))


class TestEdgesIterator:
    def test_yields_external_ids(self):
        g = Graph.from_edges([(100, 200)], directed=True)
        assert list(g.edges()) == [(100, 200)]

    def test_count(self, er_undirected):
        assert len(list(er_undirected.edges())) == er_undirected.num_edges


class TestToUndirected:
    def test_collapses_reciprocal_edges(self):
        g = Graph.from_edges([(0, 1), (1, 0), (1, 2)], directed=True)
        u = g.to_undirected()
        assert not u.directed
        assert u.num_edges == 2

    def test_undirected_is_identity(self, er_undirected):
        assert er_undirected.to_undirected() is er_undirected

    def test_preserves_vertices(self):
        g = Graph.from_edges([(0, 1)], directed=True, vertices=[0, 1, 5])
        assert g.to_undirected().num_vertices == 3


class TestSubgraph:
    def test_induced_edges(self, k4):
        sub = k4.subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 3  # triangle

    def test_drops_external_edges(self, path5):
        sub = path5.subgraph([path5.index_of(0), path5.index_of(4)])
        assert sub.num_edges == 0

    def test_keeps_weights(self, er_weighted):
        idx = list(range(30))
        sub = er_weighted.subgraph(idx)
        assert sub.is_weighted

    def test_complete_subgraph_of_complete(self):
        sub = complete_graph(6).subgraph(range(4))
        assert sub.num_edges == 6
