"""Exact oracles for the three rewritten reference kernels.

The CDLP, LCC and SSSP kernels were replaced by faster formulations
(sort-once label mode with an active set, oriented triangle counting,
frontier relaxation). The implementations they replaced live on here —
the double-lexsort label reduce, the per-vertex neighborhood
intersection — as the obviously-correct oracles the new kernels must
match **byte for byte**; heap Dijkstra stayed in the library as
``variants.sssp_dijkstra`` and is SSSP's oracle. Equality is
``tobytes()``, never a tolerance: the rewrites change how the answer is
computed, not one bit of it.
"""

import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.algorithms.bfs import breadth_first_search
from repro.algorithms.cdlp import _most_frequent_min_label, community_detection_lp
from repro.algorithms.lcc import (
    lcc_counts,
    lcc_from_counts,
    local_clustering_coefficient,
)
from repro.algorithms.sssp import SSSP_UNREACHABLE, single_source_shortest_paths
from tests.algorithms.variants import bfs_queue, sssp_dijkstra
from repro.exceptions import GraphFormatError
from repro.graph.graph import Graph
from repro.harness.datasets import get_dataset

from tests.algorithms.test_properties import random_graphs


# -- the retired implementations ---------------------------------------------


def _label_mode_oracle(n, receivers, labels_in):
    """The retired reduce: lexsort, run-length encode, lexsort again."""
    result = np.full(n, -1, dtype=np.int64)
    if len(receivers) == 0:
        return result
    order = np.lexsort((labels_in, receivers))
    recv = receivers[order]
    labs = labels_in[order]
    boundary = np.empty(len(recv), dtype=bool)
    boundary[0] = True
    boundary[1:] = (recv[1:] != recv[:-1]) | (labs[1:] != labs[:-1])
    starts = np.nonzero(boundary)[0]
    counts = np.diff(np.append(starts, len(recv)))
    group_recv = recv[starts]
    group_lab = labs[starts]
    pick = np.lexsort((group_lab, -counts, group_recv))
    sorted_recv = group_recv[pick]
    first = np.empty(len(pick), dtype=bool)
    first[0] = True
    first[1:] = sorted_recv[1:] != sorted_recv[:-1]
    winners = pick[first]
    result[group_recv[winners]] = group_lab[winners]
    return result


def _cdlp_oracle(graph, iterations):
    """The retired kernel: external ids as labels, every slot every round."""
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    senders = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.out_indptr))
    receivers = graph.out_indices
    if graph.directed:
        in_sources = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(graph.in_indptr)
        )
        senders = np.concatenate([senders, in_sources])
        receivers = np.concatenate([receivers, graph.in_indices])
    labels = graph.vertex_ids.astype(np.int64).copy()
    for _ in range(iterations):
        heard = _label_mode_oracle(n, receivers, labels[senders])
        updated = labels.copy()
        updated[heard >= 0] = heard[heard >= 0]
        labels = updated
    return labels


def _lcc_oracle(graph):
    """The retired kernel: per vertex, intersect the neighborhood with
    its members' out-lists."""
    n = graph.num_vertices
    result = np.zeros(n, dtype=np.float64)
    out_indptr, out_indices = graph.out_indptr, graph.out_indices
    in_indptr, in_indices = graph.in_indptr, graph.in_indices
    for v in range(n):
        neighborhood = out_indices[out_indptr[v]:out_indptr[v + 1]]
        if graph.directed:
            neighborhood = np.union1d(
                neighborhood, in_indices[in_indptr[v]:in_indptr[v + 1]]
            )
        neighborhood = neighborhood[neighborhood != v]
        d = len(neighborhood)
        if d < 2:
            continue
        candidates = np.concatenate(
            [out_indices[out_indptr[u]:out_indptr[u + 1]] for u in neighborhood]
        )
        links = int(np.isin(candidates, neighborhood).sum())
        result[v] = links / (d * (d - 1))
    return result


# -- graphs ------------------------------------------------------------------

#: One miniature per catalog family: real directed / undirected /
#: weighted, Datagen, Graph500, and the dense directed replica.
CATALOG_FAMILIES = ("R1", "R2", "R4", "D100", "G22", "R6")

BIG = 1 << 53


def _shuffled_big_id_graph(directed):
    """Vertex ids >= 2**53 that collide as float64 and whose dense order
    is not id order (``subgraph`` keeps the order it is given)."""
    pairs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3),
             (6, 7), (1, 0), (5, 8), (8, 6)]
    if not directed:
        pairs.remove((1, 0))  # the reverse of (0, 1)
    edges = [(BIG + a, BIG + b) for a, b in pairs]
    graph = Graph.from_edges(edges, directed=directed).subgraph([7, 2, 8, 0, 5, 3, 1, 6, 4])
    assert not np.array_equal(graph.vertex_ids, np.sort(graph.vertex_ids))
    return graph


def _degenerate_graphs():
    return {
        "empty": Graph.from_edges([], directed=False, vertices=[]),
        "single-vertex": Graph.from_edges([], directed=True, vertices=[5]),
        "isolated-vertices": Graph.from_edges(
            [(1, 2), (2, 3), (1, 3)], directed=False, vertices=[0, 1, 2, 3, 9, 11]
        ),
        "edgeless": Graph.from_edges([], directed=False, vertices=[3, 1, 2]),
        # 3 <-> 9 counts twice at both ends, in CDLP and in LCC.
        "bidirectional-pair": Graph.from_edges(
            [(3, 9), (9, 3), (0, 3), (1, 3), (0, 9), (1, 0)], directed=True
        ),
        "big-ids-undirected": _shuffled_big_id_graph(False),
        "big-ids-directed": _shuffled_big_id_graph(True),
    }


DEGENERATE = _degenerate_graphs()


def _degenerate():
    """One of the degenerate graphs, as a strategy."""
    return st.sampled_from(sorted(DEGENERATE)).map(DEGENERATE.__getitem__)


@st.composite
def _multigraphs(draw):
    """Edge lists with duplicate edges and self-loops, over dense ids or
    ids >= 2**53, as ``Graph`` keyword arguments."""
    n = draw(st.integers(min_value=1, max_value=12))
    end = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(end, end), max_size=40))
    base = draw(st.sampled_from([0, BIG]))
    return dict(
        vertex_ids=base + np.arange(n, dtype=np.int64),
        src=np.array([s for s, _ in edges], dtype=np.int64),
        dst=np.array([d for _, d in edges], dtype=np.int64),
        directed=draw(st.booleans()),
    )


def _weighted(graph, weights):
    return Graph(
        vertex_ids=graph.vertex_ids, src=graph.edge_src, dst=graph.edge_dst,
        directed=graph.directed, weights=weights,
    )


# -- CDLP --------------------------------------------------------------------


class TestCdlpAgainstRetiredKernel:
    @settings(max_examples=80, deadline=None)
    @given(random_graphs(), st.integers(min_value=0, max_value=6))
    def test_random_graphs(self, graph, iterations):
        new = community_detection_lp(graph, iterations=iterations)
        assert new.dtype == np.int64
        assert new.tobytes() == _cdlp_oracle(graph, iterations).tobytes()

    @pytest.mark.parametrize("dataset", CATALOG_FAMILIES)
    def test_catalog_families(self, dataset):
        graph = get_dataset(dataset).materialize()
        assert community_detection_lp(graph, iterations=10).tobytes() == \
            _cdlp_oracle(graph, 10).tobytes()

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    @pytest.mark.parametrize("iterations", [0, 1, 2, 7])
    def test_degenerate(self, name, iterations):
        graph = DEGENERATE[name]
        new = community_detection_lp(graph, iterations=iterations)
        assert new.dtype == np.int64
        assert new.tobytes() == _cdlp_oracle(graph, iterations).tobytes()

    def test_oscillation_is_not_mistaken_for_convergence(self):
        # A single edge swaps its two labels every round: the active set
        # must keep both rows alive, and odd and even iteration counts
        # must differ.
        graph = Graph.from_edges([(4, 8)], directed=False)
        for iterations in range(5):
            assert community_detection_lp(graph, iterations=iterations).tobytes() \
                == _cdlp_oracle(graph, iterations).tobytes()
        assert not np.array_equal(
            community_detection_lp(graph, iterations=3),
            community_detection_lp(graph, iterations=4),
        )


#: Ties, a clear winner and a lone label, over codes 0..5.
_WIDTH_PAIRS = [(0, 0), (0, 5), (3, 5), (3, 1), (3, 5), (7, 2), (7, 0), (11, 4)]


class TestLabelModeAgainstRetiredReduce:
    """``_most_frequent_min_label`` keeps its contract for the SpMV
    engines: arbitrary receivers, arbitrary int64 labels."""

    # The packed key is uint32 while bit_length(n - 1) plus the label
    # codes' bits fit in 32: 4 + 28 bits still do, 5 + 28 do not, and
    # labels too spread for an int64 key fall back to ranks.
    @example(16, _WIDTH_PAIRS + [(15, 5)], (0, 1 << 25))
    @example(17, _WIDTH_PAIRS + [(16, 5)], (0, 1 << 25))
    @example(12, _WIDTH_PAIRS, (-(1 << 62), (1 << 60) + 7))
    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=60,
        ),
        st.sampled_from([
            (0, 1),             # dense small labels
            (BIG, 1),           # ids past float64's integers, close together
            (-(1 << 62), (1 << 60) + 7),  # too spread for the packed key
        ]),
    )
    def test_matches(self, n, pairs, scale):
        offset, stride = scale
        receivers = np.array([r % n for r, _ in pairs], dtype=np.int64)
        labels = np.array(
            [offset + stride * code for _, code in pairs], dtype=np.int64
        )
        assert _most_frequent_min_label(n, receivers, labels).tobytes() == \
            _label_mode_oracle(n, receivers, labels).tobytes()


# -- LCC ---------------------------------------------------------------------


def _summed_over_a_partition(graph, data):
    """:func:`lcc_counts` summed over a drawn partition of the tails into
    at most four parts (some may be empty)."""
    n = graph.num_vertices
    owner = np.array(
        data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    return sum(
        lcc_counts(graph, tails=np.flatnonzero(owner == part))
        for part in range(4)
    )


class TestLccAgainstRetiredKernel:
    @settings(max_examples=80, deadline=None)
    @given(random_graphs())
    def test_random_graphs(self, graph):
        assert local_clustering_coefficient(graph).tobytes() == \
            _lcc_oracle(graph).tobytes()

    @pytest.mark.parametrize("dataset", CATALOG_FAMILIES)
    def test_catalog_families(self, dataset):
        graph = get_dataset(dataset).materialize()
        assert local_clustering_coefficient(graph).tobytes() == \
            _lcc_oracle(graph).tobytes()

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate(self, name):
        graph = DEGENERATE[name]
        new = local_clustering_coefficient(graph)
        assert new.dtype == np.float64
        assert new.tobytes() == _lcc_oracle(graph).tobytes()

    def test_bidirectional_pair_counts_twice(self):
        graph = DEGENERATE["bidirectional-pair"]
        lcc = local_clustering_coefficient(graph)
        # N(0) = {1, 3, 9}: arcs among them 3->9, 9->3, 1->3 = 3 of 6.
        assert lcc[graph.index_of(0)] == 3 / 6

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(random_graphs(), _degenerate()), st.data())
    def test_tail_partition_sums_to_whole(self, graph, data):
        summed = _summed_over_a_partition(graph, data)
        assert summed.tobytes() == lcc_counts(graph).tobytes()
        assert lcc_from_counts(summed).tobytes() == _lcc_oracle(graph).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(_multigraphs(), st.data())
    def test_multigraph_tail_partition_sums_to_whole(self, arrays, data):
        # Duplicate edges and self-loops are outside the data model, and
        # Graph(...) refuses them; what is left of the edge list when
        # they are dropped must still split exactly.
        src, dst, directed = arrays["src"], arrays["dst"], arrays["directed"]
        seen, keep = set(), []
        for s, d in zip(src.tolist(), dst.tolist()):
            key = (s, d) if directed else (min(s, d), max(s, d))
            keep.append(s != d and key not in seen)
            seen.add(key)
        if not all(keep):
            with pytest.raises(GraphFormatError, match="is a self-loop|is a duplicate of edge"):
                Graph(**arrays)
        keep = np.array(keep, dtype=bool)
        graph = Graph(**{**arrays, "src": src[keep], "dst": dst[keep]})
        summed = _summed_over_a_partition(graph, data)
        assert summed.tobytes() == lcc_counts(graph).tobytes()
        assert lcc_from_counts(summed).tobytes() == \
            local_clustering_coefficient(graph).tobytes()

    def test_more_pairs_than_one_chunk(self, monkeypatch):
        # A chunk of 8 pairs forces many steps, a row split across
        # steps, and a slot with more partners than the whole budget.
        from repro.algorithms import lcc

        monkeypatch.setattr(lcc, "_WEDGE_CHUNK", 8)
        graph = get_dataset("G22").materialize()
        assert local_clustering_coefficient(graph).tobytes() == \
            _lcc_oracle(graph).tobytes()


# -- SSSP --------------------------------------------------------------------


class TestSsspAgainstDijkstra:
    @settings(max_examples=120, deadline=None)
    @given(
        random_graphs(weighted=True),
        st.sampled_from(["drawn", "zero", "equal", "some-zero", "some-inf"]),
        st.data(),
    )
    def test_random_graphs(self, graph, weighting, data):
        weights = graph.edge_weights.copy()
        if weighting == "zero":
            weights[:] = 0.0
        elif weighting == "equal":
            weights[:] = 0.1  # 0.1 + 0.1 + 0.1 != 0.3: order of adds shows
        elif weighting == "some-zero":
            weights[::2] = 0.0
        elif weighting == "some-inf" and len(weights):
            # Not a weight of the data model: refused before any kernel runs.
            weights[::3] = np.inf
            with pytest.raises(GraphFormatError, match=r"^edge 0 \(.*\) has weight inf,"):
                _weighted(graph, weights)
            return
        graph = _weighted(graph, weights)
        source = int(data.draw(st.sampled_from(list(graph.vertex_ids))))
        new = single_source_shortest_paths(graph, source)
        assert new.dtype == np.float64
        assert new.tobytes() == sssp_dijkstra(graph, source).tobytes()

    @pytest.mark.parametrize("dataset", ["R4", "D100", "D300", "D1000"])
    def test_weighted_catalog(self, dataset):
        entry = get_dataset(dataset)
        graph = entry.materialize()
        source = entry.algorithm_parameters("sssp")["source_vertex"]
        assert single_source_shortest_paths(graph, source).tobytes() == \
            sssp_dijkstra(graph, source).tobytes()

    def test_unreachable_is_exact_infinity(self):
        graph = Graph.from_edges(
            [(0, 1), (2, 1)], directed=True, weights=[1.5, 2.5], vertices=[0, 1, 2, 7]
        )
        dist = single_source_shortest_paths(graph, 0)
        assert dist.tobytes() == sssp_dijkstra(graph, 0).tobytes()
        assert dist[graph.index_of(2)] == SSSP_UNREACHABLE
        assert dist[graph.index_of(7)] == SSSP_UNREACHABLE
        # No edges: no weight to size a round by, nothing to relax.
        edgeless = Graph.from_edges([], directed=False, weights=[], vertices=[3, 1, 2])
        dist = single_source_shortest_paths(edgeless, 2)
        assert dist.tobytes() == sssp_dijkstra(edgeless, 2).tobytes()
        assert dist.tolist() == [SSSP_UNREACHABLE, 0.0, SSSP_UNREACHABLE]

    @pytest.mark.parametrize("kernel, oracle", [
        (single_source_shortest_paths, sssp_dijkstra),
        (breadth_first_search, bfs_queue),
    ], ids=["sssp", "bfs"])
    def test_long_path_worst_case(self, kernel, oracle):
        # One round per vertex is the frontier kernels' degenerate class.
        # It must still be exact, and a per-round cost that grew with |V|
        # instead of with the frontier would show up here.
        n = 2000
        rng = np.random.default_rng(5)
        graph = Graph(
            vertex_ids=np.arange(n), src=np.arange(n - 1), dst=np.arange(1, n),
            directed=False, weights=rng.uniform(0.0, 1.0, n - 1),
        )
        started = time.perf_counter()
        out = kernel(graph, 0)
        elapsed = time.perf_counter() - started
        assert out.tobytes() == oracle(graph, 0).tobytes()
        assert elapsed < 0.5, f"2000-vertex path took {elapsed:.3f} s"
