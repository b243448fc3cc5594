"""Tests for the shared CSR helpers."""

import numpy as np

from repro.algorithms.common import (
    distinct,
    expand_sources,
    gather_neighbors,
    gather_ranges,
    gather_slots,
    run_starts,
)


class TestGatherRanges:
    def test_matches_naive_concatenation(self):
        starts = np.array([4, 0, 9, 2], dtype=np.int64)
        counts = np.array([3, 0, 1, 2], dtype=np.int64)
        expected = np.concatenate(
            [np.arange(s, s + c) for s, c in zip(starts, counts)]
        )
        out = gather_ranges(starts, counts)
        assert out.dtype == np.int64
        assert np.array_equal(out, expected)

    def test_no_ranges_and_all_empty_ranges(self):
        empty = np.array([], dtype=np.int64)
        assert len(gather_ranges(empty, empty)) == 0
        assert len(gather_ranges(np.array([3, 7]), np.array([0, 0]))) == 0


class TestGatherSlots:
    def test_slots_and_counts(self, er_directed):
        indptr = er_directed.out_indptr
        rows = np.array([17, 0, 17, 3], dtype=np.int64)
        slots, counts = gather_slots(indptr, rows)
        assert np.array_equal(counts, indptr[rows + 1] - indptr[rows])
        assert np.array_equal(
            slots,
            np.concatenate([np.arange(indptr[v], indptr[v + 1]) for v in rows]),
        )


class TestGatherNeighbors:
    def test_matches_naive_concatenation(self, er_directed):
        indptr, indices = er_directed.out_indptr, er_directed.out_indices
        frontier = np.array([0, 5, 17, 3], dtype=np.int64)
        expected = np.concatenate(
            [indices[indptr[v]:indptr[v + 1]] for v in frontier]
        )
        assert np.array_equal(
            gather_neighbors(indptr, indices, frontier), expected
        )

    def test_empty_frontier(self, er_directed):
        out = gather_neighbors(
            er_directed.out_indptr,
            er_directed.out_indices,
            np.array([], dtype=np.int64),
        )
        assert len(out) == 0

    def test_isolated_vertices_contribute_nothing(self):
        indptr = np.array([0, 0, 2, 2], dtype=np.int64)
        indices = np.array([0, 2], dtype=np.int64)
        out = gather_neighbors(indptr, indices, np.array([0, 2], dtype=np.int64))
        assert len(out) == 0

    def test_repeated_frontier_vertices_repeat_neighbors(self):
        indptr = np.array([0, 2], dtype=np.int64)
        indices = np.array([5, 7], dtype=np.int64)
        out = gather_neighbors(indptr, indices, np.array([0, 0], dtype=np.int64))
        assert out.tolist() == [5, 7, 5, 7]


class TestExpandSources:
    def test_matches_degrees(self, er_directed):
        sources = expand_sources(er_directed.out_indptr)
        degrees = er_directed.out_degrees()
        counts = np.bincount(sources, minlength=er_directed.num_vertices)
        assert np.array_equal(counts, degrees)

    def test_empty(self):
        assert len(expand_sources(np.array([0], dtype=np.int64))) == 0


class TestRunStarts:
    def test_first_index_of_every_run(self):
        values = np.array([3, 3, 5, 5, 5, 9, 3])
        assert run_starts(values).tolist() == [0, 2, 5, 6]

    def test_empty_and_single(self):
        assert run_starts(np.array([], dtype=np.int64)).tolist() == []
        assert run_starts(np.array([7])).tolist() == [0]


class TestDistinct:
    def test_each_value_once_whatever_the_scratch_holds(self):
        rng = np.random.default_rng(3)
        scratch = np.empty(50, dtype=np.int64)
        for _ in range(20):  # one scratch, reused without clearing
            values = rng.integers(0, 50, rng.integers(0, 80))
            out = distinct(values, scratch)
            assert sorted(out.tolist()) == np.unique(values).tolist()

    def test_empty(self):
        scratch = np.full(4, 99, dtype=np.int64)
        assert len(distinct(np.array([], dtype=np.int64), scratch)) == 0
