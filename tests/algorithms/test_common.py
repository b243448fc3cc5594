"""Tests for the shared CSR helpers."""

import numpy as np
import pytest

from repro.algorithms.common import (
    BATCH,
    Scratch,
    distinct,
    expand_sources,
    gather_neighbors,
    gather_ranges,
    repeat_into,
    row_batches,
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


class TestIntoHelpers:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
    def test_repeat_into_matches_np_repeat(self, dtype):
        rng = np.random.default_rng(5)
        for _ in range(30):
            values = rng.integers(0, 200, rng.integers(0, 12))
            counts = rng.integers(0, 4, len(values))
            out = np.full(int(counts.sum()) + 2, 77, dtype=dtype)
            front = repeat_into(out, values, counts)
            assert front.tolist() == np.repeat(values, counts).tolist()
            assert out[len(front):].tolist() == [77, 77]

    def test_row_batches_cover_the_rows_in_order(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            counts = rng.integers(0, 30, rng.integers(0, 40))
            size = int(rng.integers(1, 50))
            batches = row_batches(counts, size)
            rows = [i for r, _ in batches for i in range(r.start, r.stop)]
            assert rows == list(range(len(counts)))
            ends = np.concatenate([[0], np.cumsum(counts)])
            for r, slots in batches:
                assert (slots.start, slots.stop) == (ends[r.start], ends[r.stop])
                assert counts[r].sum() <= size + counts[r].max()

    def test_helpers_fill_many_batches(self):
        rng = np.random.default_rng(8)
        counts = rng.integers(0, 600, 1000)  # ~300 k slots: several batches
        values = rng.integers(0, 1000, 1000)
        starts = rng.integers(0, 10 ** 6, 1000)
        total = int(counts.sum())
        assert total > 3 * BATCH
        out = np.empty(total, dtype=np.int64)
        assert np.array_equal(repeat_into(out, values, counts), np.repeat(values, counts))
        got = gather_ranges(starts, counts, out)
        assert np.shares_memory(got, out)
        assert np.array_equal(got, gather_ranges(starts, counts))

    def test_gather_helpers_fill_the_front_of_out(self, er_directed):
        rng = np.random.default_rng(6)
        for _ in range(30):
            starts = rng.integers(0, 50, rng.integers(0, 10))
            counts = rng.integers(0, 5, len(starts))
            out = np.full(int(counts.sum()) + 3, -9, dtype=np.int64)
            expected = [s + i for s, c in zip(starts, counts) for i in range(c)]
            got = gather_ranges(starts, counts, out)
            assert got.tolist() == expected
            assert out[len(expected):].tolist() == [-9] * 3
        indptr, indices = er_directed.out_indptr, er_directed.out_indices
        frontier = np.array([0, 5, 17, 3], dtype=np.int64)
        out = np.empty(len(indices), dtype=np.int64)
        assert np.array_equal(
            gather_neighbors(indptr, indices, frontier, out),
            gather_neighbors(indptr, indices, frontier),
        )
        receivers = np.empty(len(indices), dtype=np.uint16)
        assert np.array_equal(expand_sources(indptr, receivers), expand_sources(indptr))


class TestScratch:
    def test_arrays_are_disjoint_typed_views_of_one_block(self):
        scratch = Scratch()
        a, b, c = scratch.arrays((5, np.uint32), (3, np.int64), (7, bool))
        assert (a.dtype, b.dtype, c.dtype) == (np.uint32, np.int64, bool)
        assert (len(a), len(b), len(c)) == (5, 3, 7)
        a[:], b[:], c[:] = 1, 2, True
        assert a.tolist() == [1] * 5 and b.tolist() == [2] * 3 and c.all()
        assert a.base is b.base is c.base

    def test_grows_only_when_a_layout_outgrows_it(self):
        scratch = Scratch()
        (big,) = scratch.arrays((1000, np.float64))
        (small,) = scratch.arrays((10, np.int64))
        assert small.base is big.base
        small[:] = np.arange(10)
        again, _ = scratch.arrays((10, np.int64), (5, np.float64))
        assert again.tolist() == list(range(10))  # a layout's front stays
        bigger, _ = scratch.arrays((10, np.int64), (2000, np.float64))
        assert bigger.base is not big.base
        assert small.tolist() == list(range(10))  # the old block lives on


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
