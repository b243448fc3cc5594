"""Shared vectorized CSR helpers for the algorithm kernels."""

from __future__ import annotations

from typing import Tuple

import numpy as np
# numpy loads this subpackage lazily on the first ``np.unique``, 9–16 ms
# that would land inside whichever job's timed ``processing`` span runs
# first in a process. Every kernel imports this module, so paying it here
# keeps it out of T_proc (and forked run children inherit it).
import numpy.ma  # noqa: F401

__all__ = [
    "gather_ranges", "gather_slots", "gather_neighbors", "expand_sources",
    "run_starts", "distinct",
]


def gather_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.concatenate([np.arange(s, s + c) for s, c in zip(starts,
    counts)])`` without the Python loop."""
    # Start of each range minus its offset in the output, laid out back
    # to back; adding 0..total-1 walks every range in turn.
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return shift + np.arange(len(shift), dtype=np.int64)


def gather_slots(
    indptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(slots, counts): the CSR slot positions of ``rows``, concatenated
    row by row (with repeats), and each row's slot count."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    return gather_ranges(starts, counts), counts


def gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """All neighbors of the frontier vertices, concatenated (with repeats)."""
    return indices[gather_slots(indptr, frontier)[0]]


def expand_sources(indptr: np.ndarray) -> np.ndarray:
    """Source vertex of every CSR slot: [0]*deg(0) + [1]*deg(1) + ..."""
    n = len(indptr) - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))


def run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal values."""
    if len(values) == 0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def distinct(values: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The distinct entries of the index array ``values``, in O(len), in
    no particular order.

    ``scratch`` is an int64 array with a slot for every possible entry
    (``np.empty(n)``, made once per kernel call). Each entry writes its
    position to its slot; one position per distinct value survives, and
    only the slots just written are read back, so ``scratch`` needs
    neither initialising nor clearing between calls.
    """
    positions = np.arange(len(values))
    scratch[values] = positions
    return values[scratch[values] == positions]
