"""Shared vectorized CSR helpers for the algorithm kernels.

A kernel's slot-sized arrays come from a :class:`Scratch` owned by the
call (or by an engine) and are filled in place: ``out=`` ufuncs,
``np.take(..., out=)`` and the ``out`` of the helpers below, which fill
an array a batch of rows at a time (:func:`row_batches`). Whatever an
iteration allocates on top is no larger than a batch or a vertex array,
so its speed does not depend on what the allocator did before the call.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
# numpy loads this subpackage lazily on the first ``np.unique``, 9–16 ms
# that would land inside whichever job's timed ``processing`` span runs
# first in a process. Every kernel imports this module, so paying it here
# keeps it out of T_proc (and forked run children inherit it);
# tests/platforms/test_tproc_imports.py holds every measured path to it.
import numpy.ma  # noqa: F401

__all__ = [
    "BATCH", "Scratch", "row_batches", "repeat_into", "gather_ranges",
    "gather_neighbors", "expand_sources", "distinct",
]

#: Slots per batch of rows. A graph of at most this many slots is one
#: batch, so its arrays are as small as a batch's; a larger one is
#: written a batch at a time into a workspace.
BATCH = 1 << 16

#: Alignment of each array carved out of a :class:`Scratch` block.
_ALIGN = 64


class Scratch:
    """Grow-only scratch memory: one block, carved into typed arrays.

    A kernel call, or an engine, owns one and takes every slot-sized
    array from it. The block is allocated on first use and again only
    when a layout outgrows it, so a loop that asks for the same layout
    every iteration allocates once, and, until the block grows, a
    layout that begins like an earlier one finds those arrays as they
    were. The arrays of one :meth:`arrays` call are disjoint.
    """

    def __init__(self) -> None:
        self._block = np.empty(0, dtype=np.uint8)
        self._last: Tuple[tuple, List[np.ndarray]] = ((), [])

    def arrays(self, *layout: Tuple[int, "np.typing.DTypeLike"]) -> List[np.ndarray]:
        """Arrays of the given ``(length, dtype)`` pairs, back to back
        in the block (uninitialised where nothing was written before)."""
        if layout == self._last[0]:  # a loop asking again
            return self._last[1]
        dtypes = [np.dtype(dtype) for _, dtype in layout]
        sizes = [length * dtype.itemsize for (length, _), dtype in zip(layout, dtypes)]
        padded = [-(-size // _ALIGN) * _ALIGN for size in sizes]
        if sum(padded) > len(self._block):
            self._block = np.empty(sum(padded), dtype=np.uint8)
        arrays, offset = [], 0
        for dtype, size, step in zip(dtypes, sizes, padded):
            arrays.append(self._block[offset:offset + size].view(dtype))
            offset += step
        self._last = (layout, arrays)
        return arrays


def row_batches(counts: np.ndarray, size: int = BATCH) -> List[Tuple[slice, slice]]:
    """Consecutive rows of the given slot counts, cut into batches of at
    most ``size`` slots plus one row: ``(rows, slots)`` slices per
    batch, the second into the rows' slots laid back to back."""
    total = int(counts.sum())
    if total <= size:
        return [(slice(0, len(counts)), slice(0, total))] if len(counts) else []
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(size, total, size), side="right")
    bounds = np.unique(np.concatenate([[0], cuts, [len(counts)]]))
    offsets = np.concatenate([[0], ends])[bounds].tolist()
    bounds = bounds.tolist()
    return [
        (slice(a, b), slice(offsets[k], offsets[k + 1]))
        for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]


def repeat_into(out: np.ndarray, values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.repeat(values, counts)`` written into the front of ``out``
    a batch of rows at a time; returns that front."""
    for rows, slots in row_batches(counts):
        out[slots] = np.repeat(values[rows], counts[rows])
    return out[:int(counts.sum())]


def gather_ranges(
    starts: np.ndarray, counts: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``np.concatenate([np.arange(s, s + c) for s, c in zip(starts,
    counts)])`` without the Python loop. Given the int64 array ``out``,
    a result of more than one batch is written into its front, a batch
    of rows at a time."""
    batches = row_batches(counts) if out is not None else ()
    if len(batches) > 1:
        for rows, slots in batches:
            out[slots] = gather_ranges(starts[rows], counts[rows])
        return out[:batches[-1][1].stop]
    # Each range's start less its offset in the output, laid out back to
    # back; adding 0..total-1 walks every range in turn.
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return np.add(shift, np.arange(len(shift)), out=shift)


def gather_neighbors(
    indptr: np.ndarray,
    indices: np.ndarray,
    frontier: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """All neighbors of the frontier vertices, concatenated (with
    repeats); into the front of ``out``, a batch of rows at a time, when
    given and the result spans more than one batch."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    batches = row_batches(counts) if out is not None else ()
    if len(batches) > 1:
        for rows, slots in batches:
            out[slots] = indices[gather_ranges(starts[rows], counts[rows])]
        return out[:batches[-1][1].stop]
    return indices[gather_ranges(starts, counts)]


def expand_sources(indptr: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Source vertex of every CSR slot: [0]*deg(0) + [1]*deg(1) + ...,
    into ``out`` (any integer dtype that holds the vertices) when
    given."""
    rows = np.arange(len(indptr) - 1, dtype=np.int64)
    if out is None:
        return np.repeat(rows, np.diff(indptr))
    return repeat_into(out, rows, np.diff(indptr))


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
