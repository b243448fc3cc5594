"""Graphalytics EVL file format: ``<name>.v`` + ``<name>.e``.

The vertex file holds one decimal vertex identifier per line. The edge
file holds one edge per line: ``src dst`` or, for weighted graphs,
``src dst weight``. This mirrors the format consumed by the official
Graphalytics harness and produced by LDBC Datagen.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import GraphFormatError
from repro.graph.graph import Graph, first_occurrences
from repro.ioutil import atomic_write

__all__ = ["read_graph", "write_graph", "read_edge_list", "parse_edge_line"]

PathLike = Union[str, os.PathLike]


def parse_edge_line(line: str, *, weighted: bool, lineno: int = 0) -> Tuple[int, int, Optional[float]]:
    """Parse one `.e` line into (src, dst, weight-or-None)."""
    parts = line.split()
    expected = 3 if weighted else 2
    if len(parts) != expected:
        raise GraphFormatError(
            f"edge line {lineno}: expected {expected} fields, got {len(parts)}: {line!r}"
        )
    try:
        src = int(parts[0])
        dst = int(parts[1])
        weight = float(parts[2]) if weighted else None
    except ValueError as exc:
        raise GraphFormatError(f"edge line {lineno}: {exc}") from exc
    return src, dst, weight


#: Characters ``str.split`` takes for whitespace and ``bytes.split``
#: does not, or that are not line breaks: all become a plain space.
_BLANKS = bytes.maketrans(b"\t\x0b\x0c\x1c\x1d\x1e\x1f", b" " * 7)
#: A comment line, emptied in place so that line numbers hold.
_COMMENT = re.compile(rb"^ *#[^\n]*", re.MULTILINE)


def _well_formed(data: bytes, fields: int) -> bool:
    """Whether every line of ``data`` (spaces and newlines only) holds
    either no field or exactly ``fields`` of them."""
    buf = np.frombuffer(data, dtype=np.uint8)
    newline = buf == ord("\n")
    space = newline | (buf == ord(" "))
    start = ~space
    start[1:] &= space[:-1]
    line = np.searchsorted(np.flatnonzero(newline), np.flatnonzero(start))
    counts = np.bincount(line)
    return bool(np.all((counts == 0) | (counts == fields)))


def _read_columns(
    path: PathLike,
    columns: Tuple[type, ...],
    check_line: Callable[[int, str], object],
) -> List[np.ndarray]:
    """The data lines of an EVL file, one array per column.

    A data line is a line that is neither blank nor, once stripped, starts
    with ``#``; it holds ``len(columns)`` whitespace-separated fields,
    read with the column's type (``int`` or ``float``, so the accepted
    spellings are Python's). The whole file is parsed at once: numpy
    checks the field count of every line, and each column is converted
    in one pass. A file that fails either is scanned again line by line
    with ``check_line(lineno, stripped_line)``, which raises the error
    naming its first bad line.
    """
    with open(path, "r", encoding="ascii") as handle:
        text = handle.read()  # universal newlines, as a line loop sees them
    data = text.encode("ascii").translate(_BLANKS)
    if b"#" in data:
        data = _COMMENT.sub(b"", data)
    tokens = data.split()
    width = len(columns)
    try:
        if not _well_formed(data, width):
            raise ValueError("a line has the wrong number of fields")
        return [
            np.fromiter(
                map(kind, tokens[i::width]),
                dtype=np.int64 if kind is int else np.float64,
                count=len(tokens) // width,
            )
            for i, kind in enumerate(columns)
        ]
    except ValueError:
        for lineno, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                check_line(lineno, line)
        raise


def _edge_columns(
    path: PathLike, weighted: bool
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    columns = _read_columns(
        path,
        (int, int, float) if weighted else (int, int),
        lambda lineno, line: parse_edge_line(line, weighted=weighted, lineno=lineno),
    )
    return columns[0], columns[1], columns[2] if weighted else None


def _check_vertex_id(vertex_id: int) -> None:
    if vertex_id < 0:
        raise GraphFormatError(f"vertex id must be non-negative, got {vertex_id}")


def _check_vertex_line(lineno: int, line: str) -> None:
    try:
        vertex_id = int(line)
    except ValueError as exc:
        raise GraphFormatError(f"vertex line {lineno}: {exc}") from exc
    _check_vertex_id(vertex_id)


def read_edge_list(
    path: PathLike,
    *,
    weighted: bool = False,
) -> Tuple[List[Tuple[int, int]], Optional[List[float]]]:
    """Read a `.e` file into (edges, weights-or-None). Blank lines skipped."""
    src, dst, weights = _edge_columns(path, weighted)
    edges = list(zip(src.tolist(), dst.tolist()))
    return edges, weights.tolist() if weights is not None else None


def read_graph(
    prefix: PathLike,
    *,
    directed: bool,
    weighted: bool = False,
    name: str = "",
) -> Graph:
    """Load ``<prefix>.v`` and ``<prefix>.e`` into a :class:`Graph`.

    The vertex file is authoritative for the vertex set (so isolated
    vertices survive the round trip; a repeated line is one vertex);
    every edge endpoint must appear in it. The data model is checked on
    whole arrays, and the edge reported is the first in file order that
    breaks it, with the first rule it breaks in this order: an endpoint
    missing from the vertex file, a self-loop, a weight that is not a
    finite non-negative number, an edge (or, undirected, its reverse)
    seen before.
    """
    prefix = Path(prefix)
    vertex_path = prefix.with_suffix(prefix.suffix + ".v")
    edge_path = prefix.with_suffix(prefix.suffix + ".e")

    (listed,) = _read_columns(vertex_path, (int,), _check_vertex_line)
    negative = listed < 0
    if negative.any():
        _check_vertex_id(int(listed[negative.argmax()]))
    vertex_ids = np.unique(listed)
    del listed

    src, dst, weights = _edge_columns(edge_path, weighted)
    n = len(vertex_ids)
    src_index = np.searchsorted(vertex_ids, src)
    dst_index = np.searchsorted(vertex_ids, dst)
    missing = (src_index == n) | (dst_index == n)
    np.minimum(src_index, n - 1, out=src_index)
    np.minimum(dst_index, n - 1, out=dst_index)
    if n:
        missing |= (vertex_ids[src_index] != src) | (vertex_ids[dst_index] != dst)
    loop = src == dst
    if weights is not None:
        bad_weight = ~np.isfinite(weights) | (weights < 0)
    else:
        bad_weight = np.zeros(len(src), dtype=bool)
    if directed:
        key = src_index * np.int64(n) + dst_index
    else:
        key = np.minimum(src_index, dst_index) * np.int64(n)
        key += np.maximum(src_index, dst_index)
    repeated = np.ones(len(src), dtype=bool)
    repeated[first_occurrences(key)] = False
    del key
    broken = np.flatnonzero(missing | loop | bad_weight | repeated)
    if len(broken):
        k = int(broken[0])
        s, d = int(src[k]), int(dst[k])
        if missing[k]:
            raise GraphFormatError(
                f"edge ({s},{d}) references a vertex missing from {vertex_path.name}"
            )
        if loop[k]:
            raise GraphFormatError(f"self-loop on vertex {s} is not allowed")
        if bad_weight[k]:
            raise GraphFormatError(
                f"edge ({s},{d}) has invalid weight {float(weights[k])}"
            )
        raise GraphFormatError(f"duplicate edge ({s},{d})")
    return Graph(
        vertex_ids=vertex_ids,
        src=src_index,
        dst=dst_index,
        directed=directed,
        weights=weights,
        name=name or prefix.name,
    )


def write_graph(graph: Graph, prefix: PathLike) -> Tuple[Path, Path]:
    """Write ``<prefix>.v`` and ``<prefix>.e``; returns the two paths.

    Both files go through :func:`repro.ioutil.atomic_write`: archive
    materialization overwrites previous dataset files in place, and a
    crash mid-write must not leave a torn edge list behind a valid
    ``.properties`` file. Weights are written as ``repr`` of the double,
    which reads back bit for bit.
    """
    prefix = Path(prefix)
    vertex_path = prefix.with_suffix(prefix.suffix + ".v")
    edge_path = prefix.with_suffix(prefix.suffix + ".e")

    ids = graph.vertex_ids
    atomic_write(vertex_path, "".join(map("{}\n".format, ids.tolist())))

    src = ids[graph.edge_src].tolist()
    dst = ids[graph.edge_dst].tolist()
    weights = graph.edge_weights
    if weights is not None:
        lines = map("{} {} {!r}\n".format, src, dst, weights.tolist())
    else:
        lines = map("{} {}\n".format, src, dst)
    atomic_write(edge_path, "".join(lines))
    return vertex_path, edge_path
