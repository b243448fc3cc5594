"""Benchmark-side spans around every call into a layer's public function.

Spans live in memory and are written out once, at exit. A span's name is
``<layer>.<operation>`` (``algorithms.cdlp``, ``runtime.fresh``); the
layer is everything before the last dot, so self time can be summed per
layer. Spans inside the program are a later issue: this recorder never
reaches into ``repro``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

__all__ = ["Timer", "SpanRecorder", "self_times", "layer_of", "layer_self_time"]


class Timer:
    """One timed interval; ``duration`` is valid after the block exits."""

    __slots__ = ("name", "start", "end", "_recorder")

    def __init__(self, name: str, recorder: "SpanRecorder"):
        self.name = name
        self._recorder = recorder
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Timer":
        self._recorder._open(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        self._recorder._close(self)


class SpanRecorder:
    """Times every block; additionally records it as a span while tracing.

    The untraced run goes through the same ``span()`` blocks (their
    durations are the benchmark's own T_proc timers), so the only thing
    tracing adds is the bookkeeping in ``_open``/``_close`` — which is
    what ``bench.trace_overhead_share`` measures.
    """

    def __init__(self) -> None:
        self.tracing = False
        self.round_id: Optional[int] = None
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    def span(self, name: str) -> Timer:
        return Timer(name, self)

    def _open(self, timer: Timer) -> None:
        if not self.tracing:
            return
        self.spans.append(
            {
                "id": len(self.spans),
                "name": timer.name,
                "parent": self._stack[-1] if self._stack else None,
                "round": self.round_id,
            }
        )
        self._stack.append(len(self.spans) - 1)

    def _close(self, timer: Timer) -> None:
        if not self.tracing:
            return
        record = self.spans[self._stack.pop()]
        record["start"] = timer.start
        record["end"] = timer.end

    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return path


def self_times(spans: Iterable[Dict[str, object]]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover.

    Children may overlap each other (none do today), so the covered part
    is the union of their intervals clipped to the parent's.
    """
    spans = list(spans)
    children: Dict[object, List[Dict[str, object]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        start, end = float(span["start"]), float(span["end"])
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], []), key=lambda c: c["start"]):
            lo = max(float(child["start"]), cursor)
            hi = min(float(child["end"]), end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[int(span["id"])] = (end - start) - covered
    return result


def layer_of(name: str) -> str:
    """``engines.partitioned.p2.bfs`` -> ``engines.partitioned``."""
    parts = name.split(".")
    if parts[0] == "engines":
        return ".".join(parts[:2])
    return parts[0]


def layer_self_time(spans: Iterable[Dict[str, object]]) -> Dict[str, float]:
    """Layer -> summed self time of its spans."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        layer = layer_of(str(span["name"]))
        totals[layer] = totals.get(layer, 0.0) + own[int(span["id"])]
    return totals
