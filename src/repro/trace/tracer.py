"""Spans, counters, and the per-process tracer.

A :class:`Span` is one named, attributed interval on a process's
timeline; spans nest through a per-tracer context stack, giving the
hierarchical operation chains Granula's archives are built from
(paper §2.5.2). A :class:`Tracer` owns the process's
:class:`~repro.trace.clock.Clock`, assigns deterministic span ids
(``<process>:<sequence>`` — no randomness, so traces taken under a
:class:`~repro.trace.clock.FakeClock` are bit-reproducible), hands each
finished span to every open :meth:`Tracer.capture` and to a bounded
ring, accumulates named counters, and exports/imports the whole trace
as JSONL through :func:`repro.ioutil.atomic_write`.

One tracer is *current* per process (:func:`current_tracer`); engines,
drivers, the runtime, and the harness all emit through it, which is
what lets a single ``trace.jsonl`` explain a whole benchmark run.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Deque, Dict, Iterable, Iterator, List, Optional, Tuple, Union,
)

from repro.trace.clock import Clock, MonotonicClock

__all__ = [
    "Span",
    "Tracer",
    "current_tracer",
    "set_tracer",
    "use_tracer",
    "span",
    "counter",
    "read_trace",
    "write_trace",
]

#: Default bound on an explicit tracer's ring of finished spans; beyond
#: it the oldest spans are dropped (and counted) rather than growing
#: without limit. Spans an open capture takes are outside the ring.
DEFAULT_MAX_SPANS = 65536


@dataclass
class Span:
    """One named interval on a process timeline."""

    name: str
    span_id: str
    trace_id: str
    parent_id: Optional[str] = None
    start: float = 0.0
    end: Optional[float] = None
    process: str = "main"
    status: str = "ok"
    attributes: Dict[str, object] = field(default_factory=dict)
    #: Monotonic finish order within the tracer; assigned when recorded.
    seq: int = -1

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "kind": "span",
            "name": self.name,
            "id": self.span_id,
            "trace": self.trace_id,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end,
            "process": self.process,
            "status": self.status,
        }
        if self.attributes:
            record["attrs"] = self.attributes
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "Span":
        return cls(
            name=str(record["name"]),
            span_id=str(record["id"]),
            trace_id=str(record.get("trace", "")),
            parent_id=(
                None if record.get("parent") is None
                else str(record["parent"])
            ),
            start=float(record["start"]),
            end=(
                None if record.get("end") is None else float(record["end"])
            ),
            process=str(record.get("process", "main")),
            status=str(record.get("status", "ok")),
            attributes=dict(record.get("attrs") or {}),
        )


#: Spans that carry ``minflt``, the minor page faults of their interval:
#: read before the start clock and after the end clock, so the count
#: is taken outside the time it sits next to.
FAULT_COUNTED_SPANS = frozenset({"processing"})

#: Shared placeholder yielded by disabled tracers: attribute writes land
#: somewhere harmless and no clock reads or buffer appends happen.
_NULL_SPAN = Span(name="disabled", span_id="", trace_id="")


class Tracer:
    """Per-process span recorder with a bounded ring and counters.

    A finished span is kept while an open :meth:`capture` that began
    before it can still take it, and otherwise only within the ring of
    the last ``max_spans`` spans (:meth:`finished_spans`).
    """

    def __init__(
        self,
        *,
        clock: Optional[Clock] = None,
        process: str = "main",
        trace_id: Optional[str] = None,
        max_spans: int = DEFAULT_MAX_SPANS,
        enabled: bool = True,
    ):
        self.clock = clock or MonotonicClock()
        self.process = process
        self.trace_id = trace_id or process
        self.max_spans = int(max_spans)
        self.enabled = enabled
        self.dropped_spans = 0
        self._finished: Deque[Span] = deque()
        #: The span lists of the open captures, by ``id``.
        self._captures: Dict[int, List[Span]] = {}
        self._stack: List[Span] = []
        self._counters: Dict[str, float] = {}
        self._faults_at_start: Dict[str, int] = {}
        self._next_id = 0
        self._next_seq = 0

    # -- span lifecycle ----------------------------------------------------

    def _new_id(self) -> str:
        span_id = f"{self.process}:{self._next_id}"
        self._next_id += 1
        return span_id

    def start_span(
        self,
        name: str,
        *,
        parent: Optional[Span] = None,
        attributes: Optional[Dict[str, object]] = None,
        push: bool = False,
    ) -> Span:
        """Open a span manually (for intervals that outlive a call frame,
        e.g. a dispatcher's attempt span, open from dispatch to envelope).

        ``parent`` defaults to the innermost context-stack span. With
        ``push=True`` the span also becomes the current context, so
        spans opened later nest under it until :meth:`end_span`.
        """
        if not self.enabled:
            if attributes:
                _NULL_SPAN.attributes = dict(attributes)
            return _NULL_SPAN
        if parent is None and self._stack:
            parent = self._stack[-1]
        faults = (
            self.clock.minor_faults() if name in FAULT_COUNTED_SPANS else None
        )
        opened = Span(
            name=name,
            span_id=self._new_id(),
            trace_id=self.trace_id,
            parent_id=parent.span_id if parent is not None else None,
            start=self.clock.now(),
            process=self.process,
            attributes=dict(attributes or {}),
        )
        if faults is not None:
            self._faults_at_start[opened.span_id] = faults
        if push:
            self._stack.append(opened)
        return opened

    def end_span(self, span: Span, *, status: Optional[str] = None) -> Span:
        """Close a span and record it."""
        if span.span_id == "":  # disabled-tracer placeholder
            return span
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        if span.end is None:
            span.end = self.clock.now()
        faults = self._faults_at_start.pop(span.span_id, None)
        if faults is not None:
            span.attributes["minflt"] = self.clock.minor_faults() - faults
        if status is not None:
            span.status = status
        self.record(span)
        return span

    def record(self, span: Span) -> None:
        """Ingest an already-closed span (own or merged from a worker)."""
        if not self.enabled or span.span_id == "":
            return
        span.seq = self._next_seq
        self._next_seq += 1
        for taken in self._captures.values():
            taken.append(span)
        self._finished.append(span)
        while len(self._finished) > self.max_spans:
            self._finished.popleft()
            self.dropped_spans += 1

    @contextmanager
    def span(self, name: str, **attributes: object):
        """Context manager: a nested span covering the ``with`` body."""
        if not self.enabled:
            _NULL_SPAN.attributes = dict(attributes)
            yield _NULL_SPAN
            return
        opened = self.start_span(name, attributes=attributes, push=True)
        try:
            yield opened
        except BaseException:
            opened.status = "error"
            raise
        finally:
            self.end_span(opened)

    # -- counters ----------------------------------------------------------

    def counter(self, name: str, amount: float = 1.0) -> None:
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0.0) + float(amount)

    @property
    def counters(self) -> Dict[str, float]:
        return dict(self._counters)

    def counters_since(self, before: Dict[str, float]) -> Dict[str, float]:
        """What changed since ``before`` (an earlier :attr:`counters`)."""
        return {
            name: value - before.get(name, 0.0)
            for name, value in self._counters.items()
            if value != before.get(name, 0.0)
        }

    def merge_counters(self, counters: Dict[str, float]) -> None:
        for name, value in (counters or {}).items():
            self.counter(str(name), float(value))

    def take_counters(self) -> Dict[str, float]:
        """Drain the counters (used to ship worker deltas)."""
        taken = dict(self._counters)
        self._counters.clear()
        return taken

    # -- buffer access -----------------------------------------------------

    @contextmanager
    def capture(self) -> Iterator[List[Span]]:
        """Take every span recorded while the block is open, whatever
        the ring keeps: ``with tracer.capture() as taken:``.

        ``taken`` fills in record order and stays readable after the
        block; the tracer lets go of it when the block ends, however it
        ends. Captures nest: each one takes what is recorded within it.
        """
        taken: List[Span] = []
        self._captures[id(taken)] = taken
        try:
            yield taken
        finally:
            del self._captures[id(taken)]

    def finished_spans(self) -> List[Span]:
        """The ring: the last ``max_spans`` finished spans."""
        return list(self._finished)

    def drain(self) -> List[Span]:
        """Remove and return the ring's spans (worker envelopes)."""
        taken = list(self._finished)
        self._finished.clear()
        return taken


def write_trace(
    path: Union[str, Path],
    spans: Iterable[Span],
    *,
    counters: Optional[Dict[str, float]] = None,
) -> Path:
    """Serialize spans (and counters) as JSONL via an atomic replace."""
    from repro.ioutil import atomic_write

    lines = [
        json.dumps(span.as_dict(), sort_keys=True, separators=(",", ":"))
        for span in spans
    ]
    for name in sorted(counters or {}):
        lines.append(
            json.dumps(
                {"kind": "counter", "name": name, "value": counters[name]},
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    payload = "\n".join(lines)
    if payload:
        payload += "\n"
    path = Path(path)
    atomic_write(path, payload)
    return path


def read_trace(
    path: Union[str, Path],
) -> Tuple[List[Span], Dict[str, float]]:
    """Parse a JSONL trace back into spans + counters (lossless)."""
    spans: List[Span] = []
    counters: Dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") == "counter":
                counters[str(record["name"])] = float(record["value"])
            else:
                spans.append(Span.from_dict(record))
    return spans, counters


# -- the current tracer ------------------------------------------------------

# The tracer registry is deliberately per-process: each pool worker
# installs its own Tracer after the fork (spans are rebased onto the
# dispatcher's timeline when results come back over the pipe), so the
# divergence RACE003 guards against is the design here. The
# default tracer is read only through captures, so its ring is empty:
# a long-lived process keeps no span that no capture still takes.
_CURRENT = Tracer(max_spans=0)  # lint: disable=RACE003


def current_tracer() -> Tracer:
    """The process's active tracer (always exists)."""
    return _CURRENT


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the current tracer; returns the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer):
    """Scoped tracer swap — restores the previous tracer on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def span(name: str, **attributes: object):
    """Convenience: a span on the current tracer."""
    return current_tracer().span(name, **attributes)


def counter(name: str, amount: float = 1.0) -> None:
    """Convenience: bump a counter on the current tracer."""
    current_tracer().counter(name, amount)
