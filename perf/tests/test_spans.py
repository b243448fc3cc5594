"""Span recording and self-time arithmetic."""

import json

import pytest

from perf.spans import SpanRecorder, layer_of, layer_self_time, self_times


def _span(ident, name, start, end, parent=None):
    return {"id": ident, "name": name, "start": start, "end": end,
            "parent": parent, "round": 0}


def test_self_time_is_duration_minus_children():
    spans = [
        _span(0, "bench.round", 0.0, 10.0),
        _span(1, "algorithms.bfs", 1.0, 4.0, parent=0),
        _span(2, "algorithms.validate", 4.0, 5.0, parent=0),
        _span(3, "graph.inner", 2.0, 3.0, parent=1),
    ]
    own = self_times(spans)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert sum(own.values()) == pytest.approx(10.0)  # nothing counted twice


def test_overlapping_children_cover_their_union_only():
    spans = [
        _span(0, "bench.round", 0.0, 10.0),
        _span(1, "runtime.a", 1.0, 6.0, parent=0),
        _span(2, "runtime.b", 4.0, 8.0, parent=0),   # overlaps a by 2 s
        _span(3, "runtime.c", 9.0, 12.0, parent=0),  # clipped to the parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_layer_is_the_module_name():
    assert layer_of("algorithms.cdlp") == "algorithms"
    assert layer_of("engines.partitioned.p2.bfs") == "engines.partitioned"
    assert layer_of("engines.spmv.pr") == "engines.spmv"
    assert layer_of("runtime.cache.miss") == "runtime"


def test_layer_self_time_sums_by_layer():
    spans = [
        _span(0, "bench.round", 0.0, 10.0),
        _span(1, "algorithms.bfs", 0.0, 4.0, parent=0),
        _span(2, "algorithms.pr", 4.0, 9.0, parent=0),
    ]
    assert layer_self_time(spans) == {"bench": 1.0, "algorithms": 9.0}


def test_recorder_times_always_and_records_only_while_tracing(tmp_path):
    rec = SpanRecorder()
    with rec.span("algorithms.bfs") as timer:
        pass
    assert timer.duration >= 0.0 and rec.spans == []

    rec.tracing = True
    rec.round_id = 3
    with rec.span("bench.round"):
        with rec.span("algorithms.bfs"):
            pass
        with rec.span("algorithms.pr"):
            pass
    assert [s["name"] for s in rec.spans] == [
        "bench.round", "algorithms.bfs", "algorithms.pr",
    ]
    assert [s["parent"] for s in rec.spans] == [None, 0, 0]
    assert all(s["round"] == 3 and s["end"] >= s["start"] for s in rec.spans)

    path = rec.write(tmp_path / "out" / "t.trace.jsonl")
    lines = path.read_text().splitlines()
    assert [json.loads(line)["id"] for line in lines] == [0, 1, 2]
