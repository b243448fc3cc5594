"""Tests for spans, the tracer, and JSONL export (repro.trace.tracer)."""

import numpy as np
import pytest

from repro.trace import (
    FakeClock,
    MonotonicClock,
    Span,
    Tracer,
    current_tracer,
    read_trace,
    set_tracer,
    use_tracer,
    write_trace,
)


def make_tracer(**kwargs):
    kwargs.setdefault("clock", FakeClock(tick=1.0))
    kwargs.setdefault("process", "test")
    return Tracer(**kwargs)


class TestSpanLifecycle:
    def test_context_manager_nesting(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_deterministic_ids(self):
        tracer = make_tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        names = {s.span_id: s.name for s in tracer.finished_spans()}
        assert names == {"test:0": "a", "test:1": "b"}

    def test_attributes_recorded(self):
        tracer = make_tracer()
        with tracer.span("work", dataset="G22", index=3) as span:
            span.attributes["extra"] = True
        done = tracer.finished_spans()[0]
        assert done.attributes == {"dataset": "G22", "index": 3, "extra": True}

    def test_error_status_on_exception(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        done = tracer.finished_spans()[0]
        assert done.status == "error"
        assert done.end is not None

    def test_manual_start_end(self):
        tracer = make_tracer()
        span = tracer.start_span("interval", attributes={"k": 1})
        assert span.end is None
        assert span.duration == 0.0
        tracer.end_span(span, status="timeout")
        assert span.status == "timeout"
        assert span.duration == 1.0

    def test_push_makes_span_current(self):
        tracer = make_tracer()
        parent = tracer.start_span("parent", push=True)
        with tracer.span("child") as child:
            pass
        tracer.end_span(parent)
        assert child.parent_id == parent.span_id

    def test_finish_order_is_recorded(self):
        tracer = make_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.finished_spans()] == ["outer", "inner"][::-1]


class TestMinorFaults:
    """``processing`` spans carry their interval's minor page faults."""

    def test_only_processing_spans_count(self):
        tracer = make_tracer()
        with tracer.span("job"):
            with tracer.span("processing", algorithm="bfs"):
                with tracer.span("kernel"):
                    pass
        by_name = {s.name: s for s in tracer.finished_spans()}
        assert by_name["processing"].attributes == {
            "algorithm": "bfs", "minflt": 0,
        }
        assert "minflt" not in by_name["job"].attributes
        assert "minflt" not in by_name["kernel"].attributes

    def test_fake_clock_traces_stay_bit_identical(self, tmp_path):
        def run(path):
            tracer = make_tracer()
            with tracer.span("processing"):
                np.ones(1 << 20).sum()  # faults, but the fake clock reads none
            write_trace(path, tracer.finished_spans())
            return path.read_bytes()

        assert run(tmp_path / "one.jsonl") == run(tmp_path / "two.jsonl")

    def test_real_clock_counts_fresh_pages(self):
        tracer = Tracer(clock=MonotonicClock())
        with tracer.span("processing") as span:
            block = np.ones(1 << 23)  # 64 MB, mapped fresh: it must fault
        del block
        assert span.attributes["minflt"] > 0

    def test_faults_are_read_outside_the_interval(self):
        class Recording(FakeClock):
            def __init__(self):
                super().__init__(tick=1.0)
                self.reads = []

            def now(self):
                self.reads.append("now")
                return super().now()

            def minor_faults(self):
                self.reads.append("faults")
                return len(self.reads)

        clock = Recording()
        tracer = Tracer(clock=clock)
        with tracer.span("processing") as span:
            pass
        assert clock.reads == ["faults", "now", "now", "faults"]
        assert span.attributes["minflt"] == 3


class TestBoundedBuffer:
    def test_oldest_spans_dropped(self):
        tracer = make_tracer(max_spans=3)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [s.name for s in tracer.finished_spans()] == ["s2", "s3", "s4"]
        assert tracer.dropped_spans == 2

    def test_captures_survive_drops(self):
        tracer = make_tracer(max_spans=2)
        with tracer.span("before"):
            pass
        with tracer.capture() as taken:
            for index in range(3):
                with tracer.span(f"after{index}"):
                    pass
        # after0 fell off the ring, not out of the capture.
        assert [s.name for s in taken] == ["after0", "after1", "after2"]
        names = [s.name for s in tracer.finished_spans()]
        assert names == ["after1", "after2"]

    def test_drain_empties_buffer(self):
        tracer = make_tracer()
        with tracer.span("a"):
            pass
        taken = tracer.drain()
        assert [s.name for s in taken] == ["a"]
        assert tracer.finished_spans() == []


class TestCounters:
    def test_accumulate(self):
        tracer = make_tracer()
        tracer.counter("cache.miss")
        tracer.counter("cache.miss")
        tracer.counter("bytes", 512.0)
        assert tracer.counters == {"cache.miss": 2.0, "bytes": 512.0}

    def test_merge(self):
        tracer = make_tracer()
        tracer.counter("a")
        tracer.merge_counters({"a": 2.0, "b": 1.0})
        assert tracer.counters == {"a": 3.0, "b": 1.0}

    def test_take_drains(self):
        tracer = make_tracer()
        tracer.counter("a")
        assert tracer.take_counters() == {"a": 1.0}
        assert tracer.counters == {}


class TestDisabledTracer:
    def test_records_nothing(self):
        tracer = make_tracer(enabled=False)
        with tracer.span("ghost") as span:
            tracer.counter("ghost.count")
        assert span.span_id == ""
        assert tracer.finished_spans() == []
        assert tracer.counters == {}

    def test_no_clock_reads(self):
        clock = FakeClock(tick=1.0)
        tracer = make_tracer(clock=clock, enabled=False)
        with tracer.span("ghost"):
            pass
        assert clock.now() == 0.0  # first real reading: clock untouched


class TestCurrentTracer:
    def test_always_exists(self):
        assert current_tracer() is not None

    def test_set_returns_previous(self):
        mine = make_tracer()
        previous = set_tracer(mine)
        try:
            assert current_tracer() is mine
        finally:
            set_tracer(previous)
        assert current_tracer() is previous

    def test_use_tracer_restores(self):
        before = current_tracer()
        with use_tracer(make_tracer()) as mine:
            assert current_tracer() is mine
        assert current_tracer() is before

    def test_use_tracer_restores_on_error(self):
        before = current_tracer()
        with pytest.raises(ValueError):
            with use_tracer(make_tracer()):
                raise ValueError("boom")
        assert current_tracer() is before


class TestSerialization:
    def test_as_dict_from_dict_roundtrip(self):
        span = Span(
            name="job", span_id="w:1", trace_id="w", parent_id="w:0",
            start=1.25, end=2.75, process="w", status="error",
            attributes={"dataset": "G22"},
        )
        assert Span.from_dict(span.as_dict()).as_dict() == span.as_dict()

    def test_jsonl_roundtrip_float_exact(self, tmp_path):
        tracer = make_tracer(clock=FakeClock(start=0.1, tick=1 / 3))
        with tracer.span("outer", ratio=2 / 7):
            with tracer.span("inner"):
                pass
        tracer.counter("c", 1 / 9)
        path = write_trace(
            tmp_path / "trace.jsonl", tracer.finished_spans(),
            counters=tracer.counters,
        )
        spans, counters = read_trace(path)
        originals = tracer.finished_spans()
        assert [s.as_dict() for s in spans] == [s.as_dict() for s in originals]
        assert counters == {"c": 1 / 9}

    def test_write_trace_is_deterministic(self, tmp_path):
        def run(path):
            tracer = make_tracer()
            with use_tracer(tracer):
                with tracer.span("outer", a=1):
                    with tracer.span("inner"):
                        pass
                tracer.counter("n", 2.0)
            write_trace(path, tracer.finished_spans(), counters=tracer.counters)
            return path.read_text()

        first = run(tmp_path / "one.jsonl")
        second = run(tmp_path / "two.jsonl")
        assert first == second

    def test_open_span_exports_null_end(self, tmp_path):
        tracer = make_tracer()
        span = tracer.start_span("open")
        span.end = None
        tracer.record(span)
        write_trace(tmp_path / "t.jsonl", tracer.finished_spans())
        spans, _ = read_trace(tmp_path / "t.jsonl")
        assert spans[0].end is None
