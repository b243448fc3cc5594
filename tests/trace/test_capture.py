"""The capture rule: a finished span lives as long as a capture that
can still take it, and otherwise only within the tracer's ring."""

import gc
import weakref

import pytest

from repro.trace import FakeClock, Tracer, current_tracer
from repro.trace.tracer import DEFAULT_MAX_SPANS


def make_tracer(**kwargs):
    return Tracer(clock=FakeClock(tick=1.0), process="test", **kwargs)


def record(tracer, *names):
    """Record one closed span per name; return weak references to them."""
    refs = []
    for name in names:
        with tracer.span(name) as opened:
            pass
        refs.append(weakref.ref(opened))
    return refs


def alive(refs):
    gc.collect()
    return [ref() for ref in refs if ref() is not None]


class TestCapture:
    def test_takes_what_is_recorded_while_open_in_order(self):
        tracer = make_tracer()
        record(tracer, "before")
        with tracer.capture() as taken:
            with tracer.span("outer"):
                record(tracer, "inner")
        record(tracer, "after")
        assert [s.name for s in taken] == ["inner", "outer"]

    def test_captures_nest(self):
        tracer = make_tracer(max_spans=0)
        with tracer.capture() as outer:
            record(tracer, "a")
            with tracer.capture() as inner:
                record(tracer, "b", "c")
            record(tracer, "d")
        assert [s.name for s in outer] == ["a", "b", "c", "d"]
        assert [s.name for s in inner] == ["b", "c"]
        assert [s.span_id for s in inner] == [s.span_id for s in outer[1:3]]

    def test_exception_releases_the_hold(self):
        tracer = make_tracer(max_spans=0)
        with pytest.raises(RuntimeError):
            with tracer.capture() as taken:
                refs = record(tracer, "a", "b")
                raise RuntimeError("boom")
        assert [s.name for s in taken] == ["a", "b"]  # still readable
        record(tracer, "later")
        assert [s.name for s in taken] == ["a", "b"]  # takes no more
        del taken
        assert alive(refs) == []


class TestRetention:
    def test_default_tracer_keeps_nothing_outside_a_capture(self):
        tracer = current_tracer()
        assert tracer.max_spans == 0
        refs = record(tracer, "loose")
        assert tracer.finished_spans() == []
        assert alive(refs) == []

    def test_default_tracer_lets_go_once_the_outermost_capture_closes(self):
        tracer = current_tracer()
        with tracer.capture() as outer:
            refs = record(tracer, "a")
            with tracer.capture() as inner:
                refs += record(tracer, "b")
            del inner
            # The outer capture can still take "b": it is held.
            assert len(alive(refs)) == 2
            assert tracer.finished_spans() == []
        assert [s.name for s in outer] == ["a", "b"]
        del outer
        assert alive(refs) == []
        assert tracer.finished_spans() == []

    def test_explicit_tracer_keeps_its_ring(self):
        tracer = make_tracer()
        assert tracer.max_spans == DEFAULT_MAX_SPANS
        record(tracer, "before")
        with tracer.capture() as taken:
            record(tracer, "inside")
        record(tracer, "after")
        assert [s.name for s in taken] == ["inside"]
        names = [s.name for s in tracer.finished_spans()]
        assert names == ["before", "inside", "after"]
        assert tracer.dropped_spans == 0
