"""SQL-backed Granula views: span forest and rendered store reports."""

from __future__ import annotations

from repro.granula.archiver import phases_from_spans
from repro.granula.visualizer import render_store_regressions, render_store_run
from repro.resultsdb.queries import regression_query

from tests.resultsdb.conftest import make_metadata, make_record


def _span(span_id, parent=None, name="phase", status="ok", start=0.0,
          end=1.0, **attrs):
    return {
        "id": span_id, "parent": parent, "name": name, "status": status,
        "start": start, "end": end, "process": "driver", "attrs": attrs,
    }


class TestPhasesFromSpans:
    def test_forest_reparents_by_span_id(self):
        roots = phases_from_spans([
            _span("a", name="run", end=10.0),
            _span("b", parent="a", name="load", end=3.0),
            _span("c", parent="a", name="process", start=3.0, end=9.0),
            _span("d", parent="c", name="superstep", start=3.0, end=4.0),
        ])
        assert [r.name for r in roots] == ["run"]
        run = roots[0]
        assert [c.name for c in run.children] == ["load", "process"]
        assert [c.name for c in run.children[1].children] == ["superstep"]
        assert all(r.source == "measured" for r in roots)

    def test_orphan_parents_become_roots_not_dropped(self):
        roots = phases_from_spans([
            _span("x", parent="missing", name="stranded"),
            _span("y", name="whole"),
        ])
        assert [r.name for r in roots] == ["stranded", "whole"]

    def test_failed_span_carries_status_description(self):
        roots = phases_from_spans([
            _span("a", status="error"),
            _span("b", status="ok"),
        ])
        assert roots[0].description == "status: error"
        assert roots[1].description == ""

    def test_attrs_become_metadata_and_open_end_collapses(self):
        spans = [_span("a", algorithm="bfs")]
        spans[0]["end"] = None
        spans[0]["start"] = 2.5
        (root,) = phases_from_spans(spans)
        assert root.metadata == {"algorithm": "bfs"}
        assert root.start == 2.5
        assert root.end == 2.5

    def test_empty_input_empty_forest(self):
        assert phases_from_spans([]) == []


class TestRenderStoreRun:
    def test_header_and_indented_tree(self, store):
        store.submit_run(
            make_metadata("run-a"),
            [make_record(), make_record(sla_compliant=False)],
            spans=[
                _span("s1", name="run", end=10.0),
                _span("s2", parent="s1", name="load", end=3.0),
            ],
        )
        text = render_store_run(store, "run-a")
        lines = text.splitlines()
        assert lines[0] == (
            "run run-a — GraphMat on DAS-5 (2 jobs, 1 SLA breaches)"
        )
        assert any("run" in line for line in lines[1:])
        # Child phase indented deeper than its parent.
        run_line = next(l for l in lines[1:] if "run" in l)
        load_line = next(l for l in lines if "load" in l)
        assert len(load_line) - len(load_line.lstrip()) > (
            len(run_line) - len(run_line.lstrip())
        )

    def test_spanless_run_says_so(self, store):
        store.submit_run(make_metadata("run-a"), [make_record()])
        text = render_store_run(store, "run-a")
        assert "(no trace spans stored for this run)" in text


class TestRenderStoreRegressions:
    def _two_runs(self, store):
        store.submit_run(
            make_metadata("run-old"),
            [make_record(modeled_processing_time=1.0)],
        )
        store.submit_run(
            make_metadata("run-new"),
            [make_record(modeled_processing_time=2.0)],
        )

    def test_regression_table(self, store):
        self._two_runs(store)
        text = render_store_regressions(
            regression_query(store, "run-old", "run-new")
        )
        assert text.splitlines()[0] == (
            "1 regression(s): run-new vs run-old (threshold 1.10x)"
        )
        assert "GraphMat bfs on D300" in text
        assert "(2.00x)" in text

    def test_clean_comparison_says_none(self, store):
        self._two_runs(store)
        text = render_store_regressions(
            regression_query(store, "run-old", "run-new", threshold=3.0)
        )
        assert text == "no regressions: run-new vs run-old (threshold 3.00x)"
