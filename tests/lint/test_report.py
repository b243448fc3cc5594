"""Text and JSON reporters."""

import json

from repro.lint import Finding, render_json, render_text


def _finding(rule="DET001", message="msg"):
    return Finding(rule, "error", "a/b.py", 10, 5, message, "fn")


class TestTextReport:
    def test_clean_run(self):
        assert render_text([]) == "lint: clean (0 findings)"

    def test_finding_line_format(self):
        text = render_text([_finding()])
        assert "a/b.py:10:5: DET001 msg [fn]" in text
        assert "lint: 1 new finding (DET001: 1)" in text

    def test_summary_counts_per_rule(self):
        text = render_text([_finding(), _finding(), _finding(rule="OBS001")])
        assert "lint: 3 new findings (DET001: 2, OBS001: 1)" in text


class TestJsonReport:
    def test_document_shape(self):
        payload = json.loads(render_json([_finding(), _finding("OBS001")]))
        assert sorted(payload) == ["counts", "findings", "new", "version"]
        assert payload["version"] == 2
        assert payload["new"] == 2
        assert payload["counts"] == {"DET001": 1, "OBS001": 1}
        assert [row["rule"] for row in payload["findings"]] == [
            "DET001", "OBS001",
        ]
        assert "baselined" not in payload["findings"][0]

    def test_empty_document(self):
        payload = json.loads(render_json([]))
        assert payload["new"] == 0 and payload["findings"] == []
