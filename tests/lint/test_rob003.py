"""ROB003: SQLite connections belong to ``repro.resultsdb`` alone."""

from pathlib import Path

from repro.lint import LintConfig, LintEngine

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _run(paths, select):
    config = LintConfig(root=REPO_ROOT, select=list(select))
    return LintEngine(config).run([Path(p) for p in paths])


def _triples(findings):
    return sorted(
        (f.rule_id, f.path.rsplit("/", 1)[-1], f.line) for f in findings
    )


class TestRob003:
    def test_exact_findings(self):
        findings = _run([FIXTURES / "resultsdbproj"], ["ROB003"])
        assert _triples(findings) == [
            ("ROB003", "state.py", 12),  # sqlite3.connect(...)
            ("ROB003", "state.py", 16),  # aliased: sq.connect(...)
            ("ROB003", "state.py", 20),  # from sqlite3 import connect
            ("ROB003", "state.py", 24),  # helper-indirected connection
        ]
        assert all(f.severity == "error" for f in findings)

    def test_messages_point_at_the_store(self):
        by_line = {
            f.line: f.message
            for f in _run([FIXTURES / "resultsdbproj"], ["ROB003"])
        }
        assert "repro.resultsdb" in by_line[12]
        assert "ResultsStore" in by_line[12]
        assert "resultsdb.commit" in by_line[12]
        # The interprocedural finding names the tainted helper.
        assert "util.db.open_db" in by_line[24]
        assert "ResultsStore" in by_line[24]

    def test_resultsdb_module_is_exempt(self):
        findings = _run([FIXTURES / "resultsdbproj"], ["ROB003"])
        assert all("store.py" not in f.path for f in findings)

    def test_sanctioned_call_into_resultsdb_is_clean(self):
        # ``sanctioned`` calls resultsdb's own opener: the store layer
        # never taints its callers — calling into it IS the fix.
        lines = {f.line for f in _run([FIXTURES / "resultsdbproj"], ["ROB003"])}
        assert 28 not in lines

    def test_non_sqlite_connect_attribute_is_clean(self):
        lines = {f.line for f in _run([FIXTURES / "resultsdbproj"], ["ROB003"])}
        assert 32 not in lines

    def test_out_of_scope_helper_not_flagged_directly(self):
        findings = _run([FIXTURES / "resultsdbproj"], ["ROB003"])
        assert all("db.py" not in f.path for f in findings)

    def test_interprocedural_needs_project_phase(self):
        # Without the helper's module in the linted tree only the
        # per-file pass can fire.
        lines = {
            f.line
            for f in _run([FIXTURES / "resultsdbproj" / "service"], ["ROB003"])
        }
        assert 24 not in lines
        assert {12, 16, 20} <= lines

    def test_shipped_tree_is_clean(self):
        findings = _run([REPO_ROOT / "src" / "repro"], ["ROB003"])
        assert findings == []
