"""Core machinery: suppressions, findings, scoping, engine set-up."""

import pytest

from repro.exceptions import ConfigurationError
from repro.lint import Finding, LintConfig, LintEngine
from repro.lint.core import _parse_suppressions


class TestSuppressions:
    def test_inline_and_standalone_directives(self, lint_fixture):
        assert lint_fixture("algorithms/suppressed_case.py") == []

    def test_parse_inline_rule_list(self):
        parsed = _parse_suppressions("x = 1  # lint: disable=DET001,DET003\n")
        assert parsed == {1: {"DET001", "DET003"}}

    def test_parse_bare_disable_means_all(self):
        parsed = _parse_suppressions("x = 1  # lint: disable\n")
        assert parsed == {1: None}

    def test_standalone_comment_covers_next_line(self):
        parsed = _parse_suppressions("# lint: disable=DET001\nx = 1\n")
        assert parsed == {1: {"DET001"}, 2: {"DET001"}}

    def test_unrelated_comments_ignored(self):
        assert _parse_suppressions("x = 1  # noqa: BLE001\n") == {}


class TestSuppressionSpans:
    """A directive on a statement's first line (or a decorator) covers
    the statement's full ``end_lineno`` span."""

    def _module(self, tmp_path, source):
        from repro.lint.core import Module

        path = tmp_path / "m.py"
        path.write_text(source, encoding="utf-8")
        return Module(path, "m.py", source)

    def test_multiline_statement_covered_from_first_line(self, tmp_path):
        module = self._module(
            tmp_path,
            "value = make(  # lint: disable=OBS001\n"
            "    1,\n"
            "    2,\n"
            ")\n",
        )
        for line in (1, 2, 3, 4):
            assert module.suppressions.get(line) == {"OBS001"}

    def test_decorator_directive_covers_the_whole_def(self, tmp_path):
        module = self._module(
            tmp_path,
            "@wrap  # lint: disable=DET001\n"
            "def fn():\n"
            "    x = 1\n"
            "    return x\n",
        )
        for line in (1, 2, 3, 4):
            assert module.suppressions.get(line) == {"DET001"}

    def test_bare_disable_wins_over_rule_list(self, tmp_path):
        module = self._module(
            tmp_path,
            "with ctx(  # lint: disable\n"
            "    arg,  # lint: disable=DET001\n"
            "):\n"
            "    pass\n",
        )
        assert module.suppressions.get(1) is None
        assert module.suppressions.get(4) is None

    def test_unrelated_statements_not_covered(self, tmp_path):
        module = self._module(
            tmp_path,
            "x = 1  # lint: disable=OBS001\n"
            "y = 2\n",
        )
        assert module.suppressions.get(1) == {"OBS001"}
        assert 2 not in module.suppressions

    def test_suppression_inside_span_silences_rule(self, tmp_path):
        # End-to-end: the DET001 finding anchors on the *second*
        # physical line of the statement; a directive on the first
        # line must now cover it.
        from repro.lint import LintConfig, LintEngine

        source = (
            "items = [2, 0, 1]\n"
            "\n"
            "value = tuple(\n"
            "    [v for v in set(items)]\n"
            ")\n"
        )
        (tmp_path / "algorithms").mkdir()
        target = tmp_path / "algorithms" / "case.py"
        target.write_text(source, encoding="utf-8")
        config = LintConfig(root=tmp_path, select=["DET001"])
        findings = LintEngine(config).run([target])
        assert [f.line for f in findings] == [4]
        suppressed = source.replace(
            "value = tuple(",
            "value = tuple(  # lint: disable=DET001",
        )
        target.write_text(suppressed, encoding="utf-8")
        assert LintEngine(config).run([target]) == []


class TestFinding:
    def test_as_dict_round_trips_fields(self):
        f = Finding("DET001", "error", "a/b.py", 10, 5, "msg", "fn")
        d = f.as_dict()
        assert d["rule"] == "DET001"
        assert d["path"] == "a/b.py"
        assert d["line"] == 10 and d["col"] == 5
        assert d["symbol"] == "fn"
        assert "occurrence" not in d

    def test_engine_assigns_occurrences_in_source_order(self, tmp_path):
        # Two identical violations in one function are two findings,
        # reported in source order.
        source = (
            "def kernel(frontier):\n"
            "    order = []\n"
            "    for v in set(frontier):\n"
            "        order.append(v)\n"
            "    for v in set(frontier):\n"
            "        order.append(v)\n"
            "    return order\n"
        )
        (tmp_path / "algorithms").mkdir()
        target = tmp_path / "algorithms" / "case.py"
        target.write_text(source, encoding="utf-8")
        config = LintConfig(root=tmp_path, select=["DET001"])
        findings = LintEngine(config).run([target])
        assert [f.line for f in findings] == [3, 5]
        assert findings[0].message == findings[1].message


class TestEngineSetup:
    def test_unknown_selected_rule_rejected(self):
        with pytest.raises(ConfigurationError, match="NOPE01"):
            LintEngine(LintConfig(select=["NOPE01"]))

    def test_syntax_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n", encoding="utf-8")
        findings = LintEngine(LintConfig()).run([bad])
        assert len(findings) == 1
        assert findings[0].rule_id == "SYNTAX"
        assert findings[0].severity == "error"

    def test_exclude_patterns_filter_files(self, tmp_path):
        # The linter's fixtures are skipped when a run walks a directory
        # above them, and linted when a path names them.
        fixtures = tmp_path / "tests" / "lint" / "fixtures" / "algorithms"
        for directory in (tmp_path / "algorithms", fixtures):
            directory.mkdir(parents=True)
            (directory / "case.py").write_text(
                "for v in {2, 0, 1}:\n    print(v)\n"
            )
        engine = LintEngine(LintConfig(root=tmp_path))
        assert [f.path for f in engine.run([tmp_path])] == ["algorithms/case.py"]
        assert [f.path for f in engine.run([fixtures])] == [
            "tests/lint/fixtures/algorithms/case.py"
        ]
