"""Configuration loading from pyproject.toml (tomllib and fallback)."""

import sys
from pathlib import Path

import pytest

from repro.lint import LintConfig, find_project_root, load_config
from repro.lint.config import _parse_toml_minimal

REPO_ROOT = Path(__file__).resolve().parents[2]

SAMPLE = """
[project]
name = "demo"

[tool.graphalytics.lint]
baseline = "custom-baseline.json"
select = ["DET001", "OBS001"]
ignore = ["REP001"]
exclude = ["tests/*"]

[tool.graphalytics.lint.scopes]
DET001 = ["algorithms", "engines"]
"""


class TestMinimalTomlParser:
    def test_nested_sections_and_values(self):
        data = _parse_toml_minimal(SAMPLE)
        section = data["tool"]["graphalytics"]["lint"]
        assert section["baseline"] == "custom-baseline.json"
        assert section["select"] == ["DET001", "OBS001"]
        assert section["ignore"] == ["REP001"]
        assert section["scopes"]["DET001"] == ["algorithms", "engines"]

    def test_comments_and_noise_ignored(self):
        data = _parse_toml_minimal("# comment\n[a]\nkey = 'v'  # trailing\n")
        assert data == {"a": {"key": "v"}}


class TestLoadConfig:
    def test_repo_pyproject_is_read(self):
        config = load_config(REPO_ROOT)
        assert config.root == REPO_ROOT
        assert any("fixtures" in pattern for pattern in config.exclude)

    def test_fallback_parser_reads_the_repo_excludes(self, monkeypatch):
        # Interpreters without tomllib read multi-line arrays too.
        tomllib = pytest.importorskip("tomllib")
        text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        expected = tomllib.loads(text)["tool"]["graphalytics"]["lint"]
        monkeypatch.setitem(sys.modules, "tomllib", None)
        assert load_config(REPO_ROOT).exclude == expected["exclude"]

    def test_custom_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(SAMPLE, encoding="utf-8")
        config = load_config(tmp_path)
        assert config.select == ["DET001", "OBS001"]
        assert config.exclude == ["tests/*"]
        # The retired `baseline` and `ignore` keys and `scopes` table
        # are ignored.
        assert not hasattr(config, "baseline")
        assert not hasattr(config, "ignore")
        assert not hasattr(config, "scopes")

    def test_no_project_root_yields_defaults(self, tmp_path):
        # tmp_path has no pyproject.toml anywhere above it that counts
        # as *this* project's; simulate by pointing below a bare dir.
        config = LintConfig()
        assert config.root is None
        assert config.select == [] and config.exclude == []

    def test_find_project_root(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\n")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        assert find_project_root(nested) == tmp_path
