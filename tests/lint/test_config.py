"""The settings of a lint run: the project root and the rule selection.

There is no settings file: ``pyproject.toml`` only marks the root.
"""

from repro.lint import LintConfig, find_project_root


class TestLoadConfig:
    def test_no_project_root_yields_defaults(self):
        config = LintConfig()
        assert config.root is None
        assert config.select == []
        assert not hasattr(config, "exclude")

    def test_find_project_root(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\n")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        assert find_project_root(nested) == tmp_path
