"""The ``graphalytics lint`` subcommand, end to end."""

import json

import pytest

from repro.cli import main

BAD_SOURCE = """\
import random


def jitter():
    return random.random()
"""


class TestCleanTree:
    def test_shipped_tree_is_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_format_on_clean_tree(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["new"] == 0
        assert payload["findings"] == []

    def test_explicit_path_argument(self, capsys):
        assert main(["lint", "src/repro"]) == 0


class TestViolations:
    def test_injected_violation_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SOURCE, encoding="utf-8")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "DET002" in out
        assert "1 new finding" in out

    def test_json_format_reports_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SOURCE, encoding="utf-8")
        assert main(["lint", "--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["new"] == 1
        assert payload["findings"][0]["rule"] == "DET002"
        assert payload["findings"][0]["line"] == 5

    def test_select_limits_rules(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SOURCE, encoding="utf-8")
        assert main(["lint", str(bad), "--select", "CON002"]) == 0


class TestSuppressionIsTheOnlyGrandfathering:
    @pytest.mark.parametrize("flag", [
        "--baseline=x.json", "--no-baseline", "--write-baseline",
        "--show-baselined",
    ])
    def test_baseline_flags_are_gone(self, flag, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SOURCE, encoding="utf-8")
        with pytest.raises(SystemExit) as exc_info:
            main(["lint", str(bad), flag])
        assert exc_info.value.code == 2
        assert list(tmp_path.iterdir()) == [bad]

    def test_inline_suppression_grandfathers_a_finding(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            BAD_SOURCE.replace(
                "random.random()", "random.random()  # lint: disable=DET002"
            ) + "\n\nx = random.shuffle([])\n",
            encoding="utf-8",
        )
        # The suppressed finding no longer fails the run; a second,
        # unsuppressed violation still does.
        assert main(["lint", "--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert "baselined" not in payload and "stale" not in payload
        assert [row["line"] for row in payload["findings"]] == [8]
        assert "shuffle" in payload["findings"][0]["message"]


class TestProjectPhaseFlag:
    # The committed raceproj fixture is excluded by pyproject's lint
    # excludes (the CLI loads them); a tmp copy of the same shape isn't.
    def _miniproject(self, tmp_path):
        (tmp_path / "state.py").write_text("CACHE = {}\n", encoding="utf-8")
        (tmp_path / "worker.py").write_text(
            "import multiprocessing as mp\n"
            "\n"
            "from state import CACHE\n"
            "\n"
            "\n"
            "def _worker_main(conn):\n"
            "    CACHE[1] = conn.recv()\n"
            "\n"
            "\n"
            "def spawn(conn):\n"
            "    mp.Process(target=_worker_main, args=(conn,)).start()\n",
            encoding="utf-8",
        )
        return tmp_path

    def test_project_rules_fire_by_default(self, tmp_path, capsys):
        project = self._miniproject(tmp_path)
        assert main([
            "lint", str(project), "--select", "RACE001",
        ]) == 1
        assert "RACE001" in capsys.readouterr().out

    def test_no_project_skips_whole_program_phase(self, tmp_path, capsys):
        project = self._miniproject(tmp_path)
        assert main([
            "lint", str(project), "--select", "RACE001",
            "--no-project",
        ]) == 0
        assert "clean" in capsys.readouterr().out


class TestListRules:
    def test_rule_table_printed(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "DET003", "CON001",
                        "CON002", "EXC001", "REG001", "REP001"):
            assert rule_id in out
