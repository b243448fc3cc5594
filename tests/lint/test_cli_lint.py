"""The ``graphalytics lint`` subcommand, end to end."""

import json

import pytest

from repro.cli import main
from repro.lint import all_rules

BAD_SOURCE = """\
def kernel(frontier):
    order = []
    for v in set(frontier):
        order.append(v)
    return order
"""


def _bad_kernel(tmp_path, source=BAD_SOURCE):
    """A kernel module (in DET001's scope) holding one violation."""
    (tmp_path / "algorithms").mkdir()
    bad = tmp_path / "algorithms" / "bad.py"
    bad.write_text(source, encoding="utf-8")
    return bad


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
        bad = _bad_kernel(tmp_path)
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "1 new finding" in out

    def test_json_format_reports_violation(self, tmp_path, capsys):
        bad = _bad_kernel(tmp_path)
        assert main(["lint", "--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["new"] == 1
        assert payload["findings"][0]["rule"] == "DET001"
        assert payload["findings"][0]["line"] == 3

    def test_select_limits_rules(self, tmp_path, capsys):
        bad = _bad_kernel(tmp_path)
        assert main(["lint", str(bad), "--select", "DET003"]) == 0


class TestSuppressionIsTheOnlyGrandfathering:
    @pytest.mark.parametrize("flag", [
        "--baseline=x.json", "--no-baseline", "--write-baseline",
        "--show-baselined",
    ])
    def test_baseline_flags_are_gone(self, flag, tmp_path):
        bad = _bad_kernel(tmp_path)
        with pytest.raises(SystemExit) as exc_info:
            main(["lint", str(bad), flag])
        assert exc_info.value.code == 2
        assert list(tmp_path.rglob("*")) == [bad.parent, bad]

    def test_inline_suppression_grandfathers_a_finding(self, tmp_path, capsys):
        bad = _bad_kernel(
            tmp_path,
            BAD_SOURCE.replace(
                "in set(frontier):", "in set(frontier):  # lint: disable=DET001"
            ) + "\n\nlabels = [v for v in {3, 1, 2}]\n",
        )
        # The suppressed finding no longer fails the run; a second,
        # unsuppressed violation still does.
        assert main(["lint", "--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert "baselined" not in payload and "stale" not in payload
        assert [row["line"] for row in payload["findings"]] == [8]
        assert "{3, 1, 2}" in payload["findings"][0]["message"]


class TestProjectPhaseFlag:
    # A tmp project in the shape of the committed raceproj fixture.
    def _miniproject(self, tmp_path):
        (tmp_path / "state.py").write_text(
            "import threading\n\nLOCK = threading.Lock()\n", encoding="utf-8"
        )
        (tmp_path / "worker.py").write_text(
            "import multiprocessing as mp\n"
            "\n"
            "from state import LOCK\n"
            "\n"
            "\n"
            "def _worker_main(conn):\n"
            "    with LOCK:\n"
            "        conn.send(conn.recv())\n"
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
            "lint", str(project), "--select", "RACE003",
        ]) == 1
        assert "RACE003" in capsys.readouterr().out

    def test_no_project_flag_is_gone(self, tmp_path):
        # Lint has one mode: the whole-program phase always runs.
        project = self._miniproject(tmp_path)
        with pytest.raises(SystemExit) as exc_info:
            main(["lint", str(project), "--no-project"])
        assert exc_info.value.code == 2


class TestListRules:
    def test_rule_table_printed(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in all_rules():
            assert rule_id in out
