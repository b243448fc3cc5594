"""A command that fails on its input says so in one ``error:`` line."""

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = str(Path(__file__).resolve().parents[2] / "src")


def closed_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.mark.parametrize("argv, says", [
    (["validate", "R1", "bfs", "{tmp}/missing.txt"], "missing.txt"),
    (["submit", "{tmp}/missing.json"], "missing.json"),
    (["submit", "{tmp}/truncated.json"], "truncated.json is not valid JSON"),
    (["submit", "example", "--chaos", "{tmp}/missing.json"], "missing.json"),
    (["health", "--port", "{port}"], "refused"),
    (["fetch", "r1", "--port", "{port}"], "refused"),
])
def test_bad_input_is_an_error_line_not_a_traceback(tmp_path, argv, says):
    (tmp_path / "truncated.json").write_text('{"platforms": [', encoding="utf-8")
    argv = [a.format(tmp=tmp_path, port=closed_port()) for a in argv]
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 1, completed.stderr
    assert completed.stderr.startswith("error:"), completed.stderr
    assert says in completed.stderr
    assert "Traceback" not in completed.stderr


@pytest.mark.parametrize("sizes", [
    ["--vertices", "-5", "--edges", "10"],
    ["--vertices", "0", "--edges", "0"],
    ["--vertices", "10", "--edges", "0"],
    ["--vertices", "nan", "--edges", "10"],
])
def test_estimate_refuses_impossible_sizes(sizes, capsys):
    assert main(["estimate", "graphmat", "bfs", *sizes]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --")
    assert "modeled" not in captured.out


@pytest.fixture
def three_platform_store(tmp_path):
    """Two runs of three platforms; Giraph is 0.80x as fast in the second."""
    from repro.resultsdb.store import ResultsStore
    from tests.resultsdb.conftest import make_metadata, make_record

    times = {
        "run-old": {"GraphMat": 0.3, "Giraph": 1.0, "PGX.D": 0.5},
        "run-new": {"GraphMat": 0.3, "Giraph": 0.8, "PGX.D": 0.5},
    }
    with ResultsStore(tmp_path / "results.db") as store:
        for run_id, by_platform in times.items():
            store.submit_run(make_metadata(run_id), [
                make_record(platform=platform, modeled_processing_time=tproc)
                for platform, tproc in by_platform.items()
            ])
    return tmp_path


@pytest.mark.parametrize("argv, value", [
    (["top", "bfs", "D300", "--limit", "-1"], "-1"),
    (["top", "bfs", "D300", "--limit", "0"], "0"),
    (["regressions", "run-old", "run-new", "--threshold", "0.5"], "0.5"),
    (["regressions", "run-old", "run-new", "--threshold", "nan"], "nan"),
    (["regressions", "run-old", "run-new", "--threshold", "inf"], "inf"),
])
def test_db_query_refuses_a_bound_that_gives_wrong_answers(
    three_platform_store, argv, value, capsys
):
    assert main(["db", "--store", str(three_platform_store), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:"), captured.err
    assert f"not {value}" in captured.err


@pytest.mark.parametrize("pair", [["giraph", "giraph"], ["giraph", "GIRAPH"]])
def test_analyze_refuses_one_platform_against_itself(pair, monkeypatch, capsys):
    from repro.harness.runner import BenchmarkRunner

    monkeypatch.setattr(
        BenchmarkRunner, "run", lambda self: pytest.fail("analyze ran jobs")
    )
    assert main(["analyze", *pair, "R1", "bfs", "--repetitions", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:"), captured.err
    assert "with itself" in captured.err
