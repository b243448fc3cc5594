"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_job_arguments(self):
        args = build_parser().parse_args(
            ["job", "graphmat", "D300", "bfs", "--machines", "4"]
        )
        assert args.platform == "graphmat"
        assert args.machines == 4


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "dota-league" in out
        assert "graph500-26" in out

    def test_platforms(self, capsys):
        assert main(["reproduce", "table05"]) == 0
        out = capsys.readouterr().out
        assert "PGX.D" in out
        assert "C, D" in out and "I, S" in out

    def test_experiments(self, capsys):
        assert main(["reproduce", "table06"]) == 0
        out = capsys.readouterr().out
        assert "dataset-variety" in out
        assert "4.8" in out

    def test_reproduce_unknown_artifact(self, capsys):
        assert main(["reproduce", "table05", "table13"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown artifact 'table13'; known: table01" in captured.err

    def test_job(self, capsys):
        assert main(["job", "graphmat", "D100", "bfs"]) == 0
        out = capsys.readouterr().out
        assert "succeeded" in out

    def test_job_failure_reported(self, capsys):
        assert main(["job", "pgxd", "G25", "bfs"]) == 0
        out = capsys.readouterr().out
        assert "failed-memory" in out

    def test_job_unknown_platform_errors(self, capsys):
        assert main(["job", "neo4j", "D100", "bfs"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_generate(self, tmp_path, capsys):
        prefix = tmp_path / "out"
        code = main(
            ["generate", str(prefix), "--persons", "100", "--seed", "3"]
        )
        assert code == 0
        assert (tmp_path / "out.v").exists()
        assert (tmp_path / "out.e").exists()

    def test_generate_weighted_with_cc(self, tmp_path):
        prefix = tmp_path / "out"
        code = main(
            [
                "generate", str(prefix), "--persons", "120",
                "--target-cc", "0.2", "--weighted",
            ]
        )
        assert code == 0
        content = (tmp_path / "out.e").read_text().splitlines()
        assert len(content[0].split()) == 3  # weighted edges

    def test_run_small_experiment(self, capsys):
        assert main(["run", "data-generation"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 1

    def test_granula(self, capsys, tmp_path):
        html = tmp_path / "report.html"
        code = main(["granula", "openg", "R1", "bfs", "--html", str(html)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Tproc" in out
        assert html.exists()

    def test_granula_failed_job(self, capsys):
        code = main(["granula", "pgxd", "G25", "bfs"])
        assert code == 1
        assert "failed" in capsys.readouterr().out


class TestReportCommand:
    def test_report_to_stdout(self, capsys):
        code = main(
            [
                "report", "--platforms", "openg", "--datasets", "R1",
                "--algorithms", "bfs",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "## BFS" in out and "OpenG" in out

    def test_report_to_file(self, tmp_path):
        path = tmp_path / "report.md"
        code = main(
            [
                "report", "--platforms", "graphmat", "--datasets", "R1",
                "--algorithms", "bfs", "--output", str(path),
            ]
        )
        assert code == 0
        assert "GraphMat" in path.read_text()

    def test_sharded_report_traces_the_barrier(self, tmp_path):
        # The CI partitioned leg's smoke test: a journaled pythonref run
        # on two machines — two shards — leaves the three per-product
        # spans in trace.jsonl.
        from repro.trace import read_trace

        run_dir = tmp_path / "run"
        code = main(
            [
                "report", "--platforms", "pythonref", "--datasets", "D100",
                "--algorithms", "pr", "bfs", "--machines", "2",
                "--run-dir", str(run_dir),
                "--output", str(tmp_path / "report.md"),
            ]
        )
        assert code == 0
        spans, _ = read_trace(run_dir / "trace.jsonl")
        assert {"shard-compute", "exchange", "barrier-wait"} <= {
            span.name for span in spans
        }
        # One dataset, two jobs: deployed once (under the first job's
        # load), and both runs found the shards live.
        assert sorted(
            (s.name, s.attributes["deployed"])
            for s in spans if "deployed" in s.attributes
        ) == [
            ("deploy", "fresh"),
            ("partitioned", "reused"), ("partitioned", "reused"),
        ]

    def test_sharded_report_on_two_workers(self, tmp_path):
        # Pool workers own the shards of their jobs (they used to be
        # refused them, and every row came back a harness-error).
        import json

        run_dir = tmp_path / "run"
        code = main(
            [
                "report", "--platforms", "pythonref", "--datasets", "R1",
                "G22", "--algorithms", "bfs", "wcc", "--machines", "2",
                "--workers", "2", "--run-dir", str(run_dir),
                "--output", str(tmp_path / "report.md"),
            ]
        )
        assert code == 0
        rows = json.loads((run_dir / "results.json").read_text())
        assert [row["status"] for row in rows] == ["succeeded"] * 4
        assert all(row["validated"] for row in rows)
        assert all(row["machines"] == 2 for row in rows)

    def test_partition_flags_are_gone(self, capsys):
        for argv in (
            ["report", "--partitions", "2"],
            ["serve", "--partition-strategy", "range"],
            ["submit", "example", "--partitions", "2"],
        ):
            with pytest.raises(SystemExit):
                main(argv)
        assert "unrecognized arguments" in capsys.readouterr().err


class TestValidateCommand:
    def test_valid_output_accepted(self, tmp_path, capsys):
        from repro.algorithms.output_io import write_output
        from repro.algorithms.registry import run_reference
        from repro.harness.datasets import get_dataset

        dataset = get_dataset("R1")
        graph = dataset.materialize(0)
        params = dataset.algorithm_parameters("bfs", 0)
        reference = run_reference("bfs", graph, params)
        out_file = write_output(graph, reference, tmp_path / "bfs.out",
                                algorithm="bfs")
        assert main(["validate", "R1", "bfs", str(out_file)]) == 0
        assert "matches" in capsys.readouterr().out

    def test_tampered_output_rejected(self, tmp_path, capsys):
        from repro.algorithms.output_io import write_output
        from repro.algorithms.registry import run_reference
        from repro.harness.datasets import get_dataset

        dataset = get_dataset("R1")
        graph = dataset.materialize(0)
        params = dataset.algorithm_parameters("bfs", 0)
        reference = run_reference("bfs", graph, params).copy()
        reference[0] += 1
        out_file = write_output(graph, reference, tmp_path / "bfs.out",
                                algorithm="bfs")
        assert main(["validate", "R1", "bfs", str(out_file)]) == 1
        assert "VALIDATION FAILED" in capsys.readouterr().out


class TestFigureFlag:
    def test_run_with_figure(self, capsys):
        assert main(["run", "vertical-scalability", "--figure"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out
        assert "threads=32" in out


class TestMaterializeCommand:
    def test_materialize(self, tmp_path, capsys):
        code = main(
            [
                "materialize", str(tmp_path / "archive"),
                "--datasets", "R1", "--algorithms", "bfs",
            ]
        )
        assert code == 0
        assert (tmp_path / "archive" / "R1" / "wiki-talk.v").exists()
        assert (tmp_path / "archive" / "R1" / "wiki-talk-BFS").exists()
        assert "archived" in capsys.readouterr().out


class TestFullRunCommand:
    def test_subset_with_report_and_repo(self, tmp_path, capsys):
        code = main(
            [
                "full-run",
                "--experiments", "variability",
                "--report", str(tmp_path / "report.md"),
                "--repository", str(tmp_path / "repo"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ran 1 experiments" in out
        assert (tmp_path / "report.md").exists()
        assert (tmp_path / "repo" / "results.db").exists()
        from repro.resultsdb.store import ResultsStore

        assert ResultsStore(tmp_path / "repo" / "results.db").run_ids()


class TestGenerateGraph500:
    def test_graph500_generator(self, tmp_path):
        prefix = tmp_path / "kron"
        code = main(
            [
                "generate", str(prefix), "--generator", "graph500",
                "--scale", "8", "--edgefactor", "4",
            ]
        )
        assert code == 0
        lines = (tmp_path / "kron.e").read_text().splitlines()
        assert len(lines) > 100


class TestEstimateCommand:
    def test_d300_matches_table8(self, capsys):
        code = main(
            [
                "estimate", "graphmat", "bfs",
                "--vertices", "4.35e6", "--edges", "304e6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scale=8.5" in out
        assert "fits" in out
        assert "modeled Tproc: 0.3" in out

    def test_oom_reported(self, capsys):
        code = main(
            [
                "estimate", "pgxd", "bfs",
                "--vertices", "17.1e6", "--edges", "524e6", "--skew", "1.5",
            ]
        )
        assert code == 1
        assert "OUT OF MEMORY" in capsys.readouterr().out

    def test_distributed_estimate(self, capsys):
        code = main(
            [
                "estimate", "pgxd", "pr",
                "--vertices", "12.8e6", "--edges", "1.01e9",
                "--machines", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 x" in out and "within" in out


class TestRepositoryCommand:
    @pytest.fixture
    def stocked_repo(self, tmp_path):
        from repro.harness.results import BenchmarkResult, ResultsDatabase
        from repro.resultsdb.store import (
            ResultsStore, RunMetadata, submit_validated_run,
        )

        def result(tproc):
            return BenchmarkResult(
                platform="GraphMat", algorithm="bfs", dataset="D300",
                machines=1, threads=32, status="succeeded",
                modeled_processing_time=tproc, sla_compliant=True,
                validated=True,
            )

        with ResultsStore(tmp_path / "repo" / "results.db") as repo:
            for run_id, tproc in (("v1", 1.0), ("v2", 2.0)):
                submit_validated_run(
                    repo, RunMetadata(run_id, "GraphMat"),
                    ResultsDatabase([result(tproc)]),
                )
        return tmp_path / "repo"

    """The results repository is queried through ``db --store DIR``."""

    def test_list(self, stocked_repo, capsys):
        assert main(["db", "--store", str(stocked_repo), "runs"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split() for line in lines] == [
            ["v1", "GraphMat", "1", "jobs"],
            ["v2", "GraphMat", "1", "jobs"],
        ]

    def test_best(self, stocked_repo, capsys):
        assert main(["db", "--store", str(stocked_repo), "top", "bfs", "D300"]) == 0
        out = capsys.readouterr().out
        assert "GraphMat" in out and "run v1" in out

    def test_best_missing(self, stocked_repo, capsys):
        assert main(["db", "--store", str(stocked_repo), "top", "pr", "R1"]) == 1

    def test_regressions_found(self, stocked_repo, capsys):
        code = main(
            ["db", "--store", str(stocked_repo), "regressions", "v1", "v2"]
        )
        assert code == 1
        assert "2.00x" in capsys.readouterr().out

    def test_no_regressions(self, stocked_repo, capsys):
        code = main(
            ["db", "--store", str(stocked_repo), "regressions", "v2", "v1"]
        )
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regressions_query_runs_once(self, stocked_repo, capsys, monkeypatch):
        # The table and the exit status come from one answer: a second
        # read of a live store could disagree with the first.
        from repro.resultsdb import queries

        calls = []
        real = queries.regressions

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return real(*args, **kwargs)

        monkeypatch.setattr(queries, "regressions", counting)
        code = main(
            ["db", "--store", str(stocked_repo), "regressions", "v1", "v2"]
        )
        assert code == 1 and len(calls) == 1

    def test_empty_repository_list(self, tmp_path, capsys):
        from repro.resultsdb.store import ResultsStore

        ResultsStore(tmp_path / "new" / "results.db").close()
        assert main(["db", "--store", str(tmp_path / "new"), "runs"]) == 0
        assert "no runs" in capsys.readouterr().out

    def test_repository_command_is_gone(self, stocked_repo, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["repository", str(stocked_repo), "list"])
        assert exc_info.value.code == 2


class TestAnalyzeCommand:
    def test_head_to_head(self, capsys):
        code = main(
            ["analyze", "graphmat", "giraph", "D300", "bfs",
             "--repetitions", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "95% CI" in out
        assert "graphmat is" in out and "faster than" in out


class TestTraceCommand:
    def _run(self, tmp_path):
        from repro.harness.config import BenchmarkConfig
        from repro.harness.runner import BenchmarkRunner

        runner = BenchmarkRunner(
            BenchmarkConfig(
                platforms=["pythonref"], datasets=["G22"],
                algorithms=["bfs"], repetitions=1,
            )
        )
        runner.run(run_dir=tmp_path / "run")
        return tmp_path / "run"

    def test_tree_view(self, tmp_path, capsys):
        run_dir = self._run(tmp_path)
        assert main(["trace", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "matrix-run" in out
        assert "kernel" in out
        assert "counters:" in out

    def test_summary_view(self, tmp_path, capsys):
        run_dir = self._run(tmp_path)
        assert main(["trace", str(run_dir), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "pythonref" in out and "bfs" in out
        assert "tproc" in out

    def test_summary_shows_processing_faults(self, tmp_path, capsys):
        run_dir = self._run(tmp_path)
        assert main(["trace", str(run_dir), "--summary"]) == 0
        header, row = capsys.readouterr().out.splitlines()[1:3]
        assert header.split()[-1] == "minflt"
        assert row.split()[-1].isdigit()

    def test_max_depth(self, tmp_path, capsys):
        run_dir = self._run(tmp_path)
        assert main(["trace", str(run_dir), "--max-depth", "1"]) == 0
        out = capsys.readouterr().out
        assert "matrix-run" in out and "kernel" not in out

    def test_missing_trace_errors(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path)]) == 1
        assert "does not exist" in capsys.readouterr().err


class TestSelfcheckCommand:
    def test_healthy_installation(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "all 7 checks passed" in out
        assert "calibration" in out and "determinism" in out


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "selfcheck"],
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr[-1000:]
        assert "all 7 checks passed" in completed.stdout


class TestDbCommand:
    """`graphalytics db`: canned queries over the SQLite results store."""

    def _seed_store(self, tmp_path):
        from repro.resultsdb.store import ResultsStore

        path = tmp_path / "results.db"
        with ResultsStore(path) as store:
            store.submit_run(
                {
                    "run_id": "run-old",
                    "system_under_test": "GraphMat on DAS-5",
                    "submitter": "", "description": "",
                },
                [
                    {"platform": "GraphMat", "algorithm": "bfs",
                     "dataset": "D300", "machines": 1, "threads": 32,
                     "status": "succeeded", "modeled_processing_time": 1.0,
                     "modeled_makespan": 2.0, "sla_compliant": True,
                     "validated": True},
                    {"platform": "Giraph", "algorithm": "bfs",
                     "dataset": "D300", "machines": 1, "threads": 32,
                     "status": "succeeded", "modeled_processing_time": 0.5,
                     "modeled_makespan": 2.0, "sla_compliant": True,
                     "validated": True},
                ],
                commit_sha="aaaa1111",
            )
            store.submit_run(
                {
                    "run_id": "run-new",
                    "system_under_test": "GraphMat on DAS-5",
                    "submitter": "", "description": "",
                },
                [
                    {"platform": "GraphMat", "algorithm": "bfs",
                     "dataset": "D300", "machines": 1, "threads": 32,
                     "status": "succeeded", "modeled_processing_time": 3.0,
                     "modeled_makespan": 4.0, "sla_compliant": True,
                     "validated": True},
                ],
                commit_sha="bbbb2222",
                spans=[{"id": "s1", "name": "run", "start": 0.0, "end": 9.0}],
            )
        return path

    def test_top_leaderboard(self, tmp_path, capsys):
        path = self._seed_store(tmp_path)
        assert main(["db", "--store", str(path), "top", "bfs", "D300"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith(" 1. Giraph")
        assert "run run-old" in lines[0]
        assert lines[1].startswith(" 2. GraphMat")

    def test_top_accepts_a_directory_store(self, tmp_path, capsys):
        path = self._seed_store(tmp_path)
        assert path.parent == tmp_path
        assert main(
            ["db", "--store", str(tmp_path), "top", "bfs", "D300"]
        ) == 0
        assert "Giraph" in capsys.readouterr().out

    def test_top_empty_workload_exits_one(self, tmp_path, capsys):
        path = self._seed_store(tmp_path)
        assert main(["db", "--store", str(path), "top", "wcc", "D300"]) == 1
        assert "no compliant result" in capsys.readouterr().out

    def test_trend_shows_commit_and_gap_markers(self, tmp_path, capsys):
        path = self._seed_store(tmp_path)
        assert main(
            ["db", "--store", str(path), "trend", "GraphMat", "bfs", "D300"]
        ) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("run-old")
        assert "@aaaa1111" in lines[0] and "1 s" in lines[0]
        assert lines[1].startswith("run-new")
        assert "3 s" in lines[1]

    def test_regressions_found_exits_one(self, tmp_path, capsys):
        path = self._seed_store(tmp_path)
        code = main(
            ["db", "--store", str(path), "regressions", "run-old", "run-new"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "1 regression(s): run-new vs run-old" in out
        assert "(3.00x)" in out

    def test_regressions_clean_exits_zero(self, tmp_path, capsys):
        path = self._seed_store(tmp_path)
        code = main(
            ["db", "--store", str(path), "regressions", "run-new", "run-old"]
        )
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_timeline_renders_spans(self, tmp_path, capsys):
        path = self._seed_store(tmp_path)
        assert main(["db", "--store", str(path), "timeline", "run-new"]) == 0
        out = capsys.readouterr().out
        assert "run run-new" in out
        assert "1 jobs" in out

    def test_stats(self, tmp_path, capsys):
        path = self._seed_store(tmp_path)
        assert main(["db", "--store", str(path), "stats"]) == 0
        out = capsys.readouterr().out
        assert "runs:         2" in out
        assert "jobs:         3" in out
        assert "spans:        1" in out

    def test_missing_store_errors(self, tmp_path, capsys):
        code = main(
            ["db", "--store", str(tmp_path / "nope.db"), "stats"]
        )
        assert code == 1
        assert "no results store" in capsys.readouterr().err
