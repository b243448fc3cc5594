"""Checkpoint/resume determinism — without chaos (see test_chaos.py).

Crashes are simulated by cutting the journal file short (dropping the
tail, including ``run-complete``) rather than by SIGKILL, which lets
these tests pin the resume semantics precisely: bit-identical databases
across worker counts, refusal of mismatched matrices and of journals an
older build's serial path wrote, and the same resume for every kind of
run (matrix / runner / experiment / full-run).
"""

import os
import shutil
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.exceptions import ConfigurationError
from repro.harness.config import BenchmarkConfig
from repro.harness.experiments import EXPERIMENTS, get_experiment
from repro.harness.full_run import run_full_benchmark
from repro.harness.runner import BenchmarkRunner
from repro.runtime import (
    JournalError,
    RunJournal,
    RuntimeConfig,
    execute_matrix,
    job_key,
    resume_run,
)
from repro.runtime.journal import config_payload

#: ``journal.jsonl`` of an uninterrupted ``execute_matrix(small_config(),
#: run_dir=...)``, written by the commit before experiments became job
#: lists (its header still carries ``include_execute``).
PARENT_JOURNAL = Path(__file__).parent / "fixtures" / "parent_matrix_journal.jsonl"

WORKERS = int(os.environ.get("GRAPHALYTICS_TEST_WORKERS", "4"))

SMALL = dict(
    platforms=["powergraph"],
    datasets=["R1"],
    algorithms=["bfs", "pr"],
    repetitions=2,
)


def small_config(**overrides) -> BenchmarkConfig:
    return BenchmarkConfig(**{**SMALL, **overrides})


def cut_journal(run_dir, keep_lines: int) -> None:
    """Simulate a crash: drop the journal tail and the saved database."""
    path = RunJournal.journal_path(run_dir)
    lines = path.read_bytes().splitlines(keepends=True)
    assert keep_lines < len(lines), "nothing would be cut"
    path.write_bytes(b"".join(lines[:keep_lines]))
    results = run_dir / "results.json"
    if results.exists():
        results.unlink()


@pytest.mark.parametrize("workers", [1, WORKERS], ids=["serial", "parallel"])
class TestResumeDeterminism:
    # The SMALL matrix expands to 7 DAG nodes (1 materialize + 2
    # references + 4 execute): line 1 is run-start, lines 2-8 the
    # job-scheduled batch, then two lines (attempt-start, job-done) per
    # job. Keeping 12 lines leaves roughly two jobs completed.
    KEEP_LINES = 12

    def test_cut_journal_resumes_bit_identical(self, tmp_path, workers):
        run_dir = tmp_path / "run"
        execute_matrix(small_config(), RuntimeConfig(workers=1),
                       run_dir=run_dir)
        cut_journal(run_dir, self.KEEP_LINES)
        assert not RunJournal.load(run_dir).complete

        uninterrupted = execute_matrix(small_config(), RuntimeConfig())
        resumed = resume_run(run_dir, RuntimeConfig(workers=workers))
        assert resumed.restored_jobs >= 1
        assert resumed.lost_jobs == 0
        assert (
            resumed.database.canonical_json()
            == uninterrupted.database.canonical_json()
        )
        assert RunJournal.load(run_dir).complete

    def test_torn_tail_crash_resumes_bit_identical(self, tmp_path, workers):
        run_dir = tmp_path / "run"
        execute_matrix(small_config(), RuntimeConfig(workers=1),
                       run_dir=run_dir)
        cut_journal(run_dir, self.KEEP_LINES)
        path = RunJournal.journal_path(run_dir)
        path.write_bytes(path.read_bytes() + b'0bad50da {"type": "job-')

        uninterrupted = execute_matrix(small_config(), RuntimeConfig())
        resumed = resume_run(run_dir, RuntimeConfig(workers=workers))
        assert (
            resumed.database.canonical_json()
            == uninterrupted.database.canonical_json()
        )


def test_cli_resume_reports_the_torn_tail_it_dropped(tmp_path, capsys):
    run_dir = tmp_path / "run"
    execute_matrix(small_config(), run_dir=run_dir)
    cut_journal(run_dir, TestResumeDeterminism.KEEP_LINES)
    torn = b'0bad50da {"type": "job-'
    path = RunJournal.journal_path(run_dir)
    path.write_bytes(path.read_bytes() + torn)
    assert cli_main(["resume", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert f"dropped a torn tail of {len(torn)} byte(s)" in out
    assert RunJournal.load(run_dir).complete


class TestResumeRefusals:
    def test_resume_requires_run_dir(self):
        with pytest.raises(ConfigurationError, match="run_dir"):
            execute_matrix(small_config(), resume=True)

    def test_mismatched_matrix_refused(self, tmp_path):
        run_dir = tmp_path / "run"
        execute_matrix(small_config(), run_dir=run_dir)
        with pytest.raises(JournalError, match="matrix hash"):
            execute_matrix(
                small_config(repetitions=3), run_dir=run_dir, resume=True
            )

    def test_resume_run_refuses_non_matrix_journal(self, tmp_path):
        # What an older build's `run <experiment> --run-dir` left behind.
        RunJournal.create(
            tmp_path, {"kind": "experiment", "experiment": "variability"}
        ).close()
        with pytest.raises(JournalError, match="experiment.*predates"):
            resume_run(tmp_path)
        RunJournal.create(tmp_path / "probe", {"kind": "probe"}).close()
        with pytest.raises(JournalError, match="probe"):
            resume_run(tmp_path / "probe")

    def test_sharded_journal_of_an_older_build_is_refused(self, tmp_path, capsys):
        # Its shard count rode a retired config field; shards are
        # machines now, and the run is never reinterpreted as another.
        config = {**config_payload(small_config()), "partitions": 2,
                  "partition_strategy": "hash"}
        RunJournal.create(
            tmp_path, {"kind": "matrix", "matrix_hash": "0" * 64,
                       "config": config},
        ).close()
        with pytest.raises(JournalError, match="predates this build"):
            resume_run(tmp_path)
        assert cli_main(["resume", str(tmp_path)]) == 1
        assert "predates this build" in capsys.readouterr().err

    def test_fresh_journaled_run_refuses_existing_journal(self, tmp_path):
        run_dir = tmp_path / "run"
        execute_matrix(small_config(), run_dir=run_dir)
        with pytest.raises(JournalError, match="already exists"):
            execute_matrix(small_config(), run_dir=run_dir)


@pytest.mark.parametrize("keep_lines", [None, 12], ids=["complete", "cut"])
def test_matrix_journal_of_the_previous_build_resumes(tmp_path, keep_lines):
    shutil.copy(PARENT_JOURNAL, RunJournal.journal_path(tmp_path))
    if keep_lines:
        cut_journal(tmp_path, keep_lines)
    done = len(RunJournal.load(tmp_path).completed)
    resumed = resume_run(tmp_path, RuntimeConfig(workers=1))
    assert resumed.restored_jobs == done
    assert done == (resumed.dag_size if keep_lines is None else 2)
    assert resumed.lost_jobs == 0
    assert (
        resumed.database.canonical_json()
        == execute_matrix(small_config()).database.canonical_json()
    )


def cut_in_half(run_dir) -> None:
    """Keep the header, the scheduled batch and half of what follows."""
    replay = RunJournal.load(run_dir)
    head = 1 + sum(r["type"] == "job-scheduled" for r in replay.records)
    cut_journal(run_dir, head + (1 + len(replay.records) - head) // 2)


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
class TestEveryExperimentIsAJobList:
    def test_job_identities_are_unique(self, experiment_id):
        keys = [job_key(job) for job in EXPERIMENTS[experiment_id].jobs(seed=0)]
        assert len(set(keys)) == len(keys)

    def test_same_report_on_two_workers_and_after_a_cut(
        self, tmp_path, experiment_id
    ):
        experiment = EXPERIMENTS[experiment_id]
        run_dir = tmp_path / "run"
        serial = experiment.run(seed=0, run_dir=run_dir)
        pooled = experiment.run(seed=0, runtime=RuntimeConfig(workers=2))
        assert (pooled.rows, pooled.notes) == (serial.rows, serial.notes)

        cut_in_half(run_dir)
        path = RunJournal.journal_path(run_dir)
        path.write_bytes(path.read_bytes() + b'0bad50da {"type": "job-')
        runner = BenchmarkRunner(BenchmarkConfig(seed=0))
        resumed = experiment.run(runner, run_dir=run_dir)
        assert (resumed.rows, resumed.notes) == (serial.rows, serial.notes)
        # Restored and re-executed rows alike land once, in job order.
        assert len(runner.database) == len(experiment.jobs())
        assert RunJournal.load(run_dir).complete


class TestSerialRunnerResume:
    def test_runner_auto_resumes_existing_run_dir(self, tmp_path):
        run_dir = tmp_path / "run"
        first = BenchmarkRunner(small_config())
        database = first.run(run_dir=run_dir)

        second = BenchmarkRunner(small_config())
        resumed = second.run(run_dir=run_dir)
        assert resumed.canonical_json() == database.canonical_json()
        # Everything came from the journal; nothing re-executed.
        assert second.last_run.restored_jobs == second.last_run.dag_size

    def test_experiment_resume_replays_rows(self, tmp_path):
        run_dir = tmp_path / "run"
        experiment = get_experiment("algorithm-variety")
        first = experiment.run(seed=0, run_dir=run_dir)
        recorded = len(RunJournal.load(run_dir).records)

        replayed = experiment.run(seed=0, run_dir=run_dir)
        assert replayed.rows == first.rows
        # The replayed run appends its own run-complete, nothing else.
        assert len(RunJournal.load(run_dir).records) == recorded + 1

    def test_experiment_resume_refuses_other_seed(self, tmp_path):
        run_dir = tmp_path / "run"
        experiment = get_experiment("algorithm-variety")
        experiment.run(seed=0, run_dir=run_dir)
        with pytest.raises(JournalError, match="matrix hash"):
            experiment.run(seed=1, run_dir=run_dir)

    def test_full_run_resume_is_bit_identical(self, tmp_path):
        run_dir = tmp_path / "run"
        first = run_full_benchmark(
            experiment_ids=["algorithm-variety"], run_dir=run_dir
        )
        second = run_full_benchmark(
            experiment_ids=["algorithm-variety"], run_dir=run_dir
        )
        assert (
            second.database.canonical_json()
            == first.database.canonical_json()
        )
        assert any("journal" in note for note in second.notes)
