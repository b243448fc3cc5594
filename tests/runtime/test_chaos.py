"""Kill-the-harness chaos suite (ISSUE acceptance criterion).

Each scenario SIGKILLs the *harness process itself* mid-run — via the
``harness-kill`` fault kind, fired in the dispatcher immediately before
a chosen job would start — then resumes from the write-ahead journal
and asserts the crash-safety contract:

* at least one job had completed (and been journaled) before the kill;
* the resumed database is bit-identical (``canonical_json``) to an
  uninterrupted run of the same job list — a matrix, an experiment, the
  suite;
* zero completed jobs are re-executed: no ``attempt-start`` record ever
  follows a job's ``job-done`` record in the journal.

The kill target runs in a subprocess: SIGKILL on the harness would
otherwise take pytest down with it.
"""

import os
import signal
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.cli import main as cli_main
from repro.harness.config import BenchmarkConfig
from repro.harness.full_run import run_full_benchmark
from repro.harness.results import ResultsDatabase
from repro.runtime import (
    RunJournal,
    RuntimeConfig,
    execute_matrix,
    resume_run,
)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Small matrix: 1 materialize + 2 references + 8 execute jobs.
CHAOS_MATRIX = dict(
    platforms=["powergraph", "graphmat"],
    datasets=["R1"],
    algorithms=["bfs", "pr"],
    repetitions=2,
)

#: Two experiments that repeat a workload (BFS on D1000 with 16
#: machines, run 0): 50 + 110 execute jobs told apart by their tag.
CHAOS_SUITE = ["strong-scalability", "variability"]


@dataclass(frozen=True)
class Case:
    """One kind of run the harness can be killed in the middle of."""

    #: Source of the call that starts it, given ``runtime``/``run_dir``.
    launch: str
    #: The job whose dispatch triggers the SIGKILL — late in the job
    #: order, so completed jobs exist in the journal by then.
    kill_at: Dict[str, object]
    #: ``canonical_json`` of an uninterrupted run.
    uninterrupted: Callable[[], str]


CASES = {
    "matrix": Case(
        f"execute_matrix(BenchmarkConfig(**{CHAOS_MATRIX!r}), runtime, "
        f"run_dir=run_dir)",
        dict(platform="graphmat", algorithm="pr", run_index=1),
        lambda: execute_matrix(
            BenchmarkConfig(**CHAOS_MATRIX), RuntimeConfig(workers=1)
        ).database.canonical_json(),
    ),
    # What `graphalytics full-run --experiments ...` runs.
    "suite": Case(
        f"run_experiments({CHAOS_SUITE!r}, BenchmarkRunner(), "
        f"runtime=runtime, run_dir=run_dir)",
        dict(dataset="D1000", run_index=5),
        lambda: run_full_benchmark(
            experiment_ids=CHAOS_SUITE
        ).database.canonical_json(),
    ),
    # What `graphalytics run variability` runs.
    "experiment": Case(
        "get_experiment('variability').run(runtime=runtime, run_dir=run_dir)",
        dict(dataset="D1000", run_index=5),
        lambda: run_full_benchmark(
            experiment_ids=["variability"]
        ).database.canonical_json(),
    ),
}


def run_to_the_kill(
    case: Case, run_dir: Path, *, workers: int, launch: str = ""
) -> None:
    """Run the case — or ``launch``, another call with the case's fault
    plan — in a subprocess until the injected SIGKILL."""
    script = textwrap.dedent(
        f"""
        from repro.harness.config import BenchmarkConfig
        from repro.harness.experiments import get_experiment, run_experiments
        from repro.harness.runner import BenchmarkRunner
        from repro.runtime import FaultPlan, FaultSpec, RuntimeConfig
        from repro.runtime import execute_matrix, resume_run

        plan = FaultPlan((FaultSpec(kind="harness-kill", **{case.kill_at!r}),))
        runtime = RuntimeConfig(workers={workers}, fault_plan=plan)
        run_dir = {str(run_dir)!r}
        {launch or case.launch}
        raise SystemExit("unreachable: the harness was supposed to die")
        """
    )
    env = {**os.environ, "PYTHONPATH": REPO_SRC}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL, (
        f"expected the harness to die by SIGKILL, got rc={proc.returncode}\n"
        f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
    )


def assert_no_reexecution(run_dir: Path) -> None:
    """No completed job ever started again: done keys stay done."""
    replay = RunJournal.load(run_dir)
    done = set()
    for record in replay.records:
        key = record.get("key")
        if record.get("type") == "job-done":
            done.add(key)
        elif record.get("type") == "attempt-start":
            assert key not in done, (
                f"job {record.get('seq')} re-executed after completion"
            )


@pytest.mark.parametrize(
    "case, workers",
    [(case, workers) for case in CASES.values() for workers in (1, 4)],
    ids=[
        prefix + mode
        for prefix in ("", "suite-", "experiment-")
        for mode in ("inline", "pool")
    ],
)
class TestKillTheHarness:
    def test_sigkill_then_resume_is_bit_identical(self, tmp_path, case, workers):
        run_dir = tmp_path / "run"
        run_to_the_kill(case, run_dir, workers=workers)

        # The crash left a journal with real completed work in it.
        replay = RunJournal.load(run_dir)
        assert replay.completed, "no job completed before the kill"
        assert not replay.complete, "journal claims the run finished"

        # Resumed with the *other* worker count: the journal, not the
        # pool that wrote it, carries the run.
        resumed = resume_run(
            run_dir, RuntimeConfig(workers=2 if workers == 1 else 1)
        )
        assert resumed.restored_jobs >= len(replay.completed)
        assert resumed.lost_jobs == 0
        assert resumed.database.canonical_json() == case.uninterrupted()
        assert_no_reexecution(run_dir)

    def test_resume_via_cli_entry_point(self, tmp_path, capsys, case, workers):
        # ISSUE acceptance: the resume path users actually run.
        run_dir = tmp_path / "run"
        run_to_the_kill(case, run_dir, workers=workers)
        assert cli_main(
            ["resume", str(run_dir), "--workers", str(min(workers, 2))]
        ) == 0
        out = capsys.readouterr().out
        assert "restored" in out

        persisted = ResultsDatabase.load(run_dir / "results.json")
        assert persisted.canonical_json() == case.uninterrupted()
        assert_no_reexecution(run_dir)
        assert RunJournal.load(run_dir).complete


class TestDoubleResume:
    case = CASES["matrix"]
    workers = 1

    def test_second_resume_executes_nothing(self, tmp_path):
        run_dir = tmp_path / "run"
        run_to_the_kill(self.case, run_dir, workers=self.workers)
        first = resume_run(run_dir, RuntimeConfig(workers=self.workers))
        second = resume_run(run_dir, RuntimeConfig(workers=self.workers))
        assert second.restored_jobs == second.dag_size
        assert (
            second.database.canonical_json()
            == first.database.canonical_json()
        )
        assert_no_reexecution(run_dir)

    def test_kill_during_resume_still_converges(self, tmp_path):
        # Crash the *resume* too (the fault fires on the same job's
        # first attempt of the new run), then resume cleanly: the
        # journal absorbs any number of crashes.
        run_dir = tmp_path / "run"
        run_to_the_kill(self.case, run_dir, workers=self.workers)
        run_to_the_kill(
            self.case, run_dir, workers=self.workers,
            launch="resume_run(run_dir, runtime)",
        )
        final = resume_run(run_dir, RuntimeConfig(workers=self.workers))
        assert final.database.canonical_json() == self.case.uninterrupted()
        assert_no_reexecution(run_dir)


class TestDoubleResumeOfASuite(TestDoubleResume):
    case = CASES["suite"]


class TestDoubleResumeOfASuiteOnThePool(TestDoubleResume):
    case = CASES["suite"]
    workers = 2
