"""Failure-injection tests: the validation and robustness paths under
misbehaving platforms.

The harness must *catch* wrong outputs, crashes, and SLA breaches — not
just record happy paths. These tests wire deliberately faulty drivers
through the real runner.
"""

import numpy as np
import pytest

from repro.algorithms.registry import get_algorithm
from repro.harness.config import BenchmarkConfig
from repro.harness.runner import BenchmarkRunner
from repro.platforms.base import JobStatus, PlatformDriver, PlatformInfo
from repro.platforms.model import PerformanceModel

FAULTY_INFO = PlatformInfo(
    name="FaultyPlatform",
    vendor="tests",
    language="Python",
    programming_model="chaos",
    origin="community",
    distributed=True,
    version="0.0",
)

FAST_MODEL = PerformanceModel(
    base_evps=1e9,
    tproc_floor=0.01,
    fixed_overhead=1.0,
    load_rate=1e9,
    upload_rate=1e9,
    variability_cv_single=0.0,
    variability_cv_distributed=0.0,
)


class WrongOutputDriver(PlatformDriver):
    """Produces subtly wrong results (off-by-one BFS depths)."""

    def __init__(self):
        super().__init__(FAULTY_INFO, FAST_MODEL)

    def execute(self, handle, algorithm, params=None, resources=None, **kwargs):
        result = super().execute(handle, algorithm, params, resources, **kwargs)
        if result.output is not None:
            tampered = np.array(result.output, copy=True)
            tampered[0] = tampered[0] + 1
            result.output = tampered
        return result


class SlowDriver(PlatformDriver):
    """Models a platform whose makespan always breaks the 1-hour SLA."""

    def __init__(self):
        slow = PerformanceModel(
            base_evps=10.0,  # elements/second: hopeless
            tproc_floor=0.0,
            fixed_overhead=1.0,
            load_rate=1e9,
            upload_rate=1e9,
            variability_cv_single=0.0,
        )
        super().__init__(FAULTY_INFO, slow)


def _patched_runner(driver) -> BenchmarkRunner:
    runner = BenchmarkRunner(BenchmarkConfig(seed=0))
    runner._drivers["faulty"] = driver
    return runner


class TestWrongOutputCaught:
    @pytest.mark.parametrize("algorithm", ["bfs", "pr", "wcc", "sssp"])
    def test_validation_flags_tampered_output(self, algorithm):
        runner = _patched_runner(WrongOutputDriver())
        dataset = "R4" if get_algorithm(algorithm).weighted else "R1"
        result = runner.run_job("faulty", dataset, algorithm)
        assert result.succeeded            # the job itself "worked" ...
        assert result.validated is False   # ... but the output is wrong

    def test_honest_platform_passes_same_path(self):
        runner = BenchmarkRunner(BenchmarkConfig(seed=0))
        result = runner.run_job("powergraph", "R1", "bfs")
        assert result.validated is True


class TestSlaBreachCaught:
    def test_slow_platform_breaks_sla(self):
        runner = _patched_runner(SlowDriver())
        result = runner.run_job("faulty", "D300", "bfs")
        assert result.succeeded
        assert result.modeled_makespan > 3600
        assert not result.sla_compliant

    def test_stress_style_failure_counting(self):
        # A platform breaking the SLA counts as a failure in the paper's
        # sense ("does not complete successfully").
        from repro.harness.sla import job_successful
        from repro.platforms.base import JobResult
        from repro.platforms.cluster import ClusterResources

        breached = JobResult(
            platform="X", algorithm="bfs", dataset="D",
            resources=ClusterResources(), status=JobStatus.SUCCEEDED,
            modeled_makespan=4000.0,
        )
        assert not job_successful(breached)


class TestRuntimeFaultInjection:
    """Hanging and crashing *workers* (not modeled platforms): the
    concurrent runtime must terminate them, retry with backoff, and
    surface a structured failure — never hang and never lose a job."""

    def _config(self):
        return BenchmarkConfig(
            platforms=["powergraph"],
            datasets=["R1"],
            algorithms=["bfs", "pr"],
            repetitions=2,
        )

    @staticmethod
    def _archived_counts(result):
        """(retries, timeouts, crashes) as the run's archive reports them."""
        metadata = result.archive().phase("execute").metadata
        return metadata["retries"], metadata["timeouts"], metadata["crashes"]

    def test_timing_out_worker_is_killed_retried_and_recorded(self):
        from repro.runtime import FaultPlan, FaultSpec, RuntimeConfig, execute_matrix

        plan = FaultPlan(
            (FaultSpec(kind="hang", algorithm="bfs", run_index=0, times=2),)
        )
        result = execute_matrix(
            self._config(),
            RuntimeConfig(
                workers=2, job_timeout=0.5, fault_plan=plan,
                max_attempts=2, backoff_base=0.01,
            ),
        )
        # no lost jobs: every execute job has exactly one row
        assert result.lost_jobs == 0
        assert len(result.database) == 4
        failed = result.database.query(status="harness-timeout")
        assert len(failed) == 1
        assert failed[0].algorithm == "bfs" and failed[0].run_index == 0
        assert not failed[0].sla_compliant
        # structured failure: both attempts recorded as timeouts, one retry
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.final_kind == "timeout"
        assert failure.retries == 1
        assert [a.kind for a in failure.attempts] == ["timeout", "timeout"]
        assert failure.attempts[0].backoff_seconds > 0
        assert result.counters["scheduler.timeout"] == 2
        assert result.counters["scheduler.retry"] == 1
        assert self._archived_counts(result) == (1, 2, 0)
        # the other three jobs are untouched
        assert len(result.database.query(status="succeeded")) == 3

    def test_transient_hang_recovers_on_retry(self):
        from repro.runtime import FaultPlan, FaultSpec, RuntimeConfig, execute_matrix

        plan = FaultPlan(
            (FaultSpec(kind="hang", algorithm="pr", run_index=1, times=1),)
        )
        result = execute_matrix(
            self._config(),
            RuntimeConfig(
                workers=2, job_timeout=0.5, fault_plan=plan,
                max_attempts=2, backoff_base=0.01,
            ),
        )
        assert result.lost_jobs == 0
        assert result.failures == []
        assert all(r.succeeded for r in result.database)
        assert result.counters["scheduler.timeout"] == 1
        assert result.counters["scheduler.retry"] == 1
        assert self._archived_counts(result) == (1, 1, 0)

    def test_one_worker_job_timeout_kills_a_hung_job(self):
        from repro.runtime import FaultPlan, FaultSpec, RuntimeConfig, execute_matrix

        plan = FaultPlan(
            (FaultSpec(kind="hang", algorithm="bfs", run_index=0, times=2),)
        )
        result = execute_matrix(
            self._config(),
            RuntimeConfig(
                workers=1, job_timeout=0.5, fault_plan=plan,
                max_attempts=2, backoff_base=0.01,
            ),
        )
        assert result.mode == "pool"
        assert result.lost_jobs == 0
        failed = result.database.query(status="harness-timeout")
        assert len(failed) == 1
        assert failed[0].algorithm == "bfs" and failed[0].run_index == 0
        [failure] = result.failures
        assert [a.kind for a in failure.attempts] == ["timeout", "timeout"]
        assert result.counters["scheduler.timeout"] == 2
        assert len(result.database.query(status="succeeded")) == 3

    def test_one_worker_crash_fault_is_recorded_and_retried(self):
        from repro.runtime import FaultPlan, FaultSpec, RuntimeConfig, execute_matrix

        plan = FaultPlan(
            (FaultSpec(kind="crash", algorithm="bfs", run_index=1, times=1),)
        )
        result = execute_matrix(
            self._config(),
            RuntimeConfig(
                workers=1, fault_plan=plan, max_attempts=2,
                backoff_base=0.01,
            ),
        )
        assert result.mode == "pool"
        assert result.lost_jobs == 0
        assert result.failures == []
        assert all(r.succeeded for r in result.database)
        assert result.counters["scheduler.crash"] == 1
        assert result.counters["scheduler.retry"] == 1
        assert self._archived_counts(result) == (1, 0, 1)

    def test_crashing_worker_is_respawned_and_job_retried(self):
        from repro.runtime import FaultPlan, FaultSpec, RuntimeConfig, execute_matrix

        plan = FaultPlan(
            (FaultSpec(kind="crash", algorithm="bfs", run_index=1, times=1),)
        )
        result = execute_matrix(
            self._config(),
            RuntimeConfig(
                workers=2, job_timeout=10.0, fault_plan=plan,
                max_attempts=2, backoff_base=0.01,
            ),
        )
        assert result.lost_jobs == 0
        assert result.failures == []
        assert all(r.succeeded for r in result.database)
        assert result.counters["scheduler.crash"] == 1
        assert result.counters["scheduler.retry"] == 1
        assert self._archived_counts(result) == (1, 0, 1)

    def test_persistently_crashing_job_becomes_structured_failure(self):
        from repro.runtime import FaultPlan, FaultSpec, RuntimeConfig, execute_matrix

        plan = FaultPlan(
            (FaultSpec(kind="crash", algorithm="pr", run_index=0, times=5),)
        )
        result = execute_matrix(
            self._config(),
            RuntimeConfig(
                workers=2, job_timeout=10.0, fault_plan=plan,
                max_attempts=2, backoff_base=0.01,
            ),
        )
        assert result.lost_jobs == 0
        failed = result.database.query(status="harness-crash")
        assert len(failed) == 1
        assert len(result.failures) == 1
        assert result.failures[0].final_kind == "crash"
        assert [a.kind for a in result.failures[0].attempts] == [
            "crash", "crash",
        ]
        assert len(result.database.query(status="succeeded")) == 3


class TestCrashPath:
    def test_crash_has_no_output_and_fails_validation_pipeline(self):
        runner = BenchmarkRunner(BenchmarkConfig(seed=0))
        result = runner.run_job("graphx", "R1", "cdlp")
        assert result.status == "crashed"
        assert result.validated is None
        assert result.modeled_processing_time is None

    def test_repository_accepts_runs_with_failures(self, tmp_path):
        from repro.resultsdb.store import (
            ResultsStore, RunMetadata, submit_validated_run,
        )

        runner = BenchmarkRunner(BenchmarkConfig(seed=0))
        runner.run_job("graphx", "R1", "cdlp")   # crash
        runner.run_job("graphx", "R1", "bfs")    # validated success
        with ResultsStore(tmp_path / "results.db") as repo:
            submit_validated_run(
                repo, RunMetadata("mixed", "GraphX"), runner.database
            )
            assert repo.run_ids() == ["mixed"]

    def test_repository_rejects_tampered_run(self, tmp_path):
        from repro.exceptions import ValidationError
        from repro.resultsdb.store import (
            ResultsStore, RunMetadata, submit_validated_run,
        )

        runner = _patched_runner(WrongOutputDriver())
        runner.run_job("faulty", "R1", "bfs")
        with ResultsStore(tmp_path / "results.db") as repo:
            with pytest.raises(ValidationError):
                submit_validated_run(
                    repo, RunMetadata("bad", "Faulty"), runner.database
                )
