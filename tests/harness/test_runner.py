"""Tests for the benchmark runner (orchestration, validation, metrics)."""

import pytest

from repro.harness.config import BenchmarkConfig
from repro.harness.datasets import get_dataset
from repro.harness.runner import BenchmarkRunner
from repro.platforms.cluster import ClusterResources


@pytest.fixture
def runner():
    return BenchmarkRunner(BenchmarkConfig(seed=0))


class TestSingleJob:
    def test_successful_job_recorded(self, runner):
        result = runner.run_job("graphmat", "D100", "bfs")
        assert result.succeeded
        assert result.sla_compliant
        assert result.validated is True
        assert result.eps > 0
        assert result.evps > result.eps
        assert len(runner.database) == 1

    def test_evps_uses_full_scale_counts(self, runner):
        result = runner.run_job("graphmat", "D100", "bfs")
        profile = get_dataset("D100").profile
        assert result.evps == pytest.approx(
            profile.elements / result.modeled_processing_time
        )

    def test_tproc_comes_from_granula_archive(self, runner):
        # The runner extracts Tproc from the Granula archive of the job's
        # event log; for a successful job this equals the driver's number.
        result = runner.run_job("powergraph", "D100", "wcc")
        assert result.modeled_processing_time is not None

    def test_memory_failure_recorded(self, runner):
        result = runner.run_job("pgxd", "G25", "bfs")
        assert result.status == "failed-memory"
        assert not result.sla_compliant
        assert result.validated is None

    def test_not_supported_recorded(self, runner):
        result = runner.run_job("pgxd", "D100", "lcc")
        assert result.status == "not-supported"

    def test_crash_recorded(self, runner):
        result = runner.run_job("graphx", "R4", "cdlp")
        assert result.status == "crashed"

    def test_resources_override(self, runner):
        result = runner.run_job(
            "powergraph", "D100", "bfs",
            resources=ClusterResources(machines=4),
        )
        assert result.machines == 4

    def test_measured_seconds_positive(self, runner):
        result = runner.run_job("openg", "D100", "pr")
        assert result.measured_processing_seconds > 0


class TestCaching:
    def test_upload_reused_across_jobs(self, runner):
        runner.run_job("graphmat", "D100", "bfs")
        handle1 = runner._handles[("graphmat", "D100")]
        runner.run_job("graphmat", "D100", "pr")
        assert runner._handles[("graphmat", "D100")] is handle1

    def test_driver_reused(self, runner):
        assert runner.driver("giraph") is runner.driver("giraph")


class TestCanRun:
    """What a ``run()`` skips: the one rule lives with the job lists."""

    def test_sssp_needs_weights(self):
        config = BenchmarkConfig(
            platforms=["graphmat"], datasets=["R4", "G22"], algorithms=["sssp"]
        )
        assert [r.dataset for r in BenchmarkRunner(config).run()] == ["R4"]

    def test_openg_single_machine_only(self):
        config = BenchmarkConfig(
            platforms=["openg", "giraph"], datasets=["D100"],
            algorithms=["bfs"], resources=ClusterResources(machines=2),
        )
        rows = BenchmarkRunner(config).run()
        assert [r.platform for r in rows] == ["Giraph"]


class TestBatchRun:
    def test_small_sweep(self):
        config = BenchmarkConfig(
            platforms=["openg", "graphmat"],
            datasets=["R1", "R4"],
            algorithms=["bfs", "sssp"],
        )
        db = BenchmarkRunner(config).run()
        # sssp skipped on R1 (unweighted): 2 platforms x (2 bfs + 1 sssp).
        assert len(db) == 6
        assert all(r.validated for r in db if r.succeeded)

    def test_repetitions(self):
        config = BenchmarkConfig(
            platforms=["openg"], datasets=["R1"], algorithms=["bfs"],
            repetitions=3,
        )
        db = BenchmarkRunner(config).run()
        assert len(db) == 3
        assert {r.run_index for r in db} == {0, 1, 2}
        times = db.processing_times(dataset="R1")
        assert len(set(times)) == 3  # jitter differs per repetition

    def test_validation_can_be_disabled(self):
        config = BenchmarkConfig(
            platforms=["openg"], datasets=["R1"], algorithms=["bfs"],
            validate_outputs=False,
        )
        db = BenchmarkRunner(config).run()
        assert all(r.validated is None for r in db)


class TestSlaOverride:
    def test_tighter_sla_flips_compliance(self):
        # Giraph BFS on D300 has a ~278 s makespan: compliant under the
        # 1-hour SLA, non-compliant under a 100-second budget.
        relaxed = BenchmarkRunner(BenchmarkConfig(seed=0))
        assert relaxed.run_job("giraph", "D300", "bfs").sla_compliant

        strict = BenchmarkRunner(BenchmarkConfig(seed=0, sla_seconds=100.0))
        assert not strict.run_job("giraph", "D300", "bfs").sla_compliant

    def test_strict_sla_changes_stress_limit(self):
        # Under a 10-second SLA even mid-size datasets "fail" for slow
        # loaders, moving the stress-test limit far below Table 10.
        strict = BenchmarkRunner(BenchmarkConfig(seed=0, sla_seconds=10.0))
        result = strict.run_job("pgxd", "R4", "bfs")
        assert result.succeeded
        assert not result.sla_compliant  # loading alone exceeds 10 s
