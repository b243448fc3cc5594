"""The worker pool and executor: dispatch, failure surfacing, events."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError
from repro.harness.config import BenchmarkConfig
from repro.harness.results import ResultsDatabase
from repro.harness.runner import BenchmarkRunner
from repro.platforms.cluster import ClusterResources
from repro.runtime import (
    FAILURE_STATUSES,
    FaultPlan,
    FaultSpec,
    GraphCache,
    RuntimeConfig,
    execute_matrix,
)
from repro.trace import Tracer, use_tracer

WORKERS = int(os.environ.get("GRAPHALYTICS_TEST_WORKERS", "2"))


def _config(**overrides):
    base = dict(
        platforms=["powergraph"],
        datasets=["R1"],
        algorithms=["bfs", "pr"],
        repetitions=2,
    )
    base.update(overrides)
    if "resources" in base:
        base["resources"] = ClusterResources(**base["resources"])
    return BenchmarkConfig(**base)


class TestPoolExecution:
    def test_pool_mode_completes_and_validates(self):
        result = execute_matrix(_config(), RuntimeConfig(workers=WORKERS))
        assert result.mode == "pool"
        assert result.lost_jobs == 0
        assert all(r.succeeded and r.validated for r in result.database)

    def test_one_worker_with_a_job_timeout_uses_worker_processes(self):
        # Killing an overrunning job takes a process of its own.
        result = execute_matrix(
            _config(), RuntimeConfig(workers=1, job_timeout=30.0)
        )
        assert result.mode == "pool"
        assert result.lost_jobs == 0
        assert all(r.succeeded and r.validated for r in result.database)

    def test_events_cover_every_job(self):
        tracer = Tracer()
        with use_tracer(tracer):
            result = execute_matrix(_config(), RuntimeConfig(workers=WORKERS))
        attempts = [
            s for s in tracer.finished_spans() if s.name == "attempt"
        ]
        assert all(s.status == "ok" for s in attempts)
        jobs = [s.attributes["job"] for s in attempts]
        assert len(set(jobs)) == len(jobs) == result.dag_size
        assert result.counters["scheduler.dispatch"] == result.dag_size

    def test_archive_exposes_runtime_phases(self):
        result = execute_matrix(_config(), RuntimeConfig(workers=WORKERS))
        archive = result.archive()
        assert [p.name for p in archive.phases] == [
            "expand", "execute", "merge",
        ]
        assert archive.phase("execute").metadata["jobs"] == result.job_count

    @pytest.mark.parametrize("workers", [1, 2])
    def test_archive_phases_nest_in_the_run_window(self, workers):
        result = execute_matrix(_config(), RuntimeConfig(workers=workers))
        archive = result.archive()
        cursor = 0.0
        for phase in archive.phases:
            assert cursor <= phase.start <= phase.end
            cursor = phase.end
        assert cursor <= result.elapsed_seconds
        assert archive.phase("execute").metadata == {
            "workers": workers,
            "mode": result.mode,
            "jobs": result.job_count,
            "retries": 0,
            "timeouts": 0,
            "crashes": 0,
            "restored": 0,
            "cache_hits": result.cache_stats.hits,
            "cache_misses": result.cache_stats.misses,
        }

    def test_shared_cache_directory_reused_across_runs(self, tmp_path):
        first = execute_matrix(
            _config(), RuntimeConfig(workers=WORKERS, cache_dir=tmp_path)
        )
        second = execute_matrix(
            _config(), RuntimeConfig(workers=WORKERS, cache_dir=tmp_path)
        )
        assert first.cache_stats.misses > 0
        assert second.cache_stats.misses == 0     # everything spilled
        assert second.database.canonical_json() == (
            first.database.canonical_json()
        )


#: Script fragment: ``stragglers``, the other live processes of this
#: interpreter's process group (start it as a session leader).
PROC_GROUP_SCAN = """
import os

def group_of(pid):
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        return int(handle.read().rsplit(")", 1)[1].split()[2])

stragglers = []
for entry in os.listdir("/proc"):
    if entry.isdigit() and int(entry) != os.getpid():
        try:
            if group_of(entry) == os.getpgrp():
                stragglers.append(int(entry))
        except OSError:
            pass  # exited while we looked
"""

#: Runs the sharded matrix on two pool workers in a process group of its
#: own, then — pool stopped, interpreter still up — lists who else is in
#: that group: a worker or a shard that outlived the pool.
_SHARDED_POOL_SCRIPT = """
import json, sys
from repro.harness.config import BenchmarkConfig
from repro.harness.runner import BenchmarkRunner
from repro.platforms.cluster import ClusterResources

options = json.loads(sys.argv[1])
options["resources"] = ClusterResources(**options["resources"])
database = BenchmarkRunner(BenchmarkConfig(**options)).run(workers=2)
""" + PROC_GROUP_SCAN + """
print(json.dumps({"rows": [r.as_dict() for r in database], "stragglers": stragglers}))
"""


class TestShardedJobsOnPoolWorkers:
    """A pool worker owns the shards of its sharded jobs (it used to be
    refused them: daemonic processes may not have children)."""

    SHARDED = dict(
        platforms=["pythonref", "graphmat"], datasets=["R1", "G22"],
        algorithms=["bfs", "pr", "wcc"], resources={"machines": 2},
    )

    def test_two_workers_two_shards_every_row_succeeds(self):
        config = _config(**self.SHARDED, repetitions=1)
        pooled = BenchmarkRunner(config).run(workers=2)
        serial = BenchmarkRunner(config).run(workers=1)
        assert len(pooled) == len(serial) == 12
        for row in pooled:
            assert row.succeeded and row.validated, row.failure_reason
            assert row.machines == 2
        # PythonRef's modeled T_proc is its measured one; the modeled
        # platform's rows are the deterministic half.
        modeled = [
            ResultsDatabase(db.query(platform="graphmat")).canonical_json()
            for db in (pooled, serial)
        ]
        assert modeled[0] == modeled[1]

    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists(), reason="needs Linux /proc"
    )
    def test_no_worker_or_shard_outlives_the_pool(self):
        src = Path(__file__).resolve().parents[2] / "src"
        run = subprocess.Popen(
            [sys.executable, "-c", _SHARDED_POOL_SCRIPT,
             json.dumps(dict(self.SHARDED, platforms=["pythonref"]))],
            env=dict(os.environ, PYTHONPATH=str(src)), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        out, err = run.communicate(timeout=120)
        assert run.returncode == 0, err
        report = json.loads(out.splitlines()[-1])
        assert [row["status"] for row in report["rows"]] == ["succeeded"] * 6
        assert all(row["validated"] for row in report["rows"])
        assert all(row["machines"] == 2 for row in report["rows"])
        assert report["stragglers"] == []
        with pytest.raises(ProcessLookupError):
            os.killpg(run.pid, 0)


#: 3 graphs + 9 references: more than the eight entries the store's
#: memory layer was once bounded to.
WIDE = dict(datasets=["R1", "R2", "R3"], algorithms=["bfs", "pr", "wcc"])
WIDE_ARTIFACTS = 12


def _files(directory):
    return [path for path in directory.rglob("*") if path.is_file()]


class TestCacheTraffic:
    """Every artifact is built once per directory and read from disk at
    most once per process — never re-read while it is still in memory."""

    def test_one_process_never_reads_its_own_spill(self, tmp_path):
        result = execute_matrix(
            _config(**WIDE), RuntimeConfig(workers=1, cache_dir=tmp_path)
        )
        stats = result.cache_stats
        assert stats.disk_hits == 0
        assert stats.misses == stats.stores == WIDE_ARTIFACTS
        assert all(r.succeeded and r.validated for r in result.database)
        files = _files(tmp_path)
        assert len(files) == WIDE_ARTIFACTS
        assert all(path.suffix == ".pkl" for path in files)

    def test_two_workers_read_each_artifact_at_most_once_more(self, tmp_path):
        result = execute_matrix(
            _config(**WIDE), RuntimeConfig(workers=2, cache_dir=tmp_path)
        )
        stats = result.cache_stats
        assert stats.misses == stats.stores == WIDE_ARTIFACTS
        assert stats.disk_hits <= WIDE_ARTIFACTS
        assert len(_files(tmp_path)) == WIDE_ARTIFACTS

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_directory_is_read_once_per_process(self, tmp_path, workers):
        runtime = RuntimeConfig(workers=workers, cache_dir=tmp_path)
        cold = execute_matrix(_config(**WIDE), runtime)
        warm = execute_matrix(_config(**WIDE), runtime)
        stats = warm.cache_stats
        assert stats.misses == stats.stores == 0
        if workers == 1:
            assert stats.disk_hits == WIDE_ARTIFACTS
        else:
            assert WIDE_ARTIFACTS <= stats.disk_hits <= 2 * WIDE_ARTIFACTS
        assert warm.database.canonical_json() == cold.database.canonical_json()

    @pytest.mark.parametrize("kind", ["enospc", "eio"])
    def test_a_disk_that_takes_no_write_fails_no_job(self, tmp_path, kind):
        """Nothing an un-journaled run writes is worth failing it for:
        the spill is skipped and there is no other file."""
        from repro.faults import IoFault, IoFaultPlan, io_faults

        plan = IoFaultPlan(
            [IoFault(point="ioutil.atomic_write.write", kind=kind, times=10**6)]
        )
        with io_faults(plan):
            result = execute_matrix(
                _config(**WIDE), RuntimeConfig(workers=1, cache_dir=tmp_path)
            )
        assert plan.injected() == {0: WIDE_ARTIFACTS}
        assert result.failures == [] and result.lost_jobs == 0
        assert all(r.succeeded and r.validated for r in result.database)
        assert result.cache_stats.stores == 0
        assert _files(tmp_path) == []


class TestPrefetch:
    def test_pool_fills_the_directory_the_runner_reads(self, tmp_path):
        # A runner that brings a directory shares it with the pool that
        # runs its jobs; the next run over it builds nothing.
        config = _config(**WIDE)
        first = BenchmarkRunner(config, GraphCache(tmp_path))
        first.run(workers=2)
        assert first.last_run.cache_stats.misses == WIDE_ARTIFACTS
        assert first.cache.stats.misses == 0  # the workers built them
        runner = BenchmarkRunner(config, GraphCache(tmp_path))
        with use_tracer(Tracer()) as tracer:
            database = runner.run()
        assert "cache.miss" not in tracer.counters
        assert tracer.counters["cache.hit.disk"] == WIDE_ARTIFACTS
        assert runner.cache.stats.misses == 0
        serial = BenchmarkRunner(config).run()
        assert database.canonical_json() == serial.canonical_json()
        assert len(database) == len(first.database) == len(runner.database)


class TestConfigValidation:
    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(workers=0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(mode="threads")

    def test_bad_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(job_timeout=0.0)

    @pytest.mark.parametrize("mode", ["inline", "pool"])
    def test_mode_accepts_only_auto(self, mode):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(mode=mode)

    @pytest.mark.parametrize("timeout", [float("nan"), "soon"])
    def test_timeout_must_be_a_positive_number(self, timeout):
        with pytest.raises(ConfigurationError, match="job_timeout"):
            RuntimeConfig(workers=2, job_timeout=timeout)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hang_fault_without_a_timeout_rejected_at_any_worker_count(
        self, workers
    ):
        plan = FaultPlan((FaultSpec(kind="hang"),))
        with pytest.raises(ConfigurationError, match="job_timeout"):
            RuntimeConfig(workers=workers, fault_plan=plan)

    def test_inline_mode_rejects_hang_faults(self):
        plan = FaultPlan((FaultSpec(kind="hang"),))
        with pytest.raises(ConfigurationError):
            execute_matrix(
                _config(), RuntimeConfig(workers=1, fault_plan=plan)
            )


class TestInlineFailurePath:
    def test_inline_error_faults_surface_as_failure_rows(self):
        plan = FaultPlan(
            (FaultSpec(kind="error", algorithm="pr", run_index=0, times=5),)
        )
        result = execute_matrix(
            _config(),
            RuntimeConfig(workers=1, fault_plan=plan, max_attempts=2),
        )
        assert result.lost_jobs == 0
        failed = [r for r in result.database if not r.succeeded]
        assert len(failed) == 1
        assert failed[0].status == "harness-error"
        assert failed[0].status in FAILURE_STATUSES
        assert "InjectedFaultError" in failed[0].failure_reason
        assert len(result.failures) == 1
        assert result.failures[0].retries == 1

    def test_inline_transient_fault_recovers_via_retry(self):
        plan = FaultPlan(
            (FaultSpec(kind="error", algorithm="bfs", run_index=1, times=1),)
        )
        result = execute_matrix(
            _config(),
            RuntimeConfig(
                workers=1, fault_plan=plan, max_attempts=2,
                backoff_base=0.01,
            ),
        )
        assert result.lost_jobs == 0
        assert result.failures == []
        assert all(r.succeeded for r in result.database)
        assert result.counters["scheduler.retry"] == 1
