"""Tests for the measured reference platform (R5 extensibility proof)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.graph.generators import erdos_renyi
from repro.harness.config import BenchmarkConfig
from repro.harness.runner import BenchmarkRunner
from repro.platforms.base import JobStatus
from repro.platforms.cluster import ClusterResources
from repro.platforms.registry import EXTRA_PLATFORMS, PLATFORMS, create_driver
from tests.runtime.test_pool_executor import PROC_GROUP_SCAN


@pytest.fixture
def driver():
    return create_driver("pythonref")


@pytest.fixture
def handle(driver):
    return driver.upload(erdos_renyi(80, 0.1, weighted=True, seed=4))


class TestRoster:
    def test_not_in_table5(self):
        assert "pythonref" not in PLATFORMS
        assert "pythonref" in EXTRA_PLATFORMS

    def test_info(self, driver):
        # Distributed: its machines are the graph's shards. The engine
        # paths do not shard.
        assert driver.info.type_code == "C, D"
        assert driver.name == "PythonRef"
        assert create_driver("pythonref-spmv").info.type_code == "C, S"

    def test_supports_everything(self, driver):
        assert len(driver.supported_algorithms()) == 6


class TestMeasuredExecution:
    def test_tproc_is_wall_clock(self, driver, handle):
        result = driver.execute(handle, "pr")
        assert result.status is JobStatus.SUCCEEDED
        assert result.modeled_processing_time == result.measured_processing_seconds
        assert 0 < result.modeled_processing_time < 5

    def test_no_jitter(self, driver, handle):
        # The reference platform reports real times, which naturally
        # vary; there is no seeded jitter layered on top.
        assert driver.model.variability_cv_single == 0.0

    def test_output_correct(self, driver, handle):
        from repro.algorithms.pagerank import pagerank

        result = driver.execute(handle, "pr")
        assert np.allclose(result.output, pagerank(handle.graph))

    def test_every_row_reports_the_measured_upload(self):
        # A refused job's row too: no engine formulates LCC.
        driver = create_driver("pythonref-pregel")
        handle = driver.upload(erdos_renyi(80, 0.1, weighted=True, seed=4))
        refused = driver.execute(handle, "lcc")
        ran = driver.execute(handle, "bfs", {"source_vertex": 0})
        assert refused.status is JobStatus.NOT_SUPPORTED
        assert ran.status is JobStatus.SUCCEEDED
        assert (
            refused.modeled_upload_time
            == ran.modeled_upload_time
            == handle.measured_upload_seconds
        )

    def test_events_cover_makespan(self, driver, handle):
        result = driver.execute(handle, "wcc")
        root = result.spans[-1]
        load, processing = (s for s in result.spans if s["parent"] == root["id"])
        assert [load["name"], processing["name"]] == ["load", "processing"]
        assert (
            processing["end"] - processing["start"]
            == result.modeled_processing_time
        )
        assert result.modeled_makespan == pytest.approx(
            load["end"] - load["start"] + result.modeled_processing_time
        )

    def test_granula_archive_builds(self, driver, handle):
        from repro.granula.archiver import build_archive

        result = driver.execute(handle, "bfs", {"source_vertex": 0})
        archive = build_archive(result)
        assert archive.processing_time == pytest.approx(
            result.modeled_processing_time
        )


class TestShardedRouting:
    def test_partitions_change_no_byte_of_any_output(self, driver):
        """Machines are shards: every algorithm's output at 2 and 3
        machines is the in-process kernels' (1 machine), byte for byte."""
        from repro.algorithms.registry import ALGORITHMS
        from repro.harness.datasets import get_dataset
        from repro.runtime.scheduler import can_run_combo

        for dataset_id in ("D100", "R4", "G22"):
            dataset = get_dataset(dataset_id)
            handle = driver.upload(dataset.materialize(0))
            for algorithm in sorted(ALGORITHMS):
                if not can_run_combo("pythonref", dataset_id, algorithm):
                    continue
                params = dataset.algorithm_parameters(algorithm, 0)
                expected, *sharded = (
                    driver.execute(
                        handle, algorithm, params,
                        ClusterResources(machines=machines),
                    ).output
                    for machines in (1, 2, 3)
                )
                for actual in sharded:
                    assert actual.dtype == expected.dtype, algorithm
                    assert actual.tobytes() == expected.tobytes(), algorithm
            driver.delete(handle)

    def test_tproc_never_carries_the_deployment(self):
        """Platform start-up is not processing time (paper §2.5): the
        shards are deployed under ``load``, on the very first job too, so
        every job's ``processing`` span times products only. Read off the
        span tree — no timing assertion."""
        import multiprocessing

        from repro.harness.datasets import get_dataset
        from repro.platforms.reference import ReferenceDriver
        from repro.trace import Tracer, use_tracer

        driver = ReferenceDriver()
        tracer = Tracer()
        with use_tracer(tracer):
            handle = driver.upload(get_dataset("G22").materialize(0))
            for algorithm in ("wcc", "pr", "lcc"):
                driver.execute(
                    handle, algorithm, resources=ClusterResources(machines=2)
                )
        spans = {s.span_id: s for s in tracer.finished_spans()}

        def ancestors(span):
            """Names of the spans around ``span``, nearest first."""
            while span.parent_id is not None:
                span = spans[span.parent_id]
                yield span.name

        deploys = [s for s in spans.values() if s.name == "deploy"]
        assert len(deploys) == 1  # the first job's; later ones find it live
        assert deploys[0].attributes["spawned"] == 2
        assert tracer.counters["partitioned.shard-spawn"] == 2
        assert list(ancestors(deploys[0])) == ["load", "execute"]
        runs = [s for s in spans.values() if s.name == "partitioned"]
        assert [s.attributes["deployed"] for s in runs] == ["reused"] * 3
        assert all("processing" in ancestors(s) for s in runs)
        executes = sorted(
            (s for s in spans.values() if s.name == "execute"),
            key=lambda s: s.start,
        )
        assert spans[deploys[0].parent_id].parent_id == executes[0].span_id

        shards = [
            child for child in multiprocessing.active_children()
            if child.name.startswith("graphalytics-shard-")
        ]
        assert len(shards) == 2
        driver.delete(handle)
        assert handle.deleted
        for shard in shards:
            shard.join(10)
            assert not shard.is_alive()


#: upload, execute, delete, execute again — then, interpreter still up,
#: list who else lives in its process group (a re-deployed shard would).
_EXECUTE_AFTER_DELETE_SCRIPT = """
import json, sys
from repro.exceptions import ConfigurationError
from repro.harness.datasets import get_dataset
from repro.platforms.registry import create_driver

from repro.platforms.cluster import ClusterResources

resources = ClusterResources(**json.loads(sys.argv[1]))
driver = create_driver("pythonref")
handle = driver.upload(get_dataset("G22").materialize(0))
assert driver.execute(handle, "wcc", resources=resources).succeeded
driver.delete(handle)
try:
    driver.execute(handle, "wcc", resources=resources)
    verdict = "executed"
except ConfigurationError as error:
    verdict = str(error)
""" + PROC_GROUP_SCAN + """
print(json.dumps({"verdict": verdict, "stragglers": stragglers}))
"""


class TestDeletedHandle:
    """``execute`` on a deleted handle is refused by the one lifecycle
    block all drivers share; the measured driver used to accept it and,
    sharded, re-deploy shards that nothing would ever undeploy."""

    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists(), reason="needs Linux /proc"
    )
    @pytest.mark.parametrize("options", [{}, {"machines": 2}], ids=str)
    def test_execute_after_delete_raises_and_leaves_no_shard(self, options):
        src = Path(__file__).resolve().parents[2] / "src"
        run = subprocess.run(
            [sys.executable, "-c", _EXECUTE_AFTER_DELETE_SCRIPT,
             json.dumps(options)],
            env=dict(os.environ, PYTHONPATH=str(src)), text=True,
            capture_output=True, start_new_session=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        report = json.loads(run.stdout.splitlines()[-1])
        assert report["verdict"] == "graph was deleted from the platform"
        assert report["stragglers"] == []

    def test_engine_paths_refuse_a_deleted_handle_too(self, handle):
        driver = create_driver("pythonref-spmv")
        driver.delete(handle)
        with pytest.raises(ConfigurationError, match="was deleted"):
            driver.execute(handle, "wcc")


class TestHarnessIntegration:
    def test_runs_through_the_runner(self):
        config = BenchmarkConfig(
            platforms=["pythonref"], datasets=["R1"], algorithms=["bfs", "wcc"]
        )
        db = BenchmarkRunner(config).run()
        assert len(db) == 2
        for result in db:
            assert result.succeeded
            assert result.validated is True
            assert result.sla_compliant
            # EVPS is computed against the *full-scale* catalog counts
            # but measured miniature time — meaningless as an absolute,
            # still recorded consistently.
            assert result.eps > 0

    def test_multi_machine_rejected(self, handle):
        # Only the kernels path shards; an engine path is one process.
        driver = create_driver("pythonref-gas")
        with pytest.raises(ConfigurationError, match="non-distributed"):
            driver.execute(
                handle, "wcc", resources=ClusterResources(machines=2)
            )

    def test_sharded_row_records_its_machines(self):
        config = BenchmarkConfig(
            platforms=["pythonref"], datasets=["R1"], algorithms=["wcc"],
            resources=ClusterResources(machines=2),
        )
        (row,) = BenchmarkRunner(config).run()
        assert row.succeeded and row.validated is True
        assert row.machines == 2
