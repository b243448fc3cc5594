"""Tests for the measured engine paths (Pregel/GAS/SpMV as platforms).

What was ``execution="native"`` on three modeled drivers is a platform
of its own now: a test is parametrized by the Table 5 platform whose
programming model it exercises, and runs the measured path registered
for that model.
"""

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi
from repro.platforms.base import JobStatus
from repro.platforms.registry import (
    EXTRA_PLATFORMS,
    PLATFORMS,
    create_driver,
    get_platform,
)
from repro.runtime.scheduler import can_run_combo

NATIVE_PLATFORMS = ("giraph", "powergraph", "graphmat")


def measured_path(platform):
    """The measured platform running ``platform``'s programming model."""
    model = get_platform(platform).programming_model
    (key,) = [
        key for key, (info, _) in EXTRA_PLATFORMS.items()
        if info.programming_model == model
    ]
    return key


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(50, 0.1, weighted=True, seed=6, name="native-test")


class TestNativeMode:
    def test_family_roster(self):
        assert list(EXTRA_PLATFORMS) == [
            "pythonref", "pythonref-pregel", "pythonref-gas", "pythonref-spmv",
        ]
        assert not set(EXTRA_PLATFORMS) & set(PLATFORMS)
        infos = [info for info, _ in EXTRA_PLATFORMS.values()]
        assert len({info.name for info in infos}) == 4
        assert len({info.programming_model for info in infos}) == 4
        assert [measured_path(p) for p in NATIVE_PLATFORMS] == [
            "pythonref-pregel", "pythonref-gas", "pythonref-spmv",
        ]

    @pytest.mark.parametrize("platform", NATIVE_PLATFORMS)
    @pytest.mark.parametrize("algorithm", ["bfs", "pr", "wcc", "cdlp", "sssp"])
    def test_native_output_matches_reference(self, platform, algorithm, graph):
        native = create_driver(measured_path(platform))
        reference = create_driver("pythonref")
        params = (
            {"source_vertex": int(graph.vertex_ids[0])}
            if algorithm in ("bfs", "sssp")
            else {}
        )
        native_job = native.execute(native.upload(graph), algorithm, params)
        reference_job = reference.execute(
            reference.upload(graph), algorithm, params
        )
        assert native_job.succeeded
        assert native_job.platform == native.info.name != reference_job.platform
        # Measured, like pythonref: T_proc is this execution's wall-clock.
        assert (
            native_job.modeled_processing_time
            == native_job.measured_processing_seconds
        )
        if algorithm == "pr":
            assert np.allclose(native_job.output, reference_job.output,
                               rtol=1e-9)
        else:
            assert np.array_equal(native_job.output, reference_job.output)

    @pytest.mark.parametrize("platform", NATIVE_PLATFORMS)
    def test_lcc_is_not_supported(self, platform, graph):
        """No engine formulates LCC, and a path never silently times
        another path's implementation: the row says so."""
        driver = create_driver(measured_path(platform))
        assert not driver.supports("lcc")
        job = driver.execute(driver.upload(graph), "lcc")
        assert job.status is JobStatus.NOT_SUPPORTED
        assert job.output is None and job.modeled_processing_time is None

    def test_validation_passes_through_runner(self):
        from repro.harness.config import BenchmarkConfig
        from repro.harness.runner import BenchmarkRunner

        runner = BenchmarkRunner(BenchmarkConfig(seed=0))
        result = runner.run_job("pythonref-pregel", "R1", "bfs")
        assert result.platform == "PythonRef-Pregel"
        assert result.validated is True

    @pytest.mark.parametrize(
        "platform,count",
        # G22 is unweighted: no SSSP; only the kernels formulate LCC.
        [(p, 11 if p == "pythonref" else 9) for p in EXTRA_PLATFORMS],
    )
    def test_tproc_is_the_processing_span_and_nothing_else(
        self, platform, count
    ):
        """Paper §2.5: T_proc excludes start-up, upload and load. Every
        measured row's T_proc is its ``processing`` span (extracted by
        Granula), and that span's subtree holds the algorithm only."""
        from repro.harness.config import BenchmarkConfig
        from repro.harness.runner import BenchmarkRunner
        from repro.trace import Tracer, use_tracer

        supports = create_driver(platform).supports
        tracer = Tracer()
        with use_tracer(tracer):
            runner = BenchmarkRunner(BenchmarkConfig(seed=0))
            rows = [
                runner.run_job(platform, dataset, algorithm)
                for dataset in ("G22", "R4")
                for algorithm in ("bfs", "pr", "wcc", "cdlp", "sssp", "lcc")
                if supports(algorithm)
                and can_run_combo(platform, dataset, algorithm)
            ]
        assert len(rows) == count
        spans = {s.span_id: s for s in tracer.finished_spans()}
        processing = sorted(
            (s for s in spans.values() if s.name == "processing"),
            key=lambda s: s.start,
        )
        for row, span in zip(rows, processing):
            assert row.succeeded and row.validated is True
            assert row.modeled_processing_time == pytest.approx(span.duration)
            assert row.measured_processing_seconds == pytest.approx(
                row.modeled_processing_time
            )

        def inside_processing(span):
            while span.parent_id is not None:
                span = spans[span.parent_id]
                if span.name == "processing":
                    return True
            return False

        inside = {s.name for s in spans.values() if inside_processing(s)}
        assert "kernel" in inside
        assert inside <= {"kernel", "superstep", "iteration", "round"}

    def test_tproc_is_the_processing_span_on_two_shards(self):
        """The sharded path too: a ``pythonref`` row at two machines
        times only the product and its exchange inside ``processing``;
        deploying the shards is part of ``load``."""
        from repro.engines.partitioned import undeploy
        from repro.harness.config import BenchmarkConfig
        from repro.harness.runner import BenchmarkRunner
        from repro.platforms.cluster import ClusterResources
        from repro.trace import Tracer, use_tracer

        tracer = Tracer()
        two = ClusterResources(machines=2)
        try:
            with use_tracer(tracer):
                runner = BenchmarkRunner(BenchmarkConfig(seed=0))
                rows = [
                    runner.run_job("pythonref", dataset, algorithm, resources=two)
                    for dataset in ("G22", "R4")
                    for algorithm in ("bfs", "pr", "wcc", "cdlp", "sssp", "lcc")
                    if can_run_combo("pythonref", dataset, algorithm, machines=2)
                ]
        finally:
            undeploy()
        assert len(rows) == 11  # G22 is unweighted: no SSSP
        spans = {s.span_id: s for s in tracer.finished_spans()}
        processing = sorted(
            (s for s in spans.values() if s.name == "processing"),
            key=lambda s: s.start,
        )
        for row, span in zip(rows, processing):
            assert row.succeeded and row.validated is True
            assert row.measured_processing_seconds == pytest.approx(span.duration)

        def ancestors(span):
            while span.parent_id is not None:
                span = spans[span.parent_id]
                yield span.name

        inside = {s.name for s in spans.values() if "processing" in ancestors(s)}
        assert {"partitioned", "superstep", "shard-compute"} <= inside
        assert inside <= {
            "partitioned", "superstep", "shard-compute", "exchange",
            "barrier-wait", "iteration", "kernel",
        }
        deploys = [s for s in spans.values() if s.name == "deploy"]
        assert len(deploys) == 2  # one per dataset
        assert all("load" in ancestors(s) for s in deploys)

    def test_partitions_reach_the_kernels_path_only(self):
        """Shards are machines, and only the kernels shard: an engine
        path's multi-machine cell is refused by the one runnable rule
        (skipped in a matrix, ``NA`` in an experiment), never raised."""
        from repro.harness.config import BenchmarkConfig
        from repro.platforms.cluster import ClusterResources
        from repro.runtime.scheduler import matrix_jobs

        assert can_run_combo("pythonref", "R1", "bfs", machines=2)
        for platform in ("pythonref-pregel", "pythonref-gas", "pythonref-spmv"):
            assert can_run_combo(platform, "R1", "bfs", machines=1)
            assert not can_run_combo(platform, "R1", "bfs", machines=2)
        config = BenchmarkConfig(
            platforms=list(EXTRA_PLATFORMS), datasets=["R1"],
            algorithms=["bfs"], resources=ClusterResources(machines=2),
        )
        assert [job.platform for job in matrix_jobs(config)] == ["pythonref"]

    def test_execution_option_is_gone(self):
        """Modeled drivers always run the reference kernels."""
        with pytest.raises(TypeError):
            create_driver("giraph", execution="native")

    def test_platforms_without_native_mode_still_work(self, graph):
        driver = create_driver("openg")
        job = driver.execute(driver.upload(graph), "wcc")
        assert job.succeeded
