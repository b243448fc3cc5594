"""Tests for the driver API (upload / execute / delete)."""

import pytest

from repro.exceptions import ConfigurationError, UnsupportedAlgorithmError
from repro.graph.generators import erdos_renyi
from repro.platforms.base import JobStatus, profile_from_graph
from repro.platforms.cluster import ClusterResources
from repro.platforms.registry import create_driver
from repro.trace import Span


@pytest.fixture
def driver():
    return create_driver("powergraph")


@pytest.fixture
def graph():
    return erdos_renyi(50, 0.1, seed=1, name="unit-graph")


@pytest.fixture
def handle(driver, graph):
    return driver.upload(graph)


class TestProfileFromGraph:
    def test_measures_graph(self, graph):
        p = profile_from_graph(graph)
        assert p.num_vertices == graph.num_vertices
        assert p.num_edges == graph.num_edges
        assert p.name == "unit-graph"
        assert p.mean_degree == pytest.approx(graph.degrees().mean())

    def test_component_count_measured(self, two_triangles):
        assert profile_from_graph(two_triangles).component_count == 2

    def test_memory_skew_override(self, graph):
        assert profile_from_graph(graph, memory_skew=1.7).memory_skew == 1.7


class TestUpload:
    def test_handle_fields(self, driver, graph):
        handle = driver.upload(graph)
        assert handle.platform == "PowerGraph"
        assert handle.modeled_upload_time > 0
        assert handle.measured_upload_seconds >= 0
        assert not handle.deleted

    def test_delete(self, driver, handle):
        driver.delete(handle)
        assert handle.deleted

    def test_execute_after_delete_rejected(self, driver, handle):
        driver.delete(handle)
        with pytest.raises(ConfigurationError, match="deleted"):
            driver.execute(handle, "wcc")


class TestExecute:
    def test_successful_job(self, driver, handle):
        result = driver.execute(handle, "bfs", {"source_vertex": 0})
        assert result.status is JobStatus.SUCCEEDED
        assert result.succeeded
        assert result.output is not None
        assert len(result.output) == handle.graph.num_vertices
        assert result.modeled_processing_time > 0
        assert result.modeled_makespan > result.modeled_processing_time
        assert result.measured_processing_seconds > 0

    def test_output_matches_reference(self, driver, handle):
        from repro.algorithms.bfs import breadth_first_search
        import numpy as np

        result = driver.execute(handle, "bfs", {"source_vertex": 0})
        expected = breadth_first_search(handle.graph, 0)
        assert np.array_equal(result.output, expected)

    def test_events_cover_makespan(self, driver, handle):
        result = driver.execute(handle, "wcc")
        *phases, root = result.spans
        assert [s["name"] for s in phases] == [
            "startup", "load", "processing", "cleanup",
        ]
        assert all(s["parent"] == root["id"] for s in phases)
        assert all(s["process"] == "model" for s in result.spans)
        # The records have the shape a tracer's spans export.
        assert [Span.from_dict(s).as_dict() for s in result.spans] == result.spans
        assert phases[-1]["end"] == pytest.approx(result.modeled_makespan)
        assert root["end"] == pytest.approx(result.modeled_makespan)

    def test_unknown_algorithm_raises(self, driver, handle):
        with pytest.raises(UnsupportedAlgorithmError):
            driver.execute(handle, "bellmanford")

    def test_run_index_changes_jitter(self, driver, handle):
        a = driver.execute(handle, "wcc", run_index=0)
        b = driver.execute(handle, "wcc", run_index=1)
        assert a.modeled_processing_time != b.modeled_processing_time

    def test_same_job_is_reproducible(self, driver, handle):
        a = driver.execute(handle, "wcc", run_index=3)
        b = driver.execute(handle, "wcc", run_index=3)
        assert a.modeled_processing_time == b.modeled_processing_time

    def test_record_roundtrip(self, driver, handle):
        # The flat record is the harness's BenchmarkResult.as_dict — the
        # one results surface; a JobResult carries the same identity.
        job = driver.execute(handle, "wcc")
        assert job.platform == "PowerGraph"
        assert job.status.value == "succeeded"


class TestModeledFailures:
    def test_out_of_memory(self, driver, graph):
        from repro.platforms.model import WorkloadProfile

        huge = WorkloadProfile(
            name="huge", num_vertices=100_000_000, num_edges=5_000_000_000,
            directed=False, weighted=False, mean_degree=100.0, degree_cv2=1.0,
        )
        handle = driver.upload(graph, profile=huge)
        result = driver.execute(handle, "bfs", {"source_vertex": 0})
        assert result.status is JobStatus.FAILED_MEMORY
        assert "GiB" in result.failure_reason
        assert result.output is None

    def test_crash_quirk(self, graph):
        graphx = create_driver("graphx")
        handle = graphx.upload(graph)
        result = graphx.execute(handle, "cdlp")
        assert result.status is JobStatus.CRASHED

    def test_not_supported_quirk(self, graph):
        pgxd = create_driver("pgxd")
        handle = pgxd.upload(graph)
        result = pgxd.execute(handle, "lcc")
        assert result.status is JobStatus.NOT_SUPPORTED

    def test_non_distributed_platform_rejects_machines(self, graph):
        openg = create_driver("openg")
        handle = openg.upload(graph)
        with pytest.raises(ConfigurationError, match="non-distributed"):
            openg.execute(handle, "wcc", resources=ClusterResources(machines=2))
