"""Tests for the Granula modeler, archiver, and visualizer."""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.granula.archiver import PerformanceArchive, PhaseRecord, build_archive
from repro.granula.model import (
    DEFAULT_MODEL,
    ChildRule,
    PhaseSpec,
    PlatformPerformanceModel,
    model_for_platform,
)
from repro.granula.visualizer import render_html, render_text, save_html
from repro.graph.generators import erdos_renyi
from repro.platforms.registry import create_driver


@pytest.fixture
def job():
    driver = create_driver("giraph")
    handle = driver.upload(erdos_renyi(40, 0.1, seed=1, name="mini"))
    return driver.execute(handle, "wcc")


@pytest.fixture
def archive(job):
    return build_archive(job)


class TestModeler:
    def test_expert_models_for_all_platforms(self):
        for name in ("giraph", "graphx", "powergraph", "graphmat", "openg",
                     "pgx.d"):
            model = model_for_platform(name)
            assert model is not DEFAULT_MODEL
            assert any(spec.name == "processing" for spec in model.phases)

    def test_unknown_platform_falls_back(self):
        assert model_for_platform("unknown") is DEFAULT_MODEL

    def test_child_fractions_bounded(self):
        with pytest.raises(ConfigurationError):
            ChildRule("x", 1.5)
        with pytest.raises(ConfigurationError):
            PhaseSpec("load", children=(ChildRule("a", 0.7), ChildRule("b", 0.7)))

    def test_spec_for_unmodeled_phase(self):
        spec = DEFAULT_MODEL.spec_for("mystery")
        assert spec.name == "mystery"
        assert spec.children == ()


class TestArchiver:
    def test_phases_in_order(self, archive):
        assert [p.name for p in archive.phases] == [
            "startup", "load", "processing", "cleanup",
        ]

    def test_processing_time_matches_job(self, job, archive):
        assert archive.processing_time == pytest.approx(
            job.modeled_processing_time
        )

    def test_makespan_matches_job(self, job, archive):
        assert archive.makespan == pytest.approx(job.modeled_makespan)

    def test_overhead_ratio_table8_style(self, archive):
        # Giraph's Tproc is a small share of its makespan (Table 8: 8.1%).
        assert 0.0 < archive.overhead_ratio() < 0.5

    def test_derived_children_from_expert_model(self, archive):
        load = archive.phase("load")
        assert [c.name for c in load.children] == ["read", "partition"]
        assert all(c.source == "derived" for c in load.children)
        total = sum(c.duration for c in load.children)
        assert total == pytest.approx(load.duration)

    def test_child_lookup_through_hierarchy(self, archive):
        assert archive.phase("partition").source == "derived"

    def test_unknown_phase_raises(self, archive):
        with pytest.raises(ConfigurationError, match="no phase"):
            archive.phase("shuffle")

    def test_descriptive(self, archive):
        # Paper: the archive is "descriptive (all results are described
        # to non-experts)".
        for phase in archive.phases:
            assert phase.description

    def test_examinable_sources(self, archive):
        # Every record is traceable: observed from the log, measured by
        # the tracer, or derived from the expert model.
        def check(record):
            assert record.source in ("observed", "measured", "derived")
            for child in record.children:
                check(child)

        for phase in archive.phases:
            check(phase)

    def test_metadata_captured(self, archive):
        assert archive.phase("load").metadata["elements"] > 0

    def test_save_roundtrip(self, archive, tmp_path):
        path = archive.save(tmp_path / "archive.json")
        payload = json.loads(path.read_text())
        assert payload["platform"] == "Giraph"
        assert len(payload["phases"]) == 4
        assert payload["phases"][1]["children"][0]["name"] == "read"

    def test_empty_archive(self):
        archive = PerformanceArchive("X", "bfs", "D", phases=[])
        assert archive.makespan == 0.0
        assert archive.overhead_ratio() == 0.0


class TestVisualizer:
    def test_text_rendering(self, archive):
        text = render_text(archive)
        assert "Giraph / wcc on mini" in text
        assert "processing" in text
        assert "* read" in text  # derived phases marked

    def test_html_rendering(self, archive):
        html = render_html(archive)
        assert html.startswith("<!DOCTYPE html>")
        assert "Giraph" in html
        assert "makespan" in html

    def test_save_html(self, archive, tmp_path):
        path = save_html(archive, tmp_path / "report.html")
        assert path.read_text().startswith("<!DOCTYPE html>")

    def test_time_formatting(self):
        record = PhaseRecord("processing", 0.0, 0.004)
        archive = PerformanceArchive("X", "bfs", "D", phases=[record])
        assert "4 ms" in render_text(archive)
        # A measured phase is often shorter than a millisecond.
        record = PhaseRecord("processing", 0.0, 0.0004)
        archive = PerformanceArchive("X", "bfs", "D", phases=[record])
        assert "400 µs" in render_text(archive)


class TestComparisonRendering:
    def test_table8_style_comparison(self):
        from repro.granula.visualizer import render_comparison
        from repro.harness.datasets import get_dataset
        from repro.platforms.registry import PLATFORMS, create_driver

        dataset = get_dataset("D300")
        graph = dataset.materialize()
        archives = []
        for name in ("giraph", "openg", "pgxd"):
            driver = create_driver(name)
            handle = driver.upload(graph, profile=dataset.profile)
            job = driver.execute(
                handle, "bfs", dataset.algorithm_parameters("bfs")
            )
            archives.append(build_archive(job))
        text = render_comparison(archives)
        assert "Giraph" in text and "PGX.D" in text
        assert "#" in text and "-" in text
        # PGX.D's tiny processing share must be visible as a ratio.
        pgxd_line = next(l for l in text.splitlines() if "PGX.D" in l)
        assert "0.2% of makespan" in pgxd_line or "0.1% of makespan" in pgxd_line

    def test_empty_comparison(self):
        from repro.granula.visualizer import render_comparison

        assert render_comparison([]) == "(no archives)"


class TestMeasuredChildren:
    """Tracer spans flow into the archive as ``source="measured"``
    sub-phase records (the tentpole's Granula-as-consumer behavior)."""

    @pytest.fixture
    def reference_archive(self):
        from repro.harness.datasets import get_dataset

        dataset = get_dataset("G22")
        driver = create_driver("pythonref")
        handle = driver.upload(dataset.materialize(), profile=dataset.profile)
        job = driver.execute(
            handle, "bfs", dataset.algorithm_parameters("bfs")
        )
        return build_archive(job)

    def test_load_children_measured(self, reference_archive):
        load = reference_archive.phase("load")
        assert [c.name for c in load.children] == ["out-csr", "in-csr"]
        assert all(c.source == "measured" for c in load.children)

    def test_processing_children_measured(self, reference_archive):
        processing = reference_archive.phase("processing")
        assert [c.name for c in processing.children] == ["kernel"]
        assert processing.children[0].source == "measured"

    def test_measured_children_nested_in_parent(self, reference_archive):
        for parent in ("load", "processing"):
            record = reference_archive.phase(parent)
            for child in record.children:
                assert child.start >= record.start - 1e-9
                assert child.end <= record.end + 1e-9

    def test_measured_children_survive_save(self, reference_archive, tmp_path):
        payload = json.loads(
            reference_archive.save(tmp_path / "a.json").read_text()
        )
        load = next(p for p in payload["phases"] if p["name"] == "load")
        assert load["children"][0]["source"] == "measured"


def _records(records):
    """Every record of a phase forest, depth first."""
    for record in records:
        yield record
        yield from _records(record.children)


class TestArchivedSpans:
    """A measured job's archive holds every interval its tracer
    recorded under ``execute``, as recorded."""

    @staticmethod
    def _run(platform, machines=1):
        from repro.harness.datasets import get_dataset
        from repro.platforms.cluster import ClusterResources
        from repro.trace import current_tracer

        dataset = get_dataset("G22")
        driver = create_driver(platform)
        handle = driver.upload(dataset.materialize(), profile=dataset.profile)
        with current_tracer().capture() as taken:
            try:
                job = driver.execute(
                    handle, "bfs", dataset.algorithm_parameters("bfs"),
                    ClusterResources(machines=machines),
                )
            finally:
                driver.delete(handle)
        return build_archive(job), taken

    @pytest.mark.parametrize("platform, step", [
        ("pythonref-pregel", "superstep"),
        ("pythonref-gas", "round"),
        ("pythonref-spmv", "iteration"),
    ])
    def test_every_engine_step_archived(self, platform, step):
        archive, spans = self._run(platform)
        recorded = [s for s in spans if s.name == step]
        assert recorded
        (kernel,) = archive.phase("processing").children
        assert kernel.name == "kernel"
        archived = [c for c in kernel.children if c.name == step]
        assert [c.duration for c in archived] == [s.duration for s in recorded]
        assert all(c.source == "measured" for c in archived)
        assert all(c.description for c in archived)
        (processing,) = [s for s in spans if s.name == "processing"]
        assert archive.processing_time == processing.duration

    def test_sharded_job_archives_every_span(self):
        archive, spans = self._run("pythonref", machines=2)
        under_load = {r.name for r in _records(archive.phase("load").children)}
        under_processing = {
            r.name for r in _records(archive.phase("processing").children)
        }
        assert "deploy" in under_load
        assert {"shard-compute", "exchange", "barrier-wait"} <= under_processing
        # Every span but the execute root is an archived phase.
        assert [s.name for s in spans][-1] == "execute"
        assert len(list(_records(archive.phases))) == len(spans) - 1
        assert all(r.description for r in _records(archive.phases))
        assert [p.name for p in archive.phases] == ["load", "processing"]


class TestHtmlChildren:
    def test_derived_children_rendered(self, archive):
        html_text = render_html(archive)
        assert "read" in html_text and "partition" in html_text
        assert "bar derived" in html_text
