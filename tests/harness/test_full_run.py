"""Tests for the full-benchmark orchestration."""

import pytest

from repro.harness.full_run import run_full_benchmark
from repro.resultsdb.store import STORE_NAME, ResultsStore
from repro.trace import Tracer, use_tracer


class TestSelectedExperiments:
    def test_two_experiments_share_a_database(self):
        result = run_full_benchmark(
            experiment_ids=["algorithm-variety", "variability"]
        )
        assert set(result.reports) == {"algorithm-variety", "variability"}
        assert result.job_count > 100  # 72 + 110 jobs

    def test_notes_prefixed_with_experiment(self):
        result = run_full_benchmark(experiment_ids=["stress-test"])
        assert result.notes
        assert all(note.startswith("[stress-test]") for note in result.notes)

    def test_render(self):
        result = run_full_benchmark(experiment_ids=["algorithm-variety"])
        text = result.render()
        assert "# Graphalytics full benchmark run" in text
        assert "## LCC" in text

    def test_report_written(self, tmp_path):
        path = tmp_path / "report.md"
        run_full_benchmark(
            experiment_ids=["variability"], report_path=path
        )
        assert "## BFS" in path.read_text()


class TestWorkers:
    def test_two_workers_execute_the_jobs_each_artifact_built_once(self):
        serial = run_full_benchmark(experiment_ids=["algorithm-variety"])
        with use_tracer(Tracer()) as tracer:
            pooled = run_full_benchmark(
                experiment_ids=["algorithm-variety"], workers=2
            )
        assert (
            pooled.database.canonical_json()
            == serial.database.canonical_json()
        )
        assert pooled.reports["algorithm-variety"].rows == (
            serial.reports["algorithm-variety"].rows
        )
        # Workers' counters merge into this tracer. The jobs ran on the
        # pool (72 execute jobs) and every artifact — two graphs, six
        # references on each — was built once; whoever needed it next
        # read it from the shared directory.
        assert tracer.counters["scheduler.dispatch"] == 72 + 14
        assert tracer.counters["cache.miss"] == 14
        assert tracer.counters["cache.hit.disk"] >= 1


class TestRepositorySubmission:
    def test_validated_run_submitted(self, tmp_path):
        with ResultsStore(tmp_path / "repo" / STORE_NAME) as store:
            run_full_benchmark(
                experiment_ids=["algorithm-variety"],
                store=store,
                seed=3,
            )
            assert store.run_ids() == ["full-run-seed3"]
            assert len(store.run_records("full-run-seed3")) > 0


@pytest.mark.slow
class TestCompleteSuite:
    def test_all_eight_experiments(self):
        result = run_full_benchmark()
        assert len(result.reports) == 8
        assert result.job_count > 500
