"""Tests for the experiment suite (Table 6 + §4.1–4.8 behaviors)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.harness import anchors
from repro.harness.config import BenchmarkConfig
from repro.harness.experiments import EXPERIMENTS, get_experiment
from repro.harness.runner import BenchmarkRunner
from repro.platforms.registry import PLATFORMS


@pytest.fixture(scope="module")
def runner():
    return BenchmarkRunner(BenchmarkConfig(seed=0))


@pytest.fixture(scope="module")
def reports(runner):
    """Run every experiment once; share across tests (they are pure)."""
    return {
        exp_id: EXPERIMENTS[exp_id].run(runner) for exp_id in EXPERIMENTS
    }


class TestCatalog:
    def test_eight_experiments(self):
        assert len(EXPERIMENTS) == 8

    def test_table6_sections(self):
        sections = {e.section for e in EXPERIMENTS.values()}
        assert sections == {"4.1", "4.2", "4.3", "4.4", "4.5", "4.6", "4.7", "4.8"}

    def test_categories(self):
        categories = [e.category for e in EXPERIMENTS.values()]
        assert categories.count("Baseline") == 2
        assert categories.count("Scalability") == 3
        assert categories.count("Robustness") == 2
        assert categories.count("Self-test") == 1

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            get_experiment("4.9")

    def test_table6_rows_match_the_paper(self):
        for exp in EXPERIMENTS.values():
            assert (
                exp.section, exp.category, exp.algorithms, max(exp.nodes)
            ) == anchors.TABLE6[exp.experiment_id]

    def test_table6_parameters(self):
        vertical = get_experiment("vertical-scalability")
        assert vertical.threads == (1, 2, 4, 8, 16, 32)
        assert vertical.datasets == ("D300",)
        strong = get_experiment("strong-scalability")
        assert strong.nodes == (1, 2, 4, 8, 16)
        assert strong.datasets == ("D1000",)


class TestDatasetVariety(object):
    def test_covers_all_platforms_and_datasets(self, reports):
        report = reports["dataset-variety"]
        platforms = {r["platform"] for r in report.rows}
        assert len(platforms) == 6
        datasets = {r["dataset"] for r in report.rows}
        assert "D300" in datasets and "D1000" not in datasets  # up to L

    def test_throughput_metrics_present(self, reports):
        ok_rows = [r for r in reports["dataset-variety"].rows if r["status"] == "ok"]
        assert ok_rows
        assert all(r["eps"] > 0 and r["evps"] > r["eps"] for r in ok_rows)

    def test_three_tiers_on_d300(self, reports):
        def tproc(platform):
            return reports["dataset-variety"].rows_for(
                platform=platform, dataset="D300", algorithm="bfs"
            )[0]["tproc"]

        leaders = min(tproc("GraphMat"), tproc("PGX.D"))
        middle = min(tproc("PowerGraph"), tproc("OpenG"))
        jvm = min(tproc("Giraph"), tproc("GraphX"))
        assert middle > 3 * leaders  # "roughly an order of magnitude"
        assert jvm > 25 * leaders  # "two orders of magnitude"

    def test_every_platform_is_dataset_sensitive(self, reports):
        # §4.1: normalized performance is not constant across datasets.
        rows = reports["dataset-variety"].rows_for(algorithm="bfs")
        for platform in {r["platform"] for r in rows}:
            eps = [
                r["eps"] for r in rows if r["platform"] == platform and r["eps"]
            ]
            assert max(eps) > 2 * min(eps), platform


class TestAlgorithmVariety:
    def test_pgxd_lcc_na(self, reports):
        rows = reports["algorithm-variety"].rows_for(
            platform="PGX.D", algorithm="lcc"
        )
        assert rows and all(r["status"] == "NA" for r in rows)

    def test_graphx_cdlp_fails_even_on_r4(self, reports):
        for dataset in ("R4", "D300"):
            rows = reports["algorithm-variety"].rows_for(
                platform="GraphX", algorithm="cdlp", dataset=dataset
            )
            assert rows[0]["status"] == "F"

    def test_openg_best_on_cdlp(self, reports):
        for dataset in ("R4", "D300"):
            ok = {
                r["platform"]: r["tproc"]
                for r in reports["algorithm-variety"].rows_for(
                    algorithm="cdlp", dataset=dataset
                )
                if r["status"] == "ok"
            }
            assert min(ok, key=ok.get) == "OpenG"

    def test_lcc_failures_match_paper(self, reports):
        report = reports["algorithm-variety"]
        for dataset in ("R4", "D300"):
            ok = {
                r["platform"]
                for r in report.rows_for(algorithm="lcc", dataset=dataset)
                if r["status"] == "ok"
            }
            assert ok == {"PowerGraph", "OpenG"}
            for platform in ("Giraph", "GraphX", "GraphMat"):
                rows = report.rows_for(
                    platform=platform, algorithm="lcc", dataset=dataset
                )
                assert rows[0]["status"] == "F"

    def test_graphmat_sssp_uses_d_backend(self, reports):
        rows = reports["algorithm-variety"].rows_for(
            platform="GraphMat", algorithm="sssp"
        )
        assert rows and all(r["backend"] == "D" for r in rows)


class TestVerticalScalability:
    def test_speedup_reported_per_thread_count(self, reports):
        rows = reports["vertical-scalability"].rows_for(
            platform="PGX.D", algorithm="bfs"
        )
        assert [r["threads"] for r in rows] == [1, 2, 4, 8, 16, 32]
        assert rows[-1]["speedup"] > 10

    def test_notes_summarize_max_speedups(self, reports):
        notes = reports["vertical-scalability"].notes
        assert len(notes) == 12  # 6 platforms x 2 algorithms


class TestStrongScalability:
    def test_openg_excluded(self, reports):
        platforms = {r["platform"] for r in reports["strong-scalability"].rows}
        assert "OpenG" not in platforms
        assert len(platforms) == 5

    def test_pgxd_single_machine_fails(self, reports):
        rows = reports["strong-scalability"].rows_for(
            platform="PGX.D", algorithm="bfs", machines=1
        )
        assert rows[0]["status"] == "F"

    def test_giraph_pr_sla_fail_at_two(self, reports):
        rows = reports["strong-scalability"].rows_for(
            platform="Giraph", algorithm="pr", machines=2
        )
        assert rows[0]["status"] == "F"

    def test_figure8_status_events(self, reports):
        def status(platform, algorithm, machines):
            return reports["strong-scalability"].rows_for(
                platform=platform, algorithm=algorithm, machines=machines
            )[0]["status"]

        assert status("Giraph", "pr", 1) == status("Giraph", "pr", 4) == "ok"
        # GraphX needs 2 machines for BFS, 4 for PR (memory).
        assert status("GraphX", "bfs", 1) == "F"
        assert status("GraphX", "pr", 2) == "F"
        assert status("GraphX", "pr", 4) == "ok"
        for machines in (1, 2, 4, 8, 16):
            assert status("PowerGraph", "bfs", machines) == "ok"


class TestWeakScalability:
    def test_slowdown_computed_vs_first_success(self, reports):
        rows = reports["weak-scalability"].rows_for(
            platform="GraphX", algorithm="pr"
        )
        finite = [r["slowdown"] for r in rows if r["slowdown"]]
        assert finite[0] == pytest.approx(1.0)
        assert finite[-1] > 5

    def test_graphx_has_the_worst_peak_slowdown_on_pr(self, reports):
        peak = {}
        for platform in ("Giraph", "GraphX", "PowerGraph", "GraphMat"):
            rows = reports["weak-scalability"].rows_for(
                platform=platform, algorithm="pr"
            )
            peak[platform] = max(r["slowdown"] for r in rows if r["slowdown"])
        assert max(peak, key=peak.get) == "GraphX"


class TestStressTest:
    def test_summary_rows_match_table10(self, reports):
        report = reports["stress-test"]
        expected = {
            "Giraph": "G26",
            "GraphX": "G25",
            "PowerGraph": "R5",
            "GraphMat": "G26",
            "OpenG": "R5",
            "PGX.D": "G25",
        }
        rows = report.rows_for(summary="stress-limit")
        assert {row["platform"]: row["dataset"] for row in rows} == expected


class TestVariability:
    def test_ten_runs_per_config(self, reports):
        rows = reports["variability"].rows
        assert all(r["runs"] == 10 for r in rows if r["mean"] is not None)

    def test_openg_absent_from_distributed(self, reports):
        d_rows = reports["variability"].rows_for(config="D")
        assert d_rows and all(r["platform"] != "OpenG" for r in d_rows)
        assert "OpenG" in {r["platform"] for r in reports["variability"].rows}

    def test_s_means_near_table11(self, reports):
        keys = {info.name: key for key, (info, _) in PLATFORMS.items()}
        for row in reports["variability"].rows_for(config="S"):
            paper_mean, _ = anchors.TABLE11["S"][keys[row["platform"]]]
            assert 0.5 * paper_mean <= row["mean"] <= 1.6 * paper_mean

    def test_cv_at_most_ten_percent(self, reports):
        # §4.7 key finding. Sampled CVs (n=10) fluctuate, allow headroom.
        for row in reports["variability"].rows:
            if row["cv"] is not None:
                assert row["cv"] < 0.20


class TestDataGeneration:
    def test_old_vs_new_panel(self, reports):
        rows = reports["data-generation"].rows_for(panel="old-vs-new")
        assert [r["scale_factor"] for r in rows] == [30, 100, 300, 1000, 3000]
        speedups = [r["speedup"] for r in rows]
        assert speedups == sorted(speedups)

    def test_cluster_size_panel(self, reports):
        rows = reports["data-generation"].rows_for(panel="cluster-size")
        machines = {r["machines"] for r in rows}
        assert machines == {4, 8, 16}
