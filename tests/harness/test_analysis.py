"""Tests for the statistical results analysis."""

import pytest

from repro.exceptions import ConfigurationError
from repro.harness.analysis import (
    compare_platforms,
    speedup_matrix,
    summarize_measurements,
)
from repro.harness.results import BenchmarkResult, ResultsDatabase


def make_result(platform, tproc, run_index=0, **overrides):
    defaults = dict(
        platform=platform,
        algorithm="bfs",
        dataset="D300",
        machines=1,
        threads=32,
        status="succeeded",
        modeled_processing_time=tproc,
        run_index=run_index,
        sla_compliant=True,
    )
    defaults.update(overrides)
    return BenchmarkResult(**defaults)


class TestSummarize:
    def test_basic_statistics(self):
        summary = summarize_measurements([10.0, 12.0, 11.0, 13.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(11.5)
        assert summary.ci_low < summary.mean < summary.ci_high

    def test_cv_matches_paper_definition(self):
        # Paper: CV = std / mean. (Sample std here, n-1.)
        summary = summarize_measurements([1.0, 3.0])
        assert summary.cv == pytest.approx(summary.std / summary.mean)

    def test_tight_samples_tight_interval(self):
        loose = summarize_measurements([10, 20, 15, 12, 18])
        tight = summarize_measurements([14.9, 15.1, 15.0, 15.05, 14.95])
        assert tight.ci_halfwidth < loose.ci_halfwidth

    def test_confidence_widens_interval(self):
        narrow = summarize_measurements([10, 12, 11, 13], confidence=0.80)
        wide = summarize_measurements([10, 12, 11, 13], confidence=0.99)
        assert wide.ci_halfwidth > narrow.ci_halfwidth

    def test_one_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize_measurements([1.0])

    def test_invalid_confidence(self):
        with pytest.raises(ConfigurationError):
            summarize_measurements([1.0, 2.0], confidence=1.5)


class TestSpeedupMatrix:
    @pytest.fixture
    def database(self):
        return ResultsDatabase(
            [
                make_result("GraphMat", 0.3),
                make_result("Giraph", 22.3),
                make_result("PowerGraph", 2.1),
                make_result("GraphX", None, status="failed-memory",
                            sla_compliant=False),
            ]
        )

    def test_diagonal_is_one(self, database):
        matrix = speedup_matrix(database, algorithm="bfs", dataset="D300")
        assert matrix[("Giraph", "Giraph")] == pytest.approx(1.0)

    def test_table8_ratio(self, database):
        matrix = speedup_matrix(database, algorithm="bfs", dataset="D300")
        # Giraph / GraphMat ~ 74x: the "two orders of magnitude" finding.
        assert matrix[("Giraph", "GraphMat")] == pytest.approx(74.3, rel=0.01)

    def test_failed_platform_omitted(self, database):
        matrix = speedup_matrix(database, algorithm="bfs", dataset="D300")
        assert not any("GraphX" in key for key in matrix)

    def test_antisymmetry(self, database):
        matrix = speedup_matrix(database, algorithm="bfs", dataset="D300")
        assert matrix[("Giraph", "PowerGraph")] == pytest.approx(
            1.0 / matrix[("PowerGraph", "Giraph")]
        )


class TestComparePlatforms:
    def _repeated(self, platform, base, jitter, n=8):
        return [
            make_result(platform, base * (1 + jitter * ((-1) ** i) * (i % 3) / 10),
                        run_index=i)
            for i in range(n)
        ]

    def test_clear_difference_significant(self):
        db = ResultsDatabase(
            self._repeated("A", 1.0, 0.05) + self._repeated("B", 10.0, 0.05)
        )
        comparison = compare_platforms(db, "A", "B", algorithm="bfs",
                                       dataset="D300")
        assert comparison.faster == "A"
        assert comparison.speedup == pytest.approx(10.0, rel=0.1)
        assert comparison.significant
        assert comparison.p_value < 0.01

    def test_identical_platforms_not_significant(self):
        db = ResultsDatabase(
            self._repeated("A", 5.0, 0.2) + self._repeated("B", 5.0, 0.2)
        )
        comparison = compare_platforms(db, "A", "B", algorithm="bfs",
                                       dataset="D300")
        assert not comparison.significant

    def test_single_runs_fall_back_to_point_estimate(self):
        db = ResultsDatabase([make_result("A", 1.0), make_result("B", 2.0)])
        comparison = compare_platforms(db, "A", "B", algorithm="bfs",
                                       dataset="D300")
        assert comparison.faster == "A"
        assert not comparison.significant
        assert comparison.p_value is None

    def test_missing_measurements_rejected(self):
        db = ResultsDatabase([make_result("A", 1.0)])
        with pytest.raises(ConfigurationError):
            compare_platforms(db, "A", "B", algorithm="bfs", dataset="D300")

    def test_same_platform_refused(self):
        db = ResultsDatabase(self._repeated("A", 1.0, 0.05))
        with pytest.raises(ConfigurationError, match="with itself"):
            compare_platforms(db, "A", "a", algorithm="bfs", dataset="D300")

    def test_end_to_end_with_real_variability(self):
        from repro.harness.config import BenchmarkConfig
        from repro.harness.runner import BenchmarkRunner

        config = BenchmarkConfig(
            platforms=["graphmat", "giraph"], datasets=["D300"],
            algorithms=["bfs"], repetitions=6,
        )
        db = BenchmarkRunner(config).run()
        comparison = compare_platforms(
            db, "GraphMat", "Giraph", algorithm="bfs", dataset="D300"
        )
        assert comparison.faster == "GraphMat"
        assert comparison.significant
        assert comparison.speedup > 30
