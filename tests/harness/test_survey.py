"""Tests for the survey data and two-stage selection (Table 1)."""

import pytest

from repro.harness import anchors
from repro.harness.survey import (
    CORE_ALGORITHM_SELECTION,
    SURVEY_UNWEIGHTED,
    SURVEY_WEIGHTED,
    survey_table,
    two_stage_selection,
)


def _table1(survey):
    """Table 1's (class, count, percentage) rows of one survey."""
    return [
        (name, count, pct)
        for (kind, name), (count, pct) in anchors.TABLE1.items()
        if kind == survey
    ]


class TestSurveyData:
    def test_unweighted_totals(self):
        # Table 1: percentages are relative to 141 algorithm occurrences.
        total = sum(c.count for c in SURVEY_UNWEIGHTED)
        assert total == 141

    def test_weighted_totals(self):
        assert sum(c.count for c in SURVEY_WEIGHTED) == 50

    @pytest.mark.parametrize("name,count,pct", _table1("Unweighted"))
    def test_unweighted_rows(self, name, count, pct):
        cls = next(c for c in SURVEY_UNWEIGHTED if c.name == name)
        assert cls.count == count
        total = sum(c.count for c in SURVEY_UNWEIGHTED)
        assert cls.percentage(total) == pytest.approx(pct, abs=0.15)

    @pytest.mark.parametrize("name,count,pct", _table1("Weighted"))
    def test_weighted_rows(self, name, count, pct):
        cls = next(c for c in SURVEY_WEIGHTED if c.name == name)
        assert cls.count == count
        total = sum(c.count for c in SURVEY_WEIGHTED)
        assert cls.percentage(total) == pytest.approx(pct, abs=0.1)

    def test_survey_table_rows(self):
        rows = survey_table()
        assert len(rows) == 10
        assert {r["survey"] for r in rows} == {"Unweighted", "Weighted"}


class TestTwoStageSelection:
    def test_reproduces_six_core_algorithms(self):
        # The paper's two-stage process lands on exactly these six.
        assert two_stage_selection() == ["pr", "lcc", "bfs", "wcc", "cdlp", "sssp"]

    def test_selection_matches_registry(self):
        from repro.algorithms.registry import ALGORITHMS

        assert set(two_stage_selection()) == set(ALGORITHMS)

    def test_min_share_filters_small_classes(self):
        # Raising the representativeness bar above Traversal's 48.9%
        # leaves only BFS from the unweighted survey.
        selected = two_stage_selection(min_class_share=0.40)
        assert "bfs" in selected
        assert "pr" not in selected

    def test_other_class_never_selected(self):
        # "Other" is a catch-all, not a coherent class.
        selected = two_stage_selection(min_class_share=0.0)
        assert all(a in CORE_ALGORITHM_SELECTION for a in selected)

    def test_diversity_rationale_for_every_algorithm(self):
        assert set(CORE_ALGORITHM_SELECTION) == {
            "bfs", "pr", "wcc", "cdlp", "lcc", "sssp",
        }
