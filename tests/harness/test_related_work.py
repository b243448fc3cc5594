"""Tests for the Table 12 related-work matrix."""

from repro.harness.related_work import RELATED_WORK, related_work_table


class TestTable12:
    def test_fourteen_rows(self):
        assert len(RELATED_WORK) == 14

    def test_graphalytics_is_last_and_unique(self):
        this_work = RELATED_WORK[-1]
        assert "Graphalytics" in this_work.name
        # "There is no alternative to Graphalytics in covering R1-R4":
        # it is the only row with robustness + renewal + 2-stage selection.
        assert this_work.robustness and this_work.renewal
        assert this_work.datasets == "2-stage"
        assert this_work.scalability_tests == "W/S/V/H"
        for other in RELATED_WORK[:-1]:
            assert not other.robustness
            assert not other.renewal
            assert other.datasets != "2-stage"

    def test_graph500_row(self):
        row = next(w for w in RELATED_WORK if w.name == "Graph500")
        assert row.kind == "B"
        assert row.scalability_tests == "No"

    def test_prior_work_covers_scalability_but_not_robustness(self):
        row = next(w for w in RELATED_WORK if "prior work" in w.name)
        assert row.scalability_tests == "W/S/V/H"
        assert not row.robustness

    def test_table_rows_render(self):
        rows = related_work_table()
        assert len(rows) == 14
        assert rows[-1]["robustness"] == "Yes"
        assert rows[0]["renewal"] == "No"

    def test_benchmarks_vs_studies(self):
        kinds = [w.kind for w in RELATED_WORK]
        assert kinds.count("B") == 8
        assert kinds.count("S") == 6
