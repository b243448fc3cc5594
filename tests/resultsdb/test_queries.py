"""Canned-query semantics: top, trend, regressions.

Each query's own contract — ordering, tie-breaking, filters, and which
rows count as usable — and its answer identity with the retired JSON
backend, whose loops are kept here as the reference.
"""

from __future__ import annotations

import pytest

from repro.resultsdb import queries
from tests.resultsdb.conftest import make_metadata, make_record


def _submit(store, run_id, records, **kwargs):
    store.submit_run(make_metadata(run_id), records, **kwargs)


class TestTop:
    def test_leaderboard_ranks_platform_bests(self, store):
        _submit(store, "run-a", [
            make_record(platform="GraphMat", modeled_processing_time=0.5),
            make_record(platform="Giraph", modeled_processing_time=0.9),
            make_record(platform="GraphMat", modeled_processing_time=0.3),
        ])
        _submit(store, "run-b", [
            make_record(platform="Giraph", modeled_processing_time=0.4),
            make_record(platform="PGX.D", modeled_processing_time=0.2),
        ])
        entries = queries.top(store, "bfs", "D300")
        assert [(e.rank, e.platform, e.tproc) for e in entries] == [
            (1, "PGX.D", 0.2),
            (2, "GraphMat", 0.3),
            (3, "Giraph", 0.4),
        ]
        assert entries[0].run_id == "run-b"
        assert entries[1].run_id == "run-a"

    def test_limit_truncates_after_ranking(self, store):
        _submit(store, "run-a", [
            make_record(platform="A", modeled_processing_time=0.5),
            make_record(platform="B", modeled_processing_time=0.1),
        ])
        entries = queries.top(store, "bfs", "D300", limit=1)
        assert [(e.rank, e.platform) for e in entries] == [(1, "B")]

    def test_equal_times_rank_by_platform_name(self, store):
        _submit(store, "run-a", [
            make_record(platform="Zeta", modeled_processing_time=0.3),
            make_record(platform="Alpha", modeled_processing_time=0.3),
        ])
        entries = queries.top(store, "bfs", "D300")
        assert [e.platform for e in entries] == ["Alpha", "Zeta"]

    def test_failed_noncompliant_and_timeless_rows_excluded(self, store):
        _submit(store, "run-a", [
            make_record(platform="A", status="failed"),
            make_record(platform="B", sla_compliant=False),
            make_record(platform="C", modeled_processing_time=None,
                        status="skipped"),
            make_record(platform="D", modeled_processing_time=1.0),
        ])
        entries = queries.top(store, "bfs", "D300")
        assert [e.platform for e in entries] == ["D"]

    def test_algorithm_case_folded(self, store):
        _submit(store, "run-a", [make_record(algorithm="bfs")])
        assert queries.top(store, "BFS", "D300")
        assert queries.top(store, "bfs", "other") == []


class TestBestPlatform:
    def test_first_strictly_lower_wins_ties(self, store):
        # Two equal times: the earlier (run_id, position) keeps the
        # crown — the JSON backend's first-strictly-lower rule.
        _submit(store, "run-a", [
            make_record(platform="First", modeled_processing_time=0.3),
        ])
        _submit(store, "run-b", [
            make_record(platform="Second", modeled_processing_time=0.3),
        ])
        best = queries.best_platform(store, "bfs", "D300")
        assert best == {"run_id": "run-a", "platform": "First", "tproc": 0.3}

    def test_none_when_nothing_compliant(self, store):
        _submit(store, "run-a", [make_record(status="failed")])
        assert queries.best_platform(store, "bfs", "D300") is None


class TestTrend:
    def test_points_follow_insertion_order_not_run_id_sort(self, store):
        # run-z submitted before run-a: the trend axis is submission
        # (rowid) order, unlike the lexicographic run_id order the
        # leaderboard queries use.
        _submit(store, "run-z", [
            make_record(modeled_processing_time=0.5),
        ])
        _submit(store, "run-a", [
            make_record(modeled_processing_time=0.4),
        ])
        points = queries.trend(store, "GraphMat", "bfs", "D300")
        assert [p.run_id for p in points] == ["run-z", "run-a"]
        assert [p.tproc for p in points] == [0.5, 0.4]

    def test_best_time_per_run_and_visible_gaps(self, store):
        _submit(store, "run-1", [
            make_record(modeled_processing_time=0.9),
            make_record(modeled_processing_time=0.4),
        ])
        _submit(store, "run-2", [
            make_record(status="failed", modeled_processing_time=None),
        ])
        points = queries.trend(store, "GraphMat", "bfs", "D300")
        assert points[0].tproc == 0.4
        # The all-failed run is a visible gap, not a dropped point.
        assert points[1].tproc is None
        assert points[1].status == "failed"

    def test_machines_and_threads_filters(self, store):
        _submit(store, "run-1", [
            make_record(machines=1, threads=16, modeled_processing_time=0.2),
            make_record(machines=4, threads=32, modeled_processing_time=0.8),
        ])
        points = queries.trend(
            store, "GraphMat", "bfs", "D300", machines=4, threads=32
        )
        assert [p.tproc for p in points] == [0.8]
        assert queries.trend(
            store, "GraphMat", "bfs", "D300", machines=9
        ) == []

    def test_commit_sha_rides_along(self, store):
        store.submit_run(
            make_metadata("run-1"), [make_record()],
            commit_sha="abc123", submitted_at=42.0,
        )
        point = queries.trend(store, "GraphMat", "bfs", "D300")[0]
        assert point.commit_sha == "abc123"
        assert point.submitted_at == 42.0


class TestRegressions:
    def test_threshold_and_descending_slowdown(self, store):
        _submit(store, "run-old", [
            make_record(algorithm="bfs", modeled_processing_time=1.0),
            make_record(algorithm="pr", modeled_processing_time=1.0),
            make_record(algorithm="wcc", modeled_processing_time=1.0),
        ])
        _submit(store, "run-new", [
            make_record(algorithm="bfs", modeled_processing_time=1.5),
            make_record(algorithm="pr", modeled_processing_time=3.0),
            make_record(algorithm="wcc", modeled_processing_time=1.05),
        ])
        found = queries.regressions(store, "run-old", "run-new")
        assert [(r.algorithm, r.slowdown) for r in found] == [
            ("pr", 3.0), ("bfs", 1.5),
        ]
        assert found[0].old_seconds == 1.0
        assert found[0].new_seconds == 3.0

    def test_custom_threshold(self, store):
        _submit(store, "run-old", [make_record(modeled_processing_time=1.0)])
        _submit(store, "run-new", [make_record(modeled_processing_time=1.5)])
        assert queries.regressions(
            store, "run-old", "run-new", threshold=2.0
        ) == []
        assert len(queries.regressions(
            store, "run-old", "run-new", threshold=1.2
        )) == 1

    def test_last_write_wins_old_index(self, store):
        # Duplicate workload rows in the old run: the later row is the
        # baseline (the JSON backend's dict-overwrite semantics).
        _submit(store, "run-old", [
            make_record(modeled_processing_time=10.0),
            make_record(modeled_processing_time=1.0),
        ])
        _submit(store, "run-new", [
            make_record(modeled_processing_time=2.0),
        ])
        found = queries.regressions(store, "run-old", "run-new")
        assert [(r.old_seconds, r.new_seconds) for r in found] == [(1.0, 2.0)]

    def test_failed_and_zero_time_rows_ignored(self, store):
        _submit(store, "run-old", [
            make_record(modeled_processing_time=1.0),
        ])
        _submit(store, "run-new", [
            make_record(status="failed", modeled_processing_time=99.0),
            make_record(algorithm="pr", modeled_processing_time=0.0),
        ])
        assert queries.regressions(store, "run-old", "run-new") == []

    def test_unmatched_workloads_are_not_regressions(self, store):
        _submit(store, "run-old", [
            make_record(dataset="D300", modeled_processing_time=1.0),
        ])
        _submit(store, "run-new", [
            make_record(dataset="D1000", modeled_processing_time=50.0),
        ])
        assert queries.regressions(store, "run-old", "run-new") == []

    def test_regression_query_bundles_inputs(self, store):
        _submit(store, "run-old", [make_record(modeled_processing_time=1.0)])
        _submit(store, "run-new", [make_record(modeled_processing_time=2.0)])
        bundle = queries.regression_query(store, "run-old", "run-new")
        assert bundle.old_run == "run-old"
        assert bundle.new_run == "run-new"
        assert bundle.threshold == 1.10
        assert len(bundle.regressions) == 1

    def test_unknown_run_errors(self, store):
        from repro.exceptions import ConfigurationError

        _submit(store, "run-old", [make_record()])
        with pytest.raises(ConfigurationError, match="unknown run"):
            queries.regressions(store, "run-old", "ghost")


# -- the retired JSON backend's loops, over each run's job records ------------

#: Three runs with varied workloads, as the JSON backend stored them.
_RUNS = {
    "run-2016-a": [
        make_record(platform="GraphMat", modeled_processing_time=0.5),
        make_record(platform="Giraph", modeled_processing_time=0.9),
        make_record(platform="GraphMat", algorithm="pr",
                    modeled_processing_time=2.0),
    ],
    "run-2016-b": [
        make_record(platform="Giraph", modeled_processing_time=0.4),
        make_record(platform="GraphMat", algorithm="pr",
                    modeled_processing_time=3.0),
        make_record(platform="PGX.D", status="failed",
                    modeled_processing_time=None),
    ],
    "run-2016-c": [
        make_record(platform="PGX.D", modeled_processing_time=0.5),
        make_record(platform="Giraph", sla_compliant=False,
                    modeled_processing_time=0.1),
    ],
}


def _submit_runs(store):
    for run_id, records in _RUNS.items():
        _submit(store, run_id, records)


def _json_best_platform(algorithm, dataset):
    best = None
    for run_id in sorted(_RUNS):
        for record in _RUNS[run_id]:
            if (
                record.get("algorithm") == algorithm.lower()
                and record.get("dataset") == dataset
                and record.get("status") == "succeeded"
                and record.get("sla_compliant")
                and record.get("modeled_processing_time") is not None
            ):
                tproc = record["modeled_processing_time"]
                if best is None or tproc < best["tproc"]:
                    best = {
                        "run_id": run_id,
                        "platform": record["platform"],
                        "tproc": tproc,
                    }
    return best


def _json_regressions(old_run, new_run, threshold=1.10):
    def key(record):
        return (
            record.get("platform"), record.get("algorithm"),
            record.get("dataset"), record.get("machines"),
            record.get("threads"),
        )

    old_index = {}
    for record in _RUNS[old_run]:
        if record.get("status") == "succeeded" and record.get(
            "modeled_processing_time"
        ):
            old_index[key(record)] = record["modeled_processing_time"]
    found = []
    for record in _RUNS[new_run]:
        if not (
            record.get("status") == "succeeded"
            and record.get("modeled_processing_time")
        ):
            continue
        if key(record) in old_index:
            old_time = old_index[key(record)]
            new_time = record["modeled_processing_time"]
            if new_time > threshold * old_time:
                found.append(
                    (record["platform"], record["algorithm"],
                     record["dataset"], old_time, new_time)
                )
    return sorted(found, key=lambda row: -(row[4] / row[3]))


class TestAnswerIdentity:
    """Every canned query matches the JSON backend's answer."""

    def test_best_platform_identical_for_every_workload(self, store):
        _submit_runs(store)
        for algorithm, dataset in [
            ("bfs", "D300"), ("pr", "D300"), ("BFS", "D300"),
            ("wcc", "D300"), ("bfs", "D1000"),
        ]:
            assert queries.best_platform(
                store, algorithm, dataset
            ) == _json_best_platform(algorithm, dataset)

    def test_top_rank_one_is_the_json_best(self, store):
        _submit_runs(store)
        entries = queries.top(store, "bfs", "D300")
        best = _json_best_platform("bfs", "D300")
        assert entries[0].platform == best["platform"]
        assert entries[0].run_id == best["run_id"]
        assert entries[0].tproc == best["tproc"]

    def test_regressions_identical_both_directions(self, store):
        _submit_runs(store)
        for old, new in [
            ("run-2016-a", "run-2016-b"),
            ("run-2016-b", "run-2016-a"),
            ("run-2016-a", "run-2016-c"),
        ]:
            got = [
                (r.platform, r.algorithm, r.dataset,
                 r.old_seconds, r.new_seconds)
                for r in queries.regressions(store, old, new)
            ]
            assert got == _json_regressions(old, new)

    def test_facade_queries_match_over_a_repository_directory(
        self, tmp_path
    ):
        # A repository directory is the directory holding results.db:
        # the store ``full-run --repository`` opens, and the one the
        # package façade's queries read.
        from repro import resultsdb

        with resultsdb.ResultsStore(tmp_path / resultsdb.STORE_NAME) as store:
            _submit_runs(store)
        with resultsdb.ResultsStore(
            tmp_path / resultsdb.STORE_NAME
        ) as repository:
            assert repository.run_ids() == [
                "run-2016-a", "run-2016-b", "run-2016-c",
            ]
            assert resultsdb.best_platform(
                repository, "bfs", "D300"
            ) == _json_best_platform("bfs", "D300")
