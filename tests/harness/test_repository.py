"""Tests for the public results repository: a directory holding one
``results.db`` store, admitted to through ``submit_validated_run`` and
read through the store and ``repro.resultsdb.queries``."""

import json
import multiprocessing
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError, ValidationError
from repro.harness.results import BenchmarkResult, ResultsDatabase
from repro.resultsdb import queries
from repro.resultsdb.store import (
    STORE_NAME,
    ResultsStore,
    RunMetadata,
    submit_validated_run,
)


def make_result(**overrides):
    defaults = dict(
        platform="GraphMat",
        algorithm="bfs",
        dataset="D300",
        machines=1,
        threads=32,
        status="succeeded",
        modeled_processing_time=0.3,
        sla_compliant=True,
        validated=True,
    )
    defaults.update(overrides)
    return BenchmarkResult(**defaults)


def open_repository(root):
    """The store of a repository directory, as ``full-run --repository``
    and ``db --store`` open it."""
    return ResultsStore(Path(root) / STORE_NAME)


def load(store, run_id):
    return ResultsDatabase(
        [BenchmarkResult(**record) for record in store.run_records(run_id)]
    )


@pytest.fixture
def repo(tmp_path):
    with open_repository(tmp_path / "repo") as store:
        yield store


@pytest.fixture
def database():
    return ResultsDatabase([make_result()])


class TestMetadata:
    def test_valid(self):
        meta = RunMetadata("run-1", "GraphMat on DAS-5")
        assert meta.run_id == "run-1"

    def test_invalid_run_id(self):
        with pytest.raises(ConfigurationError, match="run id"):
            RunMetadata("bad/id", "sut")

    def test_empty_sut(self):
        with pytest.raises(ConfigurationError, match="system_under_test"):
            RunMetadata("run-1", "")


class TestSubmission:
    def test_submit_and_reload(self, repo, database):
        meta = RunMetadata("run-1", "GraphMat on DAS-5", submitter="intel")
        assert submit_validated_run(repo, meta, database) == "run-1"
        assert repo.path.exists()
        assert repo.run_ids() == ["run-1"]
        stored = RunMetadata(**repo.canonical_payload("run-1")["metadata"])
        assert stored == meta
        loaded = load(repo, "run-1")
        assert len(loaded) == 1
        assert loaded.one(platform="GraphMat").modeled_processing_time == 0.3

    def test_duplicate_rejected(self, repo, database):
        meta = RunMetadata("run-1", "sut")
        submit_validated_run(repo, meta, database)
        with pytest.raises(ConfigurationError, match="already exists"):
            submit_validated_run(repo, meta, database)

    def test_empty_run_rejected(self, repo):
        with pytest.raises(ConfigurationError, match="empty run"):
            submit_validated_run(
                repo, RunMetadata("run-1", "sut"), ResultsDatabase()
            )

    def test_unvalidated_results_rejected(self, repo):
        db = ResultsDatabase([make_result(validated=None)])
        with pytest.raises(ValidationError, match="lack output validation"):
            submit_validated_run(repo, RunMetadata("run-1", "sut"), db)
        assert repo.run_ids() == []

    def test_unvalidated_allowed_when_opted_out(self, repo):
        """Opting out of the admission rule is not a flag: a private run
        is the store's own transaction (what service runs commit)."""
        db = ResultsDatabase([make_result(validated=None)])
        repo.submit_run(
            {"run_id": "run-1", "system_under_test": "sut"},
            [r.as_dict() for r in db],
        )
        assert repo.run_ids() == ["run-1"]

    def test_failed_jobs_do_not_need_validation(self, repo):
        db = ResultsDatabase(
            [make_result(), make_result(status="crashed", validated=None,
                                        sla_compliant=False)]
        )
        submit_validated_run(repo, RunMetadata("run-1", "sut"), db)

    def test_unknown_run(self, repo):
        with pytest.raises(ConfigurationError, match="unknown run"):
            load(repo, "nope")


def _submit_burst(root, prefix, count, barrier):
    """Child-process writer: submit ``count`` runs as fast as possible."""
    repo = open_repository(root)
    database = ResultsDatabase([make_result()])
    barrier.wait(timeout=30)
    for index in range(count):
        submit_validated_run(
            repo, RunMetadata(f"{prefix}-{index}", "sut"), database
        )


def _submit_same_run(root, run_id, barrier, queue):
    """Child-process writer: claim one fixed run id; report the verdict."""
    repo = open_repository(root)
    database = ResultsDatabase([make_result()])
    barrier.wait(timeout=30)
    try:
        submit_validated_run(repo, RunMetadata(run_id, "sut"), database)
        queue.put("stored")
    except ConfigurationError:
        queue.put("duplicate")


class TestConcurrentSubmission:
    """Concurrent submitters must not lose rows or share a run id.

    The legacy design serialized writers with an ``flock`` sidecar
    around a read-modify-write of ``.index.json`` — the lost-update
    these tests guarded against. The store inherits the obligation with
    SQLite transactions: every submission is a ``BEGIN IMMEDIATE``
    commit, so the same assertions must hold with no lock file and no
    index file at all.
    """

    WRITERS = 8

    def test_eight_writers_lose_no_runs(self, tmp_path):
        root = tmp_path / "repo"
        count = 5
        prefixes = [f"w{n}" for n in range(self.WRITERS)]
        barrier = multiprocessing.Barrier(self.WRITERS + 1)
        writers = [
            multiprocessing.Process(
                target=_submit_burst, args=(str(root), prefix, count, barrier)
            )
            for prefix in prefixes
        ]
        for proc in writers:
            proc.start()
        barrier.wait(timeout=30)  # release all writers together
        for proc in writers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        repo = open_repository(root)
        expected = {f"{prefix}-{index}"
                    for prefix in prefixes for index in range(count)}
        assert set(repo.run_ids()) == expected
        # Every stored run is also loadable in full: no torn rows.
        for run_id in expected:
            assert len(load(repo, run_id)) == 1

    def test_duplicate_run_id_rejected_exactly_once(self, tmp_path):
        """Of N processes claiming one run id, exactly one wins."""
        root = tmp_path / "repo"
        barrier = multiprocessing.Barrier(self.WRITERS + 1)
        queue = multiprocessing.Queue()
        writers = [
            multiprocessing.Process(
                target=_submit_same_run,
                args=(str(root), "contested", barrier, queue),
            )
            for _ in range(self.WRITERS)
        ]
        for proc in writers:
            proc.start()
        barrier.wait(timeout=30)
        for proc in writers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        verdicts = [queue.get(timeout=10) for _ in range(self.WRITERS)]
        assert verdicts.count("stored") == 1
        assert verdicts.count("duplicate") == self.WRITERS - 1
        repo = open_repository(root)
        assert repo.run_ids() == ["contested"]
        assert len(load(repo, "contested")) == 1

    def test_no_sidecar_files(self, tmp_path, repo, database):
        """The flock sidecar and shadow index are gone for good."""
        submit_validated_run(repo, RunMetadata("run-1", "sut"), database)
        names = {p.name for p in repo.path.parent.iterdir()}
        assert ".lock" not in names
        assert ".index.json" not in names

    def test_safe_without_fcntl(self, tmp_path, monkeypatch):
        """Mutual exclusion survives platforms with no ``fcntl`` at all.

        The legacy locking degraded to a no-op where ``fcntl`` failed
        to import; the store's transactions must not care. Hide the
        module, reload the store module against the hidden world, and
        check both duplicate rejection and that nothing in the module
        references fcntl anymore.
        """
        import importlib
        import sys

        import repro.resultsdb.store as store_module

        monkeypatch.setitem(sys.modules, "fcntl", None)
        reloaded = importlib.reload(store_module)
        try:
            assert not hasattr(reloaded, "fcntl")
            database = ResultsDatabase([make_result()])
            meta = reloaded.RunMetadata("run-1", "sut")
            with reloaded.ResultsStore(tmp_path / "repo" / STORE_NAME) as repo:
                reloaded.submit_validated_run(repo, meta, database)
                with pytest.raises(ConfigurationError, match="already exists"):
                    reloaded.submit_validated_run(repo, meta, database)
                assert repo.run_ids() == ["run-1"]
        finally:
            monkeypatch.delitem(sys.modules, "fcntl")
            importlib.reload(store_module)


class TestLegacyAbsorption:
    """A directory of pre-store JSON archives is not a store: opening it
    reads the database and nothing else."""

    def _write_legacy_archive(self, root, run_id, tproc=0.3):
        payload = {
            "metadata": {
                "run_id": run_id,
                "system_under_test": "legacy sut",
                "submitter": "",
                "description": "",
            },
            "results": [make_result(modeled_processing_time=tproc).as_dict()],
        }
        root.mkdir(parents=True, exist_ok=True)
        (root / f"{run_id}.json").write_text(json.dumps(payload, indent=1))

    def test_foreign_json_ignored(self, tmp_path, monkeypatch):
        # The directory lists no runs — legacy, foreign and
        # torn files alike: the store reads its database and nothing else.
        root = tmp_path / "repo"
        self._write_legacy_archive(root, "old-1")
        (root / "notes.json").write_text(json.dumps({"hello": "world"}))
        (root / "torn.json").write_text('{"metadata": {')
        with monkeypatch.context() as patched:
            # Opening the store neither globs nor parses the directory.
            patched.setattr(
                type(root), "glob",
                lambda *a, **k: pytest.fail("store globbed its directory"),
            )
            patched.setattr(
                json, "loads",
                lambda *a, **k: pytest.fail("store parsed a JSON file"),
            )
            repo = open_repository(root)
        assert repo.run_ids() == []
        assert queries.runs(repo) == []


class TestCrossRunAnalysis:
    def test_best_platform(self, repo):
        submit_validated_run(
            repo,
            RunMetadata("vendor-a", "A"),
            ResultsDatabase([make_result(platform="A", modeled_processing_time=2.0)]),
        )
        submit_validated_run(
            repo,
            RunMetadata("vendor-b", "B"),
            ResultsDatabase([make_result(platform="B", modeled_processing_time=0.5)]),
        )
        best = queries.best_platform(repo, "bfs", "D300")
        assert best["platform"] == "B"
        assert best["run_id"] == "vendor-b"

    def test_best_platform_ignores_sla_breakers(self, repo):
        submit_validated_run(
            repo,
            RunMetadata("r", "sut"),
            ResultsDatabase(
                [make_result(modeled_processing_time=0.1, sla_compliant=False)]
            ),
        )
        assert queries.best_platform(repo, "bfs", "D300") is None

    def test_best_platform_no_match(self, repo, database):
        submit_validated_run(repo, RunMetadata("r", "sut"), database)
        assert queries.best_platform(repo, "sssp", "R4") is None

    def test_regression_detection(self, repo):
        submit_validated_run(
            repo,
            RunMetadata("v1", "sut"),
            ResultsDatabase([make_result(modeled_processing_time=1.0)]),
        )
        submit_validated_run(
            repo,
            RunMetadata("v2", "sut"),
            ResultsDatabase([make_result(modeled_processing_time=1.5)]),
        )
        regressions = queries.regressions(repo, "v1", "v2")
        assert len(regressions) == 1
        assert regressions[0].slowdown == pytest.approx(1.5)

    def test_no_regression_below_threshold(self, repo):
        submit_validated_run(
            repo,
            RunMetadata("v1", "sut"),
            ResultsDatabase([make_result(modeled_processing_time=1.0)]),
        )
        submit_validated_run(
            repo,
            RunMetadata("v2", "sut"),
            ResultsDatabase([make_result(modeled_processing_time=1.05)]),
        )
        assert queries.regressions(repo, "v1", "v2") == []

    def test_improvements_are_not_regressions(self, repo):
        submit_validated_run(
            repo,
            RunMetadata("v1", "sut"),
            ResultsDatabase([make_result(modeled_processing_time=1.0)]),
        )
        submit_validated_run(
            repo,
            RunMetadata("v2", "sut"),
            ResultsDatabase([make_result(modeled_processing_time=0.5)]),
        )
        assert queries.regressions(repo, "v1", "v2") == []

    def test_regressions_sorted_by_slowdown(self, repo):
        old = ResultsDatabase(
            [
                make_result(dataset="D300", modeled_processing_time=1.0),
                make_result(dataset="G22", modeled_processing_time=1.0),
            ]
        )
        new = ResultsDatabase(
            [
                make_result(dataset="D300", modeled_processing_time=2.0),
                make_result(dataset="G22", modeled_processing_time=5.0),
            ]
        )
        submit_validated_run(repo, RunMetadata("v1", "sut"), old)
        submit_validated_run(repo, RunMetadata("v2", "sut"), new)
        regressions = queries.regressions(repo, "v1", "v2")
        assert [r.dataset for r in regressions] == ["G22", "D300"]
