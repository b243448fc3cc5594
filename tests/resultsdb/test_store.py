"""ResultsStore: WAL durability, transactions, and crash honesty.

The acceptance-critical scenario lives in :class:`TestCommitCrash`: a
child process armed with a ``kill`` fault at ``resultsdb.commit`` is
SIGKILLed with the transaction open in WAL — the reopened store must
hold either the old state or the new state, never a torn one.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError
from repro.faults.points import (
    PLAN_ENV,
    InjectedIOError,
    IoFault,
    IoFaultPlan,
    io_faults,
)
from repro.resultsdb.store import STORE_NAME, ResultsStore

from tests.resultsdb.conftest import make_metadata, make_record

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


class TestSubmitRoundTrip:
    def test_run_and_records_survive_reopen(self, tmp_path):
        path = tmp_path / STORE_NAME
        records = [
            make_record(algorithm="bfs"),
            make_record(algorithm="pr", modeled_processing_time=0.7),
        ]
        with ResultsStore(path) as store:
            store.submit_run(make_metadata("run-a"), records)
        with ResultsStore(path) as store:
            assert store.run_ids() == ["run-a"]
            assert store.run_records("run-a") == records
            metadata = store.run_metadata("run-a")
            assert metadata["run_id"] == "run-a"
            assert metadata["system_under_test"] == "GraphMat on DAS-5"

    def test_byte_identical_round_trip(self, store):
        # A stored run re-serializes to the exact bytes of its JSON
        # archive, whatever the metadata and records hold.
        runs = {
            "run-2016-a": [
                make_record(platform="GraphMat", modeled_processing_time=0.5),
                make_record(platform="Giraph", algorithm="pr"),
            ],
            "run-2016-b": [
                make_record(platform="PGX.D", status="failed",
                            modeled_processing_time=None),
            ],
        }
        for run_id, records in runs.items():
            payload = {
                "metadata": make_metadata(run_id, description="sweep"),
                "results": records,
            }
            store.submit_run(payload["metadata"], records)
            source = json.dumps(payload, indent=1).encode("utf-8")
            assert store.canonical_bytes(run_id) == source
            assert store.canonical_payload(run_id) == payload

    def test_metadata_key_order_is_preserved(self, store):
        # A metadata block with a non-standard key order still
        # round-trips byte for byte: the run record column stores the
        # mapping verbatim.
        payload = {
            "metadata": {
                "description": "reordered",
                "run_id": "run-odd",
                "submitter": "ops",
                "system_under_test": "X",
            },
            "results": [make_record()],
        }
        store.submit_run(payload["metadata"], payload["results"])
        assert store.canonical_bytes("run-odd") == json.dumps(
            payload, indent=1
        ).encode("utf-8")

    def test_wal_mode_and_full_synchronous(self, store):
        assert store.query("PRAGMA journal_mode") == [("wal",)]
        assert store.query("PRAGMA synchronous") == [(2,)]

    def test_duplicate_run_id_rejected(self, store):
        store.submit_run(make_metadata("run-a"), [make_record()])
        with pytest.raises(ConfigurationError, match="already exists"):
            store.submit_run(make_metadata("run-a"), [make_record()])
        assert store.stats()["runs"] == 1

    def test_replace_swaps_the_whole_run(self, store):
        store.submit_run(
            make_metadata("run-a"), [make_record(), make_record()]
        )
        store.submit_run(
            make_metadata("run-a", description="second attempt"),
            [make_record(algorithm="wcc")],
            replace=True,
        )
        assert store.run_ids() == ["run-a"]
        records = store.run_records("run-a")
        assert len(records) == 1
        assert records[0]["algorithm"] == "wcc"
        assert store.run_metadata("run-a")["description"] == "second attempt"

    def test_empty_run_refused(self, store):
        with pytest.raises(ConfigurationError, match="empty run"):
            store.submit_run(make_metadata("run-a"), [])
        assert store.stats()["runs"] == 0

    def test_unknown_run_errors(self, store):
        with pytest.raises(ConfigurationError, match="unknown run"):
            store.run_records("ghost")
        with pytest.raises(ConfigurationError, match="unknown run"):
            store.run_metadata("ghost")

    def test_spans_round_trip_in_order(self, store):
        spans = [
            {"id": "s1", "parent": None, "name": "run", "status": "ok",
             "start": 1.0, "end": 9.0, "process": "driver",
             "attributes": {"algorithm": "bfs"}},
            {"id": "s2", "parent": "s1", "name": "load", "status": "ok",
             "start": 1.5, "end": 3.0, "process": "driver",
             "attributes": {}},
        ]
        store.submit_run(make_metadata("run-a"), [make_record()], spans=spans)
        stored = store.run_spans("run-a")
        assert [s["id"] for s in stored] == ["s1", "s2"]
        assert stored[1]["parent"] == "s1"
        assert stored[0]["attrs"] == {"algorithm": "bfs"}

    def test_breaches_derived_from_noncompliant_rows(self, store):
        store.submit_run(
            make_metadata("run-a"),
            [
                make_record(sla_compliant=True),
                make_record(
                    algorithm="pr", sla_compliant=False,
                    modeled_makespan=9000.0,
                ),
            ],
        )
        breaches = store.run_breaches("run-a")
        assert len(breaches) == 1
        assert breaches[0]["algorithm"] == "pr"
        assert breaches[0]["modeled_makespan"] == 9000.0
        assert breaches[0]["budget"] > 0

    def test_stats_counts_everything(self, store):
        store.submit_run(
            make_metadata("run-a"),
            [make_record(), make_record(sla_compliant=False)],
            spans=[{"id": "s1", "name": "run", "start": 0.0, "end": 1.0}],
        )
        stats = store.stats()
        assert stats["runs"] == 1
        assert stats["jobs"] == 2
        assert stats["spans"] == 1
        assert stats["sla_breaches"] == 1
        assert stats["db_bytes"] > 0

    def test_single_connection_is_thread_safe(self, store):
        errors = []

        def submit(index):
            try:
                store.submit_run(
                    make_metadata(f"run-{index}"), [make_record()]
                )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(store.run_ids()) == 8


class TestCommitFaults:
    def test_enospc_at_commit_rolls_back_whole_run(self, tmp_path):
        path = tmp_path / STORE_NAME
        with ResultsStore(path) as store:
            store.submit_run(make_metadata("run-old"), [make_record()])
            plan = IoFaultPlan(
                [IoFault(point="resultsdb.commit", kind="enospc")], seed=3
            )
            with io_faults(plan):
                with pytest.raises(InjectedIOError):
                    store.submit_run(
                        make_metadata("run-new"),
                        [make_record(), make_record()],
                    )
            # Old state intact, new run absent in whole — no torn rows.
            assert store.run_ids() == ["run-old"]
            assert store.stats()["jobs"] == 1
            # The store is not wedged: the same submit now succeeds.
            store.submit_run(make_metadata("run-new"), [make_record()])
            assert store.run_ids() == ["run-new", "run-old"]

    def test_eio_at_commit_during_replace_keeps_old_rows(self, store):
        store.submit_run(make_metadata("run-a"), [make_record()])
        plan = IoFaultPlan(
            [IoFault(point="resultsdb.commit", kind="eio")], seed=3
        )
        with io_faults(plan):
            with pytest.raises(InjectedIOError):
                store.submit_run(
                    make_metadata("run-a", description="replacement"),
                    [make_record(algorithm="wcc")],
                    replace=True,
                )
        assert store.run_records("run-a")[0]["algorithm"] == "bfs"
        assert store.run_metadata("run-a")["description"] == ""


_CHILD_SCRIPT = """
import json, sys
from repro.resultsdb.store import ResultsStore

path, payload_path = sys.argv[1], sys.argv[2]
payload = json.loads(open(payload_path, encoding="utf-8").read())
with ResultsStore(path) as store:
    store.submit_run(payload["metadata"], payload["results"])
print("COMMITTED")
"""


def _crash_submit(tmp_path, store_path, run_id):
    """Run a child that submits ``run_id`` and dies at the COMMIT."""
    plan_path = tmp_path / "kill-plan.json"
    plan_path.write_text(
        json.dumps({
            "seed": 11,
            "faults": [{"point": "resultsdb.commit", "kind": "kill"}],
        }),
        encoding="utf-8",
    )
    payload_path = tmp_path / f"{run_id}-payload.json"
    payload_path.write_text(
        json.dumps({
            "metadata": make_metadata(run_id),
            "results": [make_record(), make_record(algorithm="pr")],
        }),
        encoding="utf-8",
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    env[PLAN_ENV] = str(plan_path)
    return subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, str(store_path),
         str(payload_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )


class TestCommitCrash:
    """SIGKILL mid-COMMIT must leave old-or-new state, never torn."""

    def test_kill_on_first_submit_leaves_store_readable_and_empty(
        self, tmp_path
    ):
        store_path = tmp_path / STORE_NAME
        proc = _crash_submit(tmp_path, store_path, "run-crash")
        assert proc.returncode == -signal.SIGKILL
        assert "COMMITTED" not in proc.stdout

        # WAL discards the open transaction on the next connection: the
        # store reads clean and holds the OLD state (nothing).
        with ResultsStore(store_path) as store:
            assert store.run_ids() == []
            assert store.stats()["jobs"] == 0
            # And it accepts the retried submit whole.
            store.submit_run(make_metadata("run-crash"), [make_record()])
            assert store.run_ids() == ["run-crash"]

    def test_kill_mid_submit_preserves_prior_runs_exactly(self, tmp_path):
        store_path = tmp_path / STORE_NAME
        survivor = [make_record(), make_record(algorithm="wcc")]
        with ResultsStore(store_path) as store:
            store.submit_run(make_metadata("run-old"), survivor)
            before = store.canonical_bytes("run-old")

        proc = _crash_submit(tmp_path, store_path, "run-doomed")
        assert proc.returncode == -signal.SIGKILL

        with ResultsStore(store_path) as store:
            # Old state, byte-for-byte; the doomed run is absent whole.
            assert store.run_ids() == ["run-old"]
            assert store.canonical_bytes("run-old") == before
            assert not store.has_run("run-doomed")

    def test_integrity_check_passes_after_crash(self, tmp_path):
        store_path = tmp_path / STORE_NAME
        with ResultsStore(store_path) as store:
            store.submit_run(make_metadata("run-old"), [make_record()])
        _crash_submit(tmp_path, store_path, "run-doomed")
        with ResultsStore(store_path) as store:
            assert store.query("PRAGMA integrity_check") == [("ok",)]


# -- two processes open one fresh file -----------------------------------------

OPEN_ROUNDS = 60


def _open_fresh_stores(barrier, root, conn):
    """Open (= create) ``root/<round>/results.db`` once per round, at the
    same instant as the sibling process; ship the rounds that failed."""
    import time

    failures = []
    for index in range(OPEN_ROUNDS):
        barrier.wait(30)
        # The barrier wakes its waiters a scheduler slice apart, which
        # is wider than the window; the wall clock is what the two
        # processes share, so both spin to its next 20 ms mark.
        while time.time() % 0.02 > 0.0005:
            pass
        try:
            ResultsStore(Path(root) / str(index) / STORE_NAME).close()
        except Exception as exc:
            failures.append(f"round {index}: {type(exc).__name__}: {exc}")
    conn.send(failures)


def test_two_processes_opening_one_fresh_store_both_succeed(tmp_path):
    """Switching a fresh file to WAL takes an exclusive lock that SQLite
    does not wait for: the pragma is retried inside the store's timeout,
    so neither opener sees ``database is locked`` (it was ~1 round in 8)."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    for index in range(OPEN_ROUNDS):
        (tmp_path / str(index)).mkdir()
    barrier = ctx.Barrier(2)
    openers = []
    for _ in range(2):
        recv, send = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_open_fresh_stores, args=(barrier, tmp_path, send)
        )
        process.start()
        send.close()
        openers.append((process, recv))
    try:
        for process, recv in openers:
            assert recv.poll(120), "opener never reported"
            assert recv.recv() == []
    finally:
        for process, _ in openers:
            process.join(10)
            if process.is_alive():
                process.kill()
    for index in range(OPEN_ROUNDS):
        with ResultsStore(tmp_path / str(index) / STORE_NAME) as store:
            assert store.query("PRAGMA journal_mode") == [("wal",)]
