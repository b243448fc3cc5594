"""End-to-end: a real ``graphalytics serve`` process, killed and revived.

The full acceptance scenario from the service design:

* two tenants submit the same matrix concurrently and stream events;
* the server process is SIGKILLed mid-run — each run carries a seeded
  fault plan that stalls it half-way, so it is unfinished when the kill
  lands by construction, not by winning a race — and the children die
  via the parent-death watchdog;
* a restarted server on the same spool resumes both runs from their
  journals and completes them;
* no journal carries a duplicate ``job-done`` per job key, and the two
  tenants' results databases are bit-identical in canonical form.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness.config import BenchmarkConfig
from repro.harness.results import ResultsDatabase
from repro.runtime import expand_matrix
from repro.runtime.journal import RunJournal
from repro.service import ServiceClient

MATRIX = {
    "platforms": ["powergraph", "graphmat"],
    "datasets": ["R1", "R2"],
    "algorithms": ["bfs", "pr", "sssp"],
    "repetitions": 2,
}

_DEADLINE = 120.0


def _stall_halfway_plan() -> dict:
    """A chaos plan that parks a fresh run of ``MATRIX`` half-way.

    A fresh run of a D-job DAG appends 3D + 2 journal lines (run-start,
    D job-scheduled, an attempt-start/job-done pair per job,
    run-complete); a resumed one appends at most 2D + 1 (pairs for the
    jobs left, run-complete). Fault counters restart with each run
    child, so a stall at arrival 2D + 1 — about half the pairs written —
    catches every fresh attempt and can never be reached by a resumed
    one. The stall outlasts every deadline in this file: only the kill
    ends it.
    """
    jobs = len(expand_matrix(BenchmarkConfig(**MATRIX)))
    return {
        "seed": 0,
        "faults": [{
            "point": "journal.append.write",
            "kind": "latency",
            "after": 2 * jobs + 1,
            "times": 1,
            "latency_seconds": 10 * _DEADLINE,
        }],
    }


def _spawn_server(spool: Path, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--spool", str(spool), "--port", "0", "--max-running", "2",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(Path(__file__).resolve().parents[2]),
    )


def _read_address(proc: subprocess.Popen) -> ServiceClient:
    deadline = time.monotonic() + _DEADLINE
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError("server exited before announcing its address")
        if "listening on http://" in line:
            address = line.rsplit("http://", 1)[1].strip()
            host, port = address.rsplit(":", 1)
            return ServiceClient(host, int(port), timeout=_DEADLINE)
    raise AssertionError("server never announced its address")


def _wait_for_job_done(run_dir: Path, deadline: float = _DEADLINE) -> None:
    """Block until the run's journal holds at least one job-done."""
    path = RunJournal.journal_path(run_dir)
    limit = time.monotonic() + deadline
    while time.monotonic() < limit:
        if path.exists():
            try:
                replay = RunJournal.load(run_dir)
            except Exception:
                replay = None
            if replay is not None and any(
                record["type"] == "job-done" for record in replay.records
            ):
                return
        time.sleep(0.05)
    raise AssertionError(f"no job-done appeared in {path}")


def _wait_tree_exit(proc: subprocess.Popen, deadline: float = 30.0) -> None:
    """Block until the dead server's whole process tree is gone.

    Run children and their pool workers inherited the server's stdout
    pipe, so it reaches EOF exactly when the last of them has exited.
    """
    fd = proc.stdout.fileno()
    limit = time.monotonic() + deadline
    while True:
        remaining = limit - time.monotonic()
        if remaining <= 0:
            raise AssertionError("orphaned run children outlived the server")
        if select.select([fd], [], [], remaining)[0] and not os.read(fd, 65536):
            return


def _wait_terminal(client: ServiceClient, run_id: str) -> dict:
    limit = time.monotonic() + _DEADLINE
    while time.monotonic() < limit:
        payload = client.run(run_id)
        if payload["state"] in ("done", "failed"):
            return payload
        time.sleep(0.1)
    raise AssertionError(f"run {run_id} did not settle")


def _terminate(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    if proc.stdout is not None:
        proc.stdout.close()


@pytest.mark.slow
def test_two_tenants_sigkill_resume_bit_identical(tmp_path):
    spool = tmp_path / "spool"
    server = _spawn_server(spool)
    try:
        client = _read_address(server)
        # Two workers: enough in flight to interleave, few enough that
        # job-done records precede the stall on any host.
        chaos = _stall_halfway_plan()
        run_a = client.submit("alice", MATRIX, workers=2, chaos=chaos)["run_id"]
        run_b = client.submit("bob", MATRIX, workers=2, chaos=chaos)["run_id"]

        # Both children are mid-run at the kill: each journal holds
        # completed work, and neither can get past its stall.
        _wait_for_job_done(spool / run_a)
        _wait_for_job_done(spool / run_b)
        os.kill(server.pid, signal.SIGKILL)
        server.wait(timeout=30)
        # The parent-death watchdog reaps the orphaned run children;
        # once they are gone the journals are final.
        _wait_tree_exit(server)
        for run_id in (run_a, run_b):
            assert not (spool / run_id / "outcome.json").exists()
    finally:
        _terminate(server)

    # Restart on the same spool: the boot scan re-enqueues both runs.
    server = _spawn_server(spool)
    try:
        client = _read_address(server)
        final_a = _wait_terminal(client, run_a)
        final_b = _wait_terminal(client, run_b)
        assert final_a["state"] == "done", final_a
        assert final_b["state"] == "done", final_b

        # SSE on a finished run replays the journal to the end event.
        events = list(client.events(run_a))
        names = [event for event, _payload in events]
        assert names[0] == "run"
        assert names[-1] == "end"
        assert "journal" in names

        for run_id, final in ((run_a, final_a), (run_b, final_b)):
            replay = RunJournal.load(spool / run_id)
            done_keys = [
                record["key"] for record in replay.records
                if record["type"] == "job-done"
            ]
            # Resume restored finished jobs instead of re-recording
            # them: every job key completes exactly once.
            assert len(done_keys) == len(set(done_keys)), (
                f"duplicate job-done records in {run_id}"
            )
            assert final["jobs"] > 0

        # Both tenants ran the identical matrix expansion.
        assert final_a["jobs"] == final_b["jobs"]

        # Both interrupted tenants resumed prior journal work.
        assert final_a["restored_jobs"] > 0, final_a
        assert final_b["restored_jobs"] > 0, final_b

        # Bit-identical canonical results across tenants.
        database_a = ResultsDatabase.load(spool / run_a / "results.json")
        database_b = ResultsDatabase.load(spool / run_b / "results.json")
        assert database_a.canonical_json() == database_b.canonical_json()
    finally:
        _terminate(server)


@pytest.mark.slow
def test_cli_submit_watch_fetch_round_trip(tmp_path):
    """The CLI client subcommands against a live server process."""
    spool = tmp_path / "spool"
    server = _spawn_server(spool)
    try:
        client = _read_address(server)
        host, port = client.host, str(client.port)
        repo_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")

        matrix_path = tmp_path / "matrix.json"
        matrix_path.write_text(json.dumps(
            {
                "platforms": ["powergraph"],
                "datasets": ["R1"],
                "algorithms": ["bfs"],
                "repetitions": 1,
            }
        ))

        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "repro.cli", *args,
                 "--host", host, "--port", port],
                capture_output=True, text=True, env=env, cwd=str(repo_root),
                timeout=_DEADLINE,
            )

        submitted = cli("submit", str(matrix_path), "--tenant", "cli-test")
        assert submitted.returncode == 0, submitted.stdout + submitted.stderr
        run_id = next(
            token for token in submitted.stdout.split()
            if token.startswith("r") and "-cli-test" in token
        )

        watched = cli("watch", run_id)
        assert watched.returncode == 0, watched.stdout + watched.stderr
        assert "done" in watched.stdout

        out_path = tmp_path / "results.json"
        fetched = cli("fetch", run_id, "--artifact", "results",
                      "--output", str(out_path))
        assert fetched.returncode == 0, fetched.stdout + fetched.stderr
        rows = json.loads(out_path.read_text())
        assert rows and rows[0]["status"] == "succeeded"
    finally:
        _terminate(server)


# ---------------------------------------------------------------------------
# Chaos acceptance: seeded fault plans against real server processes.
# ---------------------------------------------------------------------------

#: Small enough to finish fast, big enough to write journal records.
CHAOS_MATRIX = {
    "platforms": ["powergraph"],
    "datasets": ["R1"],
    "algorithms": ["bfs", "pr"],
    "repetitions": 2,
}

#: SIGKILLs the run child after 3 journal appends — every attempt, since
#: fault counters are per process and each relaunch re-arms the plan.
KILL_PLAN = {
    "seed": 7,
    "faults": [{"point": "journal.append.write", "kind": "kill", "after": 3}],
}

#: Fails the journal's first group-commit fsync: the run completes with
#: a durability downgrade instead of dying.
FSYNC_PLAN = {
    "seed": 7,
    "faults": [{"point": "journal.append.fsync", "kind": "fsync-fail"}],
}

_SUPERVISION_FLAGS = (
    "--run-attempts", "3", "--run-backoff", "0.2",
    "--breaker-threshold", "10",  # keep the breaker out of this scenario
)


def _wait_ledger_attempts(run_dir: Path, minimum: int) -> None:
    """Block until the durable attempt ledger has counted ``minimum``."""
    path = run_dir / "supervise.json"
    limit = time.monotonic() + _DEADLINE
    while time.monotonic() < limit:
        try:
            ledger = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            ledger = {}
        if isinstance(ledger, dict) and ledger.get("attempts", 0) >= minimum:
            return
        time.sleep(0.05)
    raise AssertionError(f"ledger at {path} never reached {minimum} attempts")


def _wait_quarantined(client: ServiceClient, run_id: str) -> dict:
    limit = time.monotonic() + _DEADLINE
    while time.monotonic() < limit:
        payload = client.run(run_id)
        if payload["state"] in ("quarantined", "done", "failed"):
            return payload
        time.sleep(0.1)
    raise AssertionError(f"run {run_id} never settled: {payload['state']}")


@pytest.mark.slow
def test_chaos_quarantine_and_degradation_survive_restart(tmp_path):
    """The robustness acceptance scenario over real server processes.

    A poison run (chaos plan kills its child every attempt) burns its
    launch budget — counted in the durable ledger across a server
    SIGKILL + restart — and lands in quarantine, never relaunched
    again.  A run with an injected fsync failure *completes*, flagged,
    bit-identical in canonical form to an unfaulted run, with no
    duplicate ``job-done`` records; ``/v1/healthz`` and the CLI
    ``health`` subcommand report both degradations.
    """
    spool = tmp_path / "spool"
    server = _spawn_server(spool, *_SUPERVISION_FLAGS)
    try:
        client = _read_address(server)
        poison = client.submit("poison", CHAOS_MATRIX, chaos=KILL_PLAN)
        flaky = client.submit("fsync", CHAOS_MATRIX, chaos=FSYNC_PLAN)
        clean = client.submit("clean", CHAOS_MATRIX)
        poison_id = poison["run_id"]

        # The degraded and clean runs complete despite the chaos plan.
        final_flaky = _wait_terminal(client, flaky["run_id"])
        final_clean = _wait_terminal(client, clean["run_id"])
        assert final_flaky["state"] == "done", final_flaky
        assert final_flaky["degraded"] == ["journal-fsync-degraded"]
        assert final_clean["state"] == "done", final_clean
        assert "degraded" not in final_clean

        # The poison child killed itself at least twice (pre-launch
        # ledger writes make the count durable), then the server dies.
        _wait_ledger_attempts(spool / poison_id, 2)
        os.kill(server.pid, signal.SIGKILL)
        server.wait(timeout=30)
        time.sleep(1.0)  # parent-death watchdog reaps the orphan child
    finally:
        _terminate(server)

    server = _spawn_server(spool, *_SUPERVISION_FLAGS)
    try:
        client = _read_address(server)

        # The restarted supervisor reads the ledger: at most ONE more
        # launch (the third) before quarantine — never a fresh budget.
        payload = _wait_quarantined(client, poison_id)
        assert payload["state"] == "quarantined", payload
        assert payload["attempts"] == 3  # exactly the budget, not 2x it
        assert payload["quarantine"]["budget"] == 3
        ledger = json.loads(
            (spool / poison_id / "supervise.json").read_text(encoding="utf-8")
        )
        assert ledger["attempts"] == 3

        # Completed runs stayed terminal across the restart, and no
        # journal re-recorded finished work.
        for run_id in (flaky["run_id"], clean["run_id"]):
            assert client.run(run_id)["state"] == "done"
            replay = RunJournal.load(spool / run_id)
            done_keys = [
                record["key"] for record in replay.records
                if record["type"] == "job-done"
            ]
            assert len(done_keys) == len(set(done_keys)), (
                f"duplicate job-done records in {run_id}"
            )

        # Bit-identical canonical results: the fsync fault cost a
        # durability tier, not a bit of output.
        flaky_db = ResultsDatabase.load(
            spool / flaky["run_id"] / "results.json"
        )
        clean_db = ResultsDatabase.load(
            spool / clean["run_id"] / "results.json"
        )
        assert flaky_db.canonical_json() == clean_db.canonical_json()

        # healthz carries both degradations over real HTTP...
        health = client.healthz()
        assert health["status"] == "degraded"
        assert poison_id in health["quarantined"]
        assert health["degraded_runs"][flaky["run_id"]] == [
            "journal-fsync-degraded"
        ]

        # ...and the CLI health subcommand exits non-zero on it.
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        probe = subprocess.run(
            [sys.executable, "-m", "repro.cli", "health",
             "--host", client.host, "--port", str(client.port)],
            capture_output=True, text=True, env=env,
            cwd=str(Path(__file__).resolve().parents[2]),
            timeout=_DEADLINE,
        )
        assert probe.returncode == 1, probe.stdout + probe.stderr
        assert "degraded" in probe.stdout
    finally:
        _terminate(server)


# ---------------------------------------------------------------------------
# The spool-wide artifact store: shared, racing, full, poisoned.
# ---------------------------------------------------------------------------

#: `submit example`: 2 graphs + 5 references (SSSP skips unweighted R1).
EXAMPLE_MATRIX = {
    "platforms": ["powergraph", "graphmat"],
    "datasets": ["R1", "R4"],
    "algorithms": ["bfs", "pr", "sssp"],
    "repetitions": 2,
}
EXAMPLE_ARTIFACTS = 7


def _finish(client: ServiceClient, spool: Path, run_id: str) -> ResultsDatabase:
    """Wait for ``run_id``; it must end done with every row validated."""
    final = _wait_terminal(client, run_id)
    assert final["state"] == "done", final
    assert final["failures"] == 0, final
    database = ResultsDatabase.load(spool / run_id / "results.json")
    assert len(database) > 0
    assert all(row.succeeded and row.validated for row in database), [
        (row.platform, row.dataset, row.algorithm, row.status)
        for row in database if not (row.succeeded and row.validated)
    ]
    # Run directories hold no private copy of the artifacts any more.
    assert not (spool / run_id / "cache").exists()
    return database


def _trace_counters(spool: Path, run_id: str) -> dict:
    from repro.trace import read_trace

    _spans, counters = read_trace(spool / run_id / "trace.jsonl")
    return counters


def _assert_store_is_valid(spool: Path, entries: int) -> None:
    """Every entry of ``<spool>/cache`` reads back without a repair."""
    from repro.runtime.cache import GraphCache
    from repro.trace import Tracer, use_tracer

    store = GraphCache(spool / "cache")
    listed = store.disk_entries()
    assert len(listed) == entries
    with use_tracer(Tracer()) as tracer:
        assert all(store._disk_get(entry.key) is not None for entry in listed)
    assert "cache.corrupt" not in tracer.counters


@pytest.mark.slow
def test_spool_shares_one_self_healing_artifact_store(tmp_path):
    """Run 2 only takes disk hits; a poisoned store repairs itself."""
    from repro.runtime.cache import GraphCache

    spool = tmp_path / "spool"
    server = _spawn_server(spool)
    try:
        client = _read_address(server)
        assert client.healthz()["artifact_store"] == {"entries": 0, "bytes": 0}

        first = client.submit("alice", EXAMPLE_MATRIX)["run_id"]
        cold = _finish(client, spool, first)
        assert _trace_counters(spool, first)["cache.miss"] == EXAMPLE_ARTIFACTS

        # Another tenant, same matrix: nothing is generated again.
        second = client.submit("bob", EXAMPLE_MATRIX)["run_id"]
        warm = _finish(client, spool, second)
        counters = _trace_counters(spool, second)
        assert counters["cache.hit.disk"] >= EXAMPLE_ARTIFACTS
        assert "cache.miss" not in counters
        assert "cache.corrupt" not in counters
        assert warm.canonical_json() == cold.canonical_json()
        store = client.healthz()["artifact_store"]
        assert store["entries"] == EXAMPLE_ARTIFACTS
        assert store["bytes"] == sum(
            path.stat().st_size for path in (spool / "cache").glob("*/*.pkl")
        )

        # Poison three entries three ways. At the parent of this change
        # such a store turned every dependent job into a
        # harness-dependency failure row, for every later run.
        cache = GraphCache(spool / "cache")
        entries = cache.disk_entries()
        graphs = [e for e in entries if e.kind == "graph"]
        references = [e for e in entries if e.kind == "reference"]
        truncated, flipped, headerless = (
            cache._entry_path(entry.key)
            for entry in (graphs[0], graphs[1], references[0])
        )
        blob = truncated.read_bytes()
        truncated.write_bytes(blob[: len(blob) // 2])
        blob = bytearray(flipped.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        flipped.write_bytes(bytes(blob))
        headerless.write_bytes(b"\x80\x05N.")  # a bare pickle, no header

        # One worker: each entry is read (and repaired) exactly once.
        third = client.submit("carol", EXAMPLE_MATRIX, workers=1)["run_id"]
        healed = _finish(client, spool, third)
        counters = _trace_counters(spool, third)
        assert counters["cache.corrupt"] == 3
        assert counters["cache.miss"] == 3
        assert healed.canonical_json() == cold.canonical_json()
        _assert_store_is_valid(spool, EXAMPLE_ARTIFACTS)
    finally:
        _terminate(server)


@pytest.mark.slow
def test_two_tenants_race_to_fill_a_cold_store(tmp_path):
    spool = tmp_path / "spool"
    server = _spawn_server(spool)  # --max-running 2: both run at once
    try:
        client = _read_address(server)
        run_a = client.submit("alice", EXAMPLE_MATRIX)["run_id"]
        run_b = client.submit("bob", EXAMPLE_MATRIX)["run_id"]
        database_a = _finish(client, spool, run_a)
        database_b = _finish(client, spool, run_b)
        assert database_a.canonical_json() == database_b.canonical_json()
        for run_id in (run_a, run_b):
            assert "cache.corrupt" not in _trace_counters(spool, run_id)
        _assert_store_is_valid(spool, EXAMPLE_ARTIFACTS)
    finally:
        _terminate(server)


@pytest.mark.slow
def test_full_disk_at_the_spill_does_not_poison_later_runs(tmp_path):
    spool = tmp_path / "spool"
    server = _spawn_server(spool)
    try:
        client = _read_address(server)
        no_space = {
            "seed": 0,
            "faults": [{
                "point": "cache.spill.write", "kind": "enospc", "times": 1000,
            }],
        }
        run_a = client.submit("alice", EXAMPLE_MATRIX, chaos=no_space)["run_id"]
        database_a = _finish(client, spool, run_a)
        # Nothing could be spilled: run A paid for every artifact itself
        # and left the store empty, not half-written.
        assert client.healthz()["artifact_store"]["entries"] == 0

        run_b = client.submit("bob", EXAMPLE_MATRIX)["run_id"]
        database_b = _finish(client, spool, run_b)
        assert database_a.canonical_json() == database_b.canonical_json()
        _assert_store_is_valid(spool, EXAMPLE_ARTIFACTS)
    finally:
        _terminate(server)


#: What `submit example`, the CI smoke and the perf ``service`` workload
#: run between them, and the whole measured family: a lazy import on any
#: of these paths would land in a timed ``processing`` span.
FIRST_JOB_DATASET = "R4"  # weighted, so it takes sssp too
FIRST_JOBS = [
    (platform, algorithm)
    for platform in (
        "powergraph", "graphmat", "pythonref",
        "pythonref-pregel", "pythonref-gas", "pythonref-spmv",
    )
    for algorithm in ("bfs", "pr", "wcc", "sssp")
]


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    from repro.harness.datasets import get_dataset
    from repro.runtime.cache import GraphCache

    store = GraphCache(tmp_path_factory.mktemp("warm-store"))
    dataset = get_dataset(FIRST_JOB_DATASET)
    store.get_graph(dataset, 0)
    for algorithm in sorted({algorithm for _, algorithm in FIRST_JOBS}):
        store.get_reference(dataset, algorithm, 0)
    return store.directory


@pytest.mark.parametrize("platform, algorithm", FIRST_JOBS)
def test_first_job_of_a_warm_store_child_imports_nothing(
    warm_store, platform, algorithm
):
    """What a run child needs is loaded by what the server imports.

    numpy loads ``numpy.ma`` and ``numpy.random`` on first use; left
    lazy, that first use is the first job's timed ``processing`` span
    of every forked run child. One fresh interpreter per (platform,
    algorithm): only a *first* job can show an import.
    """
    script = (
        "import repro.service.worker, sys, json\n"
        "assert 'numpy.ma' in sys.modules and 'numpy.random' in sys.modules\n"
        "from repro.harness.config import BenchmarkConfig\n"
        "from repro.harness.runner import BenchmarkRunner\n"
        "from repro.runtime.cache import GraphCache\n"
        "store, platform, dataset, algorithm = sys.argv[1:]\n"
        "config = BenchmarkConfig(platforms=[platform], datasets=[dataset],\n"
        "                         algorithms=[algorithm], repetitions=1)\n"
        "cache = GraphCache(store)\n"
        "runner = BenchmarkRunner(config, cache)\n"
        "before = set(sys.modules)\n"
        "row = runner.run_job(platform, dataset, algorithm)\n"
        "print(json.dumps({'validated': row.validated,\n"
        "                  'stats': cache.stats.as_dict(),\n"
        "                  'imported': sorted(set(sys.modules) - before)}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.run(
        [
            sys.executable, "-c", script,
            str(warm_store), platform, FIRST_JOB_DATASET, algorithm,
        ],
        capture_output=True, text=True, env=env, timeout=_DEADLINE,
        cwd=str(Path(__file__).resolve().parents[2]),
    )
    assert child.returncode == 0, child.stdout + child.stderr
    report = json.loads(child.stdout)
    assert report["validated"] is True
    assert report["stats"]["disk_hits"] == 2 and report["stats"]["misses"] == 0
    assert report["imported"] == []


def test_only_a_sharded_job_loads_the_sharded_engine():
    """The CLI and a config never load :mod:`repro.engines.partitioned`,
    nor does a one-machine ``pythonref`` job; a two-machine one does,
    under its ``load`` phase. One fresh interpreter."""
    script = (
        "import sys, json\n"
        "import repro.cli\n"
        "from repro.harness.config import BenchmarkConfig\n"
        "from repro.harness.runner import BenchmarkRunner\n"
        "from repro.platforms.cluster import ClusterResources\n"
        "seen = {}\n"
        "def loaded(): return 'repro.engines.partitioned' in sys.modules\n"
        "runner = BenchmarkRunner(BenchmarkConfig())\n"
        "seen['config'] = loaded()\n"
        "for machines in (1, 2):\n"
        "    row = runner.run_job('pythonref', 'G22', 'wcc',\n"
        "                         resources=ClusterResources(machines=machines))\n"
        "    assert row.succeeded and row.validated, row.failure_reason\n"
        "    seen[f'machines={machines}'] = loaded()\n"
        "print(json.dumps(seen))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=_DEADLINE,
        cwd=str(Path(__file__).resolve().parents[2]),
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert json.loads(child.stdout) == {
        "config": False, "machines=1": False, "machines=2": True,
    }
