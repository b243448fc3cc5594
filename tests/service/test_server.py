"""In-process service tests: HTTP surface, fairness, restart recovery.

The server runs on a private event loop in a background thread; the
tests drive it through :class:`ServiceClient`, the same blocking client
the CLI uses. Runs execute for real (child process, journal, results)
against a deliberately tiny one-job matrix.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from contextlib import contextmanager

import pytest

from repro.service import BenchmarkService, ServiceClient, ServiceConfig, ServiceError
from repro.service.runs import OUTCOME_NAME, RunRegistry

#: One platform x one dataset x one algorithm: the fastest real run.
TINY_MATRIX = {
    "platforms": ["powergraph"],
    "datasets": ["R1"],
    "algorithms": ["bfs"],
    "repetitions": 1,
}

_DEADLINE = 60.0


@contextmanager
def running_service(tmp_path, **overrides):
    """Boot a service on a free port on a background event loop."""
    overrides.setdefault("spool", tmp_path / "spool")
    overrides.setdefault("port", 0)
    service = BenchmarkService(ServiceConfig(**overrides))
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        host, port = asyncio.run_coroutine_threadsafe(
            service.start(), loop
        ).result(timeout=_DEADLINE)
        yield service, ServiceClient(host, port, timeout=_DEADLINE)
    finally:
        asyncio.run_coroutine_threadsafe(
            service.stop(), loop
        ).result(timeout=_DEADLINE)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=_DEADLINE)
        loop.close()


def wait_terminal(client, run_id, deadline=_DEADLINE):
    limit = time.monotonic() + deadline
    while time.monotonic() < limit:
        payload = client.run(run_id)
        if payload["state"] in ("done", "failed"):
            return payload
        time.sleep(0.05)
    raise AssertionError(f"run {run_id} did not settle within {deadline}s")


class TestHttpSurface:
    def test_unknown_path_is_404(self, tmp_path):
        with running_service(tmp_path) as (_service, client):
            with pytest.raises(ServiceError) as excinfo:
                client._json("GET", "/v1/nope")
            assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, tmp_path):
        with running_service(tmp_path) as (_service, client):
            with pytest.raises(ServiceError) as excinfo:
                client._json("DELETE", "/v1/runs")
            assert excinfo.value.status == 405

    def test_unknown_run_is_404(self, tmp_path):
        with running_service(tmp_path) as (_service, client):
            with pytest.raises(ServiceError) as excinfo:
                client.run("r999999-ghost")
            assert excinfo.value.status == 404

    def test_invalid_matrix_is_400(self, tmp_path):
        with running_service(tmp_path) as (_service, client):
            for matrix in (
                {"platforms": ["not-a-platform"]},
                {"bogus_key": 1},
                {"platforms": "powergraph"},  # not a list
            ):
                with pytest.raises(ServiceError) as excinfo:
                    client.submit("alice", matrix)
                assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "knobs",
        [
            {"workers": 0},
            {"workers": "many"},
            {"job_timeout": -1},
            {"job_timeout": "soon"},
            {"job_timeout": 0},
            {"job_timeout": float("nan")},
        ],
    )
    def test_bad_run_knobs_are_400_and_spool_nothing(self, tmp_path, knobs):
        with running_service(tmp_path) as (service, client):
            with pytest.raises(ServiceError) as excinfo:
                client.submit("acme", TINY_MATRIX, **knobs)
            assert excinfo.value.status == 400
            assert [p for p in service.registry.spool.iterdir()
                    if p.name.startswith("r0")] == []

    def test_bad_tenant_is_400(self, tmp_path):
        with running_service(tmp_path) as (_service, client):
            with pytest.raises(ServiceError) as excinfo:
                client.submit("no spaces allowed", TINY_MATRIX)
            assert excinfo.value.status == 400

    def test_status_endpoint_reports_queue(self, tmp_path):
        with running_service(tmp_path, max_running=3) as (_service, client):
            status = client.status()
            assert status["max_running"] == 3
            assert status["queue"]["accepted"] == 0


class TestRunLifecycle:
    def test_submit_execute_fetch(self, tmp_path):
        with running_service(tmp_path) as (service, client):
            accepted = client.submit("alice", TINY_MATRIX)
            run_id = accepted["run_id"]
            assert accepted["state"] == "queued"
            assert run_id.endswith("-alice")
            final = wait_terminal(client, run_id)
            assert final["state"] == "done"
            assert final["jobs"] == 1
            assert final["failures"] == 0
            assert final["elapsed_seconds"] >= 0
            results = json.loads(client.fetch(run_id, "results"))
            assert len(results) == 1
            assert results[0]["status"] == "succeeded"
            archive = json.loads(client.fetch(run_id, "archive"))
            assert [p["name"] for p in archive["phases"]] == [
                "expand", "execute", "merge",
            ]
            assert archive["phases"][1]["metadata"]["jobs"] == 1
            trace = client.fetch(run_id, "trace")
            assert trace  # span export happened
            # The spool holds the durable request + outcome pair.
            run_dir = service.registry.run_dir(run_id)
            assert (run_dir / "request.json").exists()
            assert (run_dir / OUTCOME_NAME).exists()

    def test_artifact_for_queued_run_is_404(self, tmp_path):
        # max_running slots are busy forever (no dispatch without scan),
        # so keep it simple: ask for an artifact name that is not there.
        with running_service(tmp_path) as (_service, client):
            accepted = client.submit("alice", TINY_MATRIX)
            run_id = accepted["run_id"]
            try:
                client.fetch(run_id, "archive")
            except ServiceError as exc:
                assert exc.status == 404
            wait_terminal(client, run_id)

    def test_events_stream_to_completion(self, tmp_path):
        with running_service(tmp_path) as (_service, client):
            run_id = client.submit("alice", TINY_MATRIX)["run_id"]
            seen = {"run": 0, "journal": 0, "span": 0, "end": 0}
            journal_types = []
            for event, payload in client.events(run_id):
                seen[event] += 1
                if event == "journal":
                    journal_types.append(payload["type"])
            assert seen["run"] == 1
            assert seen["end"] == 1
            assert seen["span"] > 0
            assert journal_types[0] == "run-start"
            assert "run-complete" in journal_types
            # The one-job matrix expands to a 3-node DAG
            # (materialize, reference, benchmark).
            assert journal_types.count("job-done") == 3

    def test_list_filters_by_tenant(self, tmp_path):
        with running_service(tmp_path, max_running=2) as (_service, client):
            a = client.submit("alice", TINY_MATRIX)["run_id"]
            b = client.submit("bob", TINY_MATRIX)["run_id"]
            wait_terminal(client, a)
            wait_terminal(client, b)
            alice_runs = client.runs(tenant="alice")["runs"]
            assert [run["run_id"] for run in alice_runs] == [a]
            all_runs = client.runs()["runs"]
            assert {run["run_id"] for run in all_runs} == {a, b}


class TestQuotaAndFairness:
    def test_over_quota_submission_gets_429_with_retry_after(self, tmp_path):
        with running_service(
            tmp_path, per_tenant_depth=1, max_running=1
        ) as (service, client):
            first = client.submit("alice", TINY_MATRIX)["run_id"]
            # Flood: depth quota of 1 admits at most one queued run; the
            # run may dispatch quickly, so push until the queue is full.
            rejected = None
            accepted = [first]
            for _ in range(6):
                try:
                    accepted.append(client.submit("alice", TINY_MATRIX)["run_id"])
                except ServiceError as exc:
                    rejected = exc
                    break
            assert rejected is not None, "flood was never pushed back"
            assert rejected.status == 429
            assert rejected.retry_after == pytest.approx(
                service.config.retry_after
            )
            # The rejected run is terminal on disk: a restart must not
            # resurrect work the client was told to retry.
            rejected_dirs = [
                record for record in service.core.runs.values()
                if record.state == "failed" and "quota" in record.error
            ]
            assert rejected_dirs
            for record in rejected_dirs:
                outcome_path = (
                    service.registry.run_dir(record.run_id) / OUTCOME_NAME
                )
                assert outcome_path.exists()
            for run_id in accepted:
                wait_terminal(client, run_id)

    def test_flooding_tenant_does_not_starve_another(self, tmp_path):
        with running_service(
            tmp_path, per_tenant_depth=8, per_tenant_running=1, max_running=1
        ) as (_service, client):
            flood = [
                client.submit("flood", TINY_MATRIX)["run_id"] for _ in range(3)
            ]
            small = client.submit("small", TINY_MATRIX)["run_id"]
            for run_id in flood + [small]:
                wait_terminal(client, run_id)
            started = {
                run["run_id"]: run["started_at"]
                for run in client.runs()["runs"]
            }
            # The small tenant ran before the flood's backlog drained:
            # strictly earlier than the flood's last run.
            assert started[small] < started[flood[-1]]


class TestRestartRecovery:
    def test_boot_scan_reenqueues_and_completes_spooled_run(self, tmp_path):
        spool = tmp_path / "spool"
        # A submission that was spooled but never executed — the shape a
        # SIGKILLed server leaves behind (request.json, no outcome).
        registry = RunRegistry(spool)
        record = registry.create("alice", TINY_MATRIX, submitted_at=1.0)
        with running_service(tmp_path, spool=spool) as (_service, client):
            final = wait_terminal(client, record.run_id)
            assert final["state"] == "done"
            assert final["jobs"] == 1

    def test_boot_scan_skips_terminal_runs(self, tmp_path):
        spool = tmp_path / "spool"
        registry = RunRegistry(spool)
        record = registry.create("alice", TINY_MATRIX)
        (registry.run_dir(record.run_id) / OUTCOME_NAME).write_text(
            json.dumps({"ok": True, "jobs": 1, "failures": 0})
        )
        with running_service(tmp_path, spool=spool) as (service, client):
            payload = client.run(record.run_id)
            assert payload["state"] == "done"
            assert service.core.queue.pending() == 0


class TestExampleMatrixSubmission:
    def test_full_example_matrix_payload_is_accepted(self, tmp_path):
        # The CLI's `submit example` sends config_payload(example_matrix())
        # verbatim — every BenchmarkConfig field — and the validator must
        # know them all.
        from repro.runtime.executor import example_matrix
        from repro.runtime.journal import config_payload

        payload = dict(config_payload(example_matrix()))
        payload.pop("resources", None)
        payload.update(TINY_MATRIX)
        with running_service(tmp_path) as (_service, client):
            accepted = client.submit("alice", payload)
            assert accepted["state"] == "queued"

    def test_partitions_key_is_400_naming_machines(self, tmp_path):
        # Shards are machines: the retired knob is refused, never
        # reinterpreted, and the refusal says what to ask for instead.
        with running_service(tmp_path) as (_service, client):
            for retired in ({"partitions": 2}, {"partitions": None}):
                with pytest.raises(ServiceError) as excinfo:
                    client.submit("alice", {**TINY_MATRIX, **retired})
                assert excinfo.value.status == 400
                assert "resources.machines" in str(excinfo.value)
            accepted = client.submit(
                "alice", {**TINY_MATRIX, "resources": {"machines": 2}}
            )
            assert accepted["state"] == "queued"
