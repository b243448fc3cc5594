"""A failed spool write on the server side leaves the service right.

Each scenario arms a server-side I/O fault plan (``io_faults`` in this
process, where the in-process service runs) at one of the service's
spool fault points and asserts what the robustness contract says that
failure does (docs/robustness.md): the server keeps serving, a run
whose quarantine could not be written is still quarantined (and never
relaunched), and a submission whose ``request.json`` — or whose quota
rejection's ``outcome.json`` — could not be written gets a JSON ``500``
and leaves nothing behind to run after a restart.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.faults import IoFault, IoFaultPlan, io_faults
from repro.service import ServiceError
from repro.service.core import QUARANTINED
from repro.service.runs import RunRegistry
from repro.service.supervise import (
    QUARANTINE_NAME,
    SUPERVISE_NAME,
    load_supervision,
)

from tests.service.test_chaos import KILL_PLAN, wait_state
from tests.service.test_server import TINY_MATRIX, running_service

#: Long enough for a wrongly relaunched run to show up in the ledger.
_SETTLE_SECONDS = 1.0


def _enospc(point: str, *, after: int = 0) -> IoFaultPlan:
    return IoFaultPlan(
        [IoFault(point=point, kind="enospc", after=after)], seed=7
    )


def test_failed_boot_quarantine_write_keeps_the_server_up(tmp_path):
    spool = tmp_path / "spool"
    registry = RunRegistry(spool)
    exhausted = registry.create("acme", TINY_MATRIX, workers=1)
    run_dir = registry.run_dir(exhausted.run_id)
    (run_dir / SUPERVISE_NAME).write_text(
        json.dumps({"attempts": 3, "history": []}), encoding="utf-8"
    )
    healthy = registry.create("zen", TINY_MATRIX, workers=1)
    with io_faults(_enospc("service.spool.supervise")):
        with running_service(tmp_path, run_attempts=3) as (service, client):
            payload = client.run(exhausted.run_id)
            assert payload["state"] == QUARANTINED
            assert "quarantine not persisted" in payload["error"]
            health = client.healthz()
            assert health["status"] == "degraded"
            assert health["quarantined"] == [exhausted.run_id]

            final = wait_state(client, healthy.run_id, ("done",))
            assert final["state"] == "done"
            time.sleep(_SETTLE_SECONDS)
            assert client.run(exhausted.run_id)["state"] == QUARANTINED
    assert load_supervision(run_dir)["attempts"] == 3  # never relaunched
    assert not (run_dir / QUARANTINE_NAME).exists()


def test_failed_quarantine_write_after_a_death_quarantines(tmp_path):
    # The first supervise write is the launch's ledger entry; the
    # second, the quarantine after the child's death, fails.
    with io_faults(_enospc("service.spool.supervise", after=1)):
        with running_service(
            tmp_path, run_attempts=1, breaker_threshold=10
        ) as (service, client):
            accepted = client.submit("acme", TINY_MATRIX, chaos=KILL_PLAN)
            run_id = accepted["run_id"]
            payload = wait_state(
                client, run_id, (QUARANTINED, "done", "failed"), deadline=30.0
            )
            assert payload["state"] == QUARANTINED
            assert payload["attempts"] == 1
            health = client.healthz()
            assert health["status"] == "degraded"
            assert health["quarantined"] == [run_id]

            time.sleep(_SETTLE_SECONDS)
            assert client.run(run_id)["state"] == QUARANTINED
            assert client.status()["children"] == 0
            run_dir = service.registry.run_dir(run_id)
    assert load_supervision(run_dir)["attempts"] == 1  # never relaunched
    assert not (run_dir / QUARANTINE_NAME).exists()


def test_failed_request_write_is_a_500_and_spools_nothing(tmp_path):
    with io_faults(_enospc("service.spool.request")):
        with running_service(tmp_path) as (service, client):
            with pytest.raises(ServiceError) as excinfo:
                client.submit("acme", TINY_MATRIX)
            assert excinfo.value.status == 500
            assert "[Errno 28]" in str(excinfo.value)
            assert [p.name for p in service.registry.spool.iterdir()
                    if p.name.startswith("r0")] == []

            accepted = client.submit("acme", TINY_MATRIX)
            final = wait_state(client, accepted["run_id"], ("done",))
            assert final["state"] == "done"


def _spooled_runs(spool):
    return sorted(p.name for p in spool.iterdir() if p.name.startswith("r0"))


def test_unwritten_rejection_is_a_500_and_never_runs(tmp_path):
    # One running and one queued run fill the tenant's quota; the third
    # submission is rejected after spooling, and its rejection outcome
    # cannot be written. (The first run's child inherits the plan and
    # may die on its own outcome write; supervision relaunches it.)
    with io_faults(_enospc("service.spool.outcome")):
        with running_service(tmp_path, per_tenant_depth=1) as (
            service, client
        ):
            first = client.submit("acme", TINY_MATRIX)["run_id"]
            second = client.submit("acme", TINY_MATRIX)["run_id"]
            with pytest.raises(ServiceError) as excinfo:
                client.submit("acme", TINY_MATRIX)
            assert excinfo.value.status == 500
            assert "rejection not persisted" in str(excinfo.value)
            assert "[Errno 28]" in str(excinfo.value)
            spool = service.registry.spool
            listed = [run["run_id"] for run in client.runs()["runs"]]
            assert listed == [first, second]
    assert _spooled_runs(spool) == [first, second]

    with running_service(tmp_path) as (service, client):
        for run_id in (first, second):
            assert wait_state(client, run_id, ("done",))["state"] == "done"
        time.sleep(_SETTLE_SECONDS)
        listed = [run["run_id"] for run in client.runs()["runs"]]
        assert listed == [first, second]
        assert client.status()["children"] == 0
    assert _spooled_runs(spool) == [first, second]
