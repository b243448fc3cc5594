"""What a live server reports is what its spool (or a live child) holds.

Two end-to-end checks of the run lifecycle against a real server:

* a state is reported only once the fact that makes it true is
  performed: a slow ``service.spool.supervise`` write (a ``latency``
  fault in this process, where the in-process service runs) holds the
  state back instead of reporting it ahead of its marker;
* the core's decisions depend on nothing but the events it is stepped:
  every ``step`` and ``performed`` call one server's core receives,
  through a child SIGKILLed by its chaos plan and a server restart,
  replays through a fresh ``ServiceCore`` to the same actions.
"""

from __future__ import annotations

import copy
import time

import pytest

from repro.faults import IoFault, IoFaultPlan, io_faults
from repro.service.core import (
    QUARANTINED,
    RUNNING,
    BootScanned,
    ChildExited,
    ServiceCore,
)
from repro.service.supervise import QUARANTINE_NAME, load_supervision

from tests.service.test_chaos import KILL_PLAN, wait_state
from tests.service.test_server import TINY_MATRIX, running_service

_DEADLINE = 60.0

#: A poison run: two launches, each killed by its chaos plan, then
#: quarantine; the breaker stays out of it.
POISON = dict(run_attempts=2, run_backoff_base=0.05, breaker_threshold=10)


def assert_marker_on_disk(run_dir, status):
    state = status["state"]
    if state == QUARANTINED:
        assert (run_dir / QUARANTINE_NAME).exists()
    elif state == RUNNING:
        assert load_supervision(run_dir)["attempts"] >= 1
    # The attempts a read reports are in the ledger already.
    assert status.get("attempts", 0) <= load_supervision(run_dir)["attempts"]


@pytest.mark.parametrize(
    "after",
    # The supervise writes are: attempt 1's ledger entry, attempt 2's,
    # then the quarantine record.
    [2, 0],
    ids=["slow-quarantine-write", "slow-ledger-write"],
)
def test_a_reported_state_has_its_marker_on_disk(tmp_path, after):
    slow = IoFault(
        point="service.spool.supervise", kind="latency", after=after,
        latency_seconds=1.0,
    )
    with io_faults(IoFaultPlan([slow], seed=7)):
        with running_service(tmp_path, **POISON) as (service, client):
            run_id = client.submit("acme", TINY_MATRIX, chaos=KILL_PLAN)[
                "run_id"
            ]
            run_dir = service.registry.run_dir(run_id)
            limit = time.monotonic() + _DEADLINE
            state = None
            while state != QUARANTINED:
                assert time.monotonic() < limit, f"last state: {state}"
                status = client.run(run_id)
                state = status["state"]
                assert_marker_on_disk(run_dir, status)
                time.sleep(0.01)


class RecordingCores:
    """Stands in for ``ServiceCore`` in the server: builds real cores
    and records every ``step`` and ``performed`` call each receives."""

    def __init__(self):
        #: One (constructor arguments, calls) pair per core built.
        self.cores = []

    def __call__(self, *args, **kwargs):
        pristine = copy.deepcopy((args, kwargs))
        core = ServiceCore(*args, **kwargs)
        calls = []
        self.cores.append((pristine, calls))
        step, performed = core.step, core.performed

        def recording_step(event, now):
            entry = (copy.deepcopy(event), now)
            actions = step(event, now)
            calls.append(("step", entry, copy.deepcopy(actions)))
            return actions

        def recording_performed(action):
            calls.append(("performed", copy.deepcopy(action), None))
            performed(action)

        core.step, core.performed = recording_step, recording_performed
        return core


def replay(pristine, calls):
    args, kwargs = copy.deepcopy(pristine)
    core = ServiceCore(*args, **kwargs)
    for kind, item, actions in calls:
        if kind == "step":
            event, now = copy.deepcopy(item)
            assert core.step(event, now) == actions, event
        else:
            core.performed(item)


def test_recorded_steps_replay_to_the_same_actions(tmp_path, monkeypatch):
    cores = RecordingCores()
    monkeypatch.setattr("repro.service.server.ServiceCore", cores)
    poison = dict(POISON, run_attempts=3)
    with running_service(tmp_path, **poison) as (_service, client):
        run_id = client.submit("acme", TINY_MATRIX, chaos=KILL_PLAN)["run_id"]
        calls = cores.cores[0][1]
        limit = time.monotonic() + _DEADLINE
        while not any(
            isinstance(item[0], ChildExited)
            for kind, item, _ in calls if kind == "step"
        ):
            assert time.monotonic() < limit, "the run child never died"
            time.sleep(0.05)
    with running_service(tmp_path, **poison) as (_service, client):
        wait_state(client, run_id, (QUARANTINED,))

    first, second = (calls for _, calls in cores.cores)
    events = [item[0] for kind, item, _ in first + second if kind == "step"]
    assert any(
        isinstance(e, ChildExited) and e.exit_code == -9 and e.outcome is None
        for e in events
    )
    assert any(isinstance(e, BootScanned) for e in events)
    for pristine, calls in cores.cores:
        replay(pristine, calls)
