"""The run lifecycle as a state machine: ``ServiceCore`` against a model.

A hypothesis ``RuleBasedStateMachine`` plays the shell. It steps the
core with the events a server would see — submissions, child exits
with and without an outcome, timers, failed actions, a graceful stop,
a server death and the restart after either — performs the returned
actions against an in-memory spool (the *ledger*: each run's request,
durable attempt count, outcome and quarantine marker), and replays
that ledger as boot-scan events on every restart, as
``RunRegistry.scan`` does. Like the server, it reports each performed
action back to the core (``ServiceCore.performed``), and a read may land
between any two actions. The invariants are the supervision contract
of docs/service.md § Run supervision and quarantine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.proc import RetryPolicy
from repro.service.core import (
    DONE,
    FAILED,
    QUARANTINED,
    RUNNING,
    ActionFailed,
    BootScanned,
    ChildExited,
    Discard,
    Launch,
    PersistAttempt,
    Quarantine,
    Reject,
    RequeueAt,
    RunRecord,
    ServiceCore,
    Settle,
    Stop,
    Submitted,
    TimerFired,
)
from repro.service.queue import FairShareQueue
from repro.service.supervise import TenantBreaker

MAX_RUNNING = 2
PER_TENANT_RUNNING = 1
PER_TENANT_DEPTH = 2
RUN_ATTEMPTS = 2
BREAKER_THRESHOLD = 2
TENANTS = ("acme", "zen", "kite")
ACTION_KINDS = (
    PersistAttempt, Launch, Quarantine, RequeueAt, Settle, Reject, Discard,
)
#: Actions whose performance can fail, or none.
FAIL = st.sampled_from((None, PersistAttempt, Launch, Quarantine, Settle))


@dataclass
class Spooled:
    """What the spool holds for one run: the facts a boot scan reads."""

    tenant: str
    attempts: int = 0
    outcome: Optional[Dict[str, object]] = None
    quarantine: Optional[Dict[str, object]] = None


def new_core() -> ServiceCore:
    return ServiceCore(
        FairShareQueue(
            per_tenant_depth=PER_TENANT_DEPTH,
            per_tenant_running=PER_TENANT_RUNNING,
        ),
        # A cooldown no run outlives: the circuit closes only on success.
        TenantBreaker(threshold=BREAKER_THRESHOLD, cooldown=1e9),
        RetryPolicy(max_attempts=RUN_ATTEMPTS, backoff_base=0.5),
        max_running=MAX_RUNNING,
    )


class ServiceLifecycle(RuleBasedStateMachine):
    #: Action kinds performed across every example of one test.
    performed: Set[type] = set()

    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.sequence = 0
        self.ledger: Dict[str, Spooled] = {}
        #: Launches performed per run, across every restart.
        self.launches: Dict[str, int] = {}
        #: Runs whose submission was refused.
        self.rejected: Set[str] = set()
        self.core = new_core()
        self._fresh_server()

    def _fresh_server(self) -> None:
        self.live: Set[str] = set()
        #: Runs this server has seen settled or quarantined.
        self.terminal: Set[str] = set()
        self.timers: Dict[str, float] = {}
        self.strikes: Dict[str, int] = {}
        self.armed: Optional[type] = None

    # -- the shell ---------------------------------------------------------

    def step(self, event) -> List[object]:
        runs = self.core.runs
        self.terminal |= {r for r, rec in runs.items() if rec.terminal}
        actions = self.core.step(event, self.now)
        self.perform(actions)
        return actions

    def perform(self, actions) -> None:
        pending = list(actions)
        while pending:
            # An HTTP read may land before any action is performed.
            self.every_reported_state_has_its_marker()
            action = pending.pop(0)
            type(self).performed.add(type(action))
            if self.armed is type(action):
                self.armed = None
                failed = ActionFailed(action, "InjectedIOError: [Errno 28]")
                pending = [a for a in pending if a.run_id != action.run_id]
                pending += self.core.step(failed, self.now)
                continue
            self.apply(action)
            self.core.performed(action)

    def apply(self, action) -> None:
        if isinstance(action, Discard):
            assert action.run_id not in self.core.runs
            del self.ledger[action.run_id]  # the spool forgets it
            return
        spooled = self.ledger[action.run_id]
        record = self.core.runs[action.run_id]
        if isinstance(action, PersistAttempt):
            assert action.attempt <= RUN_ATTEMPTS
            spooled.attempts = action.attempt
        elif isinstance(action, Launch):
            assert action.run_id not in self.live | self.terminal
            # A refused submission never runs, whatever its outcome's
            # write did.
            assert action.run_id not in self.rejected
            assert spooled.outcome is None and spooled.quarantine is None
            launches = self.launches.get(action.run_id, 0) + 1
            self.launches[action.run_id] = launches
            # Launches are bounded by the durable ledger, which the
            # budget bounds: across any number of restarts.
            assert launches <= spooled.attempts <= RUN_ATTEMPTS
            self.live.add(action.run_id)
        elif isinstance(action, Quarantine):
            assert action.run_id not in self.live
            spooled.quarantine = dict(action.payload)
        elif isinstance(action, RequeueAt):
            policy = self.core.policy
            spent = record.attempts + record.unrecorded
            assert action.at == self.now + policy.backoff(spent)
            self.timers[action.run_id] = action.at
        elif isinstance(action, Settle):
            spooled.outcome = dict(action.outcome)
        else:
            assert isinstance(action, Reject)
            assert record.state == "failed"

    # -- moves -------------------------------------------------------------
    # Every move may also make the first write of one kind it performs
    # fail (``fail``): the action-failure move, applied where it lands.

    @rule(tenant=st.sampled_from(TENANTS), fail=FAIL)
    def submit(self, tenant, fail):
        self.armed = fail
        self._submit(tenant)

    @rule(tenant=st.sampled_from(TENANTS), fail=FAIL)
    def submit_until_rejected(self, tenant, fail):
        """One tenant fills its quota: the move that reaches a refused
        submission whose rejection outcome may fail to persist."""
        self.armed = fail
        # A run slot, the queue, and at most one run the failed write
        # sent to a retry timer; the next submission is refused.
        for _ in range(PER_TENANT_RUNNING + PER_TENANT_DEPTH + 2):
            if self._submit(tenant):
                return
        raise AssertionError(f"{tenant} over its quota was never refused")

    def _submit(self, tenant) -> bool:
        """Submit one run; whether the core refused it."""
        self.sequence += 1
        run_id = f"r{self.sequence:06d}-{tenant}"
        self.ledger[run_id] = Spooled(tenant)  # request.json is durable
        actions = self.step(Submitted(RunRecord(run_id, tenant)))
        rejected = [a.run_id for a in actions if isinstance(a, Reject)]
        assert rejected in ([], [run_id])
        self.rejected.update(rejected)
        return bool(rejected)

    @precondition(lambda self: self.live)
    @rule(data=st.data(), fail=FAIL)
    def child_dies(self, data, fail):
        self.child_exits(data, None, fail)

    @precondition(lambda self: self.live)
    @rule(data=st.data(), ok=st.booleans(), fail=FAIL)
    def child_finishes(self, data, ok, fail):
        self.child_exits(data, {"ok": ok}, fail)

    def child_exits(self, data, outcome, fail):
        self.armed = fail
        run_id = data.draw(st.sampled_from(sorted(self.live)))
        self.live.remove(run_id)
        tenant = self.ledger[run_id].tenant
        if outcome is not None:
            self.ledger[run_id].outcome = outcome  # the child wrote it
            self.strikes[tenant] = 0
        else:
            self.strikes[tenant] = self.strikes.get(tenant, 0) + 1
        self.step(ChildExited(run_id, 0 if outcome else -9, outcome))
        for name in TENANTS:
            is_open = self.core.breaker.open_for(name, now=self.now) > 0
            assert is_open == (self.strikes.get(name, 0) >= BREAKER_THRESHOLD)

    @precondition(lambda self: self.timers)
    @rule(fail=FAIL)
    def timer_fires(self, fail):
        self.armed = fail
        run_id = min(self.timers, key=self.timers.get)
        self.now = max(self.now, self.timers.pop(run_id))
        self.step(TimerFired(run_id))

    @rule(graceful=st.booleans(), fail=FAIL)
    def restart(self, graceful, fail):
        if graceful:
            self.step(Stop())
            attempts = {r: self.core.runs[r].attempts for r in self.live}
            circuits = self.core.breaker.state(now=self.now)
            # The stop ladder reaps every child: no outcome, yet no
            # strike and no budget decision.
            for run_id in sorted(self.live):
                assert self.step(ChildExited(run_id, -15, None)) == []
                assert self.core.runs[run_id].state == "queued"
                assert self.core.runs[run_id].attempts == attempts[run_id]
            assert self.core.breaker.state(now=self.now) == circuits
        # Otherwise SIGKILL: the children die with the server (the
        # parent-death watchdog) and nobody reports their exits.
        self.core = new_core()
        self._fresh_server()
        self.armed = fail
        for run_id, spooled in sorted(self.ledger.items()):
            record = RunRecord(
                run_id, spooled.tenant,
                attempts=spooled.attempts,
                outcome=spooled.outcome, quarantine=spooled.quarantine,
            )
            self.step(BootScanned(record))

    # -- invariants --------------------------------------------------------

    @invariant()
    def slots_are_bounded_and_freed(self):
        assert len(self.live) <= MAX_RUNNING
        for tenant in TENANTS:
            running = [r for r in self.live if self.ledger[r].tenant == tenant]
            assert len(running) <= PER_TENANT_RUNNING
            assert self.core.queue.running(tenant) == len(running)

    @invariant()
    def running_only_while_a_launch_is_live(self):
        runs = self.core.runs
        running = {r for r, rec in runs.items() if rec.state == RUNNING}
        assert running == self.live

    @invariant()
    def every_reported_state_has_its_marker(self):
        for run_id, record in self.core.runs.items():
            spooled = self.ledger[run_id]
            assert record.attempts == spooled.attempts
            if record.state in (DONE, FAILED):
                assert spooled.outcome is not None
            elif record.state == QUARANTINED:
                assert (
                    spooled.quarantine is not None
                    or "quarantine not persisted" in record.error
                )
            elif record.state == RUNNING:
                assert run_id in self.live

    @invariant()
    def a_done_run_names_no_error(self):
        runs = self.core.runs.values()
        assert all(not rec.error for rec in runs if rec.state == "done")


def test_unpersisted_rejection_is_forgotten():
    core = ServiceCore(
        FairShareQueue(per_tenant_depth=1, per_tenant_running=1),
        TenantBreaker(threshold=BREAKER_THRESHOLD, cooldown=1e9),
        RetryPolicy(max_attempts=RUN_ATTEMPTS, backoff_base=0.5),
        max_running=MAX_RUNNING,
    )
    for index in (1, 2):
        core.step(Submitted(RunRecord(f"r{index}", "acme")), 0.0)
    record = RunRecord("r3", "acme")
    settle, reject = core.step(Submitted(record), 0.0)
    assert isinstance(settle, Settle) and isinstance(reject, Reject)
    failed = ActionFailed(settle, "InjectedIOError: [Errno 28]")
    assert core.step(failed, 0.0) == [Discard("r3")]
    assert sorted(core.runs) == ["r1", "r2"]
    assert "rejection not persisted: InjectedIOError" in record.error


def test_an_unwritten_attempt_counts_against_the_budget():
    """A failed ledger write launches nothing, yet spends the budget: a
    spool that never takes the write quarantines the run, and no read
    reports an attempt the ledger does not hold."""
    core = new_core()
    record = RunRecord("r1", "acme")
    actions = core.step(Submitted(record), 0.0)
    for now in range(1, RUN_ATTEMPTS + 1):
        persist = actions[0]
        assert isinstance(persist, PersistAttempt) and persist.attempt == 1
        failed = ActionFailed(persist, "InjectedIOError: [Errno 28]")
        actions = core.step(failed, float(now))
        if isinstance(actions[0], RequeueAt):
            actions = core.step(TimerFired("r1"), actions[0].at)
    assert [type(a) for a in actions] == [Quarantine]
    assert record.attempts == 0 and record.started_at is None


def test_service_core_state_machine():
    ServiceLifecycle.performed = set()
    run_state_machine_as_test(
        ServiceLifecycle,
        settings=settings(
            max_examples=60,
            stateful_step_count=40,
            deadline=None,
            derandomize=True,
            database=None,
        ),
    )
    assert ServiceLifecycle.performed == set(ACTION_KINDS)
