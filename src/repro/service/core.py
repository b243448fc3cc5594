"""The service's run lifecycle as one pure decision: :class:`ServiceCore`.

Everything that happens to a submitted run — when it launches, what a
child's exit means, when a dead run is relaunched and when it is
quarantined — is decided by :meth:`ServiceCore.step`, which maps one
event and the time to a list of actions. The core owns the fair-share
queue, the tenant breaker, the attempt budget and every run's
:class:`RunRecord`; it holds no clock, file handle, task or process.
The asyncio server (:mod:`repro.service.server`) is its shell: it turns
HTTP submissions, child exits, timers and the facts the boot scan reads
off the spool into events, and performs the actions in the order they
were decided. A boot-scan recovery and an in-life death are therefore
one event sequence, and the whole lifecycle runs in memory under test
(``tests/service/test_core.py``).

When performing an action raises, the shell drops the later actions
of the same run from that batch and steps :class:`ActionFailed`; the
core's answer takes their place. So a run is launched only after its
attempt is durable in the ledger, and the budget bounds launches
across restarts (docs/service.md § Run supervision and quarantine
holds the event → action table). When an action succeeds, the shell
calls :meth:`ServiceCore.performed`, which sets the fact it made true:
a run's state is read off those facts (:attr:`RunRecord.state`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.service.queue import FairShareQueue, QuotaExceeded

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.proc import RetryPolicy
    from repro.service.supervise import TenantBreaker

__all__ = [
    "QUEUED", "RUNNING", "DONE", "FAILED", "QUARANTINED", "TERMINAL_STATES",
    "RunRecord", "ServiceCore",
    "Submitted", "BootScanned", "ChildExited", "TimerFired", "Stop",
    "ActionFailed",
    "Launch", "PersistAttempt", "Quarantine", "RequeueAt", "Settle", "Reject",
    "Discard",
]

#: States a run moves through: queued -> running -> done | failed —
#: or, when supervision exhausts its attempt budget, -> quarantined.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
QUARANTINED = "quarantined"
TERMINAL_STATES = frozenset({DONE, FAILED, QUARANTINED})


@dataclass
class RunRecord:
    """In-memory view of one submitted run: its request and its facts.

    Its :attr:`state` is read off the facts, each set once the action
    that makes it true is performed (:meth:`ServiceCore.performed`).
    """

    run_id: str
    tenant: str
    #: Worker request forwarded to the run child: an int or ``"auto"``.
    workers: Union[int, str, None] = "auto"
    job_timeout: Optional[float] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: str = ""
    #: Launches recorded in the supervise.json ledger (0 = never ran).
    attempts: int = 0
    #: Attempts this server decided whose ledger write failed: they
    #: count against the budget, but no disk holds them.
    unrecorded: int = 0
    #: A launched child of this run has not exited yet.
    live: bool = False
    #: Terminal summary loaded from outcome.json, if the run finished.
    outcome: Optional[Dict[str, object]] = field(default=None, repr=False)
    #: quarantine.json payload for runs that exhausted their budget.
    quarantine: Optional[Dict[str, object]] = field(default=None, repr=False)

    @property
    def state(self) -> str:
        if self.outcome is not None:
            return DONE if self.outcome.get("ok") else FAILED
        if self.quarantine is not None:
            return QUARANTINED
        return RUNNING if self.live else QUEUED

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_payload(self) -> Dict[str, object]:
        """The ``GET /v1/runs/<id>`` body."""
        payload: Dict[str, object] = {
            "run_id": self.run_id,
            "tenant": self.tenant,
            "state": self.state,
            "workers": self.workers,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error:
            payload["error"] = self.error
        if self.attempts:
            payload["attempts"] = self.attempts
        if self.quarantine is not None:
            payload["quarantine"] = self.quarantine
        if self.outcome is not None:
            for key in ("jobs", "failures", "sla_breaches",
                        "elapsed_seconds", "restored_jobs", "degraded"):
                if key in self.outcome:
                    payload[key] = self.outcome[key]
        return payload


# -- events -------------------------------------------------------------------

@dataclass(frozen=True)
class Submitted:
    """A run was spooled (its ``request.json`` is durable)."""
    record: RunRecord


@dataclass(frozen=True)
class BootScanned:
    """A spooled run read at boot, with its facts and no decided state."""
    record: RunRecord


@dataclass(frozen=True)
class ChildExited:
    """A run child exited; ``outcome`` is its ``outcome.json``, if any."""
    run_id: str
    exit_code: Optional[int]
    outcome: Optional[Dict[str, object]]


@dataclass(frozen=True)
class TimerFired:
    """The backoff a :class:`RequeueAt` asked for has elapsed."""
    run_id: str


@dataclass(frozen=True)
class Stop:
    """Graceful shutdown began: launch nothing more."""


@dataclass(frozen=True)
class ActionFailed:
    """Performing ``action`` raised ``error``."""
    action: "Action"
    error: str


Event = Union[
    Submitted, BootScanned, ChildExited, TimerFired, Stop, ActionFailed
]


# -- actions ------------------------------------------------------------------

@dataclass(frozen=True)
class PersistAttempt:
    """Record launch number ``attempt`` in the run's ledger."""
    run_id: str
    attempt: int
    at: float


@dataclass(frozen=True)
class Launch:
    """Start the run's child process."""
    run_id: str


@dataclass(frozen=True)
class Quarantine:
    """Write the run's ``quarantine.json``."""
    run_id: str
    payload: Dict[str, object]


@dataclass(frozen=True)
class RequeueAt:
    """Step :class:`TimerFired` for the run at time ``at``."""
    run_id: str
    at: float


@dataclass(frozen=True)
class Settle:
    """Write the ``outcome.json`` of a run no child settles (a rejection)."""
    run_id: str
    outcome: Dict[str, object]


@dataclass(frozen=True)
class Reject:
    """Answer the run's submission ``429`` with ``Retry-After``."""
    run_id: str
    reason: str
    retry_after: float


@dataclass(frozen=True)
class Discard:
    """Remove the spool directory of a run the core has forgotten."""
    run_id: str


Action = Union[
    PersistAttempt, Launch, Quarantine, RequeueAt, Settle, Reject, Discard
]


class ServiceCore:
    """The run-lifecycle state machine; see the module docstring."""

    def __init__(
        self,
        queue: FairShareQueue,
        breaker: "TenantBreaker",
        policy: "RetryPolicy",
        *,
        max_running: int,
    ):
        self.queue = queue
        self.breaker = breaker
        self.policy = policy
        self.max_running = max_running
        self.runs: Dict[str, RunRecord] = {}
        self.stopping = False

    def step(self, event: Event, now: float) -> List[Action]:
        """Apply one event at time ``now``; return the actions to perform."""
        if isinstance(event, (Submitted, BootScanned)):
            self.runs[event.record.run_id] = event.record
        if isinstance(event, Submitted):
            actions = self._admit(event.record)
        elif isinstance(event, BootScanned):
            actions = self._recover(event.record, now)
        elif isinstance(event, ChildExited):
            actions = self._exited(event, now)
        elif isinstance(event, TimerFired):
            record = self.runs[event.run_id]
            self.queue.submit(record.tenant, record.run_id, force=True)
            actions = []
        elif isinstance(event, Stop):
            self.stopping = True
            actions = []
        else:
            actions = self._failed(event, now)
        if not self.stopping:
            actions += self._dispatch(now)
        return actions

    def performed(self, action: Action) -> None:
        """Set the fact that performing ``action`` made true."""
        record = self.runs.get(action.run_id)  # a discarded run has none
        if isinstance(action, PersistAttempt):
            record.attempts = action.attempt
            record.started_at = action.at
        elif isinstance(action, Launch):
            record.live = True
        elif isinstance(action, Quarantine):
            record.quarantine = action.payload
            record.finished_at = action.payload["quarantined_at"]
        elif isinstance(action, Settle):
            record.outcome = action.outcome

    # -- transitions -------------------------------------------------------

    def _admit(self, record: RunRecord) -> List[Action]:
        try:
            self.queue.submit(record.tenant, record.run_id)
        except QuotaExceeded as exc:
            # Rejected after spooling: settle it terminally, so a
            # restart does not resurrect a run the client was told to
            # retry. It reads queued until that outcome is written.
            record.error = "rejected: tenant queue-depth quota"
            return [
                Settle(record.run_id, {"ok": False, "error": record.error}),
                Reject(record.run_id, str(exc), exc.retry_after),
            ]
        return []

    def _recover(self, record: RunRecord, now: float) -> List[Action]:
        """Decide a boot-scanned run from the facts its spool holds.

        Restart recovery re-enqueues runs inside their budget whatever
        the admission quotas say: accepted work is never dropped.
        """
        if record.outcome is not None:
            record.error = str(record.outcome.get("error", ""))
        elif record.quarantine is not None:
            record.error = str(record.quarantine.get("reason", ""))
        elif self.policy.exhausted(record.attempts):
            return self._quarantine(
                record, now,
                f"attempt budget exhausted ({record.attempts}/"
                f"{self.policy.max_attempts} launches) with no outcome; "
                f"quarantined at boot",
            )
        else:
            self.queue.submit(record.tenant, record.run_id, force=True)
        return []

    def _exited(self, event: ChildExited, now: float) -> List[Action]:
        """A child that wrote ``outcome.json`` settles its run (``ok``
        or not) and closes the tenant's circuit: a clean exit proves
        the tenant's runs are not *dying*. One without is a death: a
        breaker strike and a supervision decision — unless shutdown
        stopped it, which is neither (its launch is in the ledger, and
        the next boot scan re-enqueues it)."""
        record = self._vacate(event.run_id)
        if event.outcome is not None:
            record.outcome = event.outcome
            record.finished_at = now
            # An earlier attempt's death is history, not this run's error.
            record.error = str(event.outcome.get("error", ""))
            self.breaker.record_success(record.tenant)
            return []
        if self.stopping:
            return []
        self.breaker.record_death(record.tenant, now=now)
        return self._retry(
            record, now,
            f"run child exited with code {event.exit_code} and no outcome "
            f"(attempt {record.attempts}/{self.policy.max_attempts})",
        )

    def _failed(self, event: ActionFailed, now: float) -> List[Action]:
        action = event.action
        record = self.runs[action.run_id]
        if isinstance(action, (PersistAttempt, Launch)):
            # No child ran: the attempt counts against the budget but
            # is no strike. Without a durable ledger entry there is no
            # launch, so the budget bounds launches across restarts.
            attempt = record.attempts
            if isinstance(action, PersistAttempt):
                attempt = action.attempt
                record.unrecorded += 1
            self._vacate(action.run_id)
            if self.stopping:
                return []
            return self._retry(
                record, now, f"attempt {attempt} not launched: {event.error}"
            )
        if isinstance(action, Quarantine):
            # Terminal in this server all the same; a restart decides
            # again from what the spool holds.
            self.performed(action)
            record.error += f" (quarantine not persisted: {event.error})"
        elif isinstance(action, Settle):
            # Without its rejection outcome the spool would resurrect
            # the run at the next boot: forget it instead, as if its
            # request.json had never been written.
            record.error += f" (rejection not persisted: {event.error})"
            del self.runs[action.run_id]
            return [Discard(action.run_id)]
        return []

    # -- decisions ---------------------------------------------------------

    def _dispatch(self, now: float) -> List[Action]:
        """Fill free run slots, fairly; every launch is durable first."""
        actions: List[Action] = []
        while self.queue.running() < self.max_running:
            item = self.queue.acquire()
            if item is None:
                break
            record = self.runs[item[1]]
            actions += [
                PersistAttempt(record.run_id, record.attempts + 1, now),
                Launch(record.run_id),
            ]
        return actions

    def _vacate(self, run_id: str) -> RunRecord:
        record = self.runs[run_id]
        record.live = False
        self.queue.release(record.tenant)
        return record

    def _retry(
        self, record: RunRecord, now: float, reason: str
    ) -> List[Action]:
        """Within budget: back on the queue after the scheduler-shaped
        exponential backoff. Budget spent: quarantine."""
        spent = record.attempts + record.unrecorded
        if self.policy.exhausted(spent):
            return self._quarantine(record, now, reason)
        record.error = reason
        at = now + self.policy.backoff(spent)
        return [RequeueAt(record.run_id, at)]

    def _quarantine(
        self, record: RunRecord, now: float, reason: str
    ) -> List[Action]:
        """Terminal once the action is performed: its marker is on disk."""
        record.error = reason
        return [Quarantine(record.run_id, {
            "run_id": record.run_id,
            "tenant": record.tenant,
            "attempts": record.attempts,
            "budget": self.policy.max_attempts,
            "reason": reason,
            "quarantined_at": now,
        })]
