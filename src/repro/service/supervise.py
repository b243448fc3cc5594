"""Run supervision: attempt ledger, quarantine record, tenant breaker.

A run whose child dies every time it is launched (bad dataset, platform
bug, hostile chaos plan) must not crash-loop the service, inside one
server's life or across restarts. This module holds what supervision
keeps:

* an **attempt ledger** (``supervise.json``) records every launch
  durably *before* the child starts, so attempt counts survive server
  SIGKILL — the budget is enforced across restarts, not per server
  lifetime;
* a **quarantine record** (``quarantine.json``) marks a run that
  exhausted its budget as terminally ``quarantined``: the spool keeps
  the journal and artifacts for post-mortem, a restart does not
  resurrect it, and the API/CLI surface why;
* a **per-tenant circuit breaker** sheds new submissions with ``503 +
  Retry-After`` while a tenant's runs keep dying, so one tenant's
  poison matrix cannot monopolize run slots with doomed relaunches.

The decision itself — relaunch after a backoff, or quarantine — is
:meth:`ServiceCore.step <repro.service.core.ServiceCore.step>`, one path
for an in-life child death and a boot-scan entry alike; the server
performs the ledger and quarantine writes it asks for.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.exceptions import GraphalyticsError
from repro.ioutil import atomic_write
from repro.proc import RetryPolicy  # re-exported: its home is repro.proc

__all__ = [
    "SUPERVISE_NAME",
    "QUARANTINE_NAME",
    "BreakerOpen",
    "RetryPolicy",
    "TenantBreaker",
    "record_attempt",
    "load_json_object",
    "load_supervision",
    "write_quarantine",
    "load_quarantine",
]

SUPERVISE_NAME = "supervise.json"
QUARANTINE_NAME = "quarantine.json"


class BreakerOpen(GraphalyticsError):
    """A tenant's circuit breaker is open; submissions are shed."""

    def __init__(self, message: str, *, retry_after: float):
        super().__init__(message)
        self.retry_after = retry_after


def load_json_object(path: Union[str, Path]) -> Optional[Dict[str, object]]:
    """A spool JSON object; ``None`` when absent, torn or not an object."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return loaded if isinstance(loaded, dict) else None


# -- the attempt ledger -------------------------------------------------------

def record_attempt(
    run_dir: Union[str, Path], attempt: int, *, at: float
) -> Dict[str, object]:
    """Durably record launch number ``attempt`` before the child starts.

    Written *pre*-launch on purpose: if the server dies between the
    write and the child finishing, the restarted server still counts
    the launch — the budget bounds real executions, not observed
    deaths. The whole ledger is rewritten atomically (it is tiny) via
    the ``service.spool.supervise`` fault point.
    """
    run_dir = Path(run_dir)
    ledger = load_supervision(run_dir)
    history = list(ledger.get("history", []))
    history.append({"attempt": attempt, "at": at})
    ledger = {"attempts": attempt, "history": history}
    atomic_write(
        run_dir / SUPERVISE_NAME,
        json.dumps(ledger, indent=1, sort_keys=True),
        fault_point="service.spool.supervise",
    )
    return ledger


def load_supervision(run_dir: Union[str, Path]) -> Dict[str, object]:
    """The run's attempt ledger; ``{"attempts": 0}`` when absent/corrupt.

    Corruption tolerance matters: the ledger is advisory bookkeeping,
    and a torn one must never block the boot scan (the same contract
    :meth:`RunRegistry.scan` applies to ``request.json``).
    """
    loaded = load_json_object(Path(run_dir) / SUPERVISE_NAME) or {}
    try:
        attempts = int(loaded.get("attempts", 0))
    except (TypeError, ValueError):
        attempts = 0
    history = loaded.get("history")
    return {
        "attempts": attempts,
        "history": history if isinstance(history, list) else [],
    }


# -- quarantine ---------------------------------------------------------------

def write_quarantine(
    run_dir: Union[str, Path], payload: Dict[str, object]
) -> Path:
    """Mark a run terminally quarantined (atomic; survives restarts)."""
    return atomic_write(
        Path(run_dir) / QUARANTINE_NAME,
        json.dumps(payload, indent=1, sort_keys=True),
        fault_point="service.spool.supervise",
    )


def load_quarantine(
    run_dir: Union[str, Path]
) -> Optional[Dict[str, object]]:
    return load_json_object(Path(run_dir) / QUARANTINE_NAME)


# -- the circuit breaker ------------------------------------------------------

class TenantBreaker:
    """Consecutive-death circuit breaker, one circuit per tenant.

    ``threshold`` consecutive child deaths open a tenant's circuit for
    ``cooldown`` seconds from the last death: new submissions are shed
    with :class:`BreakerOpen` (mapped to ``503 + Retry-After``), while
    already-admitted runs keep their retry budget — the breaker
    protects the *queue*, supervision protects the *slots*. Any run
    that completes (even ``ok: false``, which proves the child can
    exit cleanly) closes the circuit; so does an elapsed cooldown.
    """

    def __init__(self, threshold: int = 3, cooldown: float = 30.0):
        self.threshold = threshold
        self.cooldown = cooldown
        self._strikes: Dict[str, int] = {}
        self._last_death: Dict[str, float] = {}

    def record_death(self, tenant: str, *, now: float) -> None:
        self._strikes[tenant] = self._strikes.get(tenant, 0) + 1
        self._last_death[tenant] = now

    def record_success(self, tenant: str) -> None:
        self._strikes.pop(tenant, None)
        self._last_death.pop(tenant, None)

    def open_for(self, tenant: str, *, now: float) -> float:
        """Seconds the tenant's circuit stays open; 0 when closed."""
        strikes = self._strikes.get(tenant, 0)
        if strikes < self.threshold:
            return 0.0
        remaining = self.cooldown - (now - self._last_death.get(tenant, now))
        if remaining <= 0:
            # Cooldown elapsed: close the circuit, forget the strikes.
            self.record_success(tenant)
            return 0.0
        return remaining

    def check(self, tenant: str, *, now: float) -> None:
        """Raise :class:`BreakerOpen` when the tenant is shedding."""
        remaining = self.open_for(tenant, now=now)
        if remaining > 0:
            raise BreakerOpen(
                f"tenant {tenant!r} circuit is open after "
                f"{self._strikes.get(tenant, 0)} consecutive run deaths; "
                f"retry in {remaining:.1f}s",
                retry_after=remaining,
            )

    def state(self, *, now: float) -> List[Dict[str, object]]:
        """Per-tenant circuit state for ``/v1/healthz``."""
        out: List[Dict[str, object]] = []
        for tenant in sorted(self._strikes):
            strikes = self._strikes[tenant]
            out.append(
                {
                    "tenant": tenant,
                    "strikes": strikes,
                    "open": strikes >= self.threshold
                    and (now - self._last_death.get(tenant, now))
                    < self.cooldown,
                }
            )
        return out
