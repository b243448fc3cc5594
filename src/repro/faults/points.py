"""Named I/O fault points: enumerable disk-failure injection.

The job-scoped :class:`~repro.faults.plan.FaultPlan` answers "what if
this *job* hangs/crashes?"; this module answers "what if this *write*
hits a full disk, a failing device, or a power cut mid-line?". Every
durability-critical I/O site in the tree is threaded through a **named
fault point** registered in :data:`FAULT_POINTS` below — so the set of
injectable disk failures is a reviewable inventory (docs/robustness.md
reproduces it), not whatever a test happened to monkeypatch.

An :class:`IoFaultPlan` is a seeded, deterministic set of
:class:`IoFault` rules. Each rule names a point and a failure kind:

* ``enospc`` — raise ``OSError(ENOSPC)`` *before* any bytes are written
  (a full disk rejects the write whole);
* ``eio`` — raise ``OSError(EIO)`` before writing (a dying device);
* ``fsync-fail`` — like ``eio``, but named for fsync/fdatasync points,
  where the bytes were accepted and the *flush* is what fails;
* ``torn-write`` — write only a prefix of the payload, flush it, then
  raise ``EIO``: the on-disk state a power cut mid-``write(2)`` leaves;
* ``latency`` — sleep (via the tracer clock, so fake-clock tests stay
  deterministic) and then perform the write normally;
* ``kill`` — write a prefix, flush, and SIGKILL the current process:
  the chaos plane's way to die with a torn journal tail.

Matching is positional and seeded: a fault skips its point's first
``after`` arrivals, then fires up to ``times`` times, each arrival
gated by a ``probability`` coin flip drawn from the plan's own
``random.Random(seed)`` — same seed, same code path, same faults.
Counters are per-process: a run child that is killed and relaunched
re-counts from zero, which is exactly what a chaos plan wants when it
must kill *every* attempt (or, with ``after`` beyond the resumed
attempt's I/O, only the first).

Plans install process-globally (:func:`install_io_plan`, or the
:func:`io_faults` context manager for tests) and travel to child
processes either inside a spooled service request or through the
``GRAPHALYTICS_FAULT_PLAN`` environment variable (a path to a JSON
plan, read lazily on first use).
"""

from __future__ import annotations

import errno
import json
import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.exceptions import GraphalyticsError

__all__ = [
    "FAULT_POINTS",
    "IO_FAULT_KINDS",
    "PLAN_ENV",
    "FaultPointError",
    "InjectedIOError",
    "IoFault",
    "IoFaultPlan",
    "register_fault_point",
    "fault_point_inventory",
    "is_fault_point",
    "install_io_plan",
    "active_io_plan",
    "io_faults",
    "check",
    "write_through",
]

#: Environment variable naming a JSON file holding an ``IoFaultPlan``
#: payload (``IoFaultPlan.as_dict`` shape); loaded lazily on first use
#: so any child process — service run child, pool worker — inherits the
#: chaos plan without plumbing.
PLAN_ENV = "GRAPHALYTICS_FAULT_PLAN"

IO_FAULT_KINDS = frozenset(
    {"enospc", "eio", "fsync-fail", "torn-write", "latency", "kill"}
)

#: Errno injected per kind; ``torn-write``/``kill`` surface as EIO when
#: they raise at all.
_KIND_ERRNO = {
    "enospc": errno.ENOSPC,
    "eio": errno.EIO,
    "fsync-fail": errno.EIO,
    "torn-write": errno.EIO,
}


class FaultPointError(GraphalyticsError):
    """A plan references a fault point nothing registered."""


class InjectedIOError(OSError):
    """An injected disk failure; ``errno`` matches the real one.

    Subclassing :class:`OSError` with a genuine ``errno`` means every
    handler written for the real failure (the journal's ENOSPC
    degradation, ``atomic_write``'s cleanup) treats injected and real
    faults identically — the injection plane cannot be special-cased.
    """

    def __init__(self, point: str, kind: str, err: int, message: str):
        super().__init__(err, message)
        self.point = point
        self.kind = kind


# -- the registry -------------------------------------------------------------

_REGISTRY: Dict[str, str] = {}


def register_fault_point(name: str, description: str) -> str:
    """Register a named fault point; returns the name for assignment.

    Idempotent for an identical description; a *different* description
    under the same name is a collision and raises.
    """
    existing = _REGISTRY.get(name)
    if existing is not None and existing != description:
        raise FaultPointError(
            f"fault point {name!r} registered twice with different "
            f"descriptions"
        )
    _REGISTRY[name] = description
    return name


def fault_point_inventory() -> Dict[str, str]:
    """Every registered fault point, name -> description, sorted."""
    return dict(sorted(_REGISTRY.items()))


def is_fault_point(name: str) -> bool:
    return name in _REGISTRY


#: The central inventory. Modules refer to these names; registering them
#: here (rather than at each call site) keeps the set enumerable without
#: importing every layer, and makes plan validation possible before any
#: I/O happens.
FAULT_POINTS: Dict[str, str] = {
    "ioutil.atomic_write.write": (
        "payload write to atomic_write's same-directory temp file"
    ),
    "ioutil.atomic_write.fsync": (
        "temp-file fsync before the rename publishes it"
    ),
    "ioutil.atomic_write.replace": (
        "os.replace of the temp file over the destination"
    ),
    "journal.append.write": (
        "append of one CRC-framed record line to the run journal"
    ),
    "journal.append.fsync": (
        "journal group-commit fdatasync (tiered durability)"
    ),
    "cache.spill.write": (
        "disk spill of a graph or reference output into the cache "
        "directory (a run's own, or the spool-wide store)"
    ),
    "service.spool.request": (
        "service spool request.json (run identity, pre-enqueue)"
    ),
    "service.spool.outcome": (
        "service spool outcome.json (the run's terminal commit point)"
    ),
    "service.spool.supervise": (
        "service supervision ledger and quarantine records"
    ),
    "resultsdb.commit": (
        "results-store transaction COMMIT (one submitted run); "
        "kind=kill dies with the transaction in WAL, which discards it "
        "on the next open"
    ),
    "partitioned.shard.step": (
        "per-command chaos hook in a partitioned shard worker, checked "
        "before each superstep/round executes (kind=kill simulates a "
        "shard dying mid-superstep)"
    ),
}
for _name, _description in FAULT_POINTS.items():
    register_fault_point(_name, _description)


# -- the plan -----------------------------------------------------------------

@dataclass(frozen=True)
class IoFault:
    """One injection rule: which point, which failure, when.

    ``after`` skips the point's first N arrivals (in this process);
    ``times`` bounds how often the rule fires; ``probability`` gates
    each eligible arrival on the plan's seeded RNG.
    """

    point: str
    kind: str
    after: int = 0
    times: int = 1
    probability: float = 1.0
    #: Seconds a ``latency`` fault sleeps before the write proceeds.
    latency_seconds: float = 0.05

    def __post_init__(self):
        if self.kind not in IO_FAULT_KINDS:
            raise FaultPointError(
                f"unknown I/O fault kind {self.kind!r}; expected one of "
                f"{sorted(IO_FAULT_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPointError(
                f"fault probability {self.probability} outside [0, 1]"
            )

    def as_dict(self) -> Dict[str, object]:
        return {
            "point": self.point,
            "kind": self.kind,
            "after": self.after,
            "times": self.times,
            "probability": self.probability,
            "latency_seconds": self.latency_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "IoFault":
        return cls(
            point=str(payload["point"]),
            kind=str(payload["kind"]),
            after=int(payload.get("after", 0)),
            times=int(payload.get("times", 1)),
            probability=float(payload.get("probability", 1.0)),
            latency_seconds=float(payload.get("latency_seconds", 0.05)),
        )


class IoFaultPlan:
    """A seeded, deterministic set of I/O fault rules.

    Per-point arrival counters and per-rule fired counters live on the
    plan instance; the probability coin flips come from one
    ``Random(seed)``, consumed in arrival order — so a fixed seed and a
    deterministic code path reproduce the exact same failures.
    """

    def __init__(self, faults: Sequence[IoFault] = (), *, seed: int = 0):
        self.faults: Tuple[IoFault, ...] = tuple(faults)
        self.seed = seed
        for fault in self.faults:
            if not is_fault_point(fault.point):
                raise FaultPointError(
                    f"fault plan targets unregistered point "
                    f"{fault.point!r}; known points: "
                    f"{sorted(_REGISTRY)}"
                )
        self._rng = Random(seed)
        self._arrivals: Dict[str, int] = {}
        self._fired: Dict[int, int] = {}

    def match(self, point: str) -> Optional[IoFault]:
        """Record an arrival at ``point``; return the rule that fires.

        First eligible rule wins. Every arrival at a point with a
        probabilistic rule consumes one RNG draw whether or not it
        fires, keeping the draw sequence a function of the arrival
        sequence alone.
        """
        arrival = self._arrivals.get(point, 0)
        self._arrivals[point] = arrival + 1
        for index, fault in enumerate(self.faults):
            if fault.point != point:
                continue
            if arrival < fault.after:
                continue
            if self._fired.get(index, 0) >= fault.times:
                continue
            if fault.probability < 1.0:
                if self._rng.random() >= fault.probability:
                    continue
            self._fired[index] = self._fired.get(index, 0) + 1
            return fault
        return None

    def injected(self) -> Dict[str, int]:
        """Rule index -> times fired (for assertions and healthz)."""
        return dict(self._fired)

    def as_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "faults": [fault.as_dict() for fault in self.faults],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "IoFaultPlan":
        faults = payload.get("faults", [])
        if not isinstance(faults, list):
            raise FaultPointError("fault plan 'faults' must be a list")
        return cls(
            [IoFault.from_dict(item) for item in faults],
            seed=int(payload.get("seed", 0)),
        )


# -- the active plan ----------------------------------------------------------

# Installed once at process start (worker entrypoint or env), then only
# read on the I/O path.
_ACTIVE_PLAN: Optional[IoFaultPlan] = None
_ENV_CHECKED = False


def install_io_plan(plan: Optional[IoFaultPlan]) -> None:
    """Install (or, with ``None``, clear) the process-wide plan."""
    # Per-process by design, like the tracer globals: each worker or
    # run child arms its own plan at entry and never shares it back.
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = plan


def active_io_plan() -> Optional[IoFaultPlan]:
    """The installed plan, loading ``GRAPHALYTICS_FAULT_PLAN`` lazily."""
    global _ACTIVE_PLAN, _ENV_CHECKED
    if _ACTIVE_PLAN is None and not _ENV_CHECKED:
        # Lazy per-process env load, like install_io_plan: each worker
        # (pool, service child, partitioned shard) arms its own copy.
        _ENV_CHECKED = True
        path = os.environ.get(PLAN_ENV)
        if path:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            _ACTIVE_PLAN = IoFaultPlan.from_dict(payload)
    return _ACTIVE_PLAN


@contextmanager
def io_faults(plan: IoFaultPlan) -> Iterator[IoFaultPlan]:
    """Scoped installation for tests; restores the previous plan."""
    previous = _ACTIVE_PLAN
    install_io_plan(plan)
    try:
        yield plan
    finally:
        install_io_plan(previous)


# -- call-site API ------------------------------------------------------------

def check(point: str) -> None:
    """Fire any fault matching a non-write point (fsync, replace, ...).

    ``torn-write``/``kill`` need a payload to tear; at a payload-less
    point they degrade to their raising halves (EIO, SIGKILL).
    """
    plan = active_io_plan()
    if plan is None:
        return
    fault = plan.match(point)
    if fault is not None:
        _fire(point, fault, None, None)


def write_through(point: str, handle, data: bytes) -> None:
    """``handle.write(data)``, threaded through the named fault point."""
    plan = active_io_plan()
    fault = plan.match(point) if plan is not None else None
    if fault is None:
        handle.write(data)
        return
    _fire(point, fault, handle, data)


def _fire(point: str, fault: IoFault, handle, data: Optional[bytes]) -> None:
    if fault.kind == "latency":
        # Lazy import: repro.trace itself writes through repro.ioutil,
        # so importing it at module load would close a cycle.
        from repro.trace import current_tracer

        current_tracer().clock.sleep(fault.latency_seconds)
        if handle is not None and data is not None:
            handle.write(data)
        return
    if fault.kind in ("torn-write", "kill") and data is not None:
        torn = data[: max(1, len(data) // 2)] if data else data
        handle.write(torn)
        try:
            handle.flush()
        except (OSError, ValueError):
            pass
    if fault.kind == "kill":
        # SIGKILL, not os._exit: no atexit/finally gets to tidy the
        # torn bytes up — the crash the plan asked for is honest.
        os.kill(os.getpid(), signal.SIGKILL)
    err = _KIND_ERRNO[fault.kind]
    raise InjectedIOError(
        point, fault.kind, err,
        f"injected {fault.kind} at fault point {point}",
    )
