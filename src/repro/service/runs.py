"""The service's run registry: spool-directory-backed run state.

Every submitted run owns one directory under the service **spool**:

.. code-block:: text

    <spool>/<run_id>/
        request.json    # immutable: tenant, normalized matrix, knobs
        journal.jsonl   # write-ahead journal (the run process writes it)
        trace.jsonl     # span trace, exported at run completion
        results.json    # the results database
        archive.json    # Granula archive of the run's own schedule
        outcome.json    # terminal summary written by the run process
        supervise.json  # attempt ledger written before every launch
        quarantine.json # terminal marker for budget-exhausted runs

Beside the run directories the spool holds what every run shares:
``results.db`` (the results store) and ``cache/`` (the artifact store:
materialized graphs and validation references, keyed by catalog recipe
and seed only, so no tenant data enters it and every submission after
the first takes disk hits instead of regenerating).

``request.json`` is written atomically *before* the run is queued and
never modified, so the submission survives any crash; everything else
is produced by the crash-safe runtime. Run state is therefore fully
**derivable from disk**: a directory with an ``outcome.json`` or a
``quarantine.json`` is terminal, anything else is resumable work.
:meth:`RunRegistry.scan` reads those facts back at boot;
:class:`~repro.service.core.ServiceCore` decides from them which runs
to re-enqueue (docs/service.md, restart semantics), and a live server
reports a state only once its fact is written.
"""

from __future__ import annotations

import json
import re
import shutil
import warnings
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.exceptions import ConfigurationError
from repro.ioutil import atomic_write
from repro.runtime.journal import config_payload
from repro.service.core import RunRecord
from repro.service.supervise import (
    load_json_object,
    load_quarantine,
    load_supervision,
)

__all__ = [
    "REQUEST_NAME",
    "OUTCOME_NAME",
    "CACHE_NAME",
    "RunRecord",
    "RunRegistry",
    "check_run_knobs",
    "normalize_matrix",
]

REQUEST_NAME = "request.json"
OUTCOME_NAME = "outcome.json"
#: The spool-wide artifact store; no run id can collide with it
#: (:meth:`RunRegistry.create` mints ``r<seq>-<tenant>``).
CACHE_NAME = "cache"

_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _record(request: Mapping[str, object], run_id: str) -> RunRecord:
    """The record a ``request.json`` payload describes: its one decoder."""
    return RunRecord(
        run_id=str(request.get("run_id", run_id)),
        tenant=str(request.get("tenant", "unknown")),
        workers=request.get("workers", "auto"),
        job_timeout=request.get("job_timeout"),
        submitted_at=float(request.get("submitted_at", 0.0)),
    )


def normalize_matrix(payload: object) -> Dict[str, object]:
    """Validate a submitted matrix against the registries; normalize it.

    The submission may be partial (missing keys take the
    :class:`~repro.harness.config.BenchmarkConfig` defaults); building
    the config validates every platform, dataset, and algorithm name
    against the live registries and every numeric knob against its
    bounds, so a bad submission fails here — as a 400 — rather than
    inside a queued run. The result is the *complete* canonical payload
    the journal header uses, making the stored request self-contained.
    """
    from repro.harness.config import BenchmarkConfig
    from repro.platforms.cluster import ClusterResources

    if not isinstance(payload, Mapping):
        raise ConfigurationError("matrix must be a JSON object")
    kwargs: Dict[str, object] = {}
    for key in ("platforms", "datasets", "algorithms"):
        if key in payload:
            value = payload[key]
            if not isinstance(value, (list, tuple)):
                raise ConfigurationError(f"matrix key {key!r} must be a list")
            kwargs[key] = list(value)
    for key, convert in (
        ("repetitions", int),
        ("seed", int),
        ("validate_outputs", bool),
        ("sla_seconds", float),
        ("skip_impossible", bool),
    ):
        if key in payload:
            kwargs[key] = convert(payload[key])
    resources = payload.get("resources")
    if resources is not None:
        if not isinstance(resources, Mapping):
            raise ConfigurationError("matrix key 'resources' must be an object")
        threads = resources.get("threads")
        kwargs["resources"] = ClusterResources(
            machines=int(resources.get("machines", 1)),
            threads=int(threads) if threads is not None else None,
        )
    unknown = set(payload) - {
        "platforms", "datasets", "algorithms", "repetitions", "seed",
        "validate_outputs", "sla_seconds", "skip_impossible", "resources",
    }
    if unknown:
        hint = (
            "; shards are machines: ask for them with resources.machines"
            if "partitions" in unknown else ""
        )
        raise ConfigurationError(
            f"unknown matrix key(s): {sorted(unknown)}{hint}"
        )
    return config_payload(BenchmarkConfig(**kwargs))


def check_run_knobs(workers: object, job_timeout: object) -> None:
    """Refuse a worker count or job timeout the run child would: the
    runtime's own check, on the values the child is handed."""
    from repro.runtime.executor import RuntimeConfig, resolve_workers

    RuntimeConfig(workers=resolve_workers(workers), job_timeout=job_timeout)


class RunRegistry:
    """Assigns run ids, owns the spool layout, reads it back on boot."""

    def __init__(self, spool: Union[str, Path]):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self._sequence = 0

    def run_dir(self, run_id: str) -> Path:
        if not _RUN_ID_RE.match(run_id):
            raise ConfigurationError(f"malformed run id {run_id!r}")
        return self.spool / run_id

    # -- submission --------------------------------------------------------

    def create(
        self,
        tenant: str,
        matrix: object,
        *,
        workers: Union[int, str, None] = "auto",
        job_timeout: Optional[float] = None,
        submitted_at: float = 0.0,
        chaos: Optional[Dict[str, object]] = None,
    ) -> RunRecord:
        """Validate, assign a run id, persist ``request.json``.

        The request file lands atomically before the caller enqueues
        the run, so a crash between the two leaves a resumable (never a
        half-known) submission; a failed write removes the directory
        and raises. ``chaos`` is a pre-validated
        :class:`~repro.faults.IoFaultPlan` payload the run child
        installs before executing — it rides the request so a resumed
        attempt replays the same fault plan.
        """
        if not _TENANT_RE.match(tenant or ""):
            raise ConfigurationError(
                f"tenant {tenant!r} must be alphanumeric with ._-"
            )
        config = normalize_matrix(matrix)
        check_run_knobs(workers, job_timeout)
        self._sequence += 1
        run_id = f"r{self._sequence:06d}-{tenant}"
        request = {
            "run_id": run_id,
            "tenant": tenant,
            "config": config,
            "workers": workers,
            "job_timeout": job_timeout,
            "submitted_at": submitted_at,
        }
        if chaos is not None:
            request["chaos"] = chaos
        run_dir = self.run_dir(run_id)
        run_dir.mkdir(parents=True, exist_ok=False)
        try:
            atomic_write(
                run_dir / REQUEST_NAME,
                json.dumps(request, indent=1, sort_keys=True),
                fault_point="service.spool.request",
            )
        except OSError:
            self.discard(run_id)
            raise
        return _record(request, run_id)

    def discard(self, run_id: str) -> None:
        """Remove a run's directory: the spool forgets the run."""
        shutil.rmtree(self.run_dir(run_id), ignore_errors=True)

    # -- restart recovery --------------------------------------------------

    def scan(self) -> List[RunRecord]:
        """Every spooled run, in submission order, with its facts.

        Each directory holding a ``request.json`` becomes a record
        carrying what the spool knows: its ``outcome.json``, its
        ``quarantine.json`` and the ledger's attempt count (so budgets
        survive restarts). The records carry no decided state: the
        core decides each one (a journal, if present, makes a re-run a
        resume rather than a restart). A corrupted or truncated
        ``request.json`` (unreadable, invalid JSON, or not a JSON
        object) is **skipped with a warning**: one damaged submission
        must never take the whole boot scan down.
        """
        records: List[RunRecord] = []
        for request_path in sorted(self.spool.glob(f"*/{REQUEST_NAME}")):
            run_dir = request_path.parent
            request = load_json_object(request_path)
            if request is None:  # torn: the submission never completed
                warnings.warn(
                    f"skipping spooled run {run_dir.name!r}: {REQUEST_NAME}"
                    f" is unreadable, not JSON, or not an object",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            record = _record(request, run_dir.name)
            match = re.match(r"^r(\d+)-", record.run_id)
            if match:
                self._sequence = max(self._sequence, int(match.group(1)))
            record.attempts = int(load_supervision(run_dir)["attempts"])
            record.outcome = self.load_outcome(record.run_id)
            record.quarantine = load_quarantine(run_dir)
            records.append(record)
        return records

    # -- artifacts ---------------------------------------------------------

    def load_outcome(self, run_id: str) -> Optional[Dict[str, object]]:
        return load_json_object(self.run_dir(run_id) / OUTCOME_NAME)

    def write_outcome(self, run_id: str, outcome: Dict[str, object]) -> None:
        """Settle a run no child settles (a queue rejection) on disk."""
        atomic_write(
            self.run_dir(run_id) / OUTCOME_NAME,
            json.dumps(outcome, indent=1),
            fault_point="service.spool.outcome",
        )

    def artifact_path(self, run_id: str, artifact: str) -> Path:
        """Path of a servable run artifact (results/archive/trace/...)."""
        from repro.service.supervise import QUARANTINE_NAME

        names = {
            "results": "results.json",
            "archive": "archive.json",
            "trace": "trace.jsonl",
            "outcome": OUTCOME_NAME,
            "quarantine": QUARANTINE_NAME,
        }
        if artifact not in names:
            raise ConfigurationError(f"unknown artifact {artifact!r}")
        return self.run_dir(run_id) / names[artifact]
