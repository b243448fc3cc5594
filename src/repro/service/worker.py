"""The per-run child process: executes one spooled run to completion.

Each dispatched run executes in its **own process** rather than inside
the server. That buys three properties the service contract needs:

* isolation — a run that exhausts memory or dies on a platform bug
  takes out one child, not the server and every other tenant's stream;
* honest crash semantics — the e2e suite SIGKILLs the *server* mid-run
  and expects the restarted server to resume from the journal; the
  parent-death watchdog (:func:`repro.proc.watch_parent`) makes the
  children die with the server, so the journal really is torn where
  the crash happened;
* a tailable journal — the child writes ``journal.jsonl`` in the run
  directory through the ordinary crash-safe runtime, and the server
  process streams it to SSE clients with :class:`~repro.service.tail.JournalTailer`
  without sharing any in-process state.

:func:`execute_service_run` is the :class:`repro.proc.Child` target.
It is a lint-recognized worker entrypoint (RACE003 polices it), and
it mutates no module globals — everything it touches lives in the
run directory it is handed, or in the two stores every run of the
spool shares beside it (``results.db`` and ``cache/``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

from repro.faults import IoFaultPlan, install_io_plan
from repro.ioutil import atomic_write
from repro.proc import watch_parent
from repro.resultsdb.store import STORE_NAME, commit_service_run
from repro.runtime.executor import (
    RuntimeConfig,
    execute_matrix,
    resolve_workers,
)
from repro.runtime.journal import config_from_payload
from repro.service.runs import CACHE_NAME, OUTCOME_NAME, REQUEST_NAME
from repro.trace import Tracer, use_tracer

__all__ = ["execute_service_run", "run_outcome_payload"]

def run_outcome_payload(result, *, elapsed: float) -> Dict[str, object]:
    """The terminal ``outcome.json`` body for a finished run."""
    database = result.database
    sla_breaches = sum(1 for row in database if not row.sla_compliant)
    payload = {
        "ok": True,
        "jobs": result.job_count,
        "rows": len(database),
        "failures": len(result.failures),
        "sla_breaches": sla_breaches,
        "restored_jobs": result.restored_jobs,
        "lost_jobs": result.lost_jobs,
        "workers": result.workers,
        "mode": result.mode,
        "elapsed_seconds": elapsed,
    }
    degraded = getattr(result, "degraded", None)
    if degraded:
        # Durability downgrades (journal ENOSPC / failed fsync): the
        # run finished, but not at full crash-safety — the flag rides
        # the outcome into run status and /v1/healthz.
        payload["degraded"] = list(degraded)
    return payload


def _commit_to_store(run_dir: Path, request, result, outcome) -> None:
    """Commit the finished run into the spool's shared results store.

    Part of the run's terminal commit: the job rows, the exported
    ``trace.jsonl`` spans, and the SLA breaches enter
    ``<spool>/results.db`` in one transaction right before
    ``outcome.json`` lands. ``replace`` semantics (inside
    :func:`~repro.resultsdb.store.commit_service_run`) make the write
    idempotent across relaunches — a child SIGKILLed at the
    ``resultsdb.commit`` fault point re-commits the run whole on its
    next attempt. A store failure must not fail a finished benchmark
    run: it downgrades to a ``degraded`` flag that rides the outcome
    into run status and ``/v1/healthz``, like a journal durability
    downgrade.
    """
    try:
        stats = commit_service_run(
            run_dir.parent / STORE_NAME,
            run_id=str(request.get("run_id") or run_dir.name),
            tenant=str(request.get("tenant") or ""),
            database=result.database,
            trace_path=run_dir / "trace.jsonl",
        )
    except Exception as exc:
        outcome.setdefault("degraded", []).append("resultsdb-commit-failed")
        outcome["resultsdb_error"] = f"{type(exc).__name__}: {exc}"
        return
    outcome["resultsdb"] = {"runs": stats["runs"], "jobs": stats["jobs"]}


def execute_service_run(
    run_dir: Union[str, Path],
    *,
    workers: Union[int, str, None] = "auto",
    job_timeout: Optional[float] = None,
) -> int:
    """Execute (or resume) the run spooled at ``run_dir``; returns 0/1.

    Reads ``request.json``, runs the matrix through the journaled
    runtime — resuming from ``journal.jsonl`` when one exists, so a
    rerun after a crash completes the remainder instead of starting
    over — then writes ``archive.json`` (the run's Granula performance
    archive), commits the run's rows, spans, and SLA breaches into the
    spool's shared results store, and finally writes ``outcome.json``.
    The outcome write is the commit point: the server treats a run
    directory without one as unfinished work to re-enqueue.
    """
    run_dir = Path(run_dir)
    watch_parent()
    # A fresh tracer per child: span buffers and counters must not be
    # shared (or forked mid-write) from the server process.
    tracer = Tracer()
    with use_tracer(tracer):
        started = tracer.clock.now()
        try:
            with open(run_dir / REQUEST_NAME, "r", encoding="utf-8") as handle:
                request = json.load(handle)
            chaos = request.get("chaos")
            if chaos:
                # The submission carried a seeded I/O fault plan: arm
                # it in this child (and only this child) before any
                # journal or artifact write happens. Riding the spooled
                # request means a relaunched attempt re-arms the same
                # plan — chaos follows the run, not the server.
                install_io_plan(IoFaultPlan.from_dict(chaos))
            config = config_from_payload(request["config"])
            runtime = RuntimeConfig(
                workers=resolve_workers(workers),
                job_timeout=job_timeout,
                # One artifact store per spool, not per run: keyed by
                # catalog recipe + seed only, so every tenant, attempt
                # and resume after the first takes a disk hit.
                cache_dir=run_dir.parent / CACHE_NAME,
            )
            # resume=None: from journal.jsonl when one exists.
            result = execute_matrix(
                config, runtime, run_dir=run_dir, resume=None
            )
            atomic_write(
                run_dir / "archive.json",
                json.dumps(result.archive().as_dict(), indent=1, sort_keys=True),
            )
            outcome = run_outcome_payload(
                result, elapsed=tracer.clock.now() - started
            )
            _commit_to_store(run_dir, request, result, outcome)
        except Exception as exc:
            outcome = {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "elapsed_seconds": tracer.clock.now() - started,
            }
        atomic_write(
            run_dir / OUTCOME_NAME,
            json.dumps(outcome, indent=1, sort_keys=True),
            fault_point="service.spool.outcome",
        )
    return 0 if outcome.get("ok") else 1
