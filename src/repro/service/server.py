"""Benchmark-as-a-service: the asyncio HTTP server.

The paper positions Graphalytics as a *community* benchmark — many
platform teams submitting runs against one harness. This server is that
deployment shape: a long-lived process that accepts benchmark matrices
over HTTP, executes them through the crash-safe runtime, and streams
progress back live.

Surface (see docs/service.md for the full API):

* ``POST /v1/runs`` — submit a matrix; validated against the dataset
  and platform registries, admitted through the fair-share tenant
  queue (``429`` + ``Retry-After`` over quota), spooled durably, and
  executed in a child process;
* ``GET /v1/runs`` / ``GET /v1/runs/<id>`` — run listing and per-run
  state with the SLA-breach summary;
* ``GET /v1/runs/<id>/events`` — the run's journal records and trace
  spans as server-sent events, live-tailed from the files the runtime
  writes;
* ``GET /v1/runs/<id>/results|archive|trace`` — finished artifacts;
* ``GET /v1/status`` — queue and scheduler statistics.

Every handler is ``async`` and every blocking filesystem touch goes
through :func:`asyncio.to_thread` — the event loop never waits on disk
(lint rule SRV001 enforces this shape for all handlers under
``repro.service``). Every run-lifecycle decision is
:meth:`ServiceCore.step <repro.service.core.ServiceCore.step>`; this
module is its shell. On boot the spool's runs are replayed into the core,
which re-enqueues every run without an ``outcome.json``; the child
re-executes it with journal resume, so a SIGKILLed server finishes its
work after restart.
"""

from __future__ import annotations

import asyncio
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Awaitable, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.exceptions import ConfigurationError, GraphalyticsError
from repro.faults import FaultPointError, IoFaultPlan
from repro.proc import Child, RetryPolicy, stop_all
from repro.resultsdb.store import STORE_NAME, ResultsStore, load_span_dicts
from repro.runtime.cache import GraphCache
from repro.service.http import (
    EventStream,
    ProtocolError,
    Request,
    Response,
    error_response,
    json_response,
    read_request,
    write_response,
)
from repro.service.core import (
    QUARANTINED,
    QUEUED,
    Action,
    ActionFailed,
    BootScanned,
    ChildExited,
    Discard,
    Event,
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
from repro.service.queue import FairShareQueue, QuotaExceeded
from repro.service.runs import CACHE_NAME, RunRegistry, check_run_knobs
from repro.service.supervise import (
    BreakerOpen,
    TenantBreaker,
    record_attempt,
    write_quarantine,
)
from repro.service.tail import JournalTailer
from repro.service.worker import execute_service_run
from repro.trace import current_tracer

__all__ = ["ServiceConfig", "BenchmarkService"]

_Handler = Callable[..., Awaitable[Optional[Response]]]


@dataclass
class ServiceConfig:
    """Deployment knobs of one service instance."""

    spool: Union[str, Path] = "service-spool"
    host: str = "127.0.0.1"
    port: int = 8735
    #: Worker request forwarded to each run child ("auto" = host CPUs).
    workers: Union[int, str] = "auto"
    #: Per-job wall-clock budget forwarded to each run child.
    job_timeout: Optional[float] = None
    #: Global cap on concurrently executing runs.
    max_running: int = 2
    #: Per-tenant admission quotas (see FairShareQueue).
    per_tenant_depth: int = 4
    per_tenant_running: int = 1
    retry_after: float = 2.0
    #: SSE tail poll interval (seconds).
    poll_interval: float = 0.05
    #: Supervision: launches per run before quarantine (across
    #: restarts — the attempt ledger is durable), and the base of the
    #: exponential relaunch backoff (scheduler-shaped: base * 2^(n-1)).
    run_attempts: int = 3
    run_backoff_base: float = 0.5
    #: Circuit breaker: consecutive child deaths that open a tenant's
    #: circuit, and how long it sheds submissions (503 + Retry-After).
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0

    def __post_init__(self):
        if self.max_running < 1:
            raise ConfigurationError("max_running must be >= 1")
        if self.poll_interval <= 0:
            raise ConfigurationError("poll_interval must be positive")
        if self.run_attempts < 1:
            raise ConfigurationError("run_attempts must be >= 1")
        if self.breaker_threshold < 1:
            raise ConfigurationError("breaker_threshold must be >= 1")
        check_run_knobs(self.workers, self.job_timeout)


class BenchmarkService:
    """One service instance: registry + core + the shell + HTTP front."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.registry = RunRegistry(self.config.spool)
        self.core = ServiceCore(
            FairShareQueue(
                per_tenant_depth=self.config.per_tenant_depth,
                per_tenant_running=self.config.per_tenant_running,
                retry_after=self.config.retry_after,
            ),
            TenantBreaker(
                threshold=self.config.breaker_threshold,
                cooldown=self.config.breaker_cooldown,
            ),
            RetryPolicy(
                max_attempts=self.config.run_attempts,
                backoff_base=self.config.run_backoff_base,
            ),
            max_running=self.config.max_running,
        )
        self._routes: List[Tuple[str, "re.Pattern[str]", _Handler]] = []
        self._children: Dict[str, Child] = {}
        self._watchers: Set[asyncio.Task] = set()
        #: Batches of actions, in the order the core decided them.
        self._actions: "asyncio.Queue[List[Action]]" = asyncio.Queue()
        self._performer: Optional[asyncio.Task] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self.address: Optional[Tuple[str, int]] = None
        self._add_route("POST", "/v1/runs", self._handle_submit)
        self._add_route("GET", "/v1/runs", self._handle_list)
        self._add_route("GET", "/v1/status", self._handle_status)
        self._add_route("GET", "/v1/healthz", self._handle_healthz)
        self._add_route("GET", r"/v1/runs/(?P<run_id>[^/]+)", self._handle_run)
        self._add_route(
            "GET", r"/v1/runs/(?P<run_id>[^/]+)/events", self._handle_events
        )
        self._add_route(
            "GET",
            r"/v1/runs/(?P<run_id>[^/]+)"
            r"/(?P<artifact>results|archive|trace|outcome|quarantine)",
            self._handle_artifact,
        )

    def _add_route(self, method: str, pattern: str, handler: _Handler) -> None:
        """Register one route; the lint project model treats every
        handler registered here as an async-entrypoint root (SRV001)."""
        self._routes.append((method, re.compile(f"^{pattern}$"), handler))

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Boot: replay the spool into the core, then start listening."""
        self._performer = asyncio.ensure_future(self._perform_all())
        for record in await asyncio.to_thread(self.registry.scan):
            self._step(BootScanned(record))
        await self._actions.join()  # recovery is on disk before we answer
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: stop listening and launching, reap the
        run children (their exits reach the core as such)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._step(Stop())
        if self._performer is not None:
            await self._actions.join()
            self._performer.cancel()
        await asyncio.to_thread(stop_all, list(self._children.values()))
        await asyncio.gather(*self._watchers)

    # -- the shell around the core ------------------------------------------

    def _step(self, event: Event) -> List[Action]:
        """Decide one event now; queue its actions behind every earlier
        step's, so they are performed in the order they were decided."""
        actions = self.core.step(event, current_tracer().clock.now())
        if actions:
            self._actions.put_nowait(actions)
        return actions

    async def _perform_all(self) -> None:
        """Perform each queued batch of actions, one action at a time.

        A performed action is reported to the core, which sets the fact
        it made true. A failed one voids the later actions of its run
        in the batch; the core's answer to :class:`ActionFailed`
        replaces them. This task must outlive any one action, so every
        failure is reported to the core rather than raised.
        """
        while True:
            pending = list(await self._actions.get())
            while pending:
                action = pending.pop(0)
                try:
                    await self._perform(action)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    pending = [a for a in pending if a.run_id != action.run_id]
                    now = current_tracer().clock.now()
                    pending += self.core.step(ActionFailed(action, error), now)
                else:
                    self.core.performed(action)
            self._actions.task_done()

    async def _perform(self, action: Action) -> None:
        run_dir = self.registry.run_dir(action.run_id)
        if isinstance(action, PersistAttempt):
            await asyncio.to_thread(
                record_attempt, run_dir, action.attempt, at=action.at
            )
        elif isinstance(action, Launch):
            self._launch(self.core.runs[action.run_id])
        elif isinstance(action, Quarantine):
            await asyncio.to_thread(write_quarantine, run_dir, action.payload)
        elif isinstance(action, Settle):
            await asyncio.to_thread(
                self.registry.write_outcome, action.run_id, action.outcome
            )
        elif isinstance(action, Discard):
            await asyncio.to_thread(self.registry.discard, action.run_id)
        elif isinstance(action, RequeueAt):
            # A timer that fires after Stop() is a step that decides
            # nothing: the core launches nothing more.
            asyncio.get_running_loop().call_later(
                max(0.0, action.at - current_tracer().clock.now()),
                self._step, TimerFired(action.run_id),
            )
        # Reject: the submit handler answers it.

    def _launch(self, record: RunRecord) -> None:
        # No command channel: the run child reports through
        # ``outcome.json`` and, starting a pool of its own, must not be
        # daemonic.
        child = Child(
            f"service-run-{record.run_id}",
            target=execute_service_run,
            args=(str(self.registry.run_dir(record.run_id)),),
            kwargs={
                "workers": record.workers or self.config.workers,
                "job_timeout": record.job_timeout or self.config.job_timeout,
            },
            channel=False,
        )
        self._children[record.run_id] = child
        watcher = asyncio.ensure_future(self._watch(record.run_id, child))
        self._watchers.add(watcher)
        watcher.add_done_callback(self._watchers.discard)

    async def _watch(self, run_id: str, child: Child) -> None:
        """Wait (off-loop) for one run child; step its exit."""
        await asyncio.to_thread(child.process.join)
        outcome = await asyncio.to_thread(self.registry.load_outcome, run_id)
        del self._children[run_id]
        self._step(ChildExited(run_id, child.process.exitcode, outcome))

    # -- HTTP front --------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except ProtocolError as exc:
                await write_response(writer, error_response(400, str(exc)))
                return
            if request is None:
                return
            response = await self._dispatch(request, writer)
            if response is not None:
                await write_response(writer, response)
        except (ConnectionError, asyncio.CancelledError):
            pass  # peer went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> Optional[Response]:
        path_exists = False
        for method, pattern, handler in self._routes:
            match = pattern.match(request.path)
            if match is None:
                continue
            path_exists = True
            if method != request.method:
                continue
            try:
                return await handler(request, writer, **match.groupdict())
            except (QuotaExceeded, BreakerOpen) as exc:
                status = 429 if isinstance(exc, QuotaExceeded) else 503
                retry_after = {"Retry-After": f"{exc.retry_after:g}"}
                return error_response(status, str(exc), **retry_after)
            except (ProtocolError, ConfigurationError) as exc:
                return error_response(400, str(exc))
            except (GraphalyticsError, OSError) as exc:
                return error_response(500, f"{type(exc).__name__}: {exc}")
        if path_exists:
            return error_response(405, f"method {request.method} not allowed")
        return error_response(404, f"no route for {request.path}")

    # -- handlers ----------------------------------------------------------

    async def _handle_submit(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> Response:
        body = request.json()
        if not isinstance(body, dict):
            raise ProtocolError("submission must be a JSON object")
        tenant = str(
            body.get("tenant") or request.headers.get("x-tenant") or ""
        )
        # Shed before spooling: an open circuit costs the tenant one
        # 503, not a spool directory.
        self.core.breaker.check(tenant, now=current_tracer().clock.now())
        matrix = body.get("matrix")
        if matrix is None:
            raise ProtocolError("submission lacks a 'matrix' object")
        chaos = body.get("chaos")
        if chaos is not None:
            if not isinstance(chaos, dict):
                raise ProtocolError("'chaos' must be a JSON object")
            try:
                # Round-trip through the plan class: unknown fault
                # points and malformed rules become a 400 here, not a
                # crash-looping child.
                chaos = IoFaultPlan.from_dict(chaos).as_dict()
            except (FaultPointError, KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(f"invalid chaos plan: {exc}")
        workers = body.get("workers", self.config.workers)
        job_timeout = body.get("job_timeout", self.config.job_timeout)
        record = await asyncio.to_thread(
            self.registry.create,
            tenant,
            matrix,
            workers=workers,
            job_timeout=job_timeout,
            submitted_at=current_tracer().clock.now(),
            chaos=chaos,
        )
        for action in self._step(Submitted(record)):
            if isinstance(action, Reject):
                await self._actions.join()  # its Settle is durable first
                if record.run_id not in self.core.runs:
                    # The rejection could not be written: the run is
                    # forgotten and its directory removed.
                    return error_response(500, record.error)
                raise QuotaExceeded(
                    action.reason, retry_after=action.retry_after
                )
        return json_response(
            {
                "run_id": record.run_id,
                "state": QUEUED,
                "pending": self.core.queue.pending(tenant),
                "events": f"/v1/runs/{record.run_id}/events",
            },
            status=202,
        )

    async def _handle_list(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> Response:
        tenant = request.query.get("tenant")
        runs = [
            record.status_payload()
            for record in self.core.runs.values()
            if tenant is None or record.tenant == tenant
        ]
        runs.sort(key=lambda payload: str(payload["run_id"]))
        return json_response({"runs": runs})

    async def _handle_status(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> Response:
        return json_response(
            {
                "queue": self.core.queue.stats(),
                "children": len(self._children),
                "max_running": self.config.max_running,
                "spool": str(self.registry.spool),
            }
        )

    async def _handle_healthz(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> Response:
        """Liveness + degradation: queue depth, disk headroom, breaker
        circuits, quarantined runs, and durability-downgrade flags.

        ``status`` is ``"ok"`` only when nothing is shedding, nothing
        is quarantined, and no completed run reported a durability
        downgrade — a load balancer can alert on the word while
        operators read the detail.
        """
        now = current_tracer().clock.now()
        usage, store_stats, artifact_stats = await asyncio.to_thread(
            _spool_report, self.registry.spool
        )
        breakers = self.core.breaker.state(now=now)
        quarantined = sorted(
            record.run_id
            for record in self.core.runs.values()
            if record.state == QUARANTINED
        )
        degraded_runs = {
            record.run_id: record.outcome["degraded"]
            for record in sorted(
                self.core.runs.values(), key=lambda r: r.run_id
            )
            if record.outcome is not None and record.outcome.get("degraded")
        }
        healthy = (
            not quarantined
            and not degraded_runs
            and not any(circuit["open"] for circuit in breakers)
        )
        return json_response(
            {
                "status": "ok" if healthy else "degraded",
                "queue": self.core.queue.stats(),
                "children": len(self._children),
                "max_running": self.config.max_running,
                "disk": {
                    "total_bytes": usage.total,
                    "free_bytes": usage.free,
                },
                "breakers": breakers,
                "quarantined": quarantined,
                "degraded_runs": degraded_runs,
                "results_store": store_stats,
                "artifact_store": artifact_stats,
            }
        )

    async def _handle_run(
        self, request: Request, writer: asyncio.StreamWriter, run_id: str
    ) -> Response:
        record = self.core.runs.get(run_id)
        if record is None:
            return error_response(404, f"unknown run {run_id!r}")
        return json_response(record.status_payload())

    async def _handle_artifact(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        run_id: str,
        artifact: str,
    ) -> Response:
        record = self.core.runs.get(run_id)
        if record is None:
            return error_response(404, f"unknown run {run_id!r}")
        path = self.registry.artifact_path(run_id, artifact)
        body = await asyncio.to_thread(_read_artifact, path)
        if body is None:
            return error_response(
                404, f"run {run_id!r} has no {artifact} artifact (yet)"
            )
        content_type = (
            "application/json" if path.suffix == ".json"
            else "application/x-ndjson"
        )
        return Response(status=200, body=body, content_type=content_type)

    async def _handle_events(
        self, request: Request, writer: asyncio.StreamWriter, run_id: str
    ) -> Optional[Response]:
        """Stream the run's journal, then its trace spans, as SSE."""
        record = self.core.runs.get(run_id)
        if record is None:
            return error_response(404, f"unknown run {run_id!r}")
        try:
            offset = int(request.query.get("offset", "0"))
        except ValueError:
            return error_response(400, "offset must be an integer")
        if offset < 0:
            return error_response(400, "offset must be >= 0")
        stream = EventStream(writer)
        await stream.open()
        await stream.send("run", record.status_payload())
        # ``offset`` journal records were already delivered on a prior
        # connection; the tailer swallows them so a reconnecting
        # watcher resumes exactly where its stream dropped.
        tailer = JournalTailer(
            self.registry.run_dir(run_id) / "journal.jsonl", skip=offset
        )
        idle_polls = 0
        while True:
            records = await asyncio.to_thread(tailer.poll)
            for journal_record in records:
                await stream.send("journal", journal_record)
            if records:
                idle_polls = 0
                continue
            if record.terminal:
                break
            idle_polls += 1
            if idle_polls % 200 == 0:
                await stream.ping()
            await asyncio.sleep(self.config.poll_interval)
        trace_path = self.registry.artifact_path(run_id, "trace")
        spans = await asyncio.to_thread(load_span_dicts, trace_path)
        for span in spans:
            await stream.send("span", span)
        await stream.send("end", record.status_payload())
        return None  # the stream was the response


def _spool_report(spool: Path):
    """Everything ``/v1/healthz`` reads from the filesystem.

    Runs on one ``to_thread`` worker: statting, listing, opening and
    counting is work the event loop must not wait on, and one hop for
    all of it keeps the probe's latency flat as it reports more.
    """
    return (
        shutil.disk_usage(str(spool)),
        _store_stats(spool),
        GraphCache(spool / CACHE_NAME).disk_usage(),
    )


def _store_stats(spool: Path) -> Dict[str, object]:
    """The spool results-store statistics for ``/v1/healthz``.

    Run children create ``<spool>/results.db`` at their terminal
    commit; before any run has finished the store does not exist and
    healthz reports zeros without creating the file.
    """
    path = spool / STORE_NAME
    if not path.exists():
        return {
            "path": str(path), "runs": 0, "jobs": 0, "spans": 0,
            "sla_breaches": 0, "db_bytes": 0,
        }
    with ResultsStore(path) as store:
        return store.stats()


def _read_artifact(path: Path) -> Optional[bytes]:
    """Read one servable artifact; ``None`` when absent."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None
