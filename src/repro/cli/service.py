"""The benchmark service: ``serve``, ``submit``, ``watch``, ``fetch`` and
``health`` (docs/service.md)."""

from __future__ import annotations

import sys
from typing import List

from repro.cli import arg, command, fmt, workers
from repro.exceptions import ConfigurationError

HOST = arg("--host", default="127.0.0.1")
PORT = arg("--port", type=int, default=8735)


@command(
    "serve",
    arg("--spool", default="service-spool",
        help="directory holding every submitted run (survives restarts)"),
    HOST,
    arg("--port", type=int, default=8735,
        help="listen port (0 picks a free port; the bound address is "
             "printed on boot)"),
    workers("auto", "default worker count per run ('auto' = the host CPU count)"),
    arg("--job-timeout", type=float, default=None,
        help="default per-job wall-clock budget in seconds forwarded to "
             "runs (a timed run uses worker processes)"),
    arg("--max-running", type=int, default=2,
        help="global cap on concurrently executing runs"),
    arg("--tenant-depth", type=int, default=4,
        help="per-tenant queued-run quota (429 over it)"),
    arg("--tenant-running", type=int, default=1,
        help="per-tenant concurrently-running quota"),
    arg("--run-attempts", type=int, default=3,
        help="launches per run before quarantine (counted across "
             "restarts via the durable attempt ledger)"),
    arg("--run-backoff", type=float, default=0.5,
        help="base of the exponential relaunch backoff after a run "
             "child dies (base * 2^(attempt-1) seconds)"),
    arg("--breaker-threshold", type=int, default=3,
        help="consecutive run-child deaths that open a tenant's "
             "circuit breaker (503 on new submissions)"),
    arg("--breaker-cooldown", type=float, default=30.0,
        help="seconds an open circuit sheds a tenant's submissions"),
)
def serve(args) -> int:
    """run the benchmark service (HTTP submissions + SSE)"""
    import asyncio

    from repro.service.server import BenchmarkService, ServiceConfig

    config = ServiceConfig(
        spool=args.spool,
        host=args.host,
        port=args.port,
        workers=args.workers,
        job_timeout=args.job_timeout,
        max_running=args.max_running,
        per_tenant_depth=args.tenant_depth,
        per_tenant_running=args.tenant_running,
        run_attempts=args.run_attempts,
        run_backoff_base=args.run_backoff,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
    )

    async def serve_until_stopped() -> None:
        service = BenchmarkService(config)
        host, port = await service.start()
        # The bound address line is machine-readable on purpose: tests
        # and the bench harness parse it when --port 0 picks a port.
        print(f"graphalytics service listening on http://{host}:{port}",
              flush=True)
        print(f"# spool: {service.registry.spool}", flush=True)
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(serve_until_stopped())
    except KeyboardInterrupt:
        print("service stopped")
    return 0


def _load_json(path: str):
    """A JSON file the user named; malformed JSON is a ConfigurationError."""
    import json

    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:
            raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc


def _load_matrix_argument(text: str):
    if text == "example":
        from repro.runtime.executor import example_matrix
        from repro.runtime.journal import config_payload

        return config_payload(example_matrix())
    return _load_json(text)


@command(
    "submit",
    arg("matrix",
        help="path to a JSON matrix file, or the word 'example' for the "
             "standard example matrix"),
    arg("--tenant", default="cli",
        help="tenant name for fair-share scheduling"),
    HOST,
    PORT,
    workers(None, "per-run worker override (integer or 'auto')"),
    arg("--job-timeout", type=float, default=None),
    arg("--retries", type=int, default=0,
        help="retry 429/503/connection failures this many times with "
             "capped exponential backoff (honors Retry-After)"),
    arg("--chaos", default=None,
        help="path to a JSON I/O fault plan the run child installs "
             "(seeded, deterministic; see docs/robustness.md)"),
    arg("--watch", action="store_true",
        help="stay attached and stream the run's events after submitting"),
)
def submit(args) -> int:
    """submit a benchmark matrix to the service"""
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port)
    matrix = _load_matrix_argument(args.matrix)
    chaos = _load_json(args.chaos) if args.chaos else None
    try:
        accepted = client.submit(
            args.tenant,
            matrix,
            workers=args.workers,
            job_timeout=args.job_timeout,
            chaos=chaos,
            retries=args.retries,
        )
    except ServiceError as exc:
        if exc.status in (429, 503) and exc.retry_after is not None:
            print(f"error: {exc} (retry after {exc.retry_after:g} s)",
                  file=sys.stderr)
            return 1
        raise
    run_id = accepted["run_id"]
    print(f"accepted run {run_id} ({accepted['state']}); "
          f"watch with: graphalytics watch {run_id} "
          f"--host {args.host} --port {args.port}")
    if args.watch:
        return _watch_run(client, str(run_id))
    return 0


def _watch_run(client, run_id: str, *, reconnects: int = 5) -> int:
    """Render a run's SSE stream: journal lines, then the span tree."""
    from repro.trace import Span, render_tree

    spans: List = []
    final_state: dict = {}
    for event, payload in client.watch_events(run_id, reconnects=reconnects):
        if event == "run":
            print(f"# run {payload.get('run_id')} [{payload.get('state')}] "
                  f"tenant={payload.get('tenant')}")
        elif event == "journal":
            kind = payload.get("type", "?")
            detail = {
                k: v for k, v in payload.items()
                if k in ("job", "key", "attempt", "worker", "kind", "seq")
            }
            text = " ".join(f"{k}={v}" for k, v in detail.items())
            print(f"  [{kind}] {text}")
        elif event == "span":
            spans.append(Span.from_dict(payload))
        elif event == "end":
            final_state = payload
    if spans:
        print(render_tree(spans))
    state = final_state.get("state", "unknown")
    print(f"# run {run_id} finished: {state}")
    for key in ("jobs", "failures", "sla_breaches", "elapsed_seconds",
                "attempts", "degraded"):
        if key in final_state:
            print(f"#   {key}: {fmt(final_state[key])}")
    quarantine = final_state.get("quarantine")
    if isinstance(quarantine, dict):
        print(f"#   quarantined: {quarantine.get('reason', '?')}")
    return 0 if state == "done" else 1


@command(
    "watch",
    "run_id",
    HOST,
    PORT,
    arg("--reconnects", type=int, default=5,
        help="consecutive dropped-stream reconnects before giving up "
             "(resumes from the last-seen offset, no duplicates)"),
)
def watch(args) -> int:
    """stream a service run's journal + trace as it executes"""
    from repro.service.client import ServiceClient

    return _watch_run(
        ServiceClient(args.host, args.port),
        args.run_id,
        reconnects=args.reconnects,
    )


@command(
    "fetch",
    "run_id",
    arg("--artifact",
        choices=("results", "archive", "trace", "outcome", "quarantine"),
        default="results"),
    arg("--output", default=None,
        help="write to this path (default: print to stdout)"),
    HOST,
    PORT,
)
def fetch(args) -> int:
    """download a finished service run's artifacts"""
    from repro.ioutil import atomic_write
    from repro.service.client import ServiceClient

    client = ServiceClient(args.host, args.port)
    data = client.fetch(args.run_id, args.artifact)
    if args.output:
        atomic_write(args.output, data)
        print(f"{args.artifact} of {args.run_id} written to {args.output} "
              f"({len(data)} bytes)")
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0


@command("health", HOST, PORT)
def health(args) -> int:
    """print the service's /v1/healthz report"""
    import json

    from repro.service.client import ServiceClient

    report = ServiceClient(args.host, args.port).healthz()
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0 if report.get("status") == "ok" else 1
