"""Service front-door throughput, recorded to ``BENCH_service.json``.

Measures the HTTP control plane, not benchmark execution: a live
service instance (background event loop, real sockets on loopback)
takes submissions from 8 tenants and the bench records the submit
latency distribution (p50/p99) plus sustained runs-per-minute. Run
children are stubbed out — the dispatch loop is told the queue is
empty — so the numbers isolate request parsing, matrix validation,
spooling, and admission: the path every tenant pays on every request.

The p99 gate asserts a single submission stays under
``P99_BUDGET_SECONDS`` end-to-end (client connect through spooled 202).
Going over means the front door got heavier — an fsync added on the
hot path, validation cost blown up, the loop blocked somewhere — which
multiplies across every tenant of a shared deployment. The budget is
asserted unless ``GRAPHALYTICS_SKIP_OVERHEAD_CHECK`` is set (shared CI
hardware can stall arbitrarily).
"""

import asyncio
import json
import os
import statistics
import threading
import time
from pathlib import Path

from repro.service import BenchmarkService, ServiceClient, ServiceConfig

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT = REPO_ROOT / "BENCH_service.json"
TENANTS = 8
SUBMISSIONS_PER_TENANT = 25
P99_BUDGET_SECONDS = 0.25

MATRIX = {
    "platforms": ["powergraph"],
    "datasets": ["R1"],
    "algorithms": ["bfs"],
    "repetitions": 1,
}


class _ServiceHarness:
    """A live service whose scheduler never launches run children."""

    def __init__(self, spool: Path):
        config = ServiceConfig(
            spool=spool,
            port=0,
            per_tenant_depth=SUBMISSIONS_PER_TENANT * 2,
        )
        self.service = BenchmarkService(config)
        # Stub dispatch: admission/spooling stay real, execution doesn't.
        self.service.core.queue.acquire = lambda: None
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)

    def __enter__(self) -> ServiceClient:
        self.thread.start()
        host, port = asyncio.run_coroutine_threadsafe(
            self.service.start(), self.loop
        ).result(timeout=30)
        return ServiceClient(host, port, timeout=30)

    def __exit__(self, *exc_info):
        asyncio.run_coroutine_threadsafe(
            self.service.stop(), self.loop
        ).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def test_submit_latency_under_8_tenants(benchmark, tmp_path):
    def rounds():
        latencies = []
        with _ServiceHarness(tmp_path / "spool") as client:
            started = time.perf_counter()
            for index in range(SUBMISSIONS_PER_TENANT):
                for tenant_id in range(TENANTS):
                    tenant = f"tenant{tenant_id}"
                    t0 = time.perf_counter()
                    accepted = client.submit(tenant, MATRIX)
                    latencies.append(time.perf_counter() - t0)
                    assert accepted["state"] == "queued"
            elapsed = time.perf_counter() - started
        return latencies, elapsed

    latencies, elapsed = benchmark.pedantic(rounds, rounds=1, iterations=1)

    total = len(latencies)
    p50 = _percentile(latencies, 0.50)
    p99 = _percentile(latencies, 0.99)
    runs_per_minute = total / elapsed * 60.0

    payload = {
        "tenants": TENANTS,
        "submissions": total,
        "submit_p50_seconds": round(p50, 5),
        "submit_p99_seconds": round(p99, 5),
        "submit_mean_seconds": round(statistics.fmean(latencies), 5),
        "submit_max_seconds": round(max(latencies), 5),
        "runs_per_minute": round(runs_per_minute, 1),
        "p99_budget_seconds": P99_BUDGET_SECONDS,
    }
    OUTPUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    print()
    print(f"Service front door — {TENANTS} tenants, {total} submissions")
    print(f"  submit p50  {p50 * 1000:.2f} ms")
    print(f"  submit p99  {p99 * 1000:.2f} ms")
    print(f"  throughput  {runs_per_minute:.0f} runs/minute")

    if not os.environ.get("GRAPHALYTICS_SKIP_OVERHEAD_CHECK"):
        assert p99 <= P99_BUDGET_SECONDS, (
            f"submit p99 {p99:.4f}s exceeds the {P99_BUDGET_SECONDS}s "
            f"budget — the service front door got heavier"
        )
