"""Results-store throughput and query latency, to ``BENCH_db.json``.

Two numbers the SQLite migration is accountable for:

* **submit latency under contention** — 8 writer threads, each with its
  own connection to one store, submitting runs concurrently. SQLite's
  write lock serializes the commits (that serialization *is* the
  mutual-exclusion story that replaced the flock sidecar), so the
  p50/p99 here price what a busy service spool pays per terminal
  commit — WAL append plus a ``synchronous=FULL`` fsync, plus lock
  waits. The p99 gate asserts a commit stays under
  ``P99_BUDGET_SECONDS`` even with 7 rivals; going over means the
  commit path got heavier or the busy handler started thrashing.
* **canned-query latency on a 500-run store** — ``top``, ``trend`` and
  ``regressions`` against 1500 job rows. These ride the
  platform/algorithm/dataset indexes; whole milliseconds here mean an
  index stopped matching a query's WHERE clause.

The gate is skipped when ``GRAPHALYTICS_SKIP_OVERHEAD_CHECK`` is set
(shared CI hardware can stall arbitrarily).
"""

import json
import os
import statistics
import threading
import time
from pathlib import Path

from repro.resultsdb import queries
from repro.resultsdb.store import ResultsStore

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT = REPO_ROOT / "BENCH_db.json"

WRITERS = 8
SUBMITS_PER_WRITER = 12
STORE_RUNS = 500
JOBS_PER_RUN = 3
P99_BUDGET_SECONDS = 0.75

_PLATFORMS = ("GraphMat", "Giraph", "PGX.D", "PowerGraph")


def _record(platform, algorithm, index):
    return {
        "platform": platform,
        "algorithm": algorithm,
        "dataset": "D300",
        "machines": 1,
        "threads": 32,
        "status": "succeeded",
        "run_index": 0,
        "modeled_processing_time": 0.2 + (index % 17) * 0.01,
        "modeled_makespan": 1.0,
        "sla_compliant": True,
        "validated": True,
    }


def _metadata(run_id):
    return {
        "run_id": run_id,
        "system_under_test": "bench",
        "submitter": "",
        "description": "",
    }


def _concurrent_submits(path):
    """8 writers, own connections, one store: per-submit latencies."""
    barrier = threading.Barrier(WRITERS)
    latencies = []
    lock = threading.Lock()

    def writer(writer_id):
        with ResultsStore(path) as store:
            barrier.wait()
            mine = []
            for index in range(SUBMITS_PER_WRITER):
                records = [
                    _record("GraphMat", "bfs", index),
                    _record("Giraph", "pr", index),
                ]
                t0 = time.perf_counter()
                store.submit_run(
                    _metadata(f"run-w{writer_id}-{index:03d}"), records
                )
                mine.append(time.perf_counter() - t0)
            with lock:
                latencies.extend(mine)

    threads = [
        threading.Thread(target=writer, args=(i,)) for i in range(WRITERS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, time.perf_counter() - started


def _build_query_store(path):
    """500 runs x 3 jobs, one ``submit_run`` each (seeding is untimed)."""
    with ResultsStore(path) as store:
        for run in range(STORE_RUNS):
            store.submit_run(_metadata(f"run-{run:04d}"), [
                _record(_PLATFORMS[(run + j) % len(_PLATFORMS)],
                        ("bfs", "pr", "wcc")[j], run)
                for j in range(JOBS_PER_RUN)
            ])
    return path


def _time_query(fn, repeats=20):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.fmean(samples)


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def test_store_throughput_and_query_latency(benchmark, tmp_path):
    latencies, elapsed = benchmark.pedantic(
        lambda: _concurrent_submits(tmp_path / "contended.db"),
        rounds=1, iterations=1,
    )
    total = len(latencies)
    assert total == WRITERS * SUBMITS_PER_WRITER
    with ResultsStore(tmp_path / "contended.db") as store:
        assert store.stats()["runs"] == total  # no lost updates

    p50 = _percentile(latencies, 0.50)
    p99 = _percentile(latencies, 0.99)

    query_store = _build_query_store(tmp_path / "big.db")
    with ResultsStore(query_store) as store:
        assert store.stats()["jobs"] == STORE_RUNS * JOBS_PER_RUN
        top_s = _time_query(lambda: queries.top(store, "bfs", "D300"))
        trend_s = _time_query(
            lambda: queries.trend(store, "GraphMat", "bfs", "D300")
        )
        regress_s = _time_query(
            lambda: queries.regressions(store, "run-0000", "run-0499")
        )

    payload = {
        "writers": WRITERS,
        "submissions": total,
        "submit_p50_seconds": round(p50, 5),
        "submit_p99_seconds": round(p99, 5),
        "submit_mean_seconds": round(statistics.fmean(latencies), 5),
        "submits_per_second": round(total / elapsed, 1),
        "query_store_runs": STORE_RUNS,
        "query_store_jobs": STORE_RUNS * JOBS_PER_RUN,
        "top_mean_seconds": round(top_s, 6),
        "trend_mean_seconds": round(trend_s, 6),
        "regressions_mean_seconds": round(regress_s, 6),
        "p99_budget_seconds": P99_BUDGET_SECONDS,
    }
    OUTPUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    print()
    print(f"Results store — {WRITERS} writers, {total} submits")
    print(f"  submit p50    {p50 * 1000:.2f} ms")
    print(f"  submit p99    {p99 * 1000:.2f} ms")
    print(f"  throughput    {total / elapsed:.0f} submits/s")
    print(f"Canned queries — {STORE_RUNS} runs, {STORE_RUNS * JOBS_PER_RUN} jobs")
    print(f"  top           {top_s * 1000:.2f} ms")
    print(f"  trend         {trend_s * 1000:.2f} ms")
    print(f"  regressions   {regress_s * 1000:.2f} ms")

    if not os.environ.get("GRAPHALYTICS_SKIP_OVERHEAD_CHECK"):
        assert p99 <= P99_BUDGET_SECONDS, (
            f"submit p99 {p99:.4f}s exceeds the {P99_BUDGET_SECONDS}s "
            f"budget under {WRITERS} concurrent writers — the commit "
            f"path got heavier"
        )
