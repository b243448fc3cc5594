"""Runtime scaling: serial vs 2- and 4-worker wall-clock on the example
matrix, recorded to ``BENCH_runtime.json``.

The acceptance target (>= 1.5x on a 4-core machine) is only *checkable*
on multi-core hardware; on fewer cores this bench still records the
numbers plus the machine's core count so the JSON is interpretable. What
is asserted everywhere: the parallel runs lose no jobs and merge to the
same canonical database as the serial run, and repeated datasets hit
the cache.
"""

import json
import multiprocessing
import os
import time
from pathlib import Path

from repro.runtime import RuntimeConfig, example_matrix, execute_matrix

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_runtime.json"
WORKER_COUNTS = (1, 2, 4)


def _timed_run(workers: int):
    config = example_matrix()
    started = time.perf_counter()
    result = execute_matrix(config, RuntimeConfig(workers=workers))
    elapsed = time.perf_counter() - started
    return result, elapsed


def test_runtime_scaling(benchmark):
    # Untimed: imports, and the datasets' in-process materialize memo
    # that forked workers inherit — whichever configuration ran first
    # used to pay for them, which read as a speed-up of the others.
    _timed_run(1)
    runs = benchmark.pedantic(
        lambda: {w: _timed_run(w) for w in WORKER_COUNTS},
        rounds=1,
        iterations=1,
    )
    serial_result, serial_elapsed = runs[1]
    canonical = serial_result.database.canonical_json()

    payload = {
        "matrix": "example_matrix (2 platforms x 2 datasets x 3 algorithms x 2 reps)",
        "jobs": serial_result.job_count,
        "cpu_count": multiprocessing.cpu_count(),
        "workers": {},
    }
    rows = []
    for workers, (result, elapsed) in runs.items():
        assert result.lost_jobs == 0
        assert result.database.canonical_json() == canonical
        speedup = serial_elapsed / elapsed if elapsed > 0 else 0.0
        payload["workers"][str(workers)] = {
            "mode": result.mode,
            "wall_clock_seconds": round(elapsed, 4),
            "speedup_vs_serial": round(speedup, 3),
            "cache": result.cache_stats.as_dict(),
            "cache_hits": result.cache_stats.hits,
        }
        rows.append((workers, result.mode, elapsed, speedup))
        # At least one cache hit per repeated dataset, on every config.
        assert result.cache_stats.hits >= 2

    OUTPUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    print()
    print("Runtime scaling — example matrix "
          f"({serial_result.job_count} jobs, {payload['cpu_count']} cores)")
    print(f"{'workers':>8s} {'mode':>7s} {'wall s':>9s} {'speedup':>8s}")
    for workers, mode, elapsed, speedup in rows:
        print(f"{workers:>8d} {mode:>7s} {elapsed:>9.3f} {speedup:>7.2f}x")
    print(f"written to {OUTPUT.name}")

    if payload["cpu_count"] >= 4 and not os.environ.get(
        "GRAPHALYTICS_SKIP_SPEEDUP_CHECK"
    ):
        assert payload["workers"]["4"]["speedup_vs_serial"] >= 1.5
