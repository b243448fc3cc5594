"""The benchmark's names: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` is this module written out (``python -m perf.metrics``
prints it; ``perf/tests/test_contract.py`` fails when the two differ), and
``perf.worker`` refuses to report a per-layer name that is not listed
here. Later issues cite these names verbatim.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

__all__ = [
    "COMMAND",
    "PATHS",
    "RUN_SECONDS",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "PER_LAYER_UNITS",
    "benchmark_json",
]

COMMAND = ["python3", "-m", "perf.run"]
PATHS = ["perf"]
#: One timed round per second of ``--seconds``: rounds are sized to about
#: 1 s each, and a fixed count (never a time box) makes counts repeat.
RUN_SECONDS = 16

WORKLOADS: List[Tuple[str, str]] = [
    ("kernels",
     "Six numpy kernels on a Graph500 scale-14 graph, one process: algorithms "
     "does >90% of a round, runtime/service none, so a kernel gain must show "
     "here and a runtime change must not."),
    ("sharded",
     "Six algorithms on 2 shards over pipes plus four on 1 inline shard: "
     "engines.partitioned does >90% of a round and the numpy kernels none; "
     "a wire-format gain that costs the inline path shows."),
    ("matrix",
     "288 sub-millisecond jobs, journaled fresh run then cut-and-resume: "
     "scheduler, pool, cache and journal outweigh the kernels; the fresh half "
     "writes what the resume half reads."),
    ("service",
     "Real serve subprocess, one closed-loop client: submit, poll, fetch, then "
     "canned queries on the live SQLite store; HTTP, child spawn and commits "
     "dominate and reads run beside writes."),
]

#: (name, unit, better, bound). The bound is the share of the parent's
#: median by which the metric may worsen; see README "Noise policy" for
#: why they are as wide as they are on this host.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("makespan_s", "s", "lower", 0.25),
    ("evps", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

_LOWER, _HIGHER = "lower", "higher"


def _timings(prefix: str, names: str, unit: str = "s") -> List[Tuple[str, str, str]]:
    return [(f"{prefix}{name}", unit, _LOWER) for name in names.split()]


#: (name, unit, better), grouped by layer in module order.
PER_LAYER: List[Tuple[str, str, str]] = [
    # datagen
    ("datagen.graph500_s", "s", _LOWER),
    ("datagen.edges_per_s", "1/s", _HIGHER),
    # graph
    *_timings("graph.", "write_graph_s read_graph_s csr_first_touch_s"),
    ("graph.read_edges_per_s", "1/s", _HIGHER),
    # algorithms
    *_timings("algorithms.", "bfs_s pr_s wcc_s cdlp_s sssp_s lcc_s validate_s"),
    ("algorithms.self_share", "share", _HIGHER),
    # engines
    *_timings("engines.spmv.", "bfs_s pr_s wcc_s cdlp_s sssp_s"),
    *_timings("engines.partitioned.", "partition_hash_s partition_range_s"),
    *_timings("engines.partitioned.p2.", "bfs_s pr_s wcc_s cdlp_s sssp_s lcc_s"),
    *_timings("engines.partitioned.p1.", "bfs_s wcc_s sssp_s lcc_s"),
    ("engines.partitioned.p2.slowdown_vs_kernel", "ratio", _LOWER),
    ("engines.partitioned.p1.slowdown_vs_kernel", "ratio", _LOWER),
    ("engines.partitioned.speedup_p2_over_p1", "ratio", _HIGHER),
    ("engines.partitioned.self_share", "share", _HIGHER),
    # platforms
    *_timings("platforms.", "upload_s execute_overhead_s"),
    ("platforms.tproc_share", "share", _HIGHER),
    # harness
    *_timings("harness.", "run_job_s canonical_json_s"),
    # runtime
    *_timings("runtime.", "fresh_s resume_s overhead_s_per_job"),
    ("runtime.jobs_per_s", "1/s", _HIGHER),
    ("runtime.self_share", "share", _HIGHER),
    ("runtime.jobs", "count", _HIGHER),
    ("runtime.dag_size", "count", _LOWER),
    ("runtime.restored_jobs", "count", _HIGHER),
    ("runtime.journal.records", "count", _LOWER),
    ("runtime.journal.bytes", "bytes", _LOWER),
    ("runtime.cache.misses", "count", _LOWER),
    ("runtime.cache.stores", "count", _LOWER),
    ("runtime.cache.bytes_written", "bytes", _LOWER),
    ("runtime.cache.disk_hits", "count", _HIGHER),
    ("runtime.cache.memory_hits", "count", _HIGHER),
    *_timings("runtime.journal.", "append_s_per_record load_s"),
    *_timings("runtime.cache.", "miss_s disk_hit_s memory_hit_s"),
    ("runtime.pool.startup_s", "s", _LOWER),
    # trace (the program's own trace.jsonl, read as an artifact)
    ("trace.spans_per_run", "count", _LOWER),
    ("trace.bytes_per_run", "bytes", _LOWER),
    # resultsdb
    *_timings("resultsdb.", "top_s trend_s regressions_s run_spans_s submit_run_s"),
    ("resultsdb.self_share", "share", _LOWER),
    ("resultsdb.runs", "count", _HIGHER),
    ("resultsdb.jobs", "count", _HIGHER),
    ("resultsdb.spans", "count", _HIGHER),
    ("resultsdb.db_bytes_per_run", "bytes", _LOWER),
    # service
    *_timings("service.", "start_s accept_to_done_s"),
    *_timings("service.", "submit_ms_p50 submit_ms_p90 fetch_results_ms healthz_ms", "ms"),
    ("service.self_share", "share", _HIGHER),
    ("service.tproc_share", "share", _HIGHER),
    ("service.poll_requests", "count", _LOWER),
    ("service.relaunches", "count", _LOWER),
    ("service.spool_bytes_per_run", "bytes", _LOWER),
    # host / bench
    ("host.cpu_count", "count", _HIGHER),
    ("host.noise_ratio", "ratio", _LOWER),
    ("host.loadavg_start", "load", _LOWER),
    ("host.loadavg_end", "load", _LOWER),
    ("bench.self_share", "share", _LOWER),
    ("bench.traced_rounds", "count", _HIGHER),
    ("bench.trace_overhead_share", "share", _LOWER),
    ("bench.leaked_tmp_entries", "count", _LOWER),
]

PER_LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}


def benchmark_json() -> Dict[str, object]:
    """``BENCHMARK.json`` in the shape the builder's contract prescribes."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
