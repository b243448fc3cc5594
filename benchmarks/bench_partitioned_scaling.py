"""Measured strong scaling of the partitioned engine, recorded to
``BENCH_partitioned.json`` (ROADMAP item 3: measured curves next to the
calibrated model's).

The curve: PageRank and BFS on a Graph500 graph (scale 15: the 1-shard
PageRank run takes well over 100 ms) at 1/2/4 shards over the pipes
transport. Every cell is timed twice: the **first run** on a graph
nothing is deployed on (partition, block cut, fork, boot, handshake,
then the products) and the **deployed run** (best of three on the live
deployment: products only — what a job's T_proc holds, since the driver
deploys under ``load``). Speedup vs the 1-shard run is taken between
deployed runs. Next to it, the calibrated platform models'
``machine_scaling_factor`` for the same machine counts, and the
measured-vs-modeled delta — the number the paper's §6 experiments could
only simulate before. The same two timings at 2 shards on the perf
workload's graph (the G22 recipe, scale 9) are recorded under
``small_graph``: that is where start-up used to be most of a run.

Gated: every shard count's output is bit-identical to the numpy
reference kernel, and the traced run's ``trace.jsonl`` carries the
per-superstep ``shard-compute`` / ``exchange`` / ``barrier-wait``
spans. A speedup is *recorded* only where the host can show one — it is
``null`` when ``cpu_count < shards`` — and is not gated: see
docs/scaling.md § Measured curves for the measured ratio and why.
"""

import json
import multiprocessing
from pathlib import Path

import numpy as np

from repro.algorithms import get_algorithm
from repro.datagen.graph500 import graph500
from repro.engines.partitioned import run_algorithm, undeploy
from repro.trace import MonotonicClock, Tracer, read_trace, use_tracer, write_trace

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_partitioned.json"
SHARD_COUNTS = (1, 2, 4)
SCALE = 15
SMALL_SCALE = 9
REPEATS = 3

#: The calibrated distributed-platform models whose strong-scaling
#: curves the measured one sits next to (rate multiplier vs 1 machine).
_MODELED = {}


def _load_models():
    from repro.platforms.giraph import GIRAPH_MODEL
    from repro.platforms.graphmat import GRAPHMAT_MODEL
    from repro.platforms.graphx import GRAPHX_MODEL
    from repro.platforms.pgxd import PGXD_MODEL
    from repro.platforms.powergraph import POWERGRAPH_MODEL

    _MODELED.update({
        "Giraph": GIRAPH_MODEL,
        "GraphMat": GRAPHMAT_MODEL,
        "GraphX": GRAPHX_MODEL,
        "PGX.D": PGXD_MODEL,
        "PowerGraph": POWERGRAPH_MODEL,
    })


_WALL = MonotonicClock()


def _arms(graph):
    """Algorithm -> parameters (the benchmark description's: hub root)."""
    hub = int(graph.vertex_ids[int(np.argmax(graph.degrees()))])
    return {"pr": {"iterations": 30}, "bfs": {"source_vertex": hub}}


def _timed_partitioned(graph, algorithm, params, shards):
    """(output, first-run wall-clock, best of :data:`REPEATS` deployed
    runs): the first run starts with nothing deployed."""
    undeploy()
    samples = []
    for _ in range(1 + REPEATS):
        started = _WALL.now()
        values = run_algorithm(
            graph,
            algorithm,
            params,
            partitions=shards,
            strategy="hash",
            transport="pipes",
        )
        samples.append(_WALL.now() - started)
    return values, samples[0], min(samples[1:])


def test_partitioned_strong_scaling(benchmark, tmp_path):
    _load_models()
    graph = graph500(SCALE, seed=42)
    arms = _arms(graph)
    cpu_count = multiprocessing.cpu_count()

    def rounds():
        measured = {}
        for algorithm, params in arms.items():
            measured[algorithm] = {
                shards: _timed_partitioned(graph, algorithm, params, shards)
                for shards in SHARD_COUNTS
            }
        return measured

    measured = benchmark.pedantic(rounds, rounds=1, iterations=1)

    payload = {
        "graph": f"graph500(scale={SCALE}, seed=42)",
        "vertices": int(graph.num_vertices),
        "edges": int(graph.num_edges),
        "transport": "pipes",
        "strategy": "hash",
        "repeats": REPEATS,
        "cpu_count": cpu_count,
        "algorithms": {},
    }

    for algorithm, params in arms.items():
        baseline = get_algorithm(algorithm).run(graph, params)
        serial_elapsed = measured[algorithm][1][2]
        curve = {}
        for shards in SHARD_COUNTS:
            values, first, elapsed = measured[algorithm][shards]
            # The gate that holds on any hardware: sharding never
            # changes a single bit of the output.
            assert values.tobytes() == baseline.tobytes(), (
                f"{algorithm} at {shards} shards diverged from the "
                f"reference kernel"
            )
            curve[str(shards)] = {
                "first_run_seconds": round(first, 4),
                "deployed_run_seconds": round(elapsed, 4),
                # More shards than CPUs time-slice one core: whatever
                # that ratio is, it is not a scaling result.
                "speedup_vs_1_shard": (
                    round(serial_elapsed / elapsed, 3)
                    if cpu_count >= shards else None
                ),
            }
        modeled = {
            name: {
                str(m): round(model.machine_scaling_factor(algorithm, m), 3)
                for m in SHARD_COUNTS
            }
            for name, model in sorted(_MODELED.items())
        }
        delta = {
            name: {
                m: (
                    None if curve[m]["speedup_vs_1_shard"] is None
                    else round(curve[m]["speedup_vs_1_shard"] - series[m], 3)
                )
                for m in series
            }
            for name, series in modeled.items()
        }
        payload["algorithms"][algorithm] = {
            "measured": curve,
            "modeled_speedup": modeled,
            "measured_minus_modeled": delta,
        }

    # Where start-up used to be most of a run: the perf workload's graph.
    small = graph500(SMALL_SCALE, edgefactor=13, weighted=True, seed=42)
    payload["small_graph"] = {
        "graph": f"graph500(scale={SMALL_SCALE}, edgefactor=13, seed=42)",
        "shards": 2,
        "algorithms": {},
    }
    for algorithm, params in _arms(small).items():
        values, first, elapsed = _timed_partitioned(small, algorithm, params, 2)
        assert values.tobytes() == \
            get_algorithm(algorithm).run(small, params).tobytes()
        payload["small_graph"]["algorithms"][algorithm] = {
            "first_run_seconds": round(first, 4),
            "deployed_run_seconds": round(elapsed, 4),
        }

    # One traced 2-shard run: the span timeline the docs promise must
    # land in trace.jsonl (shard compute, exchange, barrier-wait).
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        _timed_partitioned(graph, "pr", arms["pr"], 2)
    trace_path = tmp_path / "trace.jsonl"
    write_trace(trace_path, tracer.finished_spans())
    spans, _ = read_trace(trace_path)
    kinds = {}
    for span in spans:
        kinds[span.name] = kinds.get(span.name, 0) + 1
    for required in ("shard-compute", "exchange", "barrier-wait"):
        assert kinds.get(required, 0) > 0, f"missing {required} spans"
    payload["trace_span_counts"] = dict(sorted(kinds.items()))

    OUTPUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    print()
    print(f"Partitioned strong scaling — {payload['graph']}, "
          f"{payload['cpu_count']} cores")
    print(f"{'algorithm':>10s} {'shards':>7s} {'first s':>9s} "
          f"{'deployed s':>11s} {'speedup':>8s}")
    for algorithm in arms:
        for shards in SHARD_COUNTS:
            cell = payload["algorithms"][algorithm]["measured"][str(shards)]
            speedup = cell["speedup_vs_1_shard"]
            print(f"{algorithm:>10s} {shards:>7d} "
                  f"{cell['first_run_seconds']:>9.3f} "
                  f"{cell['deployed_run_seconds']:>11.3f} "
                  + ("       —" if speedup is None else f"{speedup:>7.2f}x"))
    for algorithm, cell in payload["small_graph"]["algorithms"].items():
        print(f"{algorithm:>10s} {'2 (s9)':>7s} "
              f"{cell['first_run_seconds']:>9.3f} "
              f"{cell['deployed_run_seconds']:>11.3f}")
    print(f"written to {OUTPUT.name}")
