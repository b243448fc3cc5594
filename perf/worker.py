"""One workload in one fresh process: set-up, warm-up, fixed rounds, probes.

``perf.run`` starts this module as a subprocess (so set-up is always
measured from a cold interpreter) and reads the JSON object it prints as
its last line. Nothing here is time-boxed: the number of rounds is an
argument, so every count repeats exactly from run to run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

from perf import estimators, host
from perf.metrics import PER_LAYER_UNITS
from perf.spans import SpanRecorder, layer_self_time
from perf.workloads import WORKLOADS
from perf.workloads.base import RoundResult

__all__ = ["SPAWN_TIME_ENV", "run_workload", "main"]

#: ``time.time()`` taken by the parent right before it spawned us: set-up
#: time runs from there, so interpreter start and imports count.
SPAWN_TIME_ENV = "PERF_SPAWN_TIME"


def _span_samples(spans: List[Dict[str, object]]) -> Dict[str, float]:
    """One traced round's spans -> mean seconds (or ms) per call, by metric."""
    durations: Dict[str, List[float]] = {}
    for span in spans:
        durations.setdefault(str(span["name"]), []).append(
            float(span["end"]) - float(span["start"])
        )
    found = {}
    for name, values in durations.items():
        mean = sum(values) / len(values)
        if f"{name}_s" in PER_LAYER_UNITS:
            found[f"{name}_s"] = mean
        elif f"{name}_ms" in PER_LAYER_UNITS:
            found[f"{name}_ms"] = mean * 1e3
    return found


def run_workload(
    name: str, *, seed: int, rounds: int, trace: bool, scratch: Path,
    setup_only: bool = False,
) -> Dict[str, object]:
    """Run one workload in this process; returns the report dictionary."""
    spawned = float(os.environ.get(SPAWN_TIME_ENV) or time.time())
    load_start = host.loadavg()
    rec = SpanRecorder()
    rec.tracing = trace
    workload = WORKLOADS[name](seed, scratch, rec)
    try:
        workload.setup()
        setup_s = time.time() - spawned
        report: Dict[str, object] = {
            "workload": name, "seed": seed, "rounds": rounds, "trace": trace,
            "setup_s": setup_s,
        }
        if setup_only:
            return report
        _measure(workload, rec, rounds, trace, report)
    finally:
        workload.teardown()
    report["host"] = dict(host.fingerprint(scratch), loadavg_start=load_start)
    end_to_end = report["end_to_end"]
    end_to_end["setup_s"] = setup_s
    end_to_end["peak_rss_mb"] = host.peak_rss_mb()
    per_layer = report["per_layer"]
    per_layer["host.cpu_count"] = os.cpu_count() or 1
    per_layer["host.loadavg_start"] = load_start
    per_layer["host.loadavg_end"] = host.loadavg()
    unknown = sorted(set(per_layer) - set(PER_LAYER_UNITS))
    if unknown:
        raise RuntimeError(f"per-layer metrics missing from perf.metrics: {unknown}")
    report["warnings"] = host.noise_warnings(
        float(per_layer["host.noise_ratio"]), load_start
    )
    if trace:
        rec.write(host.OUT_DIR / f"{name}.trace.jsonl")
    return report


def _measure(workload, rec: SpanRecorder, rounds: int, trace: bool,
             report: Dict[str, object]) -> None:
    setup_spans = list(rec.spans)
    rec.tracing = False
    workload.round(-1)  # warm-up: caches fill, lazy imports finish; discarded

    totals = RoundResult()
    round_s: List[float] = []
    evps: List[float] = []
    traced: List[bool] = []
    samples: Dict[str, List[float]] = {}
    shares: Dict[str, List[float]] = {}
    tproc_share: List[float] = []
    for index in range(rounds):
        # A traced run alternates traced and untraced rounds: the pair is
        # what bench.trace_overhead_share compares, under the same weather.
        rec.tracing = tracing = trace and index % 2 == 0
        rec.round_id = index
        first_span = len(rec.spans)
        gc.collect()
        with rec.span("bench.round") as whole:
            outcome = workload.round(index)
        rec.tracing = False
        round_s.append(whole.duration)
        traced.append(tracing)
        totals.attempted += outcome.attempted
        totals.failed += outcome.failed
        if outcome.tproc > 0:
            evps.append(outcome.elements / outcome.tproc)
            tproc_share.append(outcome.tproc / whole.duration)
        if not tracing:
            continue
        spans = rec.spans[first_span:]
        for key, value in {**_span_samples(spans), **outcome.samples}.items():
            samples.setdefault(key, []).append(value)
        for layer, own in layer_self_time(spans).items():
            if f"{layer}.self_share" in PER_LAYER_UNITS:
                shares.setdefault(layer, []).append(own / whole.duration)

    untraced_s = [s for s, was in zip(round_s, traced) if not was]
    report["correct"] = totals.failed == 0 and totals.attempted > 0
    report["attempted"] = totals.attempted
    report["failed"] = totals.failed
    report["round_s"] = round_s
    report["end_to_end"] = {
        "makespan_s": estimators.low(untraced_s),
        "evps": estimators.high(evps),
    }
    report["detail"] = {
        "makespan_s": estimators.summary(untraced_s),
        "evps": estimators.summary(evps),
    }
    per_layer: Dict[str, float] = {
        "host.noise_ratio": estimators.noise_ratio(untraced_s),
    }
    report["per_layer"] = per_layer
    if not trace:
        return

    per_layer.update(_span_samples(setup_spans))  # one-shot timings
    per_layer.update(workload.setup_metrics)
    per_layer.update({
        key: estimators.fold(PER_LAYER_UNITS[key], values)
        for key, values in samples.items()
    })
    per_layer.update({
        f"{layer}.self_share": statistics.median(values)
        for layer, values in shares.items()
    })
    if f"{workload.name}.tproc_share" in PER_LAYER_UNITS:
        per_layer[f"{workload.name}.tproc_share"] = statistics.median(tproc_share)
    per_layer.update(workload.derived(per_layer))
    per_layer.update(workload.final_metrics())
    traced_s = [s for s, was in zip(round_s, traced) if was]
    per_layer["bench.traced_rounds"] = len(traced_s)
    per_layer["bench.trace_overhead_share"] = (
        estimators.low(traced_s) / estimators.low(untraced_s) - 1.0
    )
    rec.tracing = True  # probes run after the rounds, never beside them
    rec.round_id = None
    per_layer.update(workload.probes())
    rec.tracing = False
    report["counts_repeat"] = {
        key: len(set(values)) == 1
        for key, values in samples.items()
        if PER_LAYER_UNITS[key] == "count"
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perf.worker", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    report = run_workload(
        args.workload, seed=args.seed, rounds=args.rounds,
        trace=bool(args.trace), scratch=args.scratch,
        setup_only=args.setup_only,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
