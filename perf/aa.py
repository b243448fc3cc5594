"""A/A check: ``python3 -m perf.aa --sets 2 --runs N``.

Runs the whole benchmark on the *same* checkout in alternating sets (run 1
of set A, run 1 of set B, run 2 of set A, ...) with a different seed for
every run of a set, as the driver does. For every (workload, end-to-end
metric) pair it reports each set's median and quartiles, the run-to-run
spread (Q3 - Q1) / median, and whether the sets' medians agree within the
metric's bound. Two sets of the same code that disagree are weather, not a
regression: this is the first thing to rerun when a verdict looks odd.
Writes ``perf/out/aa.json``; exits 1 when a pair disagrees or an operation
failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List

from perf import estimators, host
from perf.metrics import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS
from perf.run import measure

__all__ = ["compare", "count_mismatches", "main"]

#: Counts that depend on scheduling or timing, not on the code alone: which
#: pool worker gets which job (cache hits, and with them the spans the
#: program records), and how many 10 ms polls a run takes.
TIMING_DEPENDENT_COUNTS = frozenset({
    "runtime.cache.disk_hits", "runtime.cache.memory_hits",
    "trace.spans_per_run", "service.poll_requests", "host.cpu_count",
})


def _worse_by(first: float, second: float, better: str) -> float:
    """Share of *first* by which *second* is worse (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def compare(values: Dict[str, List[List[float]]]) -> List[Dict[str, object]]:
    """``values[metric][set]`` -> one verdict row per metric."""
    rows = []
    for name, unit, better, bound in END_TO_END:
        sets = values[name]
        medians = [statistics.median(runs) for runs in sets]
        row: Dict[str, object] = {
            "metric": name, "unit": unit, "bound": bound, "medians": medians,
        }
        if all(len(runs) >= 2 for runs in sets):
            row["quartiles"] = [
                statistics.quantiles(runs, n=4) for runs in sets
            ]
            row["spreads"] = [estimators.quartile_spread(runs) for runs in sets]
            row["steady"] = all(spread <= bound for spread in row["spreads"])
        # Worst disagreement between any earlier set and any later one.
        row["worse_by"] = max(
            [_worse_by(medians[a], medians[b], better)
             for a in range(len(sets)) for b in range(a + 1, len(sets))],
            default=0.0,
        )
        row["agree"] = row["worse_by"] <= bound
        rows.append(row)
    return rows


def count_mismatches(traced: List[Dict[str, float]]) -> List[str]:
    """Count metrics that differ between the sets' traced runs."""
    return [
        name for name, unit, _ in PER_LAYER
        if unit == "count" and name not in TIMING_DEPENDENT_COUNTS
        and len({run.get(name, 0.0) for run in traced}) > 1
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perf.aa", description=__doc__)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of each set's first run; run i uses seed+i")
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--workload", action="append",
                        choices=[name for name, _ in WORKLOADS],
                        help="repeatable; default: all four")
    args = parser.parse_args(argv)
    names = args.workload or [name for name, _ in WORKLOADS]

    values = {
        workload: {
            metric: [[] for _ in range(args.sets)] for metric, *_ in END_TO_END
        }
        for workload in names
    }
    round_s = {workload: [] for workload in names}  # kept for estimator studies
    failed = attempted = 0
    warnings: List[str] = []
    for run in range(args.runs):
        for index in range(args.sets):
            for workload in names:
                report = measure(workload, seed=args.seed + run,
                                 seconds=args.seconds, trace=False)
                failed += int(report["failed"])
                attempted += int(report["attempted"])
                warnings += [f"{workload}: {w}" for w in report["warnings"]]
                round_s[workload].append(report["round_s"])
                for metric, value in report["end_to_end"].items():
                    values[workload][metric][index].append(float(value))
                print(
                    f"run {run + 1}/{args.runs} set {index + 1} {workload:8s} "
                    + " ".join(
                        f"{metric}={report['end_to_end'][metric]:.5g}"
                        for metric, *_ in END_TO_END
                    ),
                    flush=True,
                )

    # One traced run per set: every count the program makes must repeat.
    mismatches = {}
    for workload in names:
        traced = [
            measure(workload, seed=args.seed, seconds=args.seconds,
                    trace=True)["per_layer"]
            for _ in range(args.sets)
        ]
        mismatches[workload] = count_mismatches(traced)
        print(f"counts {workload:8s} "
              + (f"DIFFER: {mismatches[workload]}" if mismatches[workload]
                 else "identical across sets"), flush=True)

    verdicts = {workload: compare(values[workload]) for workload in names}
    agree = not any(mismatches.values())
    print(f"\n{'workload/metric':24s} {'bound':>6s}  per set: median [Q1, Q3] spread")
    for workload, rows in verdicts.items():
        for row in rows:
            cells = []
            for index, median in enumerate(row["medians"]):
                cell = f"{median:.5g}"
                if "quartiles" in row:
                    first, _, third = row["quartiles"][index]
                    cell += (
                        f" [{first:.5g}, {third:.5g}]"
                        f" {row['spreads'][index]:.1%}"
                    )
                cells.append(cell)
            verdict = "agree" if row["agree"] else "DISAGREE"
            if row.get("steady") is False:
                verdict += ", SPREAD > BOUND"
            print(
                f"{workload + '/' + row['metric']:24s} {row['bound']:6.2f}  "
                + " | ".join(cells)
                + f"  worse_by {row['worse_by']:+.1%}  {verdict}"
            )
            agree = agree and row["agree"]
    print(f"ops_attempted={attempted} ops_failed={failed}")
    for warning in warnings:
        print(f"WARNING: {warning}", file=sys.stderr)

    host.OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = host.OUT_DIR / "aa.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "host": host.fingerprint(host.OUT_DIR),
                "sets": args.sets, "runs": args.runs, "seed": args.seed,
                "seconds": args.seconds,
                "attempted": attempted, "failed": failed,
                "values": values, "verdicts": verdicts, "warnings": warnings,
                "round_s": round_s, "count_mismatches": mismatches,
            },
            handle, indent=1,
        )
    print(f"wrote {path}")
    return 0 if agree and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
