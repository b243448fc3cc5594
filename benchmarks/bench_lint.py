"""Whole-program lint wall time over ``src/repro``, recorded to
``BENCH_lint.json``.

The two-phase engine parses every module, builds the project model
(symbol tables, call graph, worker- and handler-reachability closures)
and then runs all seventeen rules — per-file and interprocedural — over
the full tree. The gate asserts the end-to-end run stays under
``TIME_BUDGET_SECONDS`` so the CI lint leg (and a pre-commit habit)
remains cheap as the tree grows; a separate ``--no-project`` arm is
timed alongside to keep the marginal cost of the whole-program phase
visible in the committed payload.

The budget is asserted unless ``GRAPHALYTICS_SKIP_OVERHEAD_CHECK`` is
set (shared CI hardware can stall arbitrarily). A full run measures
~2-3 s on CI-class hardware, so the 10 s budget has generous headroom;
the min-of-rounds statistic makes the gate robust to a single noisy
round.
"""

import json
import os
import platform
import time
from pathlib import Path

from repro.lint import LintConfig, LintEngine, load_config

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT = REPO_ROOT / "BENCH_lint.json"
TARGET = REPO_ROOT / "src" / "repro"
ROUNDS = 5
TIME_BUDGET_SECONDS = 10.0


def _one_round(project: bool):
    config = load_config(REPO_ROOT)
    config.project = project
    started = time.perf_counter()
    findings = LintEngine(config).run([TARGET])
    elapsed = time.perf_counter() - started
    # The shipped tree lints clean; a finding here means the bench is
    # measuring a broken tree, not lint performance.
    assert findings == [], [(f.rule_id, f.path, f.line) for f in findings]
    return elapsed


def test_full_tree_lint_wall_time(benchmark):
    _one_round(project=True)  # warm import/parse caches

    def rounds():
        samples = {False: [], True: []}
        for _ in range(ROUNDS):
            for project in (False, True):
                samples[project].append(_one_round(project))
        return samples

    samples = benchmark.pedantic(rounds, rounds=1, iterations=1)

    full = min(samples[True])
    per_file_only = min(samples[False])
    file_count = len(
        LintEngine(load_config(REPO_ROOT)).collect_files([TARGET])
    )

    payload = {
        "target": "src/repro",
        "files": file_count,
        "rounds": ROUNDS,
        "full_min_seconds": round(full, 4),
        "per_file_only_min_seconds": round(per_file_only, 4),
        "project_phase_seconds": round(full - per_file_only, 4),
        "budget_seconds": TIME_BUDGET_SECONDS,
        "full_samples": [round(s, 4) for s in samples[True]],
        "per_file_only_samples": [round(s, 4) for s in samples[False]],
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    print()
    print(f"Whole-program lint — {file_count} files, {ROUNDS} rounds")
    print(f"  full (two-phase)  min {full:.4f} s")
    print(f"  per-file only     min {per_file_only:.4f} s")
    print(f"  project phase     ~{full - per_file_only:.4f} s")
    print(f"written to {OUTPUT.name}")

    if not os.environ.get("GRAPHALYTICS_SKIP_OVERHEAD_CHECK"):
        assert full < TIME_BUDGET_SECONDS, (
            f"full-tree lint took {full:.2f} s, budget "
            f"{TIME_BUDGET_SECONDS:.0f} s (set "
            f"GRAPHALYTICS_SKIP_OVERHEAD_CHECK=1 on noisy hardware)"
        )
