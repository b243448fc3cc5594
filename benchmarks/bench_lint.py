"""Whole-program lint wall time over ``src/repro``, recorded to
``BENCH_lint.json``.

The two-phase engine parses every module, builds the project model
(symbol tables, call graph, worker- and handler-reachability closures)
and then runs every rule in the registry (``rules`` in the payload) —
per-file and interprocedural — over the full tree. Lint has one mode,
so this is the run the CI lint leg, the ``selfcheck`` lint probe and
``graphalytics lint`` make. The gate asserts it stays under
``TIME_BUDGET_SECONDS`` so the CI lint leg (and a pre-commit habit)
remains cheap as the tree grows.

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

from repro.lint import LintConfig, LintEngine, all_rules

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT = REPO_ROOT / "BENCH_lint.json"
TARGET = REPO_ROOT / "src" / "repro"
ROUNDS = 5
TIME_BUDGET_SECONDS = 10.0


def _one_round():
    config = LintConfig(REPO_ROOT)
    started = time.perf_counter()
    findings = LintEngine(config).run([TARGET])
    elapsed = time.perf_counter() - started
    # The shipped tree lints clean; a finding here means the bench is
    # measuring a broken tree, not lint performance.
    assert findings == [], [(f.rule_id, f.path, f.line) for f in findings]
    return elapsed


def test_full_tree_lint_wall_time(benchmark):
    _one_round()  # warm import/parse caches

    def rounds():
        return [_one_round() for _ in range(ROUNDS)]

    samples = benchmark.pedantic(rounds, rounds=1, iterations=1)

    full = min(samples)
    rules = len(all_rules())
    file_count = len(
        LintEngine(LintConfig(REPO_ROOT)).collect_files([TARGET])
    )

    payload = {
        "target": "src/repro",
        "files": file_count,
        "rules": rules,
        "rounds": ROUNDS,
        "full_min_seconds": round(full, 4),
        "budget_seconds": TIME_BUDGET_SECONDS,
        "full_samples": [round(s, 4) for s in samples],
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    print()
    print(f"Whole-program lint — {file_count} files, {rules} rules, "
          f"{ROUNDS} rounds")
    print(f"  min {full:.4f} s")
    print(f"written to {OUTPUT.name}")

    if not os.environ.get("GRAPHALYTICS_SKIP_OVERHEAD_CHECK"):
        assert full < TIME_BUDGET_SECONDS, (
            f"full-tree lint took {full:.2f} s, budget "
            f"{TIME_BUDGET_SECONDS:.0f} s (set "
            f"GRAPHALYTICS_SKIP_OVERHEAD_CHECK=1 on noisy hardware)"
        )
