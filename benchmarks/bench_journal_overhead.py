"""Write-ahead journal overhead: journaled vs plain wall-clock on an
S-class matrix, recorded to ``BENCH_journal.json``.

Both arms persist their final database (no real run leaves results in
memory), so the delta isolates what crash safety itself costs: the
journal appends (one flush per completed job) plus the group-commit
fsyncs. Measured and gated by :func:`overhead.paired_overhead`
(interleaved pairs, median of per-pair ratios, < 5 % budget); on top
of its checks, every journaled round loses no jobs and leaves a
journal that replays as complete.
"""

import tempfile
import time
from pathlib import Path

from overhead import MATRIX, paired_overhead
from repro.harness.config import BenchmarkConfig
from repro.runtime import RunJournal, RuntimeConfig, execute_matrix

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_journal.json"


def _one_round(journaled: bool):
    config = BenchmarkConfig(**MATRIX)
    with tempfile.TemporaryDirectory() as scratch:
        run_dir = Path(scratch) / "run"
        started = time.perf_counter()
        if journaled:
            result = execute_matrix(
                config, RuntimeConfig(workers=1), run_dir=run_dir
            )
        else:
            result = execute_matrix(config, RuntimeConfig(workers=1))
            run_dir.mkdir()
            result.database.save(run_dir / "results.json")
        elapsed = time.perf_counter() - started
        assert result.lost_jobs == 0
        if journaled:
            assert RunJournal.load(run_dir).complete
        return result, elapsed


def test_journal_overhead(benchmark):
    paired_overhead(
        benchmark, _one_round,
        base="plain", treated="journaled", cost="journaling", output=OUTPUT,
    )
