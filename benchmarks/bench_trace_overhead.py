"""Span-tracing overhead: traced vs untraced wall-clock on an S-class
matrix, recorded to ``BENCH_trace.json``.

Both arms execute the identical matrix; the traced arm runs under a
normal :class:`~repro.trace.Tracer`, the untraced arm under a disabled
one (``Tracer(enabled=False)`` — every span/counter call
short-circuits without reading the clock). The delta therefore
isolates what instrumentation itself costs: span allocation, context
stacking, and buffer appends across every engine iteration, driver
sub-phase, and scheduler transition. Measured and gated by
:func:`overhead.paired_overhead` (interleaved pairs, median of
per-pair ratios, < 5 % budget); on top of its checks, neither arm
loses jobs and only the traced arm records spans.
"""

from pathlib import Path

from overhead import MATRIX, paired_overhead
from repro.harness.config import BenchmarkConfig
from repro.runtime import RuntimeConfig, execute_matrix
from repro.trace import MonotonicClock, Tracer, use_tracer

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_trace.json"

_WALL = MonotonicClock()


def _one_round(traced: bool):
    config = BenchmarkConfig(**MATRIX)
    tracer = Tracer(enabled=traced)
    started = _WALL.now()
    with use_tracer(tracer):
        result = execute_matrix(config, RuntimeConfig(workers=1))
    elapsed = _WALL.now() - started
    assert result.lost_jobs == 0
    if traced:
        assert tracer.finished_spans()  # the traced arm actually traced
    else:
        assert tracer.finished_spans() == []
    return result, elapsed


def test_trace_overhead(benchmark):
    paired_overhead(
        benchmark, _one_round,
        base="untraced", treated="traced", cost="tracing", output=OUTPUT,
    )
