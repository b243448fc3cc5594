"""``perf`` — this repository's one repeatable performance benchmark.

``BENCHMARK.json`` at the repository root names the command, the four
workloads, the end-to-end metrics with their regression bounds and the
per-layer metrics; this package implements them. It measures the program
under ``src/repro`` strictly from outside: it times calls into public
functions and reads public results, and imports nothing from ``tests/``
or ``benchmarks/`` (those remain the paper's table and figure
reproductions). See ``perf/README.md``.
"""
