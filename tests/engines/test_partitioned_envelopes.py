"""The pipes transport on ``repro.proc``: what a shard counted and how it
failed both reach the coordinator (shard counters used to be shipped
and dropped; the fail envelope used to omit them)."""

import pytest

from repro.engines.partitioned import ShardFailure, run_bfs, shard
from repro.trace import Tracer, current_tracer, use_tracer


def test_shard_counters_reach_the_coordinator(er_undirected, monkeypatch):
    original = shard.apply_product

    def counting(block, product):
        current_tracer().counter("shard.commands")
        return original(block, product)

    # Shards are forked from this process, so they inherit the patch.
    monkeypatch.setattr(shard, "apply_product", counting)
    tracer = Tracer()
    with use_tracer(tracer):
        run_bfs(er_undirected, 0, partitions=2, transport="pipes")
    computes = [
        s for s in tracer.finished_spans() if s.name == "shard-compute"
    ]
    assert computes
    assert tracer.counters["shard.commands"] == len(computes)


def test_failing_shard_ships_counters_with_its_failure(
    er_undirected, monkeypatch
):
    def failing(block, product):
        current_tracer().counter("shard.before-failure")
        raise RuntimeError("shard bug")

    monkeypatch.setattr(shard, "apply_product", failing)
    tracer = Tracer()
    with use_tracer(tracer), pytest.raises(
        ShardFailure, match="RuntimeError: shard bug"
    ):
        run_bfs(er_undirected, 0, partitions=2, transport="pipes")
    assert tracer.counters["shard.before-failure"] >= 1
    failed = [
        s for s in tracer.finished_spans()
        if s.name == "shard-compute" and s.status == "error"
    ]
    assert failed
