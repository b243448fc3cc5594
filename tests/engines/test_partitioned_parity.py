"""Parity oracle for the sharded engine.

The partitioned engine's core contract: for every core algorithm, ANY
shard count, either partitioning strategy, and either transport, the
finalized output is **byte-identical** (through the canonical output
codec) to the numpy reference kernel. This suite is the oracle:

* the full matrix — six algorithms x miniature graphs x shard counts
  {1,2,3,4} x both strategies — on the inline transport;
* a real-process subset on the pipes transport;
* a hypothesis differential over arbitrary small graphs;
* partitioner invariants on seeded random graphs (every vertex owned
  exactly once, every cut edge mirrored on both sides, shard sizes
  within the strategy's balance bound);
* chaos: a shard SIGKILLed mid-superstep, or dying at start-up, is
  relaunched by the supervisor and the run still completes
  bit-identically; one that always dies fails the run within budget.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings

from repro.algorithms import get_algorithm
from repro.engines.partitioned import (
    PARTITION_STRATEGIES,
    STEP_FAULT_POINT,
    PartitionedEngine,
    ShardFailure,
    partition_graph,
    run_algorithm,
    shard,
)
from repro.exceptions import ConfigurationError
from repro.proc import RetryPolicy

from tests.algorithms.test_properties import random_graphs

SHARD_COUNTS = (1, 2, 3, 4)


def _first(graph):
    return {"source_vertex": int(graph.vertex_ids[0])}


def _last(graph):
    return {"source_vertex": int(graph.vertex_ids[-1])}


def _none(graph):
    return {}


#: id -> (algorithm, params, graph fixtures): two groups of parameters
#: and graphs per iterative algorithm. The ids are the ones the matrix
#: has always run under — the prefixes date from when there were two
#: interpreters to shard — so its history stays comparable.
CASES = {
    "pregel-bfs": ("bfs", _first, ("er_undirected", "er_directed", "two_triangles")),
    "gas-bfs": ("bfs", _last, ("er_undirected", "er_directed", "grid4x5")),
    "pregel-sssp": ("sssp", _first, ("er_weighted",)),
    "gas-sssp": ("sssp", _last, ("er_weighted",)),
    "pregel-wcc": ("wcc", _none, ("er_undirected", "er_directed", "two_triangles")),
    "gas-wcc": ("wcc", _none, ("grid4x5", "path5", "star6")),
    "pregel-cdlp": (
        "cdlp", lambda g: {"iterations": 5}, ("er_undirected", "er_directed"),
    ),
    "gas-cdlp": (
        "cdlp", lambda g: {"iterations": 2}, ("grid4x5", "two_triangles", "k4"),
    ),
    "pregel-pr": (
        "pr", lambda g: {"iterations": 20}, ("er_undirected", "er_directed"),
    ),
    "gas-pr": (
        "pr", lambda g: {"iterations": 7, "damping": 0.6},
        ("er_directed", "star6", "two_triangles"),
    ),
    "lcc": (
        "lcc", _none,
        ("er_undirected", "er_directed", "grid4x5", "two_triangles"),
    ),
}


def _case(case, graph):
    """(algorithm, params, the kernel's output) of one case on a graph."""
    algorithm, make_params, _ = CASES[case]
    params = make_params(graph)
    return algorithm, params, get_algorithm(algorithm).run(graph, params)


class TestParityMatrix:
    """All six algorithms x miniatures x shards 1-4 x both strategies."""

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_bit_identical(
        self, case, shards, strategy, request, canonical_bytes
    ):
        for fixture in CASES[case][2]:
            graph = request.getfixturevalue(fixture)
            algorithm, params, expected = _case(case, graph)
            actual = run_algorithm(
                graph,
                algorithm,
                params,
                partitions=shards,
                strategy=strategy,
                transport="inline",
            )
            assert actual.dtype == expected.dtype, fixture
            assert canonical_bytes(graph, actual, algorithm) == \
                canonical_bytes(graph, expected, algorithm), (
                f"{case} on {fixture}: {shards} {strategy} shard(s) "
                f"diverged from the reference kernel"
            )

    def test_model_keyword_is_validated_and_selects_nothing(self, er_undirected):
        outputs = {
            run_algorithm(
                er_undirected, "pr", partitions=2, model=model,
                transport="inline",
            ).tobytes()
            for model in ("auto", "pregel", "gas")
        }
        assert len(outputs) == 1
        with pytest.raises(ConfigurationError):
            run_algorithm(er_undirected, "pr", model="dataflow")

    def test_unknown_algorithm_and_missing_source_rejected(self, er_undirected):
        with pytest.raises(ConfigurationError):
            run_algorithm(er_undirected, "triangles", transport="inline")
        with pytest.raises(ConfigurationError):
            run_algorithm(er_undirected, "bfs", transport="inline")


class TestPipesTransport:
    """Real worker processes: the same contract over the wire."""

    @pytest.mark.parametrize("case", ["pregel-bfs", "pregel-cdlp", "gas-pr"])
    @pytest.mark.parametrize("shards", [2, 3])
    def test_bit_identical_over_pipes(
        self, case, shards, er_undirected, canonical_bytes
    ):
        graph = er_undirected
        algorithm, params, expected = _case(case, graph)
        actual = run_algorithm(
            graph, algorithm, params, partitions=shards, transport="pipes",
        )
        assert canonical_bytes(graph, actual, algorithm) == \
            canonical_bytes(graph, expected, algorithm)

    def test_sssp_weighted_over_pipes(self, er_weighted, canonical_bytes):
        algorithm, params, expected = _case("pregel-sssp", er_weighted)
        actual = run_algorithm(
            er_weighted, algorithm, params, partitions=2, transport="pipes",
        )
        assert canonical_bytes(er_weighted, actual, "sssp") == \
            canonical_bytes(er_weighted, expected, "sssp")


class TestDifferential:
    """Arbitrary small graphs: every sharding equals the kernel bytes."""

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(max_vertices=16, weighted=True))
    def test_sharded_equals_kernels(self, graph):
        source = _first(graph)
        for algorithm, params in (
            ("bfs", source), ("sssp", source), ("wcc", {}),
            ("cdlp", {"iterations": 4}), ("pr", {"iterations": 6}),
            ("lcc", {}),
        ):
            expected = get_algorithm(algorithm).run(graph, params)
            for shards in (1, 2, 3):
                for strategy in PARTITION_STRATEGIES:
                    actual = run_algorithm(
                        graph, algorithm, params, partitions=shards,
                        strategy=strategy, transport="inline",
                    )
                    assert actual.dtype == expected.dtype
                    assert actual.tobytes() == expected.tobytes(), (
                        algorithm, shards, strategy
                    )


class TestPartitionerInvariants:
    """Property tests over seeded random graphs (satellite 1)."""

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(max_vertices=24))
    def test_invariants_hold(self, graph):
        for shards in (1, 2, 3):
            for strategy in PARTITION_STRATEGIES:
                pset = partition_graph(graph, shards, strategy)
                self._check(graph, pset)

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_invariants_on_miniatures(
        self, er_directed, shards, strategy
    ):
        self._check(er_directed, partition_graph(er_directed, shards, strategy))

    @staticmethod
    def _check(graph, pset):
        n = graph.num_vertices
        # Every vertex owned exactly once: the shards' owned arrays
        # partition [0, n), and the owner map agrees with them.
        seen = np.concatenate([s.owned for s in pset.shards]) \
            if pset.shards else np.empty(0, dtype=np.int64)
        assert sorted(seen.tolist()) == list(range(n))
        for shard in pset.shards:
            assert all(pset.owner_of(int(v)) == shard.shard_id
                       for v in shard.owned)
            # Shard sizes within the strategy's balance bound.
            assert shard.size <= pset.balance_bound()
        # Every cut edge mirrored on BOTH incident shards.
        mirrors = [set(s.mirrors.tolist()) for s in pset.shards]
        counted = 0
        for u, v in zip(graph.edge_src.tolist(), graph.edge_dst.tolist()):
            if pset.owner_of(u) == pset.owner_of(v):
                continue
            counted += 1
            assert v in mirrors[pset.owner_of(u)]
            assert u in mirrors[pset.owner_of(v)]
        assert counted == pset.cut_edges
        assert 0.0 <= pset.cut_fraction <= 1.0
        # Mirrors are never owned by the shard that mirrors them.
        for shard in pset.shards:
            assert not set(shard.owned.tolist()) & set(shard.mirrors.tolist())

    def test_single_shard_owns_everything(self, er_undirected):
        pset = partition_graph(er_undirected, 1)
        assert pset.shards[0].size == er_undirected.num_vertices
        assert pset.cut_edges == 0
        assert len(pset.shards[0].mirrors) == 0

    def test_hash_stable_across_calls(self, er_undirected):
        a = partition_graph(er_undirected, 3, "hash")
        b = partition_graph(er_undirected, 3, "hash")
        assert np.array_equal(a.owner, b.owner)

    def test_range_blocks_contiguous(self, er_undirected):
        pset = partition_graph(er_undirected, 3, "range")
        for shard in pset.shards:
            owned = shard.owned
            assert np.array_equal(
                owned, np.arange(owned[0], owned[-1] + 1)
            )

    def test_rejects_bad_inputs(self, er_undirected):
        with pytest.raises(ConfigurationError):
            partition_graph(er_undirected, 0)
        with pytest.raises(ConfigurationError):
            partition_graph(er_undirected, 2, "random")


class TestExchangeDeterminism:
    """Every placement reduces each row in the same slot order."""

    def test_engine_state_identical_across_strategies_and_shards(
        self, er_undirected
    ):
        # End-to-end restatement: the delivered-state determinism above
        # is what makes every placement agree bitwise.
        outputs = {
            run_algorithm(
                er_undirected, "pr", {"iterations": 15},
                partitions=shards, strategy=strategy, transport="inline",
            ).tobytes()
            for shards in SHARD_COUNTS
            for strategy in PARTITION_STRATEGIES
        }
        assert len(outputs) == 1


class TestChaosSupervision:
    """Kill a shard; the run must still be bit-perfect — or fail loudly."""

    def _chaos_plan(self, after):
        return {
            "seed": 1,
            "faults": [
                {
                    "point": STEP_FAULT_POINT,
                    "kind": "kill",
                    "after": after,
                    "times": 1,
                }
            ],
        }

    def test_killed_shard_relaunched_bit_identical(self, er_undirected):
        expected = get_algorithm("pr").run(er_undirected, {"iterations": 20})
        engine = PartitionedEngine(
            er_undirected,
            partitions=2,
            transport="pipes",
            chaos_plan=self._chaos_plan(after=2),
        )
        actual = engine.run("pr", {"iterations": 20})
        assert engine.respawns >= 1, "chaos plan never fired"
        assert actual.tobytes() == expected.tobytes()
        assert actual.dtype == expected.dtype

    def test_kill_during_gas_rounds(self, er_undirected):
        expected = get_algorithm("wcc").run(er_undirected)
        engine = PartitionedEngine(
            er_undirected,
            partitions=2,
            transport="pipes",
            chaos_plan=self._chaos_plan(after=1),
        )
        actual = engine.run("wcc")
        assert engine.respawns >= 1
        assert actual.tobytes() == expected.tobytes()

    @staticmethod
    def _dying_serve(monkeypatch, should_die):
        """Make shard 0 ``os._exit`` before serving its first command
        whenever ``should_die()`` (shards fork from this process, so
        they inherit the patch)."""
        real_serve = shard.serve

        def serve(task_conn, result_conn, handle, *, process):
            if process == "shard-0" and should_die():
                os._exit(1)
            real_serve(task_conn, result_conn, handle, process=process)

        monkeypatch.setattr(shard, "serve", serve)

    def test_shard_dying_at_startup_is_respawned(
        self, er_undirected, tmp_path, monkeypatch
    ):
        flag = tmp_path / "died-once"

        def first_time_only():
            if flag.exists():
                return False
            flag.touch()
            return True

        self._dying_serve(monkeypatch, first_time_only)
        engine = PartitionedEngine(er_undirected, partitions=2, transport="pipes")
        actual = engine.run("wcc")
        assert engine.respawns == 1
        assert actual.tobytes() == get_algorithm("wcc").run(er_undirected).tobytes()

    def test_shard_that_always_dies_fails_within_budget(
        self, er_undirected, monkeypatch
    ):
        self._dying_serve(monkeypatch, lambda: True)
        engine = PartitionedEngine(
            er_undirected, partitions=2, transport="pipes",
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
        )
        with pytest.raises(ShardFailure, match="supervision budget"):
            engine.run("wcc")
        assert engine.respawns == 2
