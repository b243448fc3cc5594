"""A shard deployment has a lifetime: made once per graph, reused by every
run, closed by the rules in docs/scaling.md § Coordinator — and by
nothing else.

Every test here fails at the commit before deployments existed (each run
forked, booted and stopped its own shards). Shard processes are found the
way an operator would find them: as live ``graphalytics-shard-*`` children
of the process that deployed them.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import get_algorithm
from repro.engines import partitioned, spmv
from repro.engines.partitioned import (
    PARTITION_STRATEGIES,
    STEP_FAULT_POINT,
    PartitionedEngine,
    ShardFailure,
    coordinator,
    deploy,
    run_algorithm,
    shard,
    undeploy,
)
from repro.trace import Tracer, use_tracer

from tests.algorithms.test_properties import random_graphs

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
TIMEOUT = 10.0
SPAWNS = "partitioned.shard-spawn"

#: (algorithm, parameters) in an order that mixes every product kind.
SEQUENCE = (
    ("bfs", {"source_vertex": 0}), ("pr", {"iterations": 6}), ("wcc", {}),
    ("lcc", {}), ("cdlp", {"iterations": 3}),
)


def shard_processes():
    """This process's live shard children, by pid."""
    return {
        child.pid: child
        for child in multiprocessing.active_children()
        if child.name.startswith("graphalytics-shard-")
    }


def gone(pid) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def kernel_bytes(graph, algorithm, params) -> bytes:
    return get_algorithm(algorithm).run(graph, params).tobytes()


class TestOneDeploymentPerGraph:
    def test_ten_runs_keep_the_same_two_shards(self, er_undirected):
        tracer = Tracer()
        pids = set()
        with use_tracer(tracer):
            for index in range(10):
                algorithm, params = SEQUENCE[index % len(SEQUENCE)]
                actual = run_algorithm(
                    er_undirected, algorithm, params, partitions=2
                )
                assert actual.tobytes() == kernel_bytes(
                    er_undirected, algorithm, params
                ), algorithm
                pids |= set(shard_processes())
        assert len(pids) == 2
        assert tracer.counters[SPAWNS] == 2
        runs = [s for s in tracer.finished_spans() if s.name == "partitioned"]
        assert [s.attributes["deployed"] for s in runs] == ["reused"] * 10
        deploys = [s for s in tracer.finished_spans() if s.name == "deploy"]
        assert [
            (s.attributes["deployed"], s.attributes["spawned"]) for s in deploys
        ] == [("fresh", 2)]

    def test_engine_and_row_blocks_are_reused_inline_too(self, er_undirected):
        options = {"partitions": 3, "strategy": "range", "transport": "inline"}
        first = deploy(er_undirected, **options)
        blocks = first._transport.blocks
        run_algorithm(er_undirected, "wcc", **options)
        assert deploy(er_undirected, **options) is first
        assert first._transport.blocks is blocks
        assert deploy(er_undirected, partitions=2, transport="inline") is not first

    def test_another_graph_closes_the_first_graphs_shards_first(
        self, er_undirected, er_directed, monkeypatch
    ):
        deploy(er_undirected, partitions=2)
        first = set(shard_processes())
        assert len(first) == 2
        still_alive_at_spawn = []
        real_spawn = coordinator._PipesTransport._spawn

        def spawn(self, shard_id, chaos=None):
            still_alive_at_spawn.append(first & set(shard_processes()))
            real_spawn(self, shard_id, chaos)

        monkeypatch.setattr(coordinator._PipesTransport, "_spawn", spawn)
        deploy(er_directed, partitions=2)
        assert still_alive_at_spawn == [set(), set()]
        assert all(gone(pid) for pid in first)
        second = set(shard_processes())
        assert len(second) == 2 and not second & first

    def test_undeploy_names_a_graph(self, er_undirected, er_directed):
        deploy(er_undirected, partitions=2)
        undeploy(er_directed)  # another graph's delete: not ours to close
        assert len(shard_processes()) == 2
        undeploy(er_undirected)
        assert not shard_processes()
        undeploy(er_undirected)  # idempotent


class TestSupervisionAcrossRuns:
    def test_idle_shard_killed_between_runs_is_respawned_once(
        self, er_undirected
    ):
        tracer = Tracer()
        with use_tracer(tracer):
            engine = deploy(er_undirected, partitions=2)
            engine.run("wcc")
            victim = sorted(shard_processes().items())[0][1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(TIMEOUT)
            assert not victim.is_alive()

            actual = engine.run("pr", {"iterations": 8})
            assert actual.tobytes() == kernel_bytes(
                er_undirected, "pr", {"iterations": 8}
            )
            assert engine.respawns == 1
            engine.run("wcc")
            assert engine.respawns == 0
        assert tracer.counters[SPAWNS] == 3

    def test_budget_is_per_run(self, er_undirected):
        """Three idle deaths over three runs never add up to the budget
        (three launches) of one."""
        engine = deploy(er_undirected, partitions=2)
        for _ in range(3):
            victim = sorted(shard_processes().items())[0][1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(TIMEOUT)
            engine.run("wcc")
            assert engine.respawns == 1

    def test_spent_budget_closes_the_deployment_and_the_next_call_redeploys(
        self, er_undirected, monkeypatch
    ):
        deploy(er_undirected, partitions=2)
        victim = sorted(shard_processes().items())[0][1]
        real_serve = shard.serve

        def serve(task_conn, result_conn, handle, *, process):
            # Forked from here on, shard 0 dies before it serves.
            if process == "shard-0":
                os._exit(1)
            real_serve(task_conn, result_conn, handle, process=process)

        with monkeypatch.context() as patch:
            patch.setattr(shard, "serve", serve)
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(TIMEOUT)
            with pytest.raises(ShardFailure, match="supervision budget"):
                run_algorithm(er_undirected, "wcc", partitions=2)
        assert not shard_processes()

        tracer = Tracer()
        with use_tracer(tracer):
            actual = run_algorithm(er_undirected, "wcc", partitions=2)
        assert actual.tobytes() == kernel_bytes(er_undirected, "wcc", {})
        assert tracer.counters[SPAWNS] == 2
        assert len(shard_processes()) == 2

    def test_exception_inside_a_loop_closes_the_deployment(
        self, er_undirected, monkeypatch
    ):
        """The abandoned product's replies may still be in the pipes: no
        later run may meet them."""
        deploy(er_undirected, partitions=2)
        before = set(shard_processes())

        def interrupted(graph, engine):
            # Send a product and leave without collecting the replies.
            for shard_id in sorted(engine._transport._children):
                engine._transport._send(shard_id, ("lcc", (), {}))
            raise RuntimeError("loop bug")

        with monkeypatch.context() as patch:
            patch.setattr(spmv, "run_wcc", interrupted)
            with pytest.raises(RuntimeError, match="loop bug"):
                run_algorithm(er_undirected, "wcc", partitions=2)
        assert all(gone(pid) for pid in before)

        actual = run_algorithm(er_undirected, "wcc", partitions=2)
        assert actual.tobytes() == kernel_bytes(er_undirected, "wcc", {})
        assert not set(shard_processes()) & before


class TestFork:
    def test_forked_child_deploys_its_own_and_the_parents_still_answers(
        self, er_undirected
    ):
        expected = kernel_bytes(er_undirected, "pr", {"iterations": 5})
        run_algorithm(er_undirected, "pr", {"iterations": 5}, partitions=2)
        parents = set(shard_processes())
        read_end, write_end = os.pipe()
        child = os.fork()
        if child == 0:
            report = {}
            try:
                os.close(read_end)
                report["inherited"] = len(partitioned._deployments)
                tracer = Tracer()
                with use_tracer(tracer):
                    actual = run_algorithm(
                        er_undirected, "pr", {"iterations": 5}, partitions=2
                    )
                report["equal"] = actual.tobytes() == expected
                report["spawned"] = tracer.counters.get(SPAWNS)
                # (the parent's Process objects came along with the fork)
                report["shards"] = sorted(set(shard_processes()) - parents)
                undeploy()
            finally:
                os.write(write_end, json.dumps(report).encode())
                os._exit(0)
        os.close(write_end)
        try:
            assert multiprocessing.connection.wait([read_end], 3 * TIMEOUT)
            report = json.loads(os.read(read_end, 65536))
        finally:
            os.close(read_end)
            os.waitpid(child, 0)
        assert report["inherited"] == 0
        assert report["equal"] is True
        assert report["spawned"] == 2
        assert len(report["shards"]) == 2
        assert not set(report["shards"]) & parents
        assert all(gone(pid) for pid in report["shards"])

        tracer = Tracer()
        with use_tracer(tracer):
            actual = run_algorithm(
                er_undirected, "pr", {"iterations": 5}, partitions=2
            )
        assert actual.tobytes() == expected
        assert SPAWNS not in tracer.counters
        assert set(shard_processes()) == parents


class TestPrivateDeployments:
    CHAOS = {
        "seed": 1,
        "faults": [
            {"point": STEP_FAULT_POINT, "kind": "kill", "after": 1, "times": 1}
        ],
    }

    def test_chaos_run_never_enters_or_disturbs_the_table(self, er_undirected):
        expected = kernel_bytes(er_undirected, "wcc", {})
        actual = run_algorithm(
            er_undirected, "wcc", partitions=2, chaos_plan=self.CHAOS
        )
        assert actual.tobytes() == expected
        assert not partitioned._deployments and not shard_processes()

        engine = deploy(er_undirected, partitions=2)
        held = set(shard_processes())
        actual = run_algorithm(
            er_undirected, "wcc", partitions=2, chaos_plan=self.CHAOS
        )
        assert actual.tobytes() == expected
        assert list(partitioned._deployments.values()) == [engine]
        assert set(shard_processes()) == held
        assert engine.run("wcc").tobytes() == expected
        assert engine.respawns == 0  # the armed shards were not these

    def test_close_twice_and_context_manager_leave_no_child(
        self, er_undirected
    ):
        engine = PartitionedEngine(er_undirected, partitions=2)
        assert not shard_processes()  # nothing starts before first use
        engine.deploy()
        pids = set(shard_processes())
        assert len(pids) == 2
        engine.close()
        engine.close()
        assert all(gone(pid) for pid in pids)

        with PartitionedEngine(er_undirected, partitions=3) as engine:
            engine.run("wcc")
            engine.run("lcc")
            pids = set(shard_processes())
            assert len(pids) == 3
        assert all(gone(pid) for pid in pids)
        assert not partitioned._deployments

        # Closed is not dead: the next use deploys again.
        assert engine.run("wcc").tobytes() == kernel_bytes(
            er_undirected, "wcc", {}
        )
        engine.close()
        assert not shard_processes()


_EXIT_WITHOUT_CLOSE = """
import multiprocessing
from repro.engines.partitioned import deploy
from repro.graph.generators import erdos_renyi

engine = deploy(erdos_renyi(60, 0.1, seed=3), partitions=2)
engine.run("wcc")
print(*(child.pid for child in multiprocessing.active_children()))
"""


def test_interpreter_exit_without_close_leaves_no_process(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    interpreter = subprocess.Popen(
        [sys.executable, "-c", _EXIT_WITHOUT_CLOSE], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    out, err = interpreter.communicate(timeout=60)
    assert interpreter.returncode == 0, err
    pids = [int(word) for word in out.split()]
    assert len(pids) == 2
    # The interpreter led its own process group: whatever it left
    # behind is still in it. Closing at exit is a stop ladder the
    # interpreter waits for, so nothing is — at once, not eventually.
    with pytest.raises(ProcessLookupError):
        os.killpg(interpreter.pid, 0)
    assert all(gone(pid) for pid in pids)


class TestSequenceDifferential:
    """Shards are stateless, which is all that reuse rests on: any
    sequence of algorithms on ONE deployment equals the kernels."""

    ALGORITHMS = ("bfs", "sssp", "wcc", "cdlp", "pr", "lcc")

    @staticmethod
    def _params(graph, algorithm):
        return {
            "bfs": {"source_vertex": int(graph.vertex_ids[0])},
            "sssp": {"source_vertex": int(graph.vertex_ids[-1])},
            "cdlp": {"iterations": 3},
            "pr": {"iterations": 4},
        }.get(algorithm, {})

    def _check(self, engine, graph, sequence):
        for algorithm in sequence:
            params = self._params(graph, algorithm)
            expected = get_algorithm(algorithm).run(graph, params)
            actual = engine.run(algorithm, params)
            assert actual.dtype == expected.dtype
            assert actual.tobytes() == expected.tobytes(), (algorithm, sequence)

    @settings(max_examples=25, deadline=None)
    @given(
        random_graphs(max_vertices=16, weighted=True),
        st.lists(st.sampled_from(ALGORITHMS), min_size=2, max_size=8),
        st.integers(1, 3),
        st.sampled_from(PARTITION_STRATEGIES),
    )
    def test_any_order_on_one_inline_deployment(
        self, graph, sequence, shards, strategy
    ):
        with PartitionedEngine(
            graph, partitions=shards, strategy=strategy, transport="inline"
        ) as engine:
            self._check(engine, graph, sequence)

    @settings(max_examples=8, deadline=None)
    @given(
        random_graphs(max_vertices=16, weighted=True),
        st.lists(st.sampled_from(ALGORITHMS), min_size=2, max_size=6),
        st.sampled_from(PARTITION_STRATEGIES),
    )
    def test_any_order_on_one_pipes_deployment(self, graph, sequence, strategy):
        tracer = Tracer()
        with use_tracer(tracer), PartitionedEngine(
            graph, partitions=2, strategy=strategy, transport="pipes"
        ) as engine:
            self._check(engine, graph, sequence)
        assert tracer.counters[SPAWNS] == 2
