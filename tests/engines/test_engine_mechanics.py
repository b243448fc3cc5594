"""Tests for the execution mechanics of the three engines themselves."""

import numpy as np
import pytest

from repro.engines.gas import GASEngine, GASProgram
from repro.engines.pregel import PregelEngine, VertexProgram
from repro.engines.spmv import MIN_PLUS, OR_AND, PLUS_TIMES, SpMVEngine
from repro.graph.generators import path_graph, star_graph
from repro.graph.graph import Graph

from tests.engines.conftest import min_id_gas_program


class TestPregelMechanics:
    def test_supersteps_counted(self, path5):
        from repro.engines.pregel import bfs_program

        program, _ = bfs_program(path5, 0)
        _, supersteps = PregelEngine(path5).run(program)
        # A 5-vertex path needs the initial superstep plus one wave per
        # level plus the final quiet step.
        assert 5 <= supersteps <= 6

    def test_halted_vertices_not_recomputed(self):
        calls = []

        def init(g, v):
            return 0

        def compute(ctx, messages):
            calls.append((ctx.superstep, ctx.vertex))
            ctx.vote_to_halt()

        graph = path_graph(3)
        PregelEngine(graph).run(VertexProgram("noop", init, compute))
        # Everyone halts in superstep 0 and never runs again.
        assert {s for s, _ in calls} == {0}

    def test_message_reactivates_halted_vertex(self):
        log = []

        def init(g, v):
            return None

        def compute(ctx, messages):
            log.append((ctx.superstep, ctx.vertex, tuple(messages)))
            if ctx.superstep == 0 and ctx.vertex == 0:
                ctx.send_message_to(1, "wake")
            ctx.vote_to_halt()

        PregelEngine(path_graph(3)).run(VertexProgram("wake", init, compute))
        woken = [entry for entry in log if entry[0] == 1]
        assert woken == [(1, 1, ("wake",))]

    def test_superstep_limit_respected(self):
        def init(g, v):
            return 0

        def compute(ctx, messages):
            ctx.send_message_to(ctx.vertex, "again")  # never quiesces

        _, supersteps = PregelEngine(path_graph(2)).run(
            VertexProgram("loop", init, compute), superstep_limit=7
        )
        assert supersteps == 7


class TestGASMechanics:
    def test_active_set_drains(self, path5):
        program = min_id_gas_program()
        values, rounds = GASEngine(path5).run_active_set(program)
        assert values == [0] * 5
        assert rounds <= 6

    def test_unchanged_apply_does_not_scatter(self):
        # A program whose apply never changes values converges in one round.
        program = GASProgram(
            name="fixed",
            init=lambda g, v: 1,
            gather=lambda u, w: u,
            gather_sum=lambda a, b: a + b,
            gather_zero=0,
            apply=lambda old, gathered: old,
        )
        _, rounds = GASEngine(star_graph(4)).run_active_set(program)
        assert rounds == 1

    def test_synchronous_uses_snapshot(self):
        # In a synchronous sweep on a path, values shift by exactly one
        # hop per iteration (no same-iteration chaining).
        g = Graph.from_edges([(0, 1), (1, 2)], directed=True)
        program = GASProgram(
            name="shift",
            init=lambda graph, v: 1.0 if v == 0 else 0.0,
            gather=lambda u, w: u,
            gather_sum=lambda a, b: a + b,
            gather_zero=0.0,
            apply=lambda old, gathered: gathered,
        )
        values = GASEngine(g).run_synchronous(program, 1)
        assert values == [0.0, 1.0, 0.0]
        values = GASEngine(g).run_synchronous(program, 2)
        assert values == [0.0, 0.0, 1.0]

    def test_max_rounds_guard(self):
        # An oscillating program terminates at the round bound.
        program = GASProgram(
            name="flip",
            init=lambda g, v: 0,
            gather=lambda u, w: u,
            gather_sum=lambda a, b: a + b,
            gather_zero=0,
            apply=lambda old, gathered: 1 - old,
        )
        _, rounds = GASEngine(path_graph(3)).run_active_set(
            program, max_rounds=5
        )
        assert rounds == 5


class TestSpMVMechanics:
    def test_plus_times_is_matrix_vector(self):
        # On a directed star 0 -> {1,2,3}, pushing x[0]=2 lands 2 at
        # each leaf.
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3)], directed=True)
        engine = SpMVEngine(g)
        x = np.array([2.0, 0.0, 0.0, 0.0])
        y = engine.spmv(x, PLUS_TIMES, unit_weights=True)
        assert y.tolist() == [0.0, 2.0, 2.0, 2.0]

    def test_min_plus_uses_weights(self):
        g = Graph.from_edges([(0, 1)], directed=True, weights=[3.5])
        engine = SpMVEngine(g)
        x = np.array([1.0, np.inf])
        y = engine.spmv(x, MIN_PLUS)
        assert y[g.index_of(1)] == pytest.approx(4.5)
        assert np.isinf(y[g.index_of(0)])

    def test_or_and_reachability(self):
        g = Graph.from_edges([(0, 1), (1, 2)], directed=True)
        engine = SpMVEngine(g)
        x = np.array([1.0, 0.0, 0.0])
        one_hop = engine.spmv(x, OR_AND, unit_weights=True)
        assert one_hop.tolist() == [0.0, 1.0, 0.0]

    def test_reverse_product(self):
        g = Graph.from_edges([(0, 1)], directed=True)
        engine = SpMVEngine(g)
        x = np.array([0.0, 5.0])
        y = engine.spmv(x, PLUS_TIMES, reverse=True, unit_weights=True)
        assert y.tolist() == [5.0, 0.0]

    def test_undirected_symmetric(self, cycle8):
        engine = SpMVEngine(cycle8)
        x = np.ones(8)
        y = engine.spmv(x, PLUS_TIMES, unit_weights=True)
        assert np.allclose(y, 2.0)  # every vertex hears both neighbors

    @pytest.mark.parametrize("fixture", ["er_undirected", "er_directed"])
    @pytest.mark.parametrize("stride", [1, 1 << 33], ids=["uint32-key", "int64-key"])
    def test_label_mode_row_blocks_union_to_the_full_product(
        self, fixture, stride, request
    ):
        # The sharded CDLP contract: a row block hears, for its rows,
        # exactly what the full engine hears — with labels that are
        # external ids past 2**53 (distinct as int64, equal as float64),
        # close together or spread past what a 32-bit key holds.
        graph = request.getfixturevalue(fixture)
        n = graph.num_vertices
        labels = (1 << 53) + stride * (np.arange(n, dtype=np.int64)[::-1] // 3)
        full = SpMVEngine(graph).label_mode(labels)
        assert full.dtype == np.int64
        assert (full >= 1 << 53).any()
        union = np.full(n, -1, dtype=np.int64)
        for block in (np.arange(0, n, 2), np.arange(1, n, 2)):
            part = SpMVEngine(graph, rows=block).label_mode(labels)
            outside = np.ones(n, dtype=bool)
            outside[block] = False
            assert (part[outside] == -1).all()
            union[block] = part[block]
        assert union.tobytes() == full.tobytes()


class TestEngineCallAdapter:
    """``engine_call``: one (acronym, benchmark parameters) -> front-end
    map for every engine module and for the sharded product engine."""

    def test_binds_only_the_parameters_given(self, engine, path5):
        from repro.engines import engine_call

        call = engine_call(engine, "pr", {"iterations": 3})
        assert call.func is engine.run_pagerank
        assert call.keywords == {"iterations": 3}  # damping: engine's own
        assert np.array_equal(call(path5), engine.run_pagerank(path5, 3))
        bfs = engine_call(engine, "BFS", {"source_vertex": 0})
        assert list(bfs(path5)) == [0, 1, 2, 3, 4]

    def test_rejects_what_it_cannot_map(self, engine):
        from repro.engines import engine_call
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="source_vertex"):
            engine_call(engine, "sssp", {})
        with pytest.raises(ConfigurationError, match="unknown parameters"):
            engine_call(engine, "cdlp", {"damping": 0.5})
        with pytest.raises(ConfigurationError, match="no engine front-end"):
            engine_call(engine, "lcc")

    def test_extra_keywords_pass_through(self, path5):
        from repro.engines import engine_call, spmv

        class CountingEngine(SpMVEngine):
            products = 0

            def spmv(self, *args, **kwargs):
                self.products += 1
                return super().spmv(*args, **kwargs)

        counting = CountingEngine(path5)
        call = engine_call(spmv, "wcc", graph=path5, engine=counting)
        assert np.array_equal(call(), spmv.run_wcc(path5))
        assert counting.products > 0
