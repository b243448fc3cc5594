"""One shard: per-partition execution state and the worker entrypoint.

:class:`ShardState` is the whole of a shard's behavior — build the
local program from the spec, run one Pregel superstep / GAS round /
GAS sweep / PR gather / LCC slice over the *owned* vertices, and pack
the results for the barrier. It is transport-agnostic: the inline
transport calls it in-process (fast deterministic tests), and
:func:`shard_main` runs it under :func:`repro.proc.serve` (the same
supervised-child loop as the runtime pool's workers), adding a
``partitioned.shard.step`` fault-point check that lets a chaos plan
SIGKILL the shard mid-superstep.

Bit-identity invariants enforced here:

* owned vertices are processed in ascending dense-index order, so the
  union of shard worksets is processed in exactly the sequential
  engine's order;
* aggregator contributions are *recorded raw* (never pre-folded on the
  shard) as ``(vertex, seq, value)`` — the coordinator folds them in
  global sorted order from the aggregator's initial value, reproducing
  the sequential fold even for non-associative float addition;
* GAS rounds gather against the last-barrier value table (pure Jacobi)
  — never a mid-round update — so results cannot depend on which shard
  a neighbor landed on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engines.gas import GASEngine
from repro.engines.partitioned.exchange import MessageBatch, Outbox, deliver
from repro.engines.partitioned.programs import (
    GasPlan,
    ProgramSpec,
    build_gas_plan,
    build_pregel_program,
)
from repro.engines.pregel import Aggregator, VertexContext
from repro.exceptions import ConfigurationError
from repro.faults.points import check
from repro.graph.graph import Graph
from repro.proc import serve
from repro.trace import current_tracer

__all__ = ["STEP_FAULT_POINT", "ShardState", "shard_main", "graph_payload", "graph_from_payload"]

#: Name in :data:`repro.faults.points.FAULT_POINTS`; checked before each
#: compute command so a chaos plan can kill a shard mid-superstep.
STEP_FAULT_POINT = "partitioned.shard.step"


def graph_payload(graph: Graph) -> Dict[str, object]:
    """The constructor arrays of a graph, as a picklable dict."""
    return {
        "vertex_ids": graph.vertex_ids,
        "src": graph.edge_src,
        "dst": graph.edge_dst,
        "directed": graph.directed,
        "weights": graph.edge_weights,
        "name": graph.name,
    }


def graph_from_payload(payload: Dict[str, object]) -> Graph:
    return Graph(
        vertex_ids=payload["vertex_ids"],
        src=payload["src"],
        dst=payload["dst"],
        directed=bool(payload["directed"]),
        weights=payload["weights"],
        name=str(payload["name"]),
    )


class ShardState:
    """Execution state of one shard for one partitioned run."""

    def __init__(
        self,
        graph: Graph,
        shard_id: int,
        owned: Sequence[int],
        owner: np.ndarray,
        num_shards: int,
        spec: ProgramSpec,
    ):
        self.graph = graph
        self.shard_id = int(shard_id)
        self.owned = sorted(int(v) for v in owned)
        self.owner = np.asarray(owner, dtype=np.int64)
        self.num_shards = int(num_shards)
        self.spec = spec
        self.model = spec.model

        if self.model == "pregel":
            self.program, _ = build_pregel_program(spec, graph)
            self.values: Dict[int, object] = {
                v: self.program.init(graph, v) for v in self.owned
            }
            self.active = set(self.owned)
            # Recording aggregator defs: `ctx.aggregate` folds into
            # `_aggregated_next[name]` with the def's combine — tuple
            # append records raw contributions instead of folding, so
            # the coordinator can fold them in the global order.
            self._recording_defs = {
                name: Aggregator(initial=(), combine=lambda acc, value: acc + (value,))
                for name in self.program.aggregators
            }
        elif self.model == "gas":
            self.plan: GasPlan = build_gas_plan(spec, graph)
            self._gas_engine = GASEngine(graph)
            if self.plan.mode != "pr":
                # Every shard derives the same full value table from the
                # deterministic init; the barrier keeps them in lockstep.
                self.table: List[object] = [
                    self.plan.program.init(graph, v)
                    for v in range(graph.num_vertices)
                ]
            self.gas_active = set(self.owned)
        elif self.model == "lcc":
            pass
        else:
            raise ConfigurationError(
                f"unknown partitioned execution model {self.model!r}"
            )

    # -- command dispatch --------------------------------------------------

    def apply_command(self, payload: Dict[str, object]) -> Dict[str, object]:
        cmd = payload["cmd"]
        if cmd == "step":
            return self.pregel_superstep(
                int(payload["superstep"]),
                dict(payload["aggregated"]),
                list(payload["batches"]),
            )
        if cmd == "gas-round":
            return self.gas_round(
                list(payload["updates"]), list(payload["activate"])
            )
        if cmd == "gas-sweep":
            return self.gas_sweep(list(payload["updates"]))
        if cmd == "pr-gather":
            return self.pr_gather(list(payload["contrib"]))
        if cmd == "lcc":
            return self.lcc()
        if cmd == "collect":
            return self.collect()
        raise ConfigurationError(f"unknown shard command {cmd!r}")

    # -- pregel ------------------------------------------------------------

    def pregel_superstep(
        self,
        superstep: int,
        aggregated: Dict[str, object],
        batches: List[MessageBatch],
    ) -> Dict[str, object]:
        """Run one superstep over the owned slice of the workset."""
        graph = self.graph
        program = self.program
        inbox = deliver(batches, program.combiner)
        outbox = Outbox(
            self.owner, self.num_shards, self.shard_id, superstep,
            program.combiner,
        )
        contributions: List[Tuple[str, int, int, object]] = []
        next_active = set()
        workset = sorted(self.active | set(inbox))
        for v in workset:
            recording_next = {name: () for name in self._recording_defs}
            nbrs, weights = graph.out_edges(v)
            ctx = VertexContext(
                graph=graph,
                vertex=v,
                vertex_id=int(graph.vertex_ids[v]),
                superstep=superstep,
                value=self.values[v],
                num_vertices=graph.num_vertices,
                out_neighbors=nbrs,
                out_weights=weights,
                _aggregator_defs=self._recording_defs,
                _aggregated_prev=aggregated,
                _aggregated_next=recording_next,
            )
            program.compute(ctx, inbox.get(v, []))
            self.values[v] = ctx.value
            for target, message in ctx._outbox:
                outbox.send(v, target, message)
            if not ctx._halted:
                next_active.add(v)
            for name in sorted(recording_next):
                for seq, value in enumerate(recording_next[name]):
                    contributions.append((name, v, seq, value))
        self.active = next_active
        return {
            "batches": outbox.batches(),
            "contributions": contributions,
            "active": bool(next_active),
            "messages_sent": outbox.messages_sent,
        }

    # -- gas ---------------------------------------------------------------

    def gas_round(
        self,
        updates: List[Tuple[int, object]],
        activate: List[int],
    ) -> Dict[str, object]:
        """One active-set round over the owned active vertices.

        ``updates`` are last round's global value changes (broadcast to
        every shard); ``activate`` the owned vertices whose gather
        neighbors changed. Gather reads only the post-update table, and
        changes are *not* applied locally mid-round — Jacobi within the
        round, so any shard count sees identical neighbor values.
        """
        program = self.plan.program
        for v, value in updates:
            self.table[int(v)] = value
        self.gas_active |= {int(v) for v in activate}
        changes: List[Tuple[int, object]] = []
        activations = set()
        for v in sorted(self.gas_active):
            gathered = program.gather_zero
            for u, weight in self._gas_engine._gather_edges(
                v, program.both_directions
            ):
                gathered = program.gather_sum(
                    gathered, program.gather(self.table[u], weight)
                )
            new_value = program.apply(self.table[v], gathered)
            if new_value != self.table[v]:
                changes.append((v, new_value))
                activations.update(
                    int(t)
                    for t in self._gas_engine._scatter_targets(
                        v, program.both_directions
                    )
                )
        self.gas_active = set()
        return {"changes": changes, "activations": sorted(activations)}

    def gas_sweep(self, updates: List[Tuple[int, object]]) -> Dict[str, object]:
        """One synchronous sweep: apply all owned vertices vs the snapshot."""
        program = self.plan.program
        for v, value in updates:
            self.table[int(v)] = value
        changes: List[Tuple[int, object]] = []
        for v in self.owned:
            gathered = program.gather_zero
            for u, weight in self._gas_engine._gather_edges(
                v, program.both_directions
            ):
                gathered = program.gather_sum(
                    gathered, program.gather(self.table[u], weight)
                )
            changes.append((v, program.apply(self.table[v], gathered)))
        return {"changes": changes}

    def pr_gather(self, contrib: List[float]) -> Dict[str, object]:
        """PageRank gather kernel: fold contributions over in-edges.

        Reproduces the sequential sweep's fold exactly — start from 0.0
        and add ``contrib[u]`` in in-CSR order — so the coordinator's
        rank update sees bit-identical gathered values.
        """
        gathered: List[Tuple[int, float]] = []
        for v in self.owned:
            total = 0.0
            for u, _ in self._gas_engine._gather_edges(v, False):
                total = total + contrib[u]
            gathered.append((v, total))
        return {"gathered": gathered}

    # -- lcc ---------------------------------------------------------------

    def lcc(self) -> Dict[str, object]:
        from repro.algorithms.lcc import local_clustering_coefficient

        values = local_clustering_coefficient(self.graph, vertices=self.owned)
        return {"values": [(v, float(values[v])) for v in self.owned]}

    # -- merge / supervision ----------------------------------------------

    def collect(self) -> Dict[str, object]:
        """Final owned values, for the coordinator's deterministic merge."""
        if self.model == "pregel":
            return {"values": [(v, self.values[v]) for v in self.owned]}
        if self.model == "gas" and self.plan.mode != "pr":
            return {"values": [(v, self.table[v]) for v in self.owned]}
        return {"values": []}

    def snapshot(self) -> Dict[str, object]:
        """Barrier-time picklable state, enough to rebuild this shard.

        Rides every reply envelope; the coordinator re-inits a
        replacement worker from the last barrier's snapshot plus the
        retained in-flight command when a shard dies mid-superstep.
        """
        if self.model == "pregel":
            return {
                "values": [(v, self.values[v]) for v in self.owned],
                "active": sorted(self.active),
            }
        if self.model == "gas" and self.plan.mode != "pr":
            return {
                "table": list(self.table),
                "active": sorted(self.gas_active),
            }
        return {}

    def restore(self, snapshot: Dict[str, object]) -> None:
        if not snapshot:
            return
        if self.model == "pregel":
            self.values = {int(v): value for v, value in snapshot["values"]}
            self.active = {int(v) for v in snapshot["active"]}
        elif self.model == "gas" and self.plan.mode != "pr":
            self.table = list(snapshot["table"])
            self.gas_active = {int(v) for v in snapshot["active"]}


def shard_main(task_conn, result_conn, shard_id: int) -> None:
    """Shard worker entrypoint: the command body that
    :func:`repro.proc.serve` loops over until the sentinel.

    Every reply carries a barrier-time snapshot for supervision. Every
    exception becomes a structured failure envelope (RUN001) — except
    the chaos kill, which is the point.
    """
    state: Optional[ShardState] = None

    def run_command(payload: Dict[str, object], reply: Dict[str, object]) -> None:
        nonlocal state
        cmd = payload["cmd"]
        reply["shard"] = shard_id
        reply["cmd"] = cmd
        if cmd == "init":
            chaos = payload.get("chaos")
            if chaos is not None:
                from repro.faults.points import IoFaultPlan, install_io_plan

                install_io_plan(IoFaultPlan.from_dict(chaos))
            state = ShardState(
                graph_from_payload(payload["graph"]),
                shard_id,
                payload["owned"],
                payload["owner"],
                int(payload["num_shards"]),
                payload["spec"],
            )
            restore = payload.get("restore")
            if restore:
                state.restore(restore)
            reply["body"] = {"ok": True}
        else:
            # The chaos plane's hook: a kill-kind fault here is a
            # shard dying between the barrier and its compute.
            check(STEP_FAULT_POINT)
            with current_tracer().span(
                "shard-compute", shard=shard_id, cmd=cmd,
                superstep=payload.get("superstep"),
            ):
                reply["body"] = state.apply_command(payload)
        reply["snapshot"] = state.snapshot() if state is not None else {}

    serve(task_conn, result_conn, run_command, process=f"shard-{shard_id}")
