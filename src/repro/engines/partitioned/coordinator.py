"""The partitioned coordinator: barriers, routing, merge, supervision.

:class:`PartitionedEngine` drives shards through superstep-synchronous
barriers. Each barrier:

1. **compute** — every shard runs its slice (a ``shard-compute`` span,
   rebased onto the coordinator's timeline via the clock-offset
   handshake);
2. **exchange** — the coordinator routes outbound message batches to
   their destination shards and folds aggregator contributions in
   global sorted order (an ``exchange`` span);
3. **barrier-wait** — per shard, the gap between its reply and the
   slowest shard's reply (one ``barrier-wait`` span per shard): the
   straggler cost that strong-scaling curves are made of.

Two transports run the same :class:`~repro.engines.partitioned.shard.
ShardState` logic: ``inline`` (in-process, for fast deterministic
tests) and ``pipes`` (one :class:`repro.proc.Child` per shard). The
pipes transport is supervised: every reply carries a barrier-time
snapshot, so when a shard dies mid-superstep (crash, OOM kill, chaos
plan) the coordinator respawns it, restores the last snapshot, re-sends
the in-flight command — bounded by a :class:`~repro.proc.RetryPolicy`
budget — and the run completes bit-identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engines.partitioned.exchange import MessageBatch
from repro.engines.partitioned.partition import PartitionSet, partition_graph
from repro.engines.partitioned.programs import (
    ProgramSpec,
    build_gas_plan,
    build_pregel_program,
)
from repro.engines.partitioned.shard import (
    ShardState,
    graph_payload,
    shard_main,
)
from repro.exceptions import ConfigurationError, GraphalyticsError
from repro.graph.graph import Graph
from repro.proc import Child, RetryPolicy, absorb, stop_all, wait_any
from repro.trace import Span, current_tracer

__all__ = ["PartitionedEngine", "ShardFailure"]


class ShardFailure(GraphalyticsError):
    """A shard failed permanently (bug, or supervision budget spent)."""


class _InlineTransport:
    """Shards as in-process objects: same logic, no processes.

    The parity matrix runs through this — partition, exchange, merge,
    and termination behavior are identical to pipes; only the process
    boundary (and therefore supervision) is elided.
    """

    def __init__(self, graph: Graph, partition_set: PartitionSet, spec: ProgramSpec):
        self.shards: Dict[int, ShardState] = {
            p.shard_id: ShardState(
                graph, p.shard_id, p.owned, partition_set.owner,
                partition_set.num_shards, spec,
            )
            for p in partition_set.shards
        }

    def exchange(
        self, commands: Dict[int, Dict[str, object]], parent_span=None
    ) -> Dict[int, Dict[str, object]]:
        tracer = current_tracer()
        bodies: Dict[int, Dict[str, object]] = {}
        for shard_id in sorted(commands):
            with tracer.span(
                "shard-compute", shard=shard_id,
                cmd=commands[shard_id]["cmd"],
                superstep=commands[shard_id].get("superstep"),
            ):
                bodies[shard_id] = self.shards[shard_id].apply_command(
                    commands[shard_id]
                )
        return bodies

    def shutdown(self) -> None:
        self.shards.clear()


class _PipesTransport:
    """Shards as :class:`repro.proc.Child` processes, supervised."""

    def __init__(
        self,
        graph: Graph,
        partition_set: PartitionSet,
        spec: ProgramSpec,
        *,
        retry: RetryPolicy,
        chaos_plan: Optional[Dict[str, object]] = None,
    ):
        self.partition_set = partition_set
        self.spec = spec
        self.retry = retry
        self.clock = current_tracer().clock
        self._graph_payload = graph_payload(graph)
        self._children: Dict[int, Child] = {}
        self._attempts: Dict[int, int] = {}
        self._snapshots: Dict[int, Dict[str, object]] = {}
        self.respawns = 0
        for p in partition_set.shards:
            self._attempts[p.shard_id] = 1
            # First launch arms the chaos plan; relaunches never re-arm
            # it (fault counters are per-process — re-arming would kill
            # every attempt and defeat supervision).
            self._spawn(p.shard_id, chaos=chaos_plan)
        self._await_replies(dict.fromkeys(self._children, None), parent_span=None)

    # -- process lifecycle -------------------------------------------------

    def _spawn(self, shard_id: int, *, chaos=None, restore=None) -> Child:
        """(Re)launch one shard process and send it its init command."""
        dead = self._children.get(shard_id)
        if dead is not None:
            dead.close()
        child = Child(
            f"graphalytics-shard-{shard_id}",
            target=shard_main,
            args=(shard_id,),
        )
        self._children[shard_id] = child
        partition = self.partition_set.shards[shard_id]
        child.send(
            {
                "cmd": "init",
                "graph": self._graph_payload,
                "owned": partition.owned,
                "owner": self.partition_set.owner,
                "num_shards": self.partition_set.num_shards,
                "spec": self.spec,
                "chaos": chaos,
                "restore": restore,
            }
        )
        return child

    # -- supervised exchange ----------------------------------------------

    def exchange(
        self, commands: Dict[int, Dict[str, object]], parent_span=None
    ) -> Dict[int, Dict[str, object]]:
        for shard_id in sorted(commands):
            self._children[shard_id].send(commands[shard_id])
        return self._await_replies(commands, parent_span=parent_span)

    def _await_replies(
        self,
        outstanding: Dict[int, Optional[Dict[str, object]]],
        *,
        parent_span,
    ) -> Dict[int, Dict[str, object]]:
        """Collect one reply per shard, supervising deaths.

        ``outstanding`` maps shard id -> the in-flight command (``None``
        during init, which needs no resend payload — a shard that dies
        in init is re-inited directly). Emits per-shard ``barrier-wait``
        spans once the last reply lands.
        """
        tracer = current_tracer()
        outstanding = dict(outstanding)
        bodies: Dict[int, Dict[str, object]] = {}
        arrivals: Dict[int, float] = {}
        while outstanding:
            waiting = [self._children[s] for s in sorted(outstanding)]
            for _child, envelope in wait_any(waiting, 0.25):
                self._ingest(
                    envelope, bodies, arrivals, outstanding, parent_span,
                    tracer,
                )
            for shard_id in sorted(outstanding):
                child = self._children[shard_id]
                if child.alive():
                    continue
                # Dead — but drain any reply that beat the death.
                envelope = child.recv() if child.poll(0) else None
                if envelope is not None:
                    self._ingest(
                        envelope, bodies, arrivals, outstanding,
                        parent_span, tracer,
                    )
                else:
                    self._supervise(shard_id, outstanding.get(shard_id))
        if parent_span is not None and arrivals:
            barrier_end = max(arrivals.values())
            for shard_id, arrived in sorted(arrivals.items()):
                tracer.record(
                    Span(
                        name="barrier-wait",
                        span_id=tracer._new_id(),
                        trace_id=tracer.trace_id,
                        parent_id=parent_span.span_id,
                        start=arrived,
                        end=barrier_end,
                        process=tracer.process,
                        attributes={"shard": shard_id},
                    )
                )
        return bodies

    def _ingest(
        self, envelope, bodies, arrivals, outstanding, parent_span, tracer,
    ) -> None:
        shard_id = int(envelope["shard"])
        absorb(envelope, tracer, parent_span)
        if envelope.get("event") == "fail":
            raise ShardFailure(
                f"shard {shard_id} failed: {envelope.get('detail')}\n"
                f"{envelope.get('traceback', '')}"
            )
        # An init ack's snapshot is kept only when it is the first: it
        # covers a death during superstep 0, and a re-init's must not
        # clobber a later barrier's.
        if envelope.get("cmd") != "init" or shard_id not in self._snapshots:
            self._snapshots[shard_id] = envelope.get("snapshot") or {}
        bodies[shard_id] = envelope.get("body") or {}
        arrivals[shard_id] = tracer.clock.now()
        outstanding.pop(shard_id, None)

    def _supervise(self, shard_id: int, inflight: Optional[Dict[str, object]]) -> None:
        """A shard died holding a command: respawn, restore, resend."""
        self._attempts[shard_id] += 1
        attempts = self._attempts[shard_id]
        if self.retry.exhausted(attempts):
            raise ShardFailure(
                f"shard {shard_id} died {attempts} times; "
                f"supervision budget ({self.retry.max_attempts}) spent"
            )
        self.clock.sleep(self.retry.backoff(attempts - 1))
        self.respawns += 1
        child = self._spawn(shard_id, restore=self._snapshots.get(shard_id))
        # Block for the init ack, then re-send the in-flight command;
        # the outer loop keeps waiting for its reply as usual.
        while True:
            ack = child.recv() if child.poll(0.25) else None
            if ack is not None:
                absorb(ack, current_tracer(), None)
                if ack.get("event") == "fail":
                    raise ShardFailure(
                        f"shard {shard_id} failed during supervised re-init: "
                        f"{ack.get('detail')}"
                    )
                break
            if not child.alive():
                # Died again before acking init — recurse into the
                # budget-bounded path.
                self._supervise(shard_id, inflight)
                return
        if inflight is not None:
            child.send(inflight)

    def shutdown(self) -> None:
        stop_all(self._children.values())
        self._children.clear()


class PartitionedEngine:
    """Vertex-partitioned execution of the Pregel/GAS/LCC kernels.

    Bit-identity contract: for any ``partitions`` count and either
    partition ``strategy``, the returned array is byte-for-byte equal to
    the corresponding single-process engine's (enforced by
    ``tests/engines/test_partitioned_parity.py``).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        partitions: int = 2,
        strategy: str = "hash",
        transport: str = "pipes",
        chaos_plan: Optional[Dict[str, object]] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.graph = graph
        self.partition_set = partition_graph(graph, partitions, strategy)
        self.transport_kind = transport
        self.chaos_plan = chaos_plan
        self.retry = retry or RetryPolicy(max_attempts=3, backoff_base=0.05)
        if transport not in ("pipes", "inline"):
            raise ConfigurationError(
                f"unknown partitioned transport {transport!r}"
            )
        #: Superstep/round count of the last run (parity with the
        #: sequential engines' second return value).
        self.supersteps = 0
        #: Supervised shard relaunches during the last run.
        self.respawns = 0

    # -- entry point -------------------------------------------------------

    def run(self, spec: ProgramSpec, *, superstep_limit: int = 10_000) -> np.ndarray:
        tracer = current_tracer()
        transport = self._make_transport(spec)
        try:
            with tracer.span(
                "partitioned",
                model=spec.model,
                algorithm=spec.algorithm,
                shards=self.partition_set.num_shards,
                strategy=self.partition_set.strategy,
                transport=self.transport_kind,
            ):
                if spec.model == "pregel":
                    return self._run_pregel(spec, transport, superstep_limit)
                if spec.model == "lcc":
                    return self._run_lcc(transport)
                plan = build_gas_plan(spec, self.graph)
                if plan.mode == "active":
                    return self._run_gas_active(plan, transport)
                if plan.mode == "sync":
                    return self._run_gas_sync(plan, transport)
                return self._run_gas_pr(spec, plan, transport)
        finally:
            self.respawns = getattr(transport, "respawns", 0)
            transport.shutdown()

    def _make_transport(self, spec: ProgramSpec):
        if self.transport_kind == "inline":
            return _InlineTransport(self.graph, self.partition_set, spec)
        return _PipesTransport(
            self.graph, self.partition_set, spec,
            retry=self.retry, chaos_plan=self.chaos_plan,
        )

    # -- pregel ------------------------------------------------------------

    def _run_pregel(self, spec, transport, superstep_limit: int) -> np.ndarray:
        graph = self.graph
        tracer = current_tracer()
        program, finalize = build_pregel_program(spec, graph)
        shard_ids = sorted(s.shard_id for s in self.partition_set.shards)
        aggregated = {
            name: agg.initial for name, agg in sorted(program.aggregators.items())
        }
        pending: Dict[int, List[MessageBatch]] = {}
        shard_active = dict.fromkeys(shard_ids, True)
        limit = program.max_supersteps or superstep_limit
        self.supersteps = 0
        for superstep in range(limit):
            if not any(shard_active.values()) and not pending:
                break
            self.supersteps += 1
            superstep_span = tracer.start_span(
                "superstep",
                attributes={
                    "engine": "partitioned-pregel", "index": superstep,
                    "shards": len(shard_ids),
                },
                push=True,
            )
            commands = {
                shard_id: {
                    "cmd": "step",
                    "superstep": superstep,
                    "aggregated": aggregated,
                    "batches": pending.get(shard_id, []),
                }
                for shard_id in shard_ids
            }
            bodies = transport.exchange(commands, parent_span=superstep_span)
            with tracer.span("exchange", index=superstep) as exchange_span:
                pending = {}
                contributions = []
                messages = 0
                for shard_id in shard_ids:
                    body = bodies[shard_id]
                    shard_active[shard_id] = bool(body.get("active"))
                    messages += int(body.get("messages_sent", 0))
                    for batch in body.get("batches", []):
                        pending.setdefault(batch.dst_shard, []).append(batch)
                    contributions.extend(body.get("contributions", []))
                # Canonical batch order (redundant given deliver()'s
                # order-independence, but it keeps wire traffic and
                # traces reproducible byte for byte).
                for dst_shard in sorted(pending):
                    pending[dst_shard].sort(key=lambda b: b.src_shard)
                aggregated = self._fold_aggregators(program, contributions)
                exchange_span.attributes["messages"] = messages
                exchange_span.attributes["batches"] = sum(
                    len(pending[dst_shard]) for dst_shard in sorted(pending)
                )
            tracer.end_span(superstep_span)
        return finalize(self._collect(transport))

    @staticmethod
    def _fold_aggregators(program, contributions) -> Dict[str, object]:
        """Fold raw per-vertex contributions in the sequential order.

        Sorted by (vertex, seq) per aggregator and folded left from the
        initial value — exactly the order the single-process engine
        folds in (vertices ascending, emissions in call order), so even
        non-associative float addition lands on identical bits.
        """
        aggregated = {
            name: agg.initial for name, agg in sorted(program.aggregators.items())
        }
        per_name: Dict[str, List[Tuple[int, int, object]]] = {}
        for name, vertex, seq, value in contributions:
            per_name.setdefault(name, []).append((vertex, seq, value))
        for name, records in sorted(per_name.items()):
            records.sort(key=lambda record: (record[0], record[1]))
            combine = program.aggregators[name].combine
            folded = aggregated[name]
            for _, _, value in records:
                folded = combine(folded, value)
            aggregated[name] = folded
        return aggregated

    # -- gas ---------------------------------------------------------------

    def _run_gas_active(self, plan, transport) -> np.ndarray:
        graph = self.graph
        tracer = current_tracer()
        shard_ids = sorted(s.shard_id for s in self.partition_set.shards)
        owner = self.partition_set.owner
        values = [plan.program.init(graph, v) for v in range(graph.num_vertices)]
        updates: List[Tuple[int, object]] = []
        activate: Dict[int, List[int]] = {}
        self.supersteps = 0
        first = True
        while first or activate:
            round_index = self.supersteps
            self.supersteps += 1
            round_span = tracer.start_span(
                "superstep",
                attributes={
                    "engine": "partitioned-gas", "index": round_index,
                    "shards": len(shard_ids),
                },
                push=True,
            )
            commands = {
                shard_id: {
                    "cmd": "gas-round",
                    "round": round_index,
                    "updates": updates,
                    "activate": activate.get(shard_id, []),
                }
                for shard_id in shard_ids
            }
            bodies = transport.exchange(commands, parent_span=round_span)
            with tracer.span("exchange", index=round_index) as exchange_span:
                updates = []
                activations = set()
                for shard_id in shard_ids:
                    body = bodies[shard_id]
                    updates.extend(body.get("changes", []))
                    activations.update(body.get("activations", []))
                updates.sort(key=lambda change: change[0])
                for v, value in updates:
                    values[int(v)] = value
                activate = {}
                for v in sorted(activations):
                    activate.setdefault(int(owner[v]), []).append(int(v))
                exchange_span.attributes["updates"] = len(updates)
                exchange_span.attributes["activations"] = len(activations)
            tracer.end_span(round_span)
            first = False
        return plan.finalize(values)

    def _run_gas_sync(self, plan, transport) -> np.ndarray:
        graph = self.graph
        tracer = current_tracer()
        shard_ids = sorted(s.shard_id for s in self.partition_set.shards)
        values = [plan.program.init(graph, v) for v in range(graph.num_vertices)]
        updates: List[Tuple[int, object]] = []
        self.supersteps = 0
        for iteration in range(plan.iterations):
            self.supersteps += 1
            round_span = tracer.start_span(
                "superstep",
                attributes={
                    "engine": "partitioned-gas", "index": iteration,
                    "shards": len(shard_ids),
                },
                push=True,
            )
            commands = {
                shard_id: {
                    "cmd": "gas-sweep",
                    "iteration": iteration,
                    "updates": updates,
                }
                for shard_id in shard_ids
            }
            bodies = transport.exchange(commands, parent_span=round_span)
            with tracer.span("exchange", index=iteration) as exchange_span:
                updates = []
                for shard_id in shard_ids:
                    updates.extend(bodies[shard_id].get("changes", []))
                updates.sort(key=lambda change: change[0])
                for v, value in updates:
                    values[int(v)] = value
                exchange_span.attributes["updates"] = len(updates)
            tracer.end_span(round_span)
        return plan.finalize(values)

    def _run_gas_pr(self, spec, plan, transport) -> np.ndarray:
        """Coordinator-driven PageRank sweeps (the GAS front-end's loop).

        The shards run only the in-edge gather fold; the numpy rank
        update and the dangling-mass fold happen here with the exact
        operations of :func:`repro.engines.gas.run_pagerank` — which is
        what makes the output bit-identical.
        """
        graph = self.graph
        tracer = current_tracer()
        n = graph.num_vertices
        if n == 0:
            return np.empty(0, dtype=np.float64)
        damping = float(spec.param("damping", 0.85))
        shard_ids = sorted(s.shard_id for s in self.partition_set.shards)
        out_degree = graph.out_degrees().astype(np.float64)
        dangling = out_degree == 0
        rank = np.full(n, 1.0 / n, dtype=np.float64)
        base = (1.0 - damping) / n
        self.supersteps = 0
        for iteration in range(plan.iterations):
            self.supersteps += 1
            round_span = tracer.start_span(
                "superstep",
                attributes={
                    "engine": "partitioned-gas", "index": iteration,
                    "shards": len(shard_ids),
                },
                push=True,
            )
            contrib = np.zeros(n, dtype=np.float64)
            np.divide(rank, out_degree, out=contrib, where=~dangling)
            commands = {
                shard_id: {"cmd": "pr-gather", "contrib": contrib.tolist()}
                for shard_id in shard_ids
            }
            bodies = transport.exchange(commands, parent_span=round_span)
            with tracer.span("exchange", index=iteration):
                gathered = [0.0] * n
                for shard_id in shard_ids:
                    for v, total in bodies[shard_id].get("gathered", []):
                        gathered[int(v)] = total
                dangling_share = rank[dangling].sum() / n
                rank = base + damping * (np.array(gathered) + dangling_share)
            tracer.end_span(round_span)
        return rank

    # -- lcc / merge -------------------------------------------------------

    def _run_lcc(self, transport) -> np.ndarray:
        shard_ids = sorted(s.shard_id for s in self.partition_set.shards)
        commands = {shard_id: {"cmd": "lcc"} for shard_id in shard_ids}
        bodies = transport.exchange(commands, parent_span=None)
        result = np.zeros(self.graph.num_vertices, dtype=np.float64)
        for shard_id in shard_ids:
            for v, value in bodies[shard_id].get("values", []):
                result[int(v)] = value
        self.supersteps = 1
        return result

    def _collect(self, transport) -> List[object]:
        """Deterministic merge: every vertex from exactly its owner."""
        shard_ids = sorted(s.shard_id for s in self.partition_set.shards)
        commands = {shard_id: {"cmd": "collect"} for shard_id in shard_ids}
        bodies = transport.exchange(commands, parent_span=None)
        values: List[object] = [None] * self.graph.num_vertices
        for shard_id in shard_ids:
            for v, value in bodies[shard_id].get("values", []):
                values[int(v)] = value
        return values
