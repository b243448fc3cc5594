"""The partitioned coordinator: one sharded product, supervised.

:class:`PartitionedEngine` is a product engine with the interface of
:class:`repro.engines.spmv.SpMVEngine` — ``spmv``, ``label_mode``,
``lcc`` — so the ``repro.engines.spmv.run_*`` loops drive it unchanged.
Each product is one superstep-synchronous barrier:

1. **compute** — every shard receives the dense state vector and
   reduces over the CSR slots whose target it owns, in original slot
   order (a ``shard-compute`` span, rebased onto the coordinator's
   timeline via the clock-offset handshake);
2. **exchange** — the coordinator scatters each shard's ``y[owned]``
   into the result vector — or, for LCC, adds up the shards' integer
   triangle counts before the one division (an ``exchange`` span);
3. **barrier-wait** — per shard, the gap between its reply and the
   slowest shard's reply (one ``barrier-wait`` span per shard): the
   straggler cost that strong-scaling curves are made of.

Fixed slot order makes every row's reduction — float sums included —
the one the single-process engine performs, so any shard count and
either strategy is bit-identical to the numpy kernels by construction.

Two transports run the same blocks: ``inline`` (in-process, for fast
deterministic tests) and ``pipes`` (one :class:`repro.proc.Child` per
shard). Shards hold nothing but their immutable block, so supervision
is stateless: a shard that dies — at start-up, idle between runs, or
mid-product (crash, OOM kill, chaos plan) — is respawned and re-sent
the in-flight product, bounded by a per-run
:class:`~repro.proc.RetryPolicy` budget.

A deployment — the partition set, the row blocks, the shard processes —
is made once, on first use, and lives until :meth:`PartitionedEngine.
close`: the platform lifecycle is upload, execute any number of times,
delete, and only the products belong to an execution's T_proc. Because
shards are stateless, any sequence of algorithms may run on one
deployment; a run that raises closes it, so a reply still in a pipe is
never read by a later run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.algorithms.lcc import lcc_from_counts
from repro.engines import engine_call, spmv
from repro.engines.partitioned.partition import partition_graph
from repro.engines.partitioned.shard import (
    READY,
    SUMMED,
    Product,
    apply_product,
    canonical,
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
    """Shards as in-process objects: same blocks, no processes.

    The parity matrix runs through this — partition, product, and merge
    are identical to pipes; only the process boundary (and therefore
    supervision) is elided.
    """

    respawns = 0

    def __init__(self, blocks: List[spmv.SpMVEngine]):
        self.blocks = blocks

    def begin_run(self) -> None:
        pass

    def exchange(self, product: Product, parent_span) -> Dict[int, np.ndarray]:
        tracer = current_tracer()
        replies = {}
        for shard_id, block in enumerate(self.blocks):
            with tracer.span("shard-compute", shard=shard_id, op=product[0]):
                replies[shard_id] = apply_product(block, product)
        return replies

    def shutdown(self, *, disown: bool = False) -> None:
        pass


class _PipesTransport:
    """Shards as :class:`repro.proc.Child` processes, supervised."""

    def __init__(
        self,
        blocks: List[spmv.SpMVEngine],
        *,
        retry: RetryPolicy,
        chaos_plan: Optional[Dict[str, object]] = None,
    ):
        self.blocks = blocks
        self.retry = retry
        self.clock = current_tracer().clock
        self._children: Dict[int, Child] = {}
        self.begin_run()
        for shard_id in range(len(blocks)):
            # First launch arms the chaos plan; relaunches never re-arm
            # it (fault counters are per-process — re-arming would kill
            # every attempt and defeat supervision).
            self._spawn(shard_id, chaos_plan)

    def begin_run(self) -> None:
        """The supervision budget and the respawn count are per run: a
        live shard is its run's first attempt, whoever launched it."""
        self._attempts = dict.fromkeys(range(len(self.blocks)), 1)
        self.respawns = 0

    def _spawn(self, shard_id: int, chaos=None) -> None:
        """(Re)launch one shard process over its block."""
        current_tracer().counter("partitioned.shard-spawn")
        dead = self._children.get(shard_id)
        if dead is not None:
            dead.close()
        child = Child(
            f"graphalytics-shard-{shard_id}",
            target=shard_main,
            args=(shard_id, self.blocks[shard_id], chaos),
        )
        self._children[shard_id] = child

    def _send(self, shard_id: int, product: Product) -> None:
        try:
            self._children[shard_id].send(product)
        except BrokenPipeError:
            # Already dead: exchange()'s liveness check finds it owing
            # this reply, and respawns and resends.
            pass

    def exchange(self, product: Product, parent_span) -> Dict[int, np.ndarray]:
        """Send one product to every shard and collect one reply each,
        supervising deaths; emits per-shard ``barrier-wait`` spans once
        the last reply lands."""
        tracer = current_tracer()
        for shard_id in sorted(self._children):
            self._send(shard_id, product)
        outstanding = set(self._children)
        replies: Dict[int, np.ndarray] = {}
        arrivals: Dict[int, float] = {}

        def ingest(envelope) -> None:
            shard_id = int(envelope["shard"])
            absorb(envelope, tracer, parent_span)
            if envelope.get("event") == "fail":
                raise ShardFailure(
                    f"shard {shard_id} failed: {envelope.get('detail')}\n"
                    f"{envelope.get('traceback', '')}"
                )
            replies[shard_id] = canonical(envelope["body"])
            arrivals[shard_id] = tracer.clock.now()
            outstanding.discard(shard_id)

        while outstanding:
            waiting = [self._children[s] for s in sorted(outstanding)]
            for _child, envelope in wait_any(waiting, 0.25):
                ingest(envelope)
            for shard_id in sorted(outstanding):
                child = self._children[shard_id]
                if child.alive():
                    continue
                # Dead — but drain any reply that beat the death.
                envelope = child.recv() if child.poll(0) else None
                if envelope is not None:
                    ingest(envelope)
                else:
                    self._respawn(shard_id, product)
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
        return replies

    def _respawn(self, shard_id: int, product: Product) -> None:
        """A shard died owing a reply: relaunch it, resend the product.

        The outer loop keeps waiting for the reply as usual, so a
        relaunch that dies again simply lands here again until the
        budget is spent.
        """
        attempts = self._attempts[shard_id]
        if self.retry.exhausted(attempts):
            raise ShardFailure(
                f"shard {shard_id} died {attempts} times; "
                f"supervision budget ({self.retry.max_attempts}) spent"
            )
        self.clock.sleep(self.retry.backoff(attempts))
        self._attempts[shard_id] = attempts + 1
        self.respawns += 1
        self._spawn(shard_id)
        self._send(shard_id, product)

    def shutdown(self, *, disown: bool = False) -> None:
        """Stop the shards — or, ``disown``, only drop this process's
        ends of their pipes: they are a forked parent's children."""
        if disown:
            for shard_id in sorted(self._children):
                self._children[shard_id].close()
        else:
            stop_all(self._children.values())
        self._children.clear()


class PartitionedEngine:
    """Vertex-partitioned execution of the six core algorithms.

    Bit-identity contract: for any ``partitions`` count and either
    partition ``strategy``, the returned array is byte-for-byte equal to
    the numpy reference kernel's (enforced by
    ``tests/engines/test_partitioned_parity.py``).

    Lifetime: the engine owns its partition set from construction and
    its row blocks and shard processes from first use (:meth:`deploy`,
    or the first :meth:`run`) until :meth:`close`; :meth:`run` may be
    called any number of times in between. Use it as a context manager,
    or get a shared one from :func:`repro.engines.partitioned.deploy`.
    An engine is not to be carried across ``os.fork()``: the shards are
    the parent's (``deploy`` sees to that for the engines it hands out).
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
        #: Superstep (= product) count of the last run.
        self.supersteps = 0
        #: Supervised shard relaunches during the last run.
        self.respawns = 0
        self._transport = None

    # -- lifetime ----------------------------------------------------------

    def deploy(self) -> "PartitionedEngine":
        """Cut the row blocks and start the shards, unless they are live;
        returns once every shard has answered the ready handshake.

        Making a deployment is one ``deploy`` span (``deployed="fresh"``;
        over pipes also ``spawned``, the processes started); finding one
        live is free and leaves no span. Together with the ``deployed``
        attribute of each run's ``partitioned`` span, a trace reads
        ``fresh`` once per deployment and ``reused`` everywhere else.
        """
        if self._transport is not None:
            return self
        with current_tracer().span(
            "deploy",
            shards=self.partition_set.num_shards,
            strategy=self.partition_set.strategy,
            transport=self.transport_kind,
            deployed="fresh",
        ) as span:
            blocks = [
                spmv.SpMVEngine(self.graph, rows=partition.owned)
                for partition in self.partition_set.shards
            ]
            if self.transport_kind == "inline":
                self._transport = _InlineTransport(blocks)
            else:
                self._transport = _PipesTransport(
                    blocks, retry=self.retry, chaos_plan=self.chaos_plan
                )
                try:
                    self._transport.exchange(READY, span)
                except BaseException:
                    self.close()
                    raise
                span.attributes["spawned"] = (
                    len(blocks) + self._transport.respawns
                )
        return self

    def close(self, *, disown: bool = False) -> None:
        """End the deployment (idempotent): stop the shards and drop the
        blocks. The next :meth:`run` or :meth:`deploy` makes a new one.
        ``disown`` is for a forked child, whose copy of a deployment
        names its parent's shards: drop it, signal nobody."""
        transport, self._transport = self._transport, None
        if transport is not None:
            self.respawns = transport.respawns
            transport.shutdown(disown=disown)

    def __enter__(self) -> "PartitionedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- entry point -------------------------------------------------------

    def run(
        self, algorithm: str, params: Optional[Dict[str, object]] = None
    ) -> np.ndarray:
        """Run one core algorithm; returns the finalized array.

        Never builds or stops a transport of its own: it runs on the
        engine's deployment (made here only if there is none yet). Any
        exception closes the deployment — a reply to the abandoned
        product may still be in a pipe, and no later run may read it.
        """
        algorithm = algorithm.lower()
        if algorithm == "lcc":  # the one product no spmv loop drives
            loop = self.lcc
        else:
            loop = engine_call(
                spmv, algorithm, params, graph=self.graph, engine=self
            )
        self.supersteps = 0
        fresh = self._transport is None
        with current_tracer().span(
            "partitioned",
            algorithm=algorithm,
            shards=self.partition_set.num_shards,
            strategy=self.partition_set.strategy,
            transport=self.transport_kind,
            deployed="fresh" if fresh else "reused",
        ):
            try:
                if fresh:
                    self.deploy()
                else:
                    self._transport.begin_run()
                output = loop()
            except BaseException:
                self.close()
                raise
            self.respawns = self._transport.respawns
            return output

    # -- the product -------------------------------------------------------

    def spmv(self, x: np.ndarray, semiring: spmv.Semiring, *,
             reverse: bool = False, unit_weights: bool = False) -> np.ndarray:
        return self._product(
            "spmv", (x, semiring),
            {"reverse": reverse, "unit_weights": unit_weights},
        )

    def label_mode(self, labels: np.ndarray) -> np.ndarray:
        return self._product("label_mode", (labels,), {})

    def lcc(self) -> np.ndarray:
        return lcc_from_counts(self._product("lcc", (), {}))

    def _product(self, op: str, args: tuple, kwargs: Dict[str, object]) -> np.ndarray:
        """One barrier: every shard computes ``y[owned]`` for its row
        block; the results are scattered into one dense vector — or, for
        a :data:`~repro.engines.partitioned.shard.SUMMED` product,
        added up (exact integers: any order gives the same sum)."""
        tracer = current_tracer()
        index = self.supersteps
        self.supersteps += 1
        shards = self.partition_set.shards
        with tracer.span(
            "superstep", engine="partitioned", op=op, index=index,
            shards=len(shards),
        ) as superstep:
            replies = self._transport.exchange((op, args, kwargs), superstep)
            with tracer.span("exchange", index=index):
                if op in SUMMED:
                    y = sum(replies[p.shard_id] for p in shards)
                else:
                    y = np.empty(
                        self.graph.num_vertices, dtype=replies[0].dtype
                    )
                    for partition in shards:
                        y[partition.owned] = replies[partition.shard_id]
        return y

