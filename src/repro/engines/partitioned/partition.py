"""Edge-cut vertex partitioning for the sharded execution mode.

The modeled partitioners in :mod:`repro.platforms.partitioning` answer
"how would a cluster place this graph?" for the calibrated performance
models; this module answers the operational question the partitioned
*engine* asks: which shard owns each vertex, which edges cross shards,
and which remote vertices each shard must hear about. Two strategies
hide behind one interface:

* **hash** — a vertex is owned by ``mix64(external_id) % shards``
  (Giraph's default placement). Ownership depends only on the external
  identifier and the shard count, so it is stable across processes,
  runs, and Python hash randomization.
* **range** — contiguous blocks of the dense index space, sized within
  one vertex of each other (GraphMat-style blocked placement; best
  locality for generator-ordered vertex ids).

Both produce a :class:`PartitionSet` whose invariants are enforced by
the parity suite's property tests: every vertex owned exactly once,
every cut edge mirrored on both incident shards, and shard sizes within
the strategy's balance bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graph.graph import Graph

__all__ = [
    "PARTITION_STRATEGIES",
    "Partition",
    "PartitionSet",
    "partition_graph",
]

#: Strategy names accepted by :func:`partition_graph`.
PARTITION_STRATEGIES = ("hash", "range")

#: splitmix64 multipliers: a fast, well-mixed integer hash whose output
#: is a pure function of the input (no per-process salt).
_MIX_M1 = 0xBF58476D1CE4E5B9
_MIX_M2 = 0x94D049BB133111EB
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(value: int) -> int:
    """splitmix64 finalizer: deterministic, salt-free 64-bit mixing."""
    value = (value ^ (value >> 30)) * _MIX_M1 & _MASK64
    value = (value ^ (value >> 27)) * _MIX_M2 & _MASK64
    return (value ^ (value >> 31)) & _MASK64


@dataclass(frozen=True)
class Partition:
    """One shard's slice of the vertex space.

    ``owned`` holds the shard's vertices as sorted **dense** indices of
    the full graph; ``mirrors`` the sorted dense indices of remote
    vertices adjacent (either direction) to an owned vertex — exactly
    the vertices whose state or messages this shard exchanges across
    the cut.
    """

    shard_id: int
    num_shards: int
    strategy: str
    owned: np.ndarray
    mirrors: np.ndarray

    @property
    def size(self) -> int:
        return int(len(self.owned))


@dataclass(frozen=True)
class PartitionSet:
    """A complete edge-cut partitioning of one graph."""

    strategy: str
    num_shards: int
    #: dense index -> owning shard, for every vertex.
    owner: np.ndarray
    shards: Tuple[Partition, ...]
    #: Logical edges whose endpoints live on different shards.
    cut_edges: int
    #: Logical edge count of the partitioned graph.
    num_edges: int

    def owner_of(self, vertex: int) -> int:
        return int(self.owner[vertex])

    @property
    def cut_fraction(self) -> float:
        return float(self.cut_edges / self.num_edges) if self.num_edges else 0.0

    def balance_bound(self) -> int:
        """Largest shard size the strategy guarantees (enforced by tests).

        ``range`` packs shards within one vertex of each other. ``hash``
        is statistical: the bound is the mean plus a generous deviation
        allowance — seeded test graphs either satisfy it deterministically
        or the strategy's mixing is broken.
        """
        n = len(self.owner)
        mean = n / self.num_shards if self.num_shards else 0
        if self.strategy == "range":
            return int(np.ceil(mean)) if n else 0
        return int(np.ceil(mean + 4.0 * np.sqrt(max(mean, 1.0)) + 1.0))

    def as_dict(self) -> Dict[str, object]:
        """Summary payload for traces, benches, and reports."""
        sizes = [shard.size for shard in self.shards]
        return {
            "strategy": self.strategy,
            "shards": self.num_shards,
            "sizes": sizes,
            "cut_edges": self.cut_edges,
            "mirrors": [int(len(shard.mirrors)) for shard in self.shards],
        }


def _owners_hash(graph: Graph, num_shards: int) -> np.ndarray:
    ids = graph.vertex_ids
    owners = np.empty(len(ids), dtype=np.int64)
    for index in range(len(ids)):
        owners[index] = _mix64(int(ids[index])) % num_shards
    return owners


def _owners_range(graph: Graph, num_shards: int) -> np.ndarray:
    n = graph.num_vertices
    # Blocks within one vertex of each other: the first (n % shards)
    # blocks take the extra vertex.
    base, extra = divmod(n, num_shards)
    owners = np.empty(n, dtype=np.int64)
    start = 0
    for shard in range(num_shards):
        size = base + (1 if shard < extra else 0)
        owners[start:start + size] = shard
        start += size
    return owners


def partition_graph(
    graph: Graph, num_shards: int, strategy: str = "hash"
) -> PartitionSet:
    """Assign every vertex to a shard and derive the cut structure."""
    if num_shards < 1:
        raise ConfigurationError("num_shards must be >= 1")
    if strategy not in PARTITION_STRATEGIES:
        raise ConfigurationError(
            f"unknown partition strategy {strategy!r}; "
            f"known: {', '.join(PARTITION_STRATEGIES)}"
        )
    if strategy == "hash":
        owners = _owners_hash(graph, num_shards)
    else:
        owners = _owners_range(graph, num_shards)

    src, dst = graph.edge_src, graph.edge_dst
    cut_mask = owners[src] != owners[dst] if len(src) else np.zeros(0, dtype=bool)
    cut_edges = int(np.count_nonzero(cut_mask))

    # Mirrors: for each shard, the remote endpoints of its cut edges
    # (both directions: a shard owning either endpoint mirrors the
    # other).
    cut_src, cut_dst = src[cut_mask], dst[cut_mask]
    shards = []
    for shard_id in range(num_shards):
        owned = np.nonzero(owners == shard_id)[0].astype(np.int64)
        mirrors = np.unique(np.concatenate([
            cut_dst[owners[cut_src] == shard_id],
            cut_src[owners[cut_dst] == shard_id],
        ]))
        shards.append(
            Partition(
                shard_id=shard_id,
                num_shards=num_shards,
                strategy=strategy,
                owned=owned,
                mirrors=mirrors,
            )
        )
    return PartitionSet(
        strategy=strategy,
        num_shards=num_shards,
        owner=owners,
        shards=tuple(shards),
        cut_edges=cut_edges,
        num_edges=graph.num_edges,
    )
