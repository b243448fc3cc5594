"""Content-addressed cache of materialized graphs and reference outputs.

Dataset miniatures are deterministic functions of ``(dataset spec,
seed)`` (see DESIGN.md §2), so the runtime materializes each one **once
per directory** and shares it across workers — and, when the directory
outlives the run (the service's ``<spool>/cache``, ``--cache-dir``),
across runs. The cache is keyed by a SHA-256 digest of the canonical
dataset spec — the id, the seed, the miniature recipe (generator and
arguments), the full-scale profile it targets, and a format version —
so a recipe change invalidates old entries instead of silently serving
them.

Two layers:

* an **in-memory LRU** (per process; bounded entry count) for repeated
  jobs inside one worker;
* an **on-disk spill** directory. Writes are atomic (`tmp` +
  ``os.replace``), so concurrent workers racing to store the same key
  are safe — last writer wins with identical bytes. Every entry
  carries its own payload length and CRC-32 (:data:`_HEADER`), and an
  entry that cannot be read back for *any* reason is a miss: it is
  unlinked, rebuilt from the recipe and stored again, so a shared
  directory cannot be poisoned by a torn, flipped or foreign file.

Every layer interaction is counted (:class:`CacheStats`); workers ship
their deltas back with each job result, and the scheduler aggregates
them into the run's cache report.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import pickle
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.ioutil import atomic_write
from repro.trace import current_tracer

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "GraphCache",
    "default_cache_directory",
]

#: Bump to invalidate every existing cache entry (e.g. when the key
#: payload, the entry header or the Graph pickle layout changes).
CACHE_FORMAT_VERSION = 2

#: Every entry starts with magic, payload length and payload CRC-32.
#: The check lives in the entry itself because blob and manifest are
#: two renames — a manifest can describe a blob it was not written for.
_MAGIC = b"GLYTCACHE"
_HEADER = struct.Struct(f"<{len(_MAGIC)}sQI")


def default_cache_directory() -> Path:
    """The persistent cache location (``graphalytics cache ...``).

    ``GRAPHALYTICS_CACHE_DIR`` wins; otherwise the XDG cache home.
    """
    override = os.environ.get("GRAPHALYTICS_CACHE_DIR")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "graphalytics"


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one process (or one merged run)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    bytes_written: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: Union["CacheStats", Dict[str, int]]) -> None:
        data = other.as_dict() if isinstance(other, CacheStats) else dict(other)
        for key in (
            "memory_hits", "disk_hits", "misses",
            "stores", "evictions", "bytes_written",
        ):
            setattr(self, key, getattr(self, key) + int(data.get(key, 0)))

    def as_dict(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "bytes_written": self.bytes_written,
        }

    def describe(self) -> str:
        return (
            f"{self.hits} hits ({self.memory_hits} memory, {self.disk_hits} "
            f"disk), {self.misses} misses, {self.evictions} evictions, "
            f"{self.bytes_written} bytes spilled"
        )


def _spec_payload(dataset, seed: int, *, kind: str, algorithm: str = "") -> str:
    """Canonical JSON of everything the cached artifact depends on."""
    profile = dataset.profile
    return json.dumps(
        {
            "format": CACHE_FORMAT_VERSION,
            "kind": kind,
            "dataset": dataset.dataset_id,
            "recipe": dataset.recipe,
            "seed": seed,
            "algorithm": algorithm,
            "profile": {
                "name": profile.name,
                "num_vertices": profile.num_vertices,
                "num_edges": profile.num_edges,
                "directed": profile.directed,
                "weighted": profile.weighted,
            },
            "pr_iterations": dataset.pr_iterations,
            "cdlp_iterations": dataset.cdlp_iterations,
        },
        sort_keys=True,
    )


def graph_key(dataset, seed: int) -> str:
    """Content address of one dataset materialization."""
    payload = _spec_payload(dataset, seed, kind="graph")
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def reference_key(dataset, algorithm: str, seed: int) -> str:
    """Content address of one validation-reference output."""
    payload = _spec_payload(
        dataset, seed, kind="reference", algorithm=algorithm.lower()
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheEntryInfo:
    """Manifest of one on-disk entry, for ``graphalytics cache stats``."""

    key: str
    kind: str
    label: str
    bytes: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "kind": self.kind,
            "label": self.label,
            "bytes": self.bytes,
        }


class GraphCache:
    """LRU-over-spill cache of graphs and reference outputs.

    ``directory=None`` disables the disk layer (memory-only); the
    runtime always passes a per-run or user-chosen directory so workers
    share materializations.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        *,
        memory_entries: int = 8,
    ):
        self.directory = Path(directory) if directory is not None else None
        self.memory_entries = max(0, int(memory_entries))
        self._lru: "OrderedDict[str, object]" = OrderedDict()
        self.stats = CacheStats()
        self._delta = CacheStats()

    # -- stats -------------------------------------------------------------

    def _count(self, **deltas: int) -> None:
        self.stats.merge(deltas)
        self._delta.merge(deltas)

    def take_stats_delta(self) -> Dict[str, int]:
        """Counters accumulated since the last call (for worker envelopes)."""
        delta = self._delta.as_dict()
        self._delta = CacheStats()
        return delta

    # -- memory layer -------------------------------------------------------

    def _memory_get(self, key: str):
        if key in self._lru:
            self._lru.move_to_end(key)
            return self._lru[key]
        return None

    def _memory_put(self, key: str, value) -> None:
        if self.memory_entries == 0:
            return
        self._lru[key] = value
        self._lru.move_to_end(key)
        while len(self._lru) > self.memory_entries:
            self._lru.popitem(last=False)
            self._count(evictions=1)

    # -- disk layer ----------------------------------------------------------

    def _entry_path(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / key[:2] / f"{key}.pkl"

    def _disk_get(self, key: str):
        """The stored value, or ``None`` when absent *or unreadable*.

        The directory may be shared by every run of a service spool, so
        whatever sits at the entry's path is untrusted until its header
        checks out: a short file, a flipped byte, a file from another
        format, an unpickle error, or the entry vanishing under a
        concurrent ``cache clear`` all count ``cache.corrupt``, drop
        the entry and fall through to the rebuild-and-store miss path.
        The entry is read as one blob on purpose: the CRC needs all of
        it, and freeing a buffer this size lifts glibc's mmap threshold
        so the kernels' numpy temporaries stop page-faulting (see
        docs/service.md § Measured).
        """
        path = self._entry_path(key)
        if path is None or not path.exists():
            return None
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
            magic, length, crc = _HEADER.unpack_from(blob)
            payload = memoryview(blob)[_HEADER.size:]
            if (
                magic != _MAGIC
                or len(payload) != length
                or zlib.crc32(payload) != crc
            ):
                raise ValueError("header does not match payload")
            return pickle.loads(payload)
        except Exception:
            current_tracer().counter("cache.corrupt")
            path.unlink(missing_ok=True)
            return None

    def _disk_put(self, key: str, value, *, kind: str, label: str) -> None:
        path = self._entry_path(key)
        if path is None:
            return
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload)) + payload
        # Atomic but not fsynced: entries are rebuildable, so losing one
        # to a crash is fine — serving a torn one never is. For the same
        # reason a spill that cannot land — a *full disk*, or a
        # concurrent ``cache clear`` taking the temp file or its shard
        # directory (ENOENT) — downgrades to not-spilling at all rather
        # than failing the job that built the value.
        try:
            atomic_write(
                path, blob, durable=False, fault_point="cache.spill.write"
            )
            manifest = {
                "key": key,
                "kind": kind,
                "label": label,
                "bytes": len(blob),
                "format": CACHE_FORMAT_VERSION,
            }
            atomic_write(
                path.with_suffix(".json"),
                json.dumps(manifest, indent=1, sort_keys=True),
                durable=False,
            )
        except OSError as exc:
            if exc.errno not in (errno.ENOSPC, errno.ENOENT):
                raise
            return
        self._count(stores=1, bytes_written=len(blob))

    # -- lookup --------------------------------------------------------------

    def _get(self, key: str, builder, *, kind: str, label: str):
        value = self._memory_get(key)
        if value is not None:
            self._count(memory_hits=1)
            current_tracer().counter("cache.hit.memory")
            return value
        value = self._disk_get(key)
        if value is not None:
            self._count(disk_hits=1)
            current_tracer().counter("cache.hit.disk")
            self._memory_put(key, value)
            return value
        self._count(misses=1)
        current_tracer().counter("cache.miss")
        value = builder()
        self._disk_put(key, value, kind=kind, label=label)
        self._memory_put(key, value)
        return value

    def get_graph(self, dataset, seed: int = 0):
        """The dataset's miniature graph, via cache layers or the recipe."""
        key = graph_key(dataset, seed)
        graph = self._get(
            key,
            lambda: dataset.materialize(seed),
            kind="graph",
            label=f"{dataset.dataset_id} seed={seed}",
        )
        # A disk hit skips Dataset.materialize; prime its per-process
        # memo so later in-process paths reuse the same object.
        dataset.prime(seed, graph)
        return graph

    def get_reference(self, dataset, algorithm: str, seed: int = 0) -> np.ndarray:
        """The validation-reference output for one (dataset, algorithm)."""
        from repro.algorithms.registry import run_reference

        algorithm = algorithm.lower()
        key = reference_key(dataset, algorithm, seed)

        def build() -> np.ndarray:
            graph = self.get_graph(dataset, seed)
            params = dataset.algorithm_parameters(algorithm, seed)
            return run_reference(algorithm, graph, params)

        return self._get(
            key,
            build,
            kind="reference",
            label=f"{dataset.dataset_id}/{algorithm} seed={seed}",
        )

    # -- maintenance -----------------------------------------------------------

    def disk_entries(self) -> List[CacheEntryInfo]:
        """Manifests of every on-disk entry, sorted by label."""
        if self.directory is None or not self.directory.exists():
            return []
        entries: List[CacheEntryInfo] = []
        for manifest_path in sorted(self.directory.glob("*/*.json")):
            with open(manifest_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            entries.append(
                CacheEntryInfo(
                    key=str(data.get("key", manifest_path.stem)),
                    kind=str(data.get("kind", "?")),
                    label=str(data.get("label", "?")),
                    bytes=int(data.get("bytes", 0)),
                )
            )
        entries.sort(key=lambda e: (e.kind, e.label, e.key))
        return entries

    def disk_usage(self) -> Dict[str, int]:
        """Entry count and total size of the disk layer.

        A listing and one ``stat`` per entry — no manifest is parsed,
        so it is cheap enough for a health probe and cannot fail on a
        torn file. Zeros when the directory does not exist yet; a
        concurrent :meth:`clear` ends the listing early.
        """
        entries = size = 0
        if self.directory is not None:
            # os.scandir, not Path.glob: a third cheaper per entry, and
            # this runs inside every /v1/healthz.
            try:
                with os.scandir(self.directory) as shards:
                    for shard in [s.path for s in shards if s.is_dir()]:
                        with os.scandir(shard) as listing:
                            for entry in listing:
                                if entry.name.endswith(".pkl"):
                                    size += entry.stat().st_size
                                    entries += 1
            except FileNotFoundError:
                pass  # nothing stored yet, or `clear` is emptying it
        return {"entries": entries, "bytes": size}

    def clear(self) -> int:
        """Drop both layers; returns the number of disk entries removed."""
        self._lru.clear()
        removed = 0
        if self.directory is not None and self.directory.exists():
            # The directory may be in use (a service spool's store is
            # cleared under load): whatever a reader's repair or another
            # clear removed first is simply gone, and a shard directory
            # a writer refilled meanwhile stays.
            for path in self.directory.glob("*/*.pkl"):
                path.unlink(missing_ok=True)
                removed += 1
            for path in self.directory.glob("*/*.json"):
                path.unlink(missing_ok=True)
            for path in self.directory.glob("*/*.tmp"):
                path.unlink(missing_ok=True)
            for sub in self.directory.iterdir():
                if sub.is_dir():
                    try:
                        sub.rmdir()
                    except OSError:
                        pass  # not empty, or already removed
        return removed

    def write_run_stats(self, stats: CacheStats) -> Optional[Path]:
        """Persist a run's merged counters for ``graphalytics cache stats``."""
        if self.directory is None:
            return None
        return atomic_write(
            self.directory / "last-run-stats.json",
            json.dumps(stats.as_dict(), indent=1, sort_keys=True),
        )

    def read_run_stats(self) -> Optional[CacheStats]:
        if self.directory is None:
            return None
        path = self.directory / "last-run-stats.json"
        if not path.exists():
            return None
        with open(path, "r", encoding="utf-8") as handle:
            stats = CacheStats()
            stats.merge(json.load(handle))
            return stats
