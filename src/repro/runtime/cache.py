"""Content-addressed cache of materialized graphs and reference outputs.

Dataset miniatures are deterministic functions of ``(dataset spec,
seed)`` (see DESIGN.md §2), so the runtime materializes each one **once
per directory** and shares it across workers — and, when the directory
outlives the run (the service's ``<spool>/cache``, ``--cache-dir``),
across runs. The cache is keyed by a SHA-256 digest of the dataset's
own content address (:attr:`~repro.harness.datasets.Dataset.spec_digest`:
id, miniature recipe, target profile, fixed parameters), the seed, the
artifact kind and a format version — so a recipe change invalidates old
entries instead of silently serving them.

Two layers:

* a **per-instance dict** that is never evicted: a process that has
  read a graph uploads it to its platform drivers, and the upload
  handles (like ``Dataset.materialize``'s memo) keep the object alive
  for as long as the runner does, so dropping the cache's own pointer
  frees nothing and only buys a re-read of bytes that are still in
  memory;
* an **on-disk spill** directory, one file per entry. Writes are atomic
  (`tmp` + ``os.replace``), so concurrent workers racing to store the
  same key are safe — last writer wins with identical bytes. Every
  entry carries its kind, label, lengths and a CRC-32 in its own header
  (:data:`_HEADER`), and an entry that cannot be read back for *any*
  reason is a miss: it is unlinked, rebuilt from the recipe and stored
  again, so a shared directory cannot be poisoned by a torn, flipped or
  foreign file.

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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

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
#: derivation, the entry header or the Graph pickle layout changes).
CACHE_FORMAT_VERSION = 4

#: An entry is header | meta | payload: magic, meta length, payload
#: length, CRC-32 over meta + payload; meta is the JSON ``{"kind",
#: "label"}`` that ``cache stats`` lists, payload the pickle.
_MAGIC = b"GLYTCACHE"
_HEADER = struct.Struct(f"<{len(_MAGIC)}sHQI")


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
    """Hit/miss/store counters for one process (or one merged run)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    bytes_written: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def merge(self, other: Union["CacheStats", Dict[str, int]]) -> None:
        data = other.as_dict() if isinstance(other, CacheStats) else other
        for key in _COUNTERS:
            setattr(self, key, getattr(self, key) + int(data.get(key, 0)))

    def as_dict(self) -> Dict[str, int]:
        return {key: getattr(self, key) for key in _COUNTERS}

    def describe(self) -> str:
        return (
            f"{self.hits} hits ({self.memory_hits} memory, {self.disk_hits} "
            f"disk), {self.misses} misses, "
            f"{self.bytes_written} bytes spilled"
        )


_COUNTERS = tuple(field.name for field in fields(CacheStats))


def _key(dataset, seed: int, kind: str, algorithm: str = "") -> str:
    """Content address of one artifact derived from ``dataset``."""
    spec = (
        f"{CACHE_FORMAT_VERSION}|{kind}|{dataset.spec_digest}|{seed}|{algorithm}"
    )
    return hashlib.sha256(spec.encode("utf-8")).hexdigest()


def graph_key(dataset, seed: int) -> str:
    """Content address of one dataset materialization."""
    return _key(dataset, seed, "graph")


def reference_key(dataset, algorithm: str, seed: int) -> str:
    """Content address of one validation-reference output."""
    return _key(dataset, seed, "reference", algorithm.lower())


@dataclass
class CacheEntryInfo:
    """One on-disk entry as ``graphalytics cache stats`` lists it."""

    key: str
    kind: str
    label: str
    bytes: int


def _read_meta(handle) -> Tuple[str, str]:
    """``(kind, label)`` off an open entry's header; ``?`` for both when
    the header does not parse."""
    try:
        magic, meta_length, _, _ = _HEADER.unpack(handle.read(_HEADER.size))
        if magic != _MAGIC:
            raise ValueError("not a cache entry")
        meta = json.loads(handle.read(meta_length))
        return str(meta["kind"]), str(meta["label"])
    except (struct.error, ValueError, LookupError, TypeError):
        return "?", "?"


class GraphCache:
    """The artifact store: every graph and reference output a process
    holds, read through an optional shared spill directory.

    ``directory=None`` disables the disk layer (memory-only — what a
    serial :class:`~repro.harness.runner.BenchmarkRunner` uses); the
    runtime always passes a per-run or user-chosen directory so workers
    share materializations.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None):
        self.directory = Path(directory) if directory is not None else None
        self._memory: Dict[str, object] = {}
        self.stats = CacheStats()
        self._shipped = self.stats.as_dict()

    def take_stats_delta(self) -> Dict[str, int]:
        """Counters accumulated since the last call (for worker envelopes)."""
        before, self._shipped = self._shipped, self.stats.as_dict()
        return {key: self._shipped[key] - before[key] for key in before}

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
        it.
        """
        path = self._entry_path(key)
        if path is None or not path.exists():
            return None
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
            magic, meta_length, length, crc = _HEADER.unpack_from(blob)
            body = memoryview(blob)[_HEADER.size:]
            if (
                magic != _MAGIC
                or len(body) != meta_length + length
                or zlib.crc32(body) != crc
            ):
                raise ValueError("header does not match the entry")
            return pickle.loads(body[meta_length:])
        except Exception:
            current_tracer().counter("cache.corrupt")
            path.unlink(missing_ok=True)
            return None

    def _disk_put(self, key: str, value, *, kind: str, label: str) -> None:
        path = self._entry_path(key)
        if path is None:
            return
        meta = json.dumps({"kind": kind, "label": label}).encode("utf-8")
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        crc = zlib.crc32(payload, zlib.crc32(meta))
        blob = b"".join(
            (_HEADER.pack(_MAGIC, len(meta), len(payload), crc), meta, payload)
        )
        # Atomic but not fsynced: entries are rebuildable, so losing one
        # to a crash is fine — serving a torn one never is. For the same
        # reason a spill that cannot land — a *full disk* or a failing
        # device, or a concurrent ``cache clear`` taking the temp file
        # or its shard directory (ENOENT) — downgrades to not-spilling
        # at all rather than failing the job that built the value.
        try:
            atomic_write(
                path, blob, durable=False, fault_point="cache.spill.write"
            )
        except OSError as exc:
            if exc.errno not in (errno.ENOSPC, errno.EIO, errno.ENOENT):
                raise
            return
        self.stats.stores += 1
        self.stats.bytes_written += len(blob)

    # -- lookup --------------------------------------------------------------

    def _get(self, key: str, builder, *, kind: str, label: str):
        value = self._memory.get(key)
        if value is not None:
            self.stats.memory_hits += 1
            current_tracer().counter("cache.hit.memory")
            return value
        value = self._disk_get(key)
        if value is not None:
            self.stats.disk_hits += 1
            current_tracer().counter("cache.hit.disk")
        else:
            self.stats.misses += 1
            current_tracer().counter("cache.miss")
            value = builder()
            self._disk_put(key, value, kind=kind, label=label)
        self._memory[key] = value
        return value

    def get_graph(self, dataset, seed: int = 0):
        """The dataset's miniature graph, via cache layers or the recipe."""
        graph = self._get(
            graph_key(dataset, seed),
            lambda: dataset.materialize(seed),
            kind="graph",
            label=f"{dataset.dataset_id} seed={seed}",
        )
        # A disk hit skips Dataset.materialize; prime its per-process
        # memo so every other in-process reader gets this same object.
        dataset.prime(seed, graph)
        return graph

    def get_reference(self, dataset, algorithm: str, seed: int = 0) -> np.ndarray:
        """The validation-reference output for one (dataset, algorithm)."""
        algorithm = algorithm.lower()

        def build() -> np.ndarray:
            from repro.algorithms.registry import run_reference

            graph = self.get_graph(dataset, seed)
            params = dataset.algorithm_parameters(algorithm, seed)
            return run_reference(algorithm, graph, params)

        return self._get(
            reference_key(dataset, algorithm, seed),
            build,
            kind="reference",
            label=f"{dataset.dataset_id}/{algorithm} seed={seed}",
        )

    # -- maintenance -----------------------------------------------------------

    def _shards(self) -> Iterator[Tuple[str, List[os.DirEntry]]]:
        """Each shard directory with a listing of its files.

        The directory may be in use (a service spool's store is listed
        and cleared under load): a shard — or the whole directory —
        that does not exist (any more) simply has nothing to list.
        """
        if self.directory is None:
            return
        try:
            with os.scandir(self.directory) as listing:
                shards = [entry.path for entry in listing if entry.is_dir()]
        except FileNotFoundError:
            return
        for shard in shards:
            try:
                with os.scandir(shard) as listing:
                    files = list(listing)
            except FileNotFoundError:
                continue
            yield shard, files

    def disk_entries(self) -> List[CacheEntryInfo]:
        """Every on-disk entry as its own header describes it, sorted.

        Only headers are read. A file whose header does not parse — an
        entry of an older format, a torn one — is listed as kind ``?``
        with its size, so an operator sees what ``clear`` would remove.
        """
        entries: List[CacheEntryInfo] = []
        for _shard, files in self._shards():
            for file in files:
                if not file.name.endswith(".pkl"):
                    continue
                try:
                    with open(file.path, "rb") as handle:
                        size = os.fstat(handle.fileno()).st_size
                        kind, label = _read_meta(handle)
                except FileNotFoundError:
                    continue  # `clear` (or a reader's repair) got there first
                entries.append(
                    CacheEntryInfo(file.name.removesuffix(".pkl"), kind, label, size)
                )
        entries.sort(key=lambda e: (e.kind, e.label, e.key))
        return entries

    def disk_usage(self) -> Dict[str, int]:
        """Entry count and total size of the disk layer.

        A listing and one ``stat`` per entry — no file is opened, so it
        is cheap enough for a health probe (it runs inside every
        ``/v1/healthz``). Zeros when the directory does not exist yet.
        """
        entries = size = 0
        for _shard, files in self._shards():
            for file in files:
                if file.name.endswith(".pkl"):
                    try:
                        size += file.stat().st_size
                    except FileNotFoundError:
                        continue  # `clear` is emptying the shard
                    entries += 1
        return {"entries": entries, "bytes": size}

    def clear(self) -> int:
        """Drop both layers; returns the number of disk entries removed.

        Every file under the shard directories goes — entries, and
        whatever else is there (temp files of writers that died, files
        of older formats). Whatever a reader's repair or another clear
        removed first is simply gone, and a shard directory a writer
        refilled meanwhile stays.
        """
        self._memory.clear()
        removed = 0
        for shard, files in self._shards():
            for file in files:
                Path(file.path).unlink(missing_ok=True)
                removed += file.name.endswith(".pkl")
            try:
                os.rmdir(shard)
            except OSError:
                pass  # not empty, or already removed
        return removed
