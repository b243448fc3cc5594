"""The content-addressed graph cache: keys, layers, stats, maintenance."""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.harness.datasets import (
    DATASETS,
    _datagen,
    _graph500,
    _replica,
    get_dataset,
)
from repro.runtime.cache import (
    CacheStats,
    GraphCache,
    graph_key,
    reference_key,
)
from repro.trace import Tracer, use_tracer


def _assert_same_graph(loaded, built):
    """Every attribute equal — arrays by dtype and content."""
    assert vars(loaded).keys() == vars(built).keys()
    for name, expected in vars(built).items():
        got = getattr(loaded, name)
        if isinstance(expected, np.ndarray):
            assert got.dtype == expected.dtype, name
            np.testing.assert_array_equal(got, expected, err_msg=name)
        else:
            assert got == expected, name


class TestContentAddressing:
    def test_key_is_deterministic(self):
        dataset = get_dataset("R1")
        assert graph_key(dataset, 0) == graph_key(dataset, 0)

    def test_key_depends_on_seed_dataset_and_kind(self):
        r1, r4 = get_dataset("R1"), get_dataset("R4")
        keys = {
            graph_key(r1, 0),
            graph_key(r1, 1),
            graph_key(r4, 0),
            reference_key(r1, "bfs", 0),
            reference_key(r1, "pr", 0),
        }
        assert len(keys) == 5

    def test_reference_key_case_insensitive_algorithm(self):
        dataset = get_dataset("R1")
        assert reference_key(dataset, "BFS", 0) == reference_key(dataset, "bfs", 0)

    @pytest.mark.parametrize(
        "dataset_id, edited",
        [
            ("R4", _replica("social", 400, 12000, weighted=True)),
            ("R4", _replica("coplay", 401, 12000, weighted=True)),
            ("R4", _replica("coplay", 400, 12001, weighted=True)),
            ("R4", _replica("coplay", 400, 12000, weighted=True, name="x")),
            ("D100", _datagen(501, 24.0)),
            ("D100", _datagen(500, 24.5)),
            ("D100", _datagen(500, 24.0, target_cc=0.05)),
            ("G24", _graph500(12, 15)),
            ("G24", _graph500(11, 16)),
        ],
        ids=lambda value: value if isinstance(value, str) else "-".join(
            str(argument) for argument in value.recipe.values()
        ),
    )
    def test_key_depends_on_every_recipe_argument(self, dataset_id, edited):
        """Same id, same profile, one recipe argument edited: new keys."""
        catalog = get_dataset(dataset_id)
        changed = dataclasses.replace(catalog, materializer=edited, _cache={})
        assert changed.profile == catalog.profile
        assert graph_key(changed, 0) != graph_key(catalog, 0)
        for algorithm in ("bfs", "pr", "wcc", "cdlp", "lcc", "sssp"):
            assert reference_key(changed, algorithm, 0) != reference_key(
                catalog, algorithm, 0
            )

    def test_key_covers_the_recipe_not_the_closure(self):
        catalog = get_dataset("G24")
        rebuilt = dataclasses.replace(
            catalog, materializer=_graph500(11, 15), _cache={}
        )
        assert rebuilt.materializer is not catalog.materializer
        assert graph_key(rebuilt, 0) == graph_key(catalog, 0)

    def test_every_catalog_dataset_has_its_own_recipe(self):
        # D100 / D100' / D100" differ in target_cc only.
        recipes = [dataset.recipe for dataset in DATASETS.values()]
        assert all(recipe["generator"] for recipe in recipes)
        assert len({repr(sorted(r.items())) for r in recipes}) == len(recipes)


class TestLayers:
    def test_build_then_memory_hit(self, tmp_path):
        cache = GraphCache(tmp_path)
        dataset = get_dataset("R1")
        g1 = cache.get_graph(dataset, 0)
        g2 = cache.get_graph(dataset, 0)
        assert g1 is g2
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1
        assert cache.stats.stores == 1

    def test_disk_hit_across_cache_instances(self, tmp_path):
        dataset = get_dataset("R1")
        writer = GraphCache(tmp_path)
        built = writer.get_graph(dataset, 0)

        reader = GraphCache(tmp_path)
        loaded = reader.get_graph(dataset, 0)
        assert reader.stats.disk_hits == 1
        assert reader.stats.misses == 0
        assert loaded.num_vertices == built.num_vertices
        assert loaded.num_edges == built.num_edges

    def test_disk_hit_primes_dataset_memo(self, tmp_path):
        dataset = get_dataset("R2")
        GraphCache(tmp_path).get_graph(dataset, 0)
        dataset._cache.clear()
        reader = GraphCache(tmp_path)
        loaded = reader.get_graph(dataset, 0)
        # materialize() must now return the cache-loaded object, not rebuild
        assert dataset.materialize(0) is loaded

    def test_memory_layer_keeps_every_entry(self, tmp_path):
        """No bound, no eviction: what a process has read it never reads
        again (the graphs stay referenced by upload handles anyway)."""
        cache = GraphCache(tmp_path)
        graphs = [cache.get_graph(dataset, 0) for dataset in DATASETS.values()]
        assert len(graphs) > 8
        again = [cache.get_graph(dataset, 0) for dataset in DATASETS.values()]
        assert all(a is b for a, b in zip(graphs, again))
        assert cache.stats.as_dict() == {
            "memory_hits": len(graphs),
            "disk_hits": 0,
            "misses": len(graphs),
            "stores": len(graphs),
            "bytes_written": cache.disk_usage()["bytes"],
        }

    def test_memory_only_mode(self):
        cache = GraphCache(None)
        graph = cache.get_graph(get_dataset("R1"), 0)
        assert graph.num_vertices > 0
        assert cache.disk_entries() == []

    def test_reference_output_round_trips_through_disk(self, tmp_path):
        dataset = get_dataset("R1")
        writer = GraphCache(tmp_path)
        ref = writer.get_reference(dataset, "bfs", 0)
        reader = GraphCache(tmp_path)
        again = reader.get_reference(dataset, "bfs", 0)
        np.testing.assert_array_equal(ref, again)
        assert reader.stats.disk_hits >= 1


class TestStats:
    def test_delta_resets_after_take(self, tmp_path):
        cache = GraphCache(tmp_path)
        cache.get_graph(get_dataset("R1"), 0)
        delta = cache.take_stats_delta()
        assert delta["misses"] == 1
        assert cache.take_stats_delta()["misses"] == 0
        # the cumulative stats survive the take
        assert cache.stats.misses == 1

    def test_merge_accepts_objects_and_dicts(self):
        total = CacheStats()
        total.merge(CacheStats(memory_hits=2, misses=1))
        total.merge({"disk_hits": 3, "bytes_written": 10})
        assert total.hits == 5
        assert total.as_dict() == {
            "memory_hits": 2, "disk_hits": 3, "misses": 1,
            "stores": 0, "bytes_written": 10,
        }


class TestMaintenance:
    def test_disk_entries_have_manifests(self, tmp_path):
        cache = GraphCache(tmp_path)
        cache.get_graph(get_dataset("R1"), 0)
        cache.get_reference(get_dataset("R1"), "bfs", 0)
        entries = cache.disk_entries()
        assert [e.kind for e in entries] == ["graph", "reference"]
        assert all(e.bytes > 0 for e in entries)

    def test_disk_usage_lists_without_reading_manifests(self, tmp_path):
        cache = GraphCache(tmp_path / "not-created-yet")
        assert cache.disk_usage() == {"entries": 0, "bytes": 0}
        assert GraphCache(None).disk_usage() == {"entries": 0, "bytes": 0}
        cache.get_graph(get_dataset("R1"), 0)
        cache.get_reference(get_dataset("R1"), "bfs", 0)
        for entry in cache.directory.glob("*/*.pkl"):
            entry.write_bytes(b"{ torn" + entry.read_bytes()[6:])
        assert cache.disk_usage() == {
            "entries": 2, "bytes": cache.stats.bytes_written,
        }
        # The listing shows what it cannot describe instead of raising.
        assert [(e.kind, e.label) for e in cache.disk_entries()] == [
            ("?", "?"), ("?", "?"),
        ]
        assert sum(e.bytes for e in cache.disk_entries()) == (
            cache.stats.bytes_written
        )

    def test_clear_removes_everything(self, tmp_path):
        cache = GraphCache(tmp_path)
        cache.get_graph(get_dataset("R1"), 0)
        cache.get_reference(get_dataset("R1"), "bfs", 0)
        assert cache.clear() == 2
        assert cache.disk_entries() == []
        assert not list(tmp_path.glob("*"))

    def test_one_file_per_entry(self, tmp_path):
        cache = GraphCache(tmp_path)
        cache.get_graph(get_dataset("R1"), 0)
        cache.get_reference(get_dataset("R1"), "bfs", 0)
        files = [path for path in tmp_path.rglob("*") if path.is_file()]
        assert sorted(path.name for path in files) == sorted(
            f"{entry.key}.pkl" for entry in cache.disk_entries()
        )
        assert [(e.kind, e.label) for e in cache.disk_entries()] == [
            ("graph", "R1 seed=0"), ("reference", "R1/bfs seed=0"),
        ]


def _write_format_2(path, value, *, kind, label):
    """An entry as CACHE_FORMAT_VERSION 2 stored it: magic | payload
    length | payload CRC in front of the pickle, and a JSON sidecar."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    header = struct.pack("<9sQI", b"GLYTCACHE", len(payload), zlib.crc32(payload))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(header + payload)
    path.with_suffix(".json").write_text(json.dumps({
        "key": path.stem, "kind": kind, "label": label,
        "bytes": len(header) + len(payload), "format": 2,
    }))


class TestOlderFormatStore:
    """A directory a format-2 build filled, met by this one."""

    def test_format_2_store_is_ignored_listed_and_cleared(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        dataset = get_dataset("R1")
        dataset._cache.clear()
        built = dataset.materialize(0)
        dataset._cache.clear()
        # One entry under the key format 2 gave it (any other digest),
        # one squatting on the path this format will look at.
        orphan = hashlib.sha256(b"format 2 key").hexdigest()
        squatter = graph_key(dataset, 0)
        for key in (orphan, squatter):
            _write_format_2(
                tmp_path / key[:2] / f"{key}.pkl", built,
                kind="graph", label="R1 seed=0",
            )

        assert main(["cache", "--dir", str(tmp_path), "stats"]) == 0
        listing = capsys.readouterr().out
        unreadable = [
            line for line in listing.splitlines() if line.startswith("  ? ")
        ]
        assert len(unreadable) == 2 and "2 entries" in listing

        with use_tracer(Tracer()) as tracer:
            cache = GraphCache(tmp_path)
            _assert_same_graph(cache.get_graph(dataset, 0), built)
        assert tracer.counters["cache.corrupt"] == 1  # the squatter
        assert cache.stats.misses == 1 and cache.stats.stores == 1
        assert [e.kind for e in cache.disk_entries()] == ["?", "graph"]

        assert cache.clear() == 2
        assert not list(tmp_path.glob("*"))  # sidecars went too
        GraphCache(tmp_path).get_graph(dataset, 0)
        files = [path for path in tmp_path.rglob("*") if path.is_file()]
        assert [path.name for path in files] == [f"{squatter}.pkl"]
        assert [e.kind for e in GraphCache(tmp_path).disk_entries()] == ["graph"]


def _format_3_graph(graph):
    """``graph`` as a format-3 build pickled it: a per-vertex ``_index``
    dict and no id permutation."""
    old = object.__new__(type(graph))
    state = dict(vars(graph))
    del state["_id_order"]
    state["_index"] = {int(v): i for i, v in enumerate(graph.vertex_ids)}
    old.__dict__.update(state)
    return old


class TestFormat3Store:
    """A directory a format-3 build filled (Graphs with ``_index``)."""

    DATASETS = ["R1", "R4", "D100"]

    def _fill(self, directory, monkeypatch):
        """Store every graph of the matrix the way format 3 did."""
        monkeypatch.setattr("repro.runtime.cache.CACHE_FORMAT_VERSION", 3)
        store = GraphCache(directory)
        for dataset_id in self.DATASETS:
            dataset = get_dataset(dataset_id)
            dataset._cache.clear()
            store._disk_put(
                graph_key(dataset, 0), _format_3_graph(dataset.materialize(0)),
                kind="graph", label=f"{dataset_id} seed=0",
            )
        # Under the old key an old Graph would be served, and lookups
        # through it fail: this is what the version bump keeps out.
        stale = GraphCache(directory).get_graph(get_dataset("R1"), 0)
        assert "_index" in vars(stale)
        with pytest.raises(AttributeError):
            stale.index_of(int(stale.vertex_ids[0]))
        for dataset_id in self.DATASETS:
            get_dataset(dataset_id)._cache.clear()
        monkeypatch.undo()

    def test_old_graphs_are_misses(self, tmp_path, monkeypatch):
        self._fill(tmp_path, monkeypatch)
        cache = GraphCache(tmp_path)
        for dataset_id in self.DATASETS:
            graph = cache.get_graph(get_dataset(dataset_id), 0)
            assert "_index" not in vars(graph)
            vid = int(graph.vertex_ids[-1])
            assert graph.index_of(vid) == graph.num_vertices - 1
        assert cache.stats.disk_hits == 0
        assert cache.stats.misses == len(self.DATASETS)

    def test_matrix_over_old_store_validates_every_row(
        self, tmp_path, monkeypatch
    ):
        from repro.harness.config import BenchmarkConfig
        from repro.runtime import RuntimeConfig, execute_matrix

        self._fill(tmp_path, monkeypatch)
        config = BenchmarkConfig(
            platforms=["pythonref", "graphmat"],
            datasets=self.DATASETS,
            algorithms=["bfs", "wcc", "sssp"],
        )
        result = execute_matrix(config, RuntimeConfig(cache_dir=tmp_path))
        rows = list(result.database)
        assert rows and all(
            row.status == "succeeded" and row.validated for row in rows
        ), [(row.dataset, row.algorithm, row.status) for row in rows]
        assert result.cache_stats.disk_hits == 0


class TestClearUnderLoad:
    """``cache clear`` on a directory that readers and writers are using."""

    @pytest.mark.parametrize("step", ["mkstemp", "replace"])
    def test_writer_racing_a_clear_skips_the_spill(
        self, tmp_path, monkeypatch, step
    ):
        """``clear`` lands between ``atomic_write``'s mkdir and mkstemp
        (the shard directory is gone) or between its write and rename
        (the temp file is gone): the job keeps its value, nothing is
        stored, the next reader rebuilds."""
        dataset = get_dataset("R1")
        dataset._cache.clear()
        module = {"mkstemp": tempfile, "replace": os}[step]
        real = getattr(module, step)

        def cleared_first(*args, **kwargs):
            monkeypatch.undo()
            GraphCache(tmp_path).clear()
            return real(*args, **kwargs)

        monkeypatch.setattr(module, step, cleared_first)
        cache = GraphCache(tmp_path)
        graph = cache.get_graph(dataset, 0)
        assert cache.stats.misses == 1 and cache.stats.stores == 0
        assert not list(tmp_path.glob("*/*"))
        later = GraphCache(tmp_path)
        _assert_same_graph(later.get_graph(dataset, 0), graph)
        assert later._disk_get(graph_key(dataset, 0)) is not None

    def test_clear_tolerates_entries_vanishing_under_it(
        self, tmp_path, monkeypatch
    ):
        cache = GraphCache(tmp_path)
        cache.get_graph(get_dataset("R1"), 0)
        real_unlink = Path.unlink

        def somebody_was_faster(self, missing_ok=False):
            real_unlink(self)  # a reader dropping a bad entry, another clear
            real_unlink(self, missing_ok=missing_ok)

        monkeypatch.setattr(Path, "unlink", somebody_was_faster)
        assert cache.clear() == 1
        monkeypatch.undo()
        assert not list(tmp_path.glob("*"))


    @pytest.mark.parametrize("step", ["scandir", "open"])
    def test_stats_racing_a_clear_still_lists(
        self, tmp_path, monkeypatch, capsys, step
    ):
        """``clear`` lands between the directory listing and a shard's
        (``scandir``), or between a shard's listing and the first
        entry's read (``open``): ``cache stats`` lists what is left."""
        from repro.cli import main
        from repro.runtime import cache as cache_module

        cache = GraphCache(tmp_path)
        for dataset_id in ("R1", "R2", "R3"):
            cache.get_graph(get_dataset(dataset_id), 0)
        real = {"scandir": os.scandir, "open": open}[step]
        calls = []

        def cleared_first(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                GraphCache(tmp_path).clear()
            return real(*args, **kwargs)

        if step == "scandir":
            monkeypatch.setattr(os, "scandir", cleared_first)
        else:
            calls.append("the race is at the first entry")
            monkeypatch.setattr(cache_module, "open", cleared_first, raising=False)
        assert cache.disk_entries() == []
        monkeypatch.undo()
        assert len(calls) >= 2
        assert main(["cache", "--dir", str(tmp_path), "stats"]) == 0
        assert "(no cached entries)" in capsys.readouterr().out


def _truncate(path, graph):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _flip_payload_byte(path, graph):
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))


def _headerless(path, graph):
    """What the store held before entries carried a header."""
    path.write_bytes(pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL))


def _not_a_pickle(path, graph):
    path.write_bytes(b"not a pickle")


class TestSelfHealing:
    """An unreadable entry is a counted miss that repairs itself."""

    def _stored(self, directory):
        dataset = get_dataset("R1")
        cache = GraphCache(directory)
        graph = cache.get_graph(dataset, 0)
        return dataset, graph, cache._entry_path(graph_key(dataset, 0))

    def _assert_healed(self, directory, dataset, graph, tracer, reader, loaded):
        _assert_same_graph(loaded, graph)
        assert reader.stats.misses == 1
        assert reader.stats.disk_hits == 0
        assert reader.stats.stores == 1
        assert tracer.counters["cache.corrupt"] == 1
        assert tracer.counters["cache.miss"] == 1
        # The entry on disk is valid again: a third process takes a hit.
        with use_tracer(Tracer()) as after:
            third = GraphCache(directory)
            _assert_same_graph(third.get_graph(dataset, 0), graph)
        assert third.stats.disk_hits == 1
        assert "cache.corrupt" not in after.counters

    @pytest.mark.parametrize(
        "damage", [_truncate, _flip_payload_byte, _headerless, _not_a_pickle]
    )
    def test_damaged_entry_is_rebuilt(self, tmp_path, damage):
        dataset, graph, path = self._stored(tmp_path)
        damage(path, graph)
        dataset._cache.clear()  # the rebuild must run the recipe again
        with use_tracer(Tracer()) as tracer:
            reader = GraphCache(tmp_path)
            loaded = reader.get_graph(dataset, 0)
        self._assert_healed(tmp_path, dataset, graph, tracer, reader, loaded)

    def test_entry_cleared_between_exists_and_read(self, tmp_path, monkeypatch):
        dataset, graph, path = self._stored(tmp_path)
        real_exists = Path.exists

        def cleared_after_the_check(self):
            found = real_exists(self)
            if self == path and found:
                monkeypatch.undo()
                self.unlink()  # a concurrent `cache clear` wins the race
            return found

        monkeypatch.setattr(Path, "exists", cleared_after_the_check)
        dataset._cache.clear()
        with use_tracer(Tracer()) as tracer:
            reader = GraphCache(tmp_path)
            loaded = reader.get_graph(dataset, 0)
        self._assert_healed(tmp_path, dataset, graph, tracer, reader, loaded)

    def test_damaged_reference_is_rebuilt(self, tmp_path):
        dataset = get_dataset("R1")
        cache = GraphCache(tmp_path)
        reference = cache.get_reference(dataset, "pr", 0)
        _truncate(cache._entry_path(reference_key(dataset, "pr", 0)), None)
        with use_tracer(Tracer()) as tracer:
            reader = GraphCache(tmp_path)
            again = reader.get_reference(dataset, "pr", 0)
        assert again.tobytes() == reference.tobytes()
        assert tracer.counters["cache.corrupt"] == 1
        assert GraphCache(tmp_path).get_reference(
            dataset, "pr", 0
        ).tobytes() == reference.tobytes()


class TestRoundTrip:
    """load(store(x)) == x for everything the catalog can put in the store."""

    @pytest.mark.parametrize("dataset_id", list(DATASETS))
    def test_graph(self, tmp_path, dataset_id):
        dataset = get_dataset(dataset_id)
        built = GraphCache(tmp_path).get_graph(dataset, 0)
        reader = GraphCache(tmp_path)
        loaded = reader._disk_get(graph_key(dataset, 0))
        assert loaded is not built
        _assert_same_graph(loaded, built)
        if not built.directed:
            # One CSR serves both directions; pickling must keep the
            # three arrays shared, not double the graph.
            assert loaded.in_indptr is loaded.out_indptr
            assert loaded.in_indices is loaded.out_indices
            assert loaded.in_weights is loaded.out_weights

    @pytest.mark.parametrize("dataset_id", list(DATASETS))
    def test_reference(self, tmp_path, dataset_id):
        dataset = get_dataset(dataset_id)
        algorithm = "sssp" if dataset.weighted else "bfs"
        built = GraphCache(tmp_path).get_reference(dataset, algorithm, 0)
        loaded = GraphCache(tmp_path)._disk_get(
            reference_key(dataset, algorithm, 0)
        )
        assert loaded.dtype == built.dtype
        assert loaded.tobytes() == built.tobytes()


def _race_to_build(directory, barrier, results):
    dataset = get_dataset("R3")
    dataset._cache.clear()  # forked: drop whatever the parent memoized
    cache = GraphCache(directory)
    barrier.wait(timeout=60)
    graph = cache.get_graph(dataset, 41)
    digest = hashlib.sha256()
    for name, value in sorted(vars(graph).items()):
        if isinstance(value, np.ndarray):
            digest.update(name.encode() + value.tobytes())
    results.put((digest.hexdigest(), cache.stats.as_dict()))


def test_processes_racing_to_build_one_key(tmp_path):
    """More builders than cores, one key: equal graphs, one valid entry."""
    context = multiprocessing.get_context("fork")
    racers = 3
    barrier = context.Barrier(racers)
    results = context.Queue()
    processes = [
        context.Process(target=_race_to_build, args=(tmp_path, barrier, results))
        for _ in range(racers)
    ]
    for process in processes:
        process.start()
    outcomes = [results.get(timeout=120) for _ in processes]
    for process in processes:
        process.join(timeout=60)
        assert process.exitcode == 0
    assert len({digest for digest, _stats in outcomes}) == 1
    # Whoever lost the race either built too (a miss) or read the
    # winner's entry (a disk hit) — never a torn one.
    assert all(s["misses"] + s["disk_hits"] == 1 for _d, s in outcomes)
    assert [p.name for p in tmp_path.glob("*/*")] == [
        f"{graph_key(get_dataset('R3'), 41)}.pkl"
    ]
    with use_tracer(Tracer()) as tracer:
        reader = GraphCache(tmp_path)
        reader.get_graph(get_dataset("R3"), 41)
    assert reader.stats.disk_hits == 1
    assert "cache.corrupt" not in tracer.counters
