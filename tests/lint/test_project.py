"""Phase 1 of the whole-program analyzer: the ProjectModel and its call graph.

Built over the ``raceproj`` fixture tree — a miniature dispatcher /
worker / jobs / state project — so every assertion exercises the same
resolution paths RACE003 depends on.
"""

from pathlib import Path

import pytest

from repro.lint import LintConfig, LintEngine, ProjectModel
from repro.lint.core import Module
from repro.lint.project import ModuleInfo

REPO_ROOT = Path(__file__).resolve().parents[2]
RACEPROJ = Path(__file__).resolve().parent / "fixtures" / "raceproj"


def _build(paths, root=REPO_ROOT):
    engine = LintEngine(LintConfig(root=root, select=["DET001"]))
    modules = []
    for path in engine.collect_files([Path(p) for p in paths]):
        module, syntax = engine._parse_module(path)
        assert syntax is None
        modules.append(module)
    return ProjectModel.build(modules)


@pytest.fixture(scope="module")
def project():
    return _build([RACEPROJ])


class TestModuleNames:
    def test_src_prefix_dropped(self):
        assert ProjectModel.module_name("src/repro/runtime/pool.py") == (
            "repro.runtime.pool"
        )

    def test_package_init_names_the_package(self):
        assert ProjectModel.module_name("src/repro/trace/__init__.py") == (
            "repro.trace"
        )

    def test_fixture_tree_names(self, project):
        assert any(name.endswith("raceproj.jobs") for name in project.modules)

    def test_suffix_resolution_matches_import_syntax(self, project):
        info = project.resolve_module("raceproj.state")
        assert info is not None
        assert info.name.endswith("raceproj.state")


class TestSymbolTables:
    def test_import_bindings_recorded(self, project):
        jobs = project.resolve_module("raceproj.jobs")
        binding = jobs.imports["CACHE"]
        assert binding.module == "raceproj.state"
        assert binding.symbol == "CACHE"

    def test_module_alias_recorded(self, project):
        worker = project.resolve_module("raceproj.worker")
        binding = worker.imports["mp"]
        assert binding.module == "multiprocessing"
        assert binding.symbol is None

    def test_functions_keyed_project_wide(self, project):
        jobs = project.resolve_module("raceproj.jobs")
        assert set(jobs.functions) == {"run_job", "record", "helper_total"}
        assert jobs.functions["run_job"].key.endswith("raceproj.jobs.run_job")

    def test_global_inventory_and_kinds(self, project):
        state = project.resolve_module("raceproj.state")
        assert set(state.globals) == {"CACHE", "RESULTS", "LIMIT", "_SETTINGS"}
        assert {g.kind for g in state.globals.values()} == {None}
        resources = project.resolve_module("raceproj.resources")
        assert resources.globals["LOG_HANDLE"].kind == "file"
        assert resources.globals["STATE_LOCK"].kind == "lock"

    def test_resolve_global_follows_imports(self, project):
        jobs = project.resolve_module("raceproj.jobs")
        resolved = project.resolve_global(jobs, "CACHE")
        assert resolved is not None
        assert resolved.module.name.endswith("raceproj.state")


class TestCallGraph:
    def test_worker_entrypoint_detected(self, project):
        (key,) = project.entrypoints
        assert key.endswith("raceproj.worker._worker_main")
        assert project.entrypoints[key] == "Process target"

    def test_reachability_crosses_modules(self, project):
        reachable = {k.rsplit(".", 1)[-1] for k in project.worker_reachable}
        assert {"_worker_main", "run_job", "record", "helper_total"} <= reachable

    def test_dispatcher_side_not_reachable(self, project):
        assert not any(
            key.endswith("dispatcher_side_mutation")
            for key in project.worker_reachable
        )

    def test_reverse_closure(self, project):
        (record_key,) = [
            k for k in project.functions if k.endswith("jobs.record")
        ]
        callers = project.closure({record_key}, reverse=True)
        assert any(k.endswith("_worker_main") for k in callers)


class TestLiveTreeForkBoundary:
    """The real tree spawns through ``repro.proc.Child(target=...)``,
    not a literal ``Process(target=...)``: the three child entrypoints
    must still be the fork boundary RACE003 reasons from."""

    @pytest.fixture(scope="class")
    def live(self):
        return _build([REPO_ROOT / "src" / "repro"])

    @pytest.mark.parametrize(
        "entrypoint",
        [
            "repro.runtime.pool._worker_main",
            "repro.engines.partitioned.shard.shard_main",
            "repro.service.worker.execute_service_run",
        ],
    )
    def test_child_targets_are_worker_entrypoints(self, live, entrypoint):
        assert live.entrypoints.get(entrypoint) == "Process target"

    def test_the_serve_loop_and_its_handlers_are_worker_reachable(self, live):
        assert {
            "repro.proc.serve",
            "repro.runtime.pool._worker_main.run_task",
            "repro.engines.partitioned.shard.shard_main.run_command",
        } <= set(live.worker_reachable)

    def test_job_bodies_are_worker_reachable(self, live):
        # run_task -> the closure's InProcessWorker -> run_job_spec ->
        # the runner -> the driver (a return-annotated call) -> the
        # kernels (through the ALGORITHMS table).
        assert {
            "repro.runtime.pool.run_job_spec",
            "repro.harness.runner.BenchmarkRunner.execute_job",
            "repro.platforms.base.PlatformDriver._execute",
            "repro.algorithms.bfs.breadth_first_search",
            "repro.algorithms.pagerank.pagerank",
            "repro.algorithms.wcc.weakly_connected_components",
            "repro.algorithms.cdlp.community_detection_lp",
            "repro.algorithms.lcc.local_clustering_coefficient",
            "repro.algorithms.sssp.single_source_shortest_paths",
        } <= set(live.worker_reachable)


def _tree(tmp_path, files):
    for name, source in files.items():
        (tmp_path / name).write_text(source, encoding="utf-8")
    return _build([tmp_path], root=tmp_path)


class TestJobBodyResolution:
    """The three rules that carry the call graph into job bodies."""

    def test_closure_variable_typed_where_it_is_bound(self, tmp_path):
        project = _tree(tmp_path, {"m.py": (
            "class Worker:\n"
            "    def run(self):\n"
            "        pass\n"
            "\n"
            "\n"
            "def main():\n"
            "    worker = Worker()\n"
            "\n"
            "    def task():\n"
            "        worker.run()\n"
            "\n"
            "    def shadowed(worker):\n"
            "        worker.run()\n"
        )})
        assert project.callees["m.main.task"] == {"m.Worker.run"}
        assert project.callees["m.main.shadowed"] == set()

    def test_call_result_takes_the_return_annotation(self, tmp_path):
        project = _tree(tmp_path, {"m.py": (
            "class Driver:\n"
            "    def execute(self):\n"
            "        pass\n"
            "\n"
            "\n"
            "def make() -> 'Driver':\n"
            "    return Driver()\n"
            "\n"
            "\n"
            "def direct():\n"
            "    make().execute()\n"
            "\n"
            "\n"
            "def through_a_local():\n"
            "    driver = make()\n"
            "    driver.execute()\n"
        )})
        for caller in ("m.direct", "m.through_a_local"):
            assert project.callees[caller] == {"m.make", "m.Driver.execute"}

    def test_loading_a_table_reaches_every_function_in_it(self, tmp_path):
        project = _tree(tmp_path, {
            "kernels.py": "def bfs():\n    pass\n\n\ndef pr():\n    pass\n",
            "registry.py": (
                "from kernels import bfs, pr\n"
                "\n"
                "TABLE = {'bfs': bfs, 'pr': dict(run=pr)}\n"
                "\n"
                "\n"
                "def run(name):\n"
                "    return TABLE[name]()\n"
            ),
        })
        assert project.callees["registry.run"] == {"kernels.bfs", "kernels.pr"}


class TestLocalResolution:
    def test_relative_import_climbs_packages(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("VALUE = {}\n", encoding="utf-8")
        (pkg / "b.py").write_text(
            "from .a import VALUE\n\n\ndef touch():\n    return VALUE\n",
            encoding="utf-8",
        )
        module = Module(pkg / "b.py", "pkg/b.py", (pkg / "b.py").read_text())
        info = ModuleInfo("pkg.b", module)
        assert info.imports["VALUE"].module == "pkg.a"

    def test_function_at_maps_nested_defs_to_outer(self, tmp_path):
        source = "def outer():\n    def inner():\n        pass\n    return inner\n"
        path = tmp_path / "m.py"
        path.write_text(source, encoding="utf-8")
        module = Module(path, "m.py", source)
        info = ModuleInfo("m", module)
        inner = info.functions["outer.inner"]
        assert info.function_at(inner.node).qualname == "outer"
