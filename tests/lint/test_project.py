"""Phase 1 of the whole-program analyzer: the ProjectModel and its call graph.

Built over the ``raceproj`` fixture tree — a miniature dispatcher /
worker / jobs / state project — so every assertion exercises the same
resolution paths the RACE rules depend on.
"""

from pathlib import Path

import pytest

from repro.lint import LintConfig, LintEngine, ProjectModel
from repro.lint.core import Module
from repro.lint.project import ModuleInfo

REPO_ROOT = Path(__file__).resolve().parents[2]
RACEPROJ = Path(__file__).resolve().parent / "fixtures" / "raceproj"


def _build(paths):
    engine = LintEngine(LintConfig(root=REPO_ROOT, select=["DET001"]))
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

    def test_mutable_global_inventory_and_kinds(self, project):
        state = project.resolve_module("raceproj.state")
        assert set(state.mutable_globals) == {"CACHE", "RESULTS", "_SETTINGS"}
        assert state.mutable_globals["CACHE"].kind == "container"
        resources = project.resolve_module("raceproj.resources")
        assert resources.mutable_globals["LOG_HANDLE"].kind == "file"
        assert resources.mutable_globals["LOG_HANDLE"].fork_unsafe
        assert resources.mutable_globals["STATE_LOCK"].kind == "lock"

    def test_immutable_global_not_inventoried(self, project):
        state = project.resolve_module("raceproj.state")
        assert "LIMIT" not in state.mutable_globals
        assert "LIMIT" in state.module_assigns

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
    must still be the fork boundary the RACE rules reason from."""

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
