"""RACE003 and the interprocedural ROB001/OBS001 passes."""

from pathlib import Path

import pytest

from repro.lint import LintConfig, LintEngine, ProjectModel

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _run(paths, select, root=REPO_ROOT):
    config = LintConfig(root=root, select=list(select))
    return LintEngine(config).run([Path(p) for p in paths])


def _triples(findings):
    return [(f.rule_id, f.path.rsplit("/", 1)[-1], f.line) for f in findings]


class TestRace003ForkUnsafeImportResources:
    def test_import_time_handle_flagged_at_creation_site(self):
        findings = _run([FIXTURES / "raceproj"], ["RACE003"])
        assert _triples(findings) == [
            ("RACE003", "resources.py", 5),
        ]
        finding = findings[0]
        assert finding.severity == "warning"
        assert "`LOG_HANDLE`" in finding.message
        assert "jobs.record" in finding.message

    def test_unused_lock_not_flagged(self):
        # STATE_LOCK exists at import time but no worker-reachable code
        # touches it: creation alone is not the violation.
        findings = _run([FIXTURES / "raceproj"], ["RACE003"])
        assert all("STATE_LOCK" not in f.message for f in findings)

    def test_closure_typed_receiver_reaches_the_job_body(self, tmp_path):
        # The worker loop calls the job body through a closure over a
        # runner built in the entrypoint: the lock is reached only if
        # `runner` is typed in the function that binds it.
        (tmp_path / "jobs.py").write_text(
            "import threading\n"
            "\n"
            "JOB_LOCK = threading.Lock()\n"
            "\n"
            "\n"
            "class Runner:\n"
            "    def run(self, payload):\n"
            "        with JOB_LOCK:\n"
            "            return payload\n",
            encoding="utf-8",
        )
        (tmp_path / "worker.py").write_text(
            "import multiprocessing as mp\n"
            "\n"
            "from jobs import Runner\n"
            "\n"
            "\n"
            "def _worker_main(conn):\n"
            "    runner = Runner()\n"
            "\n"
            "    def run_task(payload):\n"
            "        return runner.run(payload)\n"
            "\n"
            "    while True:\n"
            "        conn.send(run_task(conn.recv()))\n"
            "\n"
            "\n"
            "def spawn(conn):\n"
            "    mp.Process(target=_worker_main, args=(conn,)).start()\n",
            encoding="utf-8",
        )
        findings = _run([tmp_path], ["RACE003"], root=tmp_path)
        assert _triples(findings) == [("RACE003", "jobs.py", 3)]
        assert "`jobs.Runner.run`" in findings[0].message

    def test_resource_reexported_twice_resolves_to_its_owner(self, tmp_path):
        # worker -> pkg/__init__ -> pkg/mid -> pkg/state: three imports.
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "state.py").write_text(
            "import threading\n\nLOCK = threading.Lock()\n", encoding="utf-8"
        )
        (pkg / "mid.py").write_text(
            "from pkg.state import LOCK\n", encoding="utf-8"
        )
        (pkg / "__init__.py").write_text(
            "from pkg.mid import LOCK\n", encoding="utf-8"
        )
        (tmp_path / "worker.py").write_text(
            "import multiprocessing as mp\n"
            "\n"
            "from pkg import LOCK\n"
            "\n"
            "\n"
            "def _worker_main(conn):\n"
            "    with LOCK:\n"
            "        conn.send(conn.recv())\n"
            "\n"
            "\n"
            "def spawn(conn):\n"
            "    mp.Process(target=_worker_main, args=(conn,)).start()\n",
            encoding="utf-8",
        )
        findings = _run([tmp_path], ["RACE003"], root=tmp_path)
        assert _triples(findings) == [("RACE003", "state.py", 3)]
        assert "`worker._worker_main`" in findings[0].message


class TestPartitionedFixtureProject:
    """``partitionedproj`` mirrors the shard engine's message-send
    entrypoints: a ``Process(target=shard_main)`` fork boundary, a
    module-state send path and the per-process ``Outbox`` — the call
    graph must split the two sides of the fork exactly."""

    def test_per_process_outbox_and_coordinator_side_stay_clean(self):
        # The shard reaches both send paths (Outbox through the local
        # `outbox = Outbox()`); the coordinator's drain stays on the
        # dispatcher side of the fork.
        engine = LintEngine(LintConfig(root=REPO_ROOT))
        modules = [
            engine._parse_module(path)[0]
            for path in engine.collect_files([FIXTURES / "partitionedproj"])
        ]
        reachable = {
            key.split("partitioned.", 1)[1]
            for key in ProjectModel.build(modules).worker_reachable
        }
        assert {"exchange.send_shared", "exchange.Outbox.send"} <= reachable
        assert "coordinator.drain_coordinator_side" not in reachable

    def test_no_import_time_fork_unsafe_resources(self):
        assert _run([FIXTURES / "partitionedproj"], ["RACE003"]) == []

    def test_live_partitioned_engine_passes_the_family(self):
        findings = _run(
            [REPO_ROOT / "src" / "repro" / "engines" / "partitioned"],
            ["RACE003"],
        )
        assert findings == []


class TestRob001Interprocedural:
    @pytest.fixture
    def miniproject(self, tmp_path):
        # ROB001's scope includes the "lint" path segment, so every
        # fixture under tests/lint/ would be in scope; the helper must
        # live in a genuinely out-of-scope module, hence tmp_path.
        (tmp_path / "harness").mkdir()
        (tmp_path / "util").mkdir()
        (tmp_path / "util" / "disk.py").write_text(
            "def dump(path, data):\n"
            "    with open(path, 'w', encoding='utf-8') as handle:\n"
            "        handle.write(data)\n",
            encoding="utf-8",
        )
        (tmp_path / "harness" / "writer.py").write_text(
            "from util.disk import dump\n"
            "\n"
            "\n"
            "def save_report(path, data):\n"
            "    dump(path, data)\n",
            encoding="utf-8",
        )
        return tmp_path

    def test_helper_indirected_write_flagged_at_call_site(self, miniproject):
        findings = _run([miniproject], ["ROB001"], root=miniproject)
        assert _triples(findings) == [
            ("ROB001", "writer.py", 5),
        ]
        message = findings[0].message
        assert "util.disk.dump" in message
        assert "atomic_write" in message

    def test_old_syntactic_pass_misses_it(self, miniproject):
        # The caller's file alone shows no write: the finding needs the
        # helper's module in the linted tree.
        writer = miniproject / "harness" / "writer.py"
        assert _run([writer], ["ROB001"], root=miniproject) == []


class TestObs001Interprocedural:
    def test_aliased_and_rebound_clocks_flagged(self):
        findings = _run([FIXTURES / "obsproj"], ["OBS001"])
        assert _triples(findings) == [
            ("OBS001", "clockmod.py", 14),
            ("OBS001", "clockmod.py", 18),
            ("OBS001", "meter.py", 7),
            ("OBS001", "meter.py", 9),
        ]
        by_line = {(f.path.rsplit("/", 1)[-1], f.line): f.message for f in findings}
        assert "import alias `_clk`" in by_line[("clockmod.py", 14)]
        assert "time.perf_counter" in by_line[("meter.py", 7)]

    def test_sleep_through_alias_not_flagged(self):
        findings = _run([FIXTURES / "obsproj"], ["OBS001"])
        assert all(f.symbol != "wait" for f in findings)

    def test_old_syntactic_pass_misses_all_of_it(self):
        # One file shows the alias and the same-module rebind; only the
        # rebind imported into meter.py needs both files in the tree.
        findings = [
            finding
            for name in ("clockmod.py", "meter.py")
            for finding in _run([FIXTURES / "obsproj" / name], ["OBS001"])
        ]
        assert _triples(findings) == [
            ("OBS001", "clockmod.py", 14),
            ("OBS001", "clockmod.py", 18),
        ]


class TestLiveTreeIsClean:
    def test_src_repro_has_no_unbaselined_race_findings(self):
        findings = _run([REPO_ROOT / "src" / "repro"], ["RACE003"])
        assert findings == []
