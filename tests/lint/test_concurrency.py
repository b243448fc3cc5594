"""The RACE rule family and the interprocedural ROB001/OBS001 passes."""

from pathlib import Path

import pytest

from repro.lint import LintConfig, LintEngine

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _run(paths, select, root=REPO_ROOT):
    config = LintConfig(root=root, select=list(select))
    return LintEngine(config).run([Path(p) for p in paths])


def _triples(findings):
    return [(f.rule_id, f.path.rsplit("/", 1)[-1], f.line) for f in findings]


class TestRace001WorkerGlobalMutation:
    def test_worker_reachable_mutations_flagged(self):
        findings = _run([FIXTURES / "raceproj"], ["RACE001"])
        assert _triples(findings) == [
            ("RACE001", "jobs.py", 8),
            ("RACE001", "jobs.py", 14),
        ]
        assert all(f.severity == "error" for f in findings)

    def test_messages_name_state_owner_and_entrypoint(self):
        by_line = {f.line: f.message for f in _run([FIXTURES / "raceproj"], ["RACE001"])}
        assert "`CACHE`" in by_line[8] and "raceproj.state" in by_line[8]
        assert "_worker_main" in by_line[8]
        assert "`.append()`" in by_line[14] and "`RESULTS`" in by_line[14]

    def test_dispatcher_side_mutation_not_flagged(self):
        findings = _run([FIXTURES / "raceproj"], ["RACE001"])
        assert all(f.symbol != "dispatcher_side_mutation" for f in findings)

    def test_local_state_never_flagged(self):
        findings = _run([FIXTURES / "raceproj"], ["RACE001"])
        assert all(f.symbol != "helper_total" for f in findings)

    def test_no_findings_without_an_entrypoint(self):
        # The same mutations, linted without worker.py's Process(target=)
        # call: nothing is worker-reachable.
        raceproj = FIXTURES / "raceproj"
        paths = [raceproj / "jobs.py", raceproj / "state.py"]
        assert _run(paths, ["RACE001"]) == []

    def test_state_reexported_twice_resolves_to_its_owner(self, tmp_path):
        # worker -> pkg/__init__ -> pkg/mid -> pkg/state: three imports.
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "state.py").write_text("CACHE = {}\n", encoding="utf-8")
        (pkg / "mid.py").write_text(
            "from pkg.state import CACHE\n", encoding="utf-8"
        )
        (pkg / "__init__.py").write_text(
            "from pkg.mid import CACHE\n", encoding="utf-8"
        )
        (tmp_path / "worker.py").write_text(
            "import multiprocessing as mp\n"
            "\n"
            "from pkg import CACHE\n"
            "\n"
            "\n"
            "def _worker_main(conn):\n"
            "    CACHE[1] = conn.recv()\n"
            "\n"
            "\n"
            "def spawn(conn):\n"
            "    mp.Process(target=_worker_main, args=(conn,)).start()\n",
            encoding="utf-8",
        )
        findings = _run([tmp_path], ["RACE001"], root=tmp_path)
        assert _triples(findings) == [("RACE001", "worker.py", 7)]
        assert "defined in pkg.state" in findings[0].message


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


class TestPartitionedFixtureProject:
    """``partitionedproj`` mirrors the shard engine's message-send
    entrypoints: a ``Process(target=shard_main)`` fork boundary, a racy
    module-state send path and the clean per-process ``Outbox`` — the
    RACE family must split them exactly."""

    def test_shard_reachable_module_state_flagged(self):
        findings = _run([FIXTURES / "partitionedproj"], ["RACE001"])
        assert _triples(findings) == [
            ("RACE001", "exchange.py", 9),
            ("RACE001", "exchange.py", 10),
        ]
        by_line = {f.line: f.message for f in findings}
        assert "`SEQ_COUNTERS`" in by_line[9] and "shard_main" in by_line[9]
        assert "`.append()`" in by_line[10] and "`OUTBOX`" in by_line[10]

    def test_per_process_outbox_and_coordinator_side_stay_clean(self):
        # Outbox.send mutates only instance state, and
        # drain_coordinator_side mutates OUTBOX on the dispatcher side
        # of the fork: neither is a finding.
        findings = _run([FIXTURES / "partitionedproj"], ["RACE001"])
        assert {f.symbol for f in findings} == {"send_shared"}

    def test_no_import_time_fork_unsafe_resources(self):
        assert _run([FIXTURES / "partitionedproj"], ["RACE003"]) == []

    def test_live_partitioned_engine_passes_the_family(self):
        findings = _run(
            [REPO_ROOT / "src" / "repro" / "engines" / "partitioned"],
            ["RACE001", "RACE003"],
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
        findings = _run(
            [REPO_ROOT / "src" / "repro"],
            ["RACE001", "RACE003"],
        )
        assert findings == []
