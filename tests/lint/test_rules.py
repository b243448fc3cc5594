"""One exact-match test per lint rule, against the fixture modules.

Each test pins the precise (rule id, file, line) triples a fixture must
produce — both that the violations are caught and that the surrounding
clean patterns are not.
"""

from repro.lint import LintConfig, LintEngine, all_rules
from repro.lint.rules.consistency import registry_gaps


def _triples(findings):
    return [(f.rule_id, f.path.rsplit("/", 1)[-1], f.line) for f in findings]


class TestRuleRegistry:
    def test_all_seventeen_rules_registered(self):
        assert sorted(all_rules()) == [
            "CON001", "CON002", "DET001", "DET002", "DET003",
            "EXC001", "OBS001", "RACE001", "RACE002", "RACE003",
            "REG001", "REP001", "ROB001", "ROB002", "ROB003",
            "RUN001", "SRV001",
        ]

    def test_rules_have_descriptions_and_severities(self):
        for rule in all_rules().values():
            assert rule.description
            assert rule.severity in ("error", "warning", "info")


class TestDet001UnorderedIteration:
    def test_exact_findings(self, lint_fixture):
        findings = lint_fixture("algorithms/det001_case.py")
        assert _triples(findings) == [
            ("DET001", "det001_case.py", 7),
            ("DET001", "det001_case.py", 9),
        ]
        assert all(f.severity == "error" for f in findings)
        assert all(f.symbol == "kernel" for f in findings)

    def test_clean_patterns_not_flagged(self, lint_fixture):
        assert lint_fixture("algorithms/clean_case.py") == []

    def test_out_of_scope_module_not_checked(self, lint_fixture):
        # The same set iteration outside algorithms/engines is fine:
        # DET001 is scoped, DET002 is not — only DET002-class findings
        # may appear for modules at the fixture root.
        findings = lint_fixture("det002_case.py", select=["DET001"])
        assert findings == []


class TestDet002UnseededRng:
    def test_exact_findings(self, lint_fixture):
        findings = lint_fixture("det002_case.py")
        assert _triples(findings) == [
            ("DET002", "det002_case.py", 8),
            ("DET002", "det002_case.py", 9),
            ("DET002", "det002_case.py", 10),
        ]

    def test_seeded_constructors_pass(self, lint_fixture):
        messages = " ".join(
            f.message for f in lint_fixture("det002_case.py")
        )
        assert "Random()" in messages
        assert "default_rng()" in messages
        assert "random.random()" in messages


class TestDet003UnorderedAccumulation:
    def test_exact_findings(self, lint_fixture):
        findings = lint_fixture("algorithms/det003_case.py", select=["DET003"])
        assert _triples(findings) == [
            ("DET003", "det003_case.py", 6),
            ("DET003", "det003_case.py", 7),
        ]
        assert all(f.severity == "warning" for f in findings)


class TestCon001VertexProgramState:
    def test_exact_findings(self, lint_fixture):
        findings = lint_fixture("engines/con001_case.py")
        assert _triples(findings) == [
            ("CON001", "con001_case.py", 7),
            ("CON001", "con001_case.py", 14),
        ]
        assert "SHARED" in findings[0].message
        assert ".setdefault()" in findings[1].message

    def test_live_engines_are_contract_clean(self, lint_fixture):
        from pathlib import Path

        import repro

        engines = Path(repro.__file__).parent / "engines"
        assert lint_fixture(engines, select=["CON001"]) == []


class TestCon002DriverBypass:
    def test_exact_findings(self, lint_fixture):
        findings = lint_fixture("platforms/con002_case.py")
        assert _triples(findings) == [
            ("CON002", "con002_case.py", 9),
            ("CON002", "con002_case.py", 11),
            ("CON002", "con002_case.py", 12),
        ]

    def test_lifecycle_hook_is_exempt(self, lint_fixture):
        findings = lint_fixture("platforms/con002_case.py")
        assert all(f.line != 16 for f in findings)


class TestExc001SwallowedException:
    def test_exact_findings(self, lint_fixture):
        findings = lint_fixture("harness/exc001_case.py")
        assert _triples(findings) == [
            ("EXC001", "exc001_case.py", 7),
        ]
        assert findings[0].symbol == "run_with_retry"


class TestRun001RuntimeFailureRecords:
    def test_exact_findings(self, lint_fixture):
        findings = lint_fixture("runtime/run001_case.py")
        assert _triples(findings) == [
            ("RUN001", "run001_case.py", 9),
        ]
        assert findings[0].severity == "error"
        assert findings[0].symbol == "_worker_main"

    def test_converting_reraising_and_narrow_handlers_pass(self, lint_fixture):
        findings = lint_fixture("runtime/run001_case.py")
        assert all(f.symbol == "_worker_main" for f in findings)

    def test_out_of_scope_module_not_checked(self, lint_fixture):
        # The same swallowing pattern outside repro.runtime is EXC001's
        # territory (different scope), not RUN001's.
        findings = lint_fixture("harness/exc001_case.py", select=["RUN001"])
        assert findings == []


    def test_polices_the_serve_loop_in_proc(self, tmp_path):
        # ``repro.proc.serve`` is the one child command loop: a module
        # named ``proc`` is in scope and ``serve`` is an entrypoint name.
        (tmp_path / "proc.py").write_text(
            "def serve(conn, handle):\n"
            "    while True:\n"
            "        try:\n"
            "            handle(conn.recv())\n"
            "        except Exception:\n"
            "            continue\n"
            "\n"
            "def serve_recorded(conn, handle):\n"
            "    try:\n"
            "        handle(conn.recv())\n"
            "    except Exception as exc:\n"
            "        conn.send(_mark_failed({}, exc))\n",
            encoding="utf-8",
        )
        engine = LintEngine(LintConfig(root=tmp_path, select=["RUN001"]))
        findings = engine.run([tmp_path / "proc.py"])
        assert [(f.rule_id, f.symbol, f.line) for f in findings] == [
            ("RUN001", "serve", 5),
        ]


class TestRob001AtomicArtifactWrites:
    def test_exact_findings(self, lint_fixture):
        findings = lint_fixture(
            "harness/rob001_case.py", select=["ROB001"]
        )
        assert _triples(findings) == [
            ("ROB001", "rob001_case.py", 7),
            ("ROB001", "rob001_case.py", 12),
            ("ROB001", "rob001_case.py", 16),
        ]
        assert all(f.severity == "error" for f in findings)
        assert all("atomic_write" in f.message for f in findings)

    def test_append_read_and_dynamic_modes_pass(self, lint_fixture):
        findings = lint_fixture(
            "harness/rob001_case.py", select=["ROB001"]
        )
        assert {f.symbol for f in findings} == {
            "save_report", "save_json", "save_binary"
        }

    def test_out_of_scope_module_not_checked(self, lint_fixture):
        # Graph-data exporters (repro.graph, repro.algorithms) stream
        # large files and are not run artifacts; ROB001 leaves them be.
        findings = lint_fixture(
            "algorithms/clean_case.py", select=["ROB001"]
        )
        assert findings == []


class TestObs001BareClockCalls:
    def test_exact_findings(self, lint_fixture):
        findings = lint_fixture(
            "runtime/obs001_case.py", select=["OBS001"]
        )
        assert _triples(findings) == [
            ("OBS001", "obs001_case.py", 4),
            ("OBS001", "obs001_case.py", 8),
            ("OBS001", "obs001_case.py", 10),
            ("OBS001", "obs001_case.py", 14),
            ("OBS001", "obs001_case.py", 18),
        ]
        assert all(f.severity == "error" for f in findings)
        assert all("tracer clock" in f.message for f in findings)

    def test_sleep_and_tracer_paths_pass(self, lint_fixture):
        findings = lint_fixture(
            "runtime/obs001_case.py", select=["OBS001"]
        )
        assert {f.symbol for f in findings} == {"", "measure", "stamp", "steady"}

    def test_trace_package_exempt(self):
        # The MonotonicClock wrapper is the one sanctioned call site.
        from pathlib import Path

        from repro.lint.core import LintEngine
        from repro.lint.config import LintConfig

        root = Path(__file__).resolve().parents[2]
        clock = root / "src" / "repro" / "trace" / "clock.py"
        engine = LintEngine(LintConfig(root=root, select=["OBS001"]))
        assert engine.run([clock]) == []


class TestRep001UnmeteredRate:
    def test_exact_findings(self, lint_fixture):
        findings = lint_fixture("harness/report.py")
        assert _triples(findings) == [
            ("REP001", "report.py", 5),
        ]
        assert "harness.metrics" in findings[0].message


class TestReg001RegistryConsistency:
    def test_no_gaps_when_fully_wired(self):
        gaps = registry_gaps(
            ["bfs", "pr"],
            {"bfs": object(), "pr": object()},
            ["bfs", "pr", "wcc"],
            {"bfs": None, "pr": None},
        )
        assert gaps == []

    def test_missing_validator_reported(self):
        gaps = registry_gaps(["bfs"], {}, ["bfs"])
        assert len(gaps) == 1
        assert "no validation rule" in gaps[0]

    def test_unwired_algorithm_reported(self):
        gaps = registry_gaps(["bfs"], {"bfs": object()}, [])
        assert len(gaps) == 1
        assert "wired into no experiment" in gaps[0]

    def test_unresolvable_parameters_reported(self):
        gaps = registry_gaps(
            ["bfs"], {"bfs": object()}, ["bfs"], {"bfs": "no source vertex"}
        )
        assert len(gaps) == 1
        assert "no source vertex" in gaps[0]

    def test_live_registry_is_consistent(self, lint_fixture):
        from pathlib import Path

        import repro

        registry = Path(repro.__file__).parent / "algorithms" / "registry.py"
        assert lint_fixture(registry, select=["REG001"]) == []
