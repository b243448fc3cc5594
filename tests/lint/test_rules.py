"""One exact-match test per lint rule, against the fixture modules.

Each test pins the precise (rule id, file, line) triples a fixture must
produce — both that the violations are caught and that the surrounding
clean patterns are not.
"""

import re
from pathlib import Path

import repro.lint.rules
from repro.lint import LintConfig, LintEngine, all_rules

LINT_DOC = Path(__file__).resolve().parents[2] / "docs" / "lint.md"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _triples(findings):
    return [(f.rule_id, f.path.rsplit("/", 1)[-1], f.line) for f in findings]


class TestRuleRegistry:
    def test_registered_rules(self):
        assert sorted(all_rules()) == [
            "CON001", "DET001", "DET003", "EXC001", "OBS001",
            "RACE003", "REP001", "ROB001", "ROB003",
            "RUN001", "SRV001",
        ]

    def test_docs_table_and_registry_name_the_same_rules(self):
        # A rule's `### <ID>` section in docs/lint.md, its row in the
        # rules package's docstring table, and its registration come
        # and go together.
        documented = re.findall(
            r"^### ([A-Z]+[0-9]+) ", LINT_DOC.read_text(encoding="utf-8"),
            re.MULTILINE,
        )
        tabled = re.findall(
            r"^``([A-Z]+[0-9]+)``", repro.lint.rules.__doc__, re.MULTILINE
        )
        assert sorted(documented) == sorted(tabled) == sorted(all_rules())
        assert len(set(documented)) == len(documented)
        assert len(set(tabled)) == len(tabled)

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

    def test_out_of_scope_module_not_checked(self, tmp_path):
        # The same set iteration outside algorithms/engines is fine:
        # DET001 is scoped to kernel code.
        source = (FIXTURES / "algorithms" / "det001_case.py").read_text()
        (tmp_path / "harness").mkdir()
        (tmp_path / "harness" / "case.py").write_text(source)
        engine = LintEngine(LintConfig(root=tmp_path, select=["DET001"]))
        assert engine.run([tmp_path]) == []


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
