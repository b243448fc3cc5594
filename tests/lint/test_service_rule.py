"""SRV001: blocking calls inside registered async request handlers."""

from pathlib import Path

from repro.lint import LintConfig, LintEngine

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _run(paths, select, root=REPO_ROOT):
    config = LintConfig(root=root, select=list(select))
    return LintEngine(config).run([Path(p) for p in paths])


def _triples(findings):
    return [(f.rule_id, f.path.rsplit("/", 1)[-1], f.line) for f in findings]


class TestSrv001:
    def test_exact_findings(self):
        findings = _run([FIXTURES / "serviceproj"], ["SRV001"])
        assert _triples(findings) == [
            ("SRV001", "app.py", 21),  # time.sleep in _handle_status
            ("SRV001", "app.py", 26),  # open() in _handle_report
            ("SRV001", "app.py", 27),  # un-awaited .read()
            ("SRV001", "app.py", 43),  # worker.join() in _settle
        ]
        assert all(f.severity == "error" for f in findings)

    def test_messages_name_handler_and_registration(self):
        by_line = {
            f.line: f.message
            for f in _run([FIXTURES / "serviceproj"], ["SRV001"])
        }
        assert "time.sleep" in by_line[21]
        assert "_handle_status" in by_line[21]
        assert "open" in by_line[26]
        # _settle is not itself registered; the finding names the
        # registered handler it is reachable from.
        assert "_settle" in by_line[43]
        assert "_handle_submit" in by_line[43]

    def test_async_sleep_is_not_flagged(self):
        findings = _run([FIXTURES / "serviceproj"], ["SRV001"])
        assert 22 not in {f.line for f in findings}

    def test_to_thread_thunk_is_exempt(self):
        # The nested def's open/read (lines 31-32) run off the loop.
        lines = {f.line for f in _run([FIXTURES / "serviceproj"], ["SRV001"])}
        assert not lines & {31, 32}

    def test_awaited_stream_read_is_exempt(self):
        lines = {f.line for f in _run([FIXTURES / "serviceproj"], ["SRV001"])}
        assert 36 not in lines

    def test_str_join_with_argument_is_exempt(self):
        lines = {f.line for f in _run([FIXTURES / "serviceproj"], ["SRV001"])}
        assert 44 not in lines

    def test_sync_and_unregistered_functions_are_exempt(self):
        lines = {f.line for f in _run([FIXTURES / "serviceproj"], ["SRV001"])}
        # sync_report's sleep/open/read and unregistered_helper's sleep.
        assert not lines & {54, 55, 56, 61}

    def test_no_findings_without_a_route_registration(self, tmp_path):
        # A blocking async def that no route table registers (nor any
        # registered handler reaches) is not an event-loop root.
        (tmp_path / "service").mkdir()
        (tmp_path / "service" / "app.py").write_text(
            "import time\n"
            "\n"
            "\n"
            "async def handle_status(request):\n"
            "    time.sleep(1)\n",
            encoding="utf-8",
        )
        assert _run([tmp_path], ["SRV001"], root=tmp_path) == []

    def test_real_service_package_is_clean(self):
        findings = _run([REPO_ROOT / "src" / "repro" / "service"], ["SRV001"])
        assert findings == []
