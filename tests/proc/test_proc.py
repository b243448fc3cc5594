"""``repro.proc`` driven directly: the supervised-child primitive's own
contract, with trivial handlers (no pool, no shards, no service)."""

from __future__ import annotations

import multiprocessing.connection
import os
import re
import signal
import time
from pathlib import Path

import pytest

import repro
from repro import proc
from repro.proc import Child, RetryPolicy, absorb, serve, stop_all, wait_any
from repro.trace import FakeClock, Tracer, current_tracer, use_tracer

TIMEOUT = 10.0  # upper bound on any single wait in this file


# -- child-side bodies ---------------------------------------------------------

def _handle(payload, reply):
    """echo / count / span / boom / exit, by ``payload["do"]``."""
    reply["tag"] = payload.get("tag")
    do = payload["do"]
    if do == "boom":
        current_tracer().counter("before.boom")
        with current_tracer().span("doomed"):
            raise ValueError("boom")
    if do == "exit":
        os._exit(3)
    if do == "work":
        current_tracer().counter("child.work", 2)
        with current_tracer().span("work"):
            pass
    reply["echo"] = payload


def _serve_main(task_conn, result_conn, name="kid"):
    serve(task_conn, result_conn, _handle, process=name)


def _nesting_main(task_conn, result_conn):
    """A channel child that owns a channel child (a pool worker and its
    shard): commands are relayed to it."""
    kid = Child("proc-test-grandchild", target=_serve_main)

    def relay(payload, reply):
        reply["grandchild"] = kid.process.pid
        reply["echo"] = _ask(kid, payload)["echo"]

    serve(task_conn, result_conn, relay, process="middle")
    kid.stop()


def _stubborn_main(task_conn, result_conn):
    """Ignores SIGTERM and never reads its command pipe."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    result_conn.send({"ready": True})
    while True:
        time.sleep(1.0)


def _stubborn_no_channel(flag):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    Path(flag).write_text("ready", encoding="utf-8")
    while True:
        time.sleep(1.0)


def _ask(child, payload):
    child.send(payload)
    assert child.poll(TIMEOUT), "no reply"
    return child.recv()


@pytest.fixture
def child():
    kid = Child("proc-test", target=_serve_main)
    yield kid
    kid.stop(graceful=False)
    assert not kid.alive()


# -- envelopes -----------------------------------------------------------------

class TestEnvelopes:
    def test_done_envelope_carries_handler_fields_and_trace(self, child):
        envelope = _ask(child, {"do": "work", "tag": 7})
        assert envelope["event"] == "done"
        assert envelope["tag"] == 7
        assert envelope["echo"] == {"do": "work", "tag": 7}
        assert [s["name"] for s in envelope["spans"]] == ["work"]
        assert envelope["counters"] == {"child.work": 2.0}
        assert isinstance(envelope["clock_offset"], float)

    def test_handler_exception_becomes_fail_envelope(self, child):
        envelope = _ask(child, {"do": "boom", "tag": "t"})
        assert envelope["event"] == "fail"
        assert envelope["detail"] == "ValueError: boom"
        assert "ValueError: boom" in envelope["traceback"]
        assert "_handle" in envelope["traceback"]
        # What the handler filled in before raising still ships.
        assert envelope["tag"] == "t"
        assert "echo" not in envelope
        assert [s["name"] for s in envelope["spans"]] == ["doomed"]
        assert envelope["spans"][0]["status"] == "error"
        assert envelope["counters"] == {"before.boom": 1.0}
        assert isinstance(envelope["clock_offset"], float)
        # The loop survives a failing command; trace state was drained.
        again = _ask(child, {"do": "echo"})
        assert again["event"] == "done"
        assert again["spans"] == [] and again["counters"] == {}

    def test_child_installs_its_own_tracer(self, child):
        with use_tracer(Tracer(process="parent")):
            envelope = _ask(child, {"do": "work"})
        assert envelope["spans"][0]["process"] == "kid"


# -- the clock handshake -------------------------------------------------------

class TestClockHandshake:
    def test_offset_and_absorb_under_fake_clocks(self, monkeypatch):
        # The forked child inherits the patched Tracer factory, so both
        # sides of the handshake run on scripted clocks.
        monkeypatch.setattr(
            proc, "Tracer",
            lambda process: Tracer(
                process=process, clock=FakeClock(start=50.0, tick=1.0)
            ),
        )
        clock = FakeClock(start=1000.0)
        tracer = Tracer(process="parent", clock=clock)
        with use_tracer(tracer):
            kid = Child("handshake", target=_serve_main)
            try:
                parent_span = tracer.start_span("attempt")   # [1000, ...
                envelope = _ask(kid, {"do": "work"})         # sent_at 1000
                clock.advance(10.0)
                tracer.end_span(parent_span)                 # ... 1010]
            finally:
                kid.stop()
        # received_at was the child clock's first reading: 50.0.
        assert envelope["clock_offset"] == 1000.0 - 50.0
        (raw,) = envelope["spans"]
        assert (raw["start"], raw["end"]) == (51.0, 52.0)
        absorb(envelope, tracer, parent_span)
        (work,) = [s for s in tracer.finished_spans() if s.name == "work"]
        assert (work.start, work.end) == (1001.0, 1002.0)
        assert work.parent_id == parent_span.span_id
        assert parent_span.start <= work.start <= work.end <= parent_span.end

    def test_absorb_merges_counters_on_done_and_fail(self, child):
        tracer = Tracer(process="parent")
        absorb(_ask(child, {"do": "work"}), tracer, None)
        absorb(_ask(child, {"do": "boom"}), tracer, None)
        assert tracer.counters == {"child.work": 2.0, "before.boom": 1.0}
        assert {s.name for s in tracer.finished_spans()} == {"work", "doomed"}


# -- EOF on both sides ---------------------------------------------------------

class TestEndOfFile:
    def test_parent_sees_closed_when_child_dies(self, child):
        child.send({"do": "exit"})
        assert child.poll(TIMEOUT)          # EOF counts as readable
        assert child.recv() is None
        assert child.closed
        assert child.poll(TIMEOUT) is False  # closed: waits for the exit
        assert not child.alive()
        assert child.process.exitcode == 3

    def test_child_exits_when_parent_end_closes(self, child):
        assert _ask(child, {"do": "echo"})["event"] == "done"
        child.close()
        child.process.join(TIMEOUT)
        assert not child.alive()
        assert child.process.exitcode == 0

    def test_wait_any_timeout_and_dead_child(self, child):
        other = Child("proc-test-2", target=_serve_main)
        try:
            started = time.monotonic()
            assert list(wait_any([child, other], 0.05)) == []
            assert time.monotonic() - started < TIMEOUT
            other.send({"do": "exit"})
            other.process.join(TIMEOUT)
            child.send({"do": "echo", "tag": "live"})
            deadline = time.monotonic() + TIMEOUT
            replies = []
            while not replies and time.monotonic() < deadline:
                replies = list(wait_any([child, other], 0.25))
            # The dead child's pipe was closed, not raised; the live
            # one's reply came through with its handle.
            assert other.closed and not child.closed
            assert [(c, e["tag"]) for c, e in replies] == [(child, "live")]
            # With nothing left to poll, wait_any just sleeps the tick.
            assert list(wait_any([other], 0.01)) == []
        finally:
            other.stop(graceful=False)

    def test_wait_any_is_lazy_one_envelope_per_take(self, child):
        other = Child("proc-test-2", target=_serve_main)
        try:
            child.send({"do": "echo", "tag": "a"})
            other.send({"do": "echo", "tag": "b"})
            for kid in (child, other):
                assert kid.poll(TIMEOUT)
            first = next(wait_any([child, other], 0.25))
            rest = list(wait_any([child, other], 0.25))
            assert len(rest) == 1
            assert {first[1]["tag"], rest[0][1]["tag"]} == {"a", "b"}
        finally:
            other.stop()


# -- the stop ladder -----------------------------------------------------------

class TestStopLadder:
    def test_sentinel_is_enough_for_a_serving_child(self, child):
        child.stop()
        assert not child.alive()
        assert child.process.exitcode == 0
        assert child.closed
        child.stop()  # idempotent

    def test_sigterm_ignoring_child_is_killed(self, monkeypatch):
        monkeypatch.setattr(proc, "GRACE", 0.2)
        kid = Child("stubborn", target=_stubborn_main)
        assert kid.poll(TIMEOUT) and kid.recv() == {"ready": True}
        kid.stop()
        assert not kid.alive()
        assert kid.process.exitcode == -signal.SIGKILL

    def test_channel_less_child_goes_through_the_same_ladder(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(proc, "GRACE", 0.2)
        flag = tmp_path / "ready"
        kid = Child(
            "stubborn-run", target=_stubborn_no_channel,
            args=(str(flag),), channel=False,
        )
        assert not kid.process.daemon
        deadline = time.monotonic() + TIMEOUT
        while not flag.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert flag.exists()
        stop_all([kid])
        assert not kid.alive()
        assert kid.process.exitcode == -signal.SIGKILL

    def test_ungraceful_stop_skips_the_grace_period(self):
        kid = Child("hung", target=_stubborn_main)
        assert kid.poll(TIMEOUT) and kid.recv() == {"ready": True}
        os.kill(kid.process.pid, signal.SIGSTOP)  # hung, not SIGTERM-proof
        started = time.monotonic()
        kid.stop(graceful=False)
        # SIGTERM stays pending on a stopped process; SIGKILL does not.
        # One GRACE for the terminate rung, none for a sentinel rung.
        assert time.monotonic() - started < 2 * proc.GRACE
        assert not kid.alive()


# -- the orphan guard ----------------------------------------------------------

def test_orphaned_child_exits_once_reparented(monkeypatch):
    """SIGKILL an intermediate parent: the grandchild's ``serve`` poll
    notices the reparenting and returns within ~2 poll intervals.

    A bystander forked after the grandchild keeps the command pipe's
    write end open (as any later-forked sibling does), so EOF never
    comes — only the guard can end the grandchild this early.
    """
    monkeypatch.setattr(proc, "POLL_INTERVAL", 0.2)
    bystander_lifetime = 6.0
    read_end, write_end = os.pipe()
    middle = os.fork()
    if middle == 0:  # the intermediate parent
        try:
            os.close(read_end)
            kid = Child("grandchild", target=_serve_main)
            _ask(kid, {"do": "echo"})  # it is in its serve loop
            if os.fork() == 0:  # the bystander: holds the pipe ends
                os.close(write_end)
                time.sleep(bystander_lifetime)
                os._exit(0)
            os.write(write_end, b"r")
            time.sleep(60)
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        # Both descendants hold the pipe's write end: the read end hits
        # EOF only once the intermediate *and* the grandchild are gone.
        assert multiprocessing.connection.wait([read_end], TIMEOUT)
        assert os.read(read_end, 1) == b"r"      # grandchild is serving
        os.kill(middle, signal.SIGKILL)
        os.waitpid(middle, 0)
        orphaned = time.monotonic()
        assert multiprocessing.connection.wait(
            [read_end], bystander_lifetime / 2
        ), "grandchild outlived its parent"
        assert os.read(read_end, 1) == b""
        assert time.monotonic() - orphaned < 10 * proc.POLL_INTERVAL
    finally:
        os.close(read_end)


def _gone(pid) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _wait_gone(pid, within) -> bool:
    deadline = time.monotonic() + within
    while not _gone(pid) and time.monotonic() < deadline:
        time.sleep(0.02)
    return _gone(pid)


class TestNestedChannelChildren:
    """A channel child is daemonic to its parent and may still own
    channel children: both halves of the spawn site's contract."""

    def test_worker_owns_a_child_and_takes_it_along(self):
        middle = Child("proc-test-middle", target=_nesting_main)
        try:
            # The parent's exit terminates it, never joins it.
            assert middle.process.daemon
            reply = _ask(middle, {"do": "echo", "tag": 7})
            assert reply["event"] == "done", reply.get("detail")
            assert reply["echo"] == {"do": "echo", "tag": 7}
            assert not _gone(reply["grandchild"])
        finally:
            middle.stop()
        assert not middle.alive()
        assert _wait_gone(reply["grandchild"], TIMEOUT)

    def test_grandchild_does_not_outlive_a_sigkilled_worker(self, monkeypatch):
        monkeypatch.setattr(proc, "POLL_INTERVAL", 0.2)
        middle = Child("proc-test-middle", target=_nesting_main)
        try:
            grandchild = _ask(middle, {"do": "echo"})["grandchild"]
            os.kill(middle.process.pid, signal.SIGKILL)
            middle.process.join(TIMEOUT)
            assert _wait_gone(grandchild, 10 * proc.POLL_INTERVAL), (
                "grandchild outlived its SIGKILLed parent"
            )
        finally:
            middle.stop(graceful=False)


# -- one policy, one mechanism -------------------------------------------------

def test_retry_policy_is_one_class_everywhere():
    import repro.service
    import repro.service.supervise
    from repro.runtime.scheduler import JobGraph

    assert repro.service.RetryPolicy is RetryPolicy
    assert repro.service.supervise.RetryPolicy is RetryPolicy
    graph = JobGraph([], max_attempts=3, backoff_base=0.5)
    assert graph.retry == RetryPolicy(max_attempts=3, backoff_base=0.5)


@pytest.mark.parametrize(
    "pattern",
    [
        r"getppid", r"\.Pipe\(", r"connection\.wait", r"\bProcess\(",
        r"\.terminate\(\)", r"\.kill\(\)", r"class RetryPolicy",
        r"sent_at - received_at",
    ],
)
def test_process_ownership_lives_in_one_module(pattern):
    """Guard against the primitive being re-forked: outside the linter
    (which names these calls in order to police them), only ``proc.py``
    may spell them."""
    root = Path(repro.__file__).parent
    offenders = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if "lint" not in path.relative_to(root).parts
        and re.search(pattern, path.read_text(encoding="utf-8"))
    )
    assert offenders == ["proc.py"]
