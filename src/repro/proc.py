"""``repro.proc`` — the one supervised-child primitive.

Every layer that owns an OS process — the runtime worker pool, the
partitioned engine's shard transport, the service's per-run child —
goes through this module, so "a child that hangs, crashes or is killed
is bounded, attributed and recorded" is one mechanism, not three
(docs/architecture.md § Process supervision).

Parent side: :class:`Child` is the handle of one process. With a
command channel it owns two *private* pipes (commands down, envelopes
up), so a child killed mid-send can only corrupt its own channel, never
wedge a sibling's; commands are stamped with the parent clock, EOF on
receive reads as "closed", :func:`wait_any` multiplexes the result
pipes, and :func:`stop_all` is the only place a child is asked, told
and finally forced to exit. Child side: :func:`serve` is the command
loop — fresh per-process tracer, orphan guard, clock handshake, one
``done`` or ``fail`` envelope per command — and :func:`absorb` is its
parent-side inverse. A child without a command loop (the service run
child: its channel is ``outcome.json``, and it is non-daemonic because
it starts a pool of its own) is spawned with ``channel=False`` and arms
:func:`watch_parent` instead. :class:`RetryPolicy` is the attempt
budget and backoff curve every supervisor shares.

Leaf module: imports :mod:`repro.trace` and the standard library only.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple

from repro.trace import Span, Tracer, current_tracer, rebase_spans, set_tracer

__all__ = [
    "GRACE",
    "POLL_INTERVAL",
    "WATCHDOG_INTERVAL",
    "Child",
    "RetryPolicy",
    "absorb",
    "mark_failed",
    "serve",
    "stop_all",
    "wait_any",
    "watch_parent",
]

#: Seconds each rung of the stop ladder waits before escalating.
GRACE = 5.0
#: How long :func:`serve` blocks on its command pipe between orphan checks.
POLL_INTERVAL = 1.0
#: How often :func:`watch_parent` re-checks the parent pid.
WATCHDOG_INTERVAL = 0.2

Envelope = Dict[str, object]


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget + exponential backoff, the scheduler's shape.

    :class:`~repro.runtime.scheduler.JobGraph` retries *jobs* with
    ``backoff_base * 2**(attempt-1)``; the service retries *runs* with
    the same curve so operators reason about one policy at both layers.
    """

    max_attempts: int = 3
    backoff_base: float = 0.5

    def exhausted(self, attempts: int) -> bool:
        return attempts >= self.max_attempts

    def backoff(self, attempt: int) -> float:
        return self.backoff_base * (2 ** (max(attempt, 1) - 1))


def _context():
    """Prefer fork (fast, shares warm module state); fall back portably."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _close(conn) -> None:
    if conn is not None:
        try:
            conn.close()
        except OSError:
            pass


# -- parent side --------------------------------------------------------------

class Child:
    """Parent-side handle of one supervised child process.

    ``channel=True`` (pool workers, shards): the child is daemonic —
    the parent's exit terminates it, never waits for it — and
    ``target`` is called as ``target(task_conn, result_conn, *args)``;
    it is expected to run :func:`serve` on those two pipe ends, and may
    start channel children of its own (a pool worker owns its shards).
    ``channel=False`` (the service run child): no pipes, non-daemonic,
    ``target(*args, **kwargs)`` as given; only :meth:`alive` and
    :meth:`stop` apply.
    """

    def __init__(
        self,
        name: str,
        *,
        target: Callable[..., object],
        args: Tuple[object, ...] = (),
        kwargs: Optional[Dict[str, object]] = None,
        channel: bool = True,
    ):
        ctx = _context()
        self._clock = current_tracer().clock
        self._task_send = self._result_recv = None
        if channel:
            self._result_recv, result_send = ctx.Pipe(duplex=False)
            task_recv, self._task_send = ctx.Pipe(duplex=False)
            args = (target, self._task_send, self._result_recv,
                    task_recv, result_send, *args)
            target = _enter
        self.process = ctx.Process(
            target=target, name=name, args=args, kwargs=kwargs or {},
            daemon=channel,
        )
        self.process.start()
        # Each side closes its copies of the other's ends (the child in
        # ``_enter``), so each sees EOF — not a silent hang — when the
        # other goes away.
        if channel:
            result_send.close()
            task_recv.close()

    def send(self, payload: object) -> None:
        """Ship one command, stamped with the parent clock (the child
        subtracts its receive stamp: the handshake behind ``absorb``)."""
        self._task_send.send((payload, self._clock.now()))

    @property
    def closed(self) -> bool:
        """True once the result pipe hit EOF (or the child was stopped)."""
        return self._result_recv is None

    def poll(self, timeout: float) -> bool:
        """Whether :meth:`recv` would return now (an envelope or EOF)
        within ``timeout``; once closed, just waits for the exit."""
        if self._result_recv is None:
            self.process.join(timeout)
            return False
        return self._result_recv.poll(timeout)

    def recv(self) -> Optional[Envelope]:
        """The next envelope, or ``None`` when the child is gone: the
        pipe is at EOF (or mid-message garbage), so stop polling it —
        the owner's liveness policing decides what the death means."""
        try:
            return self._result_recv.recv()
        except (EOFError, OSError):
            _close(self._result_recv)
            self._result_recv = None
            return None

    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self, *, graceful: bool = True) -> None:
        """Reap this child (see :func:`stop_all`)."""
        stop_all((self,), graceful=graceful)

    def _send_sentinel(self) -> bool:
        if self._task_send is None or not self.alive():
            return False
        try:
            self._task_send.send(None)
        except (OSError, ValueError):
            return False
        return True

    def close(self) -> None:
        """Close the parent's pipe ends (idempotent)."""
        _close(self._task_send)
        _close(self._result_recv)
        self._task_send = self._result_recv = None


def _join(children: Iterable[Child]) -> None:
    for child in children:
        child.process.join(GRACE)


def stop_all(children: Iterable[Child], *, graceful: bool = True) -> None:
    """The stop ladder, over any number of children at once.

    Sentinel → join → ``terminate`` → join → ``kill`` → join, each rung
    applied to every child before anyone is waited on (so N children
    exit concurrently), each join bounded by :data:`GRACE`; then both
    pipe ends close. ``graceful=False`` skips the sentinel rung — the
    child is presumed hung (a deadline breach), so asking nicely would
    only burn the grace period. Children without a command channel have
    no sentinel to read and start at ``terminate`` regardless.
    """
    children = list(children)
    _join([c for c in children if graceful and c._send_sentinel()])
    stubborn = [c for c in children if c.alive()]
    for child in stubborn:
        child.process.terminate()
    _join(stubborn)
    stubborn = [c for c in stubborn if c.alive()]
    for child in stubborn:
        child.process.kill()
    _join(stubborn)
    for child in children:
        child.close()


def wait_any(
    children: Iterable[Child], timeout: float
) -> Iterator[Tuple[Child, Envelope]]:
    """Yield ``(child, envelope)`` for each child with a reply ready.

    Blocks up to ``timeout`` for the first reply; yields nothing on a
    timeout. Lazy on purpose: a consumer that takes one envelope per
    tick (the pool) leaves the rest in their pipes. A child whose pipe
    turned out to be at EOF is closed, not raised — its owner finds it
    through :meth:`Child.alive`.
    """
    conns = {
        child._result_recv: child for child in children if not child.closed
    }
    if not conns:
        current_tracer().clock.sleep(timeout)
        return
    for conn in multiprocessing.connection.wait(list(conns), timeout=timeout):
        child = conns[conn]
        envelope = child.recv()
        if envelope is not None:
            yield child, envelope


def absorb(envelope: Envelope, tracer: Tracer, parent_span: Optional[Span]) -> None:
    """Fold a child's envelope into the parent's trace.

    The child ships spans on its own clock plus the measured
    ``clock_offset``; re-basing by the offset (and clamping into
    ``parent_span``'s window, when given) puts them on the parent's
    timeline. Counter deltas are summed in.
    """
    tracer.merge_counters(envelope.get("counters") or {})
    raw = envelope.get("spans")
    if raw:
        offset = float(envelope.get("clock_offset", 0.0))
        spans = [Span.from_dict(record) for record in raw]
        for span in rebase_spans(spans, offset, parent=parent_span):
            tracer.record(span)


# -- child side ---------------------------------------------------------------

def _enter(target, parent_task_send, parent_result_recv, *args) -> None:
    """Process target of a channel child: drop the fork-inherited copies
    of the parent's pipe ends, then run the caller's entrypoint."""
    parent_task_send.close()
    parent_result_recv.close()
    # Daemonic to its parent (whose exit terminates it instead of
    # joining it), but not to itself: multiprocessing refuses to let a
    # daemonic process start children, because a terminated daemon
    # orphans them, and a pool worker must own shards. Here ``serve``'s
    # orphan guard bounds exactly that case, so the refusal buys nothing.
    multiprocessing.current_process().daemon = False
    target(*args)


def mark_failed(reply: Envelope, exc: BaseException) -> None:
    """Turn ``reply`` into the ``fail`` envelope of ``exc``, whoever ran
    the command: a child, or the dispatcher itself."""
    reply["event"] = "fail"
    reply["detail"] = f"{type(exc).__name__}: {exc}"
    reply["traceback"] = traceback.format_exc(limit=8)


def serve(
    task_conn,
    result_conn,
    handle: Callable[[object, Envelope], None],
    *,
    process: str,
) -> None:
    """Child entry loop: one envelope per command until the sentinel.

    ``handle(payload, reply)`` does the work and fills ``reply`` with
    the caller's own envelope fields. Contract (RUN001): any exception
    it raises becomes a ``fail`` envelope — whatever ``handle`` had
    already put in ``reply`` still ships, so the parent can attribute
    the failure — and the loop carries on; nothing is silently lost.

    Timing contract: the loop installs a fresh :class:`Tracer` named
    ``process`` (replacing any fork-inherited one), and every envelope
    carries the spans and counters the command produced plus the clock
    offset that maps them onto the parent's timeline (:func:`absorb`).
    Durations are clock-origin-free and need no re-basing.
    """
    tracer = Tracer(process=process)
    set_tracer(tracer)
    parent = os.getppid()
    while True:
        # Orphan guard: if the parent dies hard (SIGKILL chaos, OOM
        # kill), the task pipe never reaches EOF — siblings forked
        # later inherit its write end — so a blocking read would leak
        # this process forever. Poll with a timeout and exit once
        # reparented.
        if not task_conn.poll(POLL_INTERVAL):
            if os.getppid() != parent:
                return
            continue
        try:
            task = task_conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        payload, sent_at = task
        received_at = tracer.clock.now()
        reply: Envelope = {"event": "done"}
        try:
            handle(payload, reply)
        except Exception as exc:
            mark_failed(reply, exc)
        reply["spans"] = [span.as_dict() for span in tracer.drain()]
        reply["counters"] = tracer.take_counters()
        reply["clock_offset"] = sent_at - received_at
        result_conn.send(reply)


def watch_parent() -> None:
    """Kill this process the moment its parent disappears.

    For children that have no :func:`serve` poll to notice orphaning. A
    SIGKILLed parent cannot reap or signal its children, so a daemon
    thread polls the parent pid and ``os._exit``\\ s once reparented. A
    hard exit is deliberate: it tears the child's files exactly where
    the crash landed, which is the case resume is built for.
    """
    parent = os.getppid()

    def watch() -> None:
        while True:
            if os.getppid() != parent:
                os._exit(1)
            time.sleep(WATCHDOG_INTERVAL)

    threading.Thread(target=watch, name="parent-watchdog", daemon=True).start()
