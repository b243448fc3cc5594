"""Injectable monotonic clocks — the single timing authority.

Every component of the reproduction reads time through a
:class:`Clock` owned by its :class:`~repro.trace.tracer.Tracer` instead
of calling the standard-library timers directly (lint rule OBS001
enforces this statically; this module is the one permitted call site).
Centralizing the clock buys two things the paper's methodology needs:

* **comparable timelines** — the dispatcher and every worker process
  read the same *kind* of clock, and worker spans are re-based onto the
  dispatcher's origin (:mod:`repro.trace.merge`), so cross-process
  durations can be compared and nested;
* **deterministic tests** — a :class:`FakeClock` substitutes a fully
  scripted timeline, which makes timeout, retry-backoff, and SLA paths
  (and the span output itself) reproducible bit-for-bit.

A clock also counts the process's minor page faults, so a span can
carry what its interval cost the allocator next to what it cost in
time: a real count on the production clock, a fixed one on the fake.
"""

from __future__ import annotations

import resource
import time as _time

__all__ = ["Clock", "MonotonicClock", "FakeClock"]


class Clock:
    """Interface: a monotonic ``now()`` plus a cooperating ``sleep()``."""

    def now(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError

    def minor_faults(self) -> int:
        """The process's minor page faults so far; fixed unless counted."""
        return 0


class MonotonicClock(Clock):
    """The production clock: a high-resolution monotonic timer.

    This is the only place in ``src/repro`` allowed to touch the
    standard-library performance counter (OBS001).
    """

    def now(self) -> float:
        return _time.perf_counter()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            _time.sleep(seconds)

    def minor_faults(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class FakeClock(Clock):
    """A scripted clock for deterministic tests.

    ``now()`` returns the current fake time and then advances it by
    ``tick`` (so consecutive readings differ, like a real timer, but by
    an exact, reproducible amount). ``sleep()`` advances fake time
    without blocking, so backoff/wake loops run instantly under test.
    """

    def __init__(self, start: float = 0.0, tick: float = 0.0):
        if tick < 0:
            raise ValueError("tick must be >= 0")
        self._now = float(start)
        self.tick = float(tick)

    def now(self) -> float:
        value = self._now
        self._now += self.tick
        return value

    def sleep(self, seconds: float) -> None:
        self.advance(seconds)

    def advance(self, seconds: float) -> None:
        """Move fake time forward explicitly (no tick applied)."""
        if seconds < 0:
            raise ValueError("cannot advance a monotonic clock backwards")
        self._now += float(seconds)
