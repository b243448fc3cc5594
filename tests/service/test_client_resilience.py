"""Client-side resilience: bounded submit retries, SSE reconnection.

No sockets here — ``_json``/``events`` are stubbed and the clock is a
recorder, so the retry schedules (delays, budgets, Retry-After
handling) are asserted deterministically.
"""

from __future__ import annotations

import pytest

from repro.service.client import ServiceClient, ServiceError


class RecordingClock:
    def __init__(self):
        self.sleeps = []

    def sleep(self, seconds):
        self.sleeps.append(seconds)


def make_client(**kwargs):
    kwargs.setdefault("clock", RecordingClock())
    kwargs.setdefault("retry_backoff", 0.25)
    return ServiceClient("127.0.0.1", 1, **kwargs)


def script_json(client, monkeypatch, outcomes):
    """Stub ``_json`` to raise/return each outcome in order."""
    remaining = list(outcomes)
    calls = []

    def fake_json(method, path, payload=None):
        calls.append((method, path))
        outcome = remaining.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    monkeypatch.setattr(client, "_json", fake_json)
    return calls


MATRIX = {"platforms": ["p"]}


class TestSubmitRetries:
    def test_no_retries_by_default(self, monkeypatch):
        client = make_client()
        script_json(client, monkeypatch, [ServiceError(429, "full",
                                                       retry_after=1.0)])
        with pytest.raises(ServiceError):
            client.submit("t", MATRIX)
        assert client._clock.sleeps == []

    def test_retry_after_hint_wins_then_backoff(self, monkeypatch):
        client = make_client()
        script_json(
            client,
            monkeypatch,
            [
                ServiceError(429, "full", retry_after=2.0),
                ServiceError(503, "breaker open"),  # no hint
                ConnectionResetError("reset"),
                {"run_id": "r1"},
            ],
        )
        assert client.submit("t", MATRIX, retries=3) == {"run_id": "r1"}
        # hint (2.0), then 0.25 * 2^1, then 0.25 * 2^2.
        assert client._clock.sleeps == [2.0, 0.5, 1.0]

    def test_hostile_retry_after_is_capped(self, monkeypatch):
        client = make_client()
        script_json(
            client,
            monkeypatch,
            [ServiceError(503, "open", retry_after=86400.0), {"run_id": "r"}],
        )
        client.submit("t", MATRIX, retries=1)
        assert client._clock.sleeps == [30.0]

    def test_budget_exhaustion_reraises(self, monkeypatch):
        client = make_client()
        script_json(
            client,
            monkeypatch,
            [ServiceError(503, "open"), ServiceError(503, "still open")],
        )
        with pytest.raises(ServiceError) as excinfo:
            client.submit("t", MATRIX, retries=1)
        assert excinfo.value.status == 503
        assert len(client._clock.sleeps) == 1

    def test_client_errors_never_retried(self, monkeypatch):
        client = make_client()
        calls = script_json(
            client, monkeypatch, [ServiceError(400, "bad matrix")]
        )
        with pytest.raises(ServiceError):
            client.submit("t", MATRIX, retries=5)
        assert len(calls) == 1  # retrying a malformed matrix is pointless

    def test_chaos_plan_rides_the_payload(self, monkeypatch):
        client = make_client()
        captured = {}

        def fake_json(method, path, payload=None):
            captured.update(payload)
            return {"run_id": "r"}

        monkeypatch.setattr(client, "_json", fake_json)
        chaos = {"seed": 7, "faults": []}
        client.submit("t", MATRIX, chaos=chaos)
        assert captured["chaos"] == chaos


def _stream(events_by_connect, offsets):
    """An ``events``-shaped stub: one scripted stream per connect."""
    scripts = list(events_by_connect)

    def fake_events(run_id, *, offset=0):
        offsets.append(offset)
        script = scripts.pop(0)
        for item in script:
            if isinstance(item, BaseException):
                raise item
            yield item

    return fake_events


RUN = ("run", {"run_id": "r", "state": "running"})
END = ("end", {"state": "done"})


def _journal(seq):
    return ("journal", {"type": "job-done", "seq": seq})


def _span(name):
    return ("span", {"name": name})


class TestWatchEvents:
    def test_single_clean_stream_passes_through(self, monkeypatch):
        client = make_client()
        offsets = []
        monkeypatch.setattr(
            client,
            "events",
            _stream([[RUN, _journal(0), _span("a"), END]], offsets),
        )
        events = list(client.watch_events("r"))
        assert events == [RUN, _journal(0), _span("a"), END]
        assert offsets == [0]

    def test_reconnect_resumes_at_offset_without_duplicates(self, monkeypatch):
        client = make_client()
        offsets = []
        monkeypatch.setattr(
            client,
            "events",
            _stream(
                [
                    # Stream 1 dies after two journal records + a span.
                    [RUN, _journal(0), _span("a"), _journal(1),
                     ConnectionResetError("gone")],
                    # Stream 2: the server honored offset=2; the span
                    # and run banner replay, the rest is new.
                    [RUN, _span("a"), _journal(2), _span("b"), END],
                ],
                offsets,
            ),
        )
        events = list(client.watch_events("r"))
        assert offsets == [0, 2]  # resumed from the last-seen offset
        assert events == [
            RUN, _journal(0), _span("a"), _journal(1),
            _journal(2), _span("b"), END,
        ]  # each event exactly once: no repeated banner, span, journal

    def test_reconnect_budget_resets_on_delivery(self, monkeypatch):
        # Four drops in a row, but two of the streams delivered events
        # first — each delivery resets the consecutive-drop count, so a
        # budget of 2 survives what would otherwise be 4 > 2 drops.
        client = make_client()
        offsets = []
        monkeypatch.setattr(
            client,
            "events",
            _stream(
                [
                    [RUN, ConnectionResetError("1")],   # delivered: drops=1
                    [ConnectionResetError("2")],        # dry: drops=2
                    [_journal(0), ConnectionResetError("3")],  # drops=1 again
                    [ConnectionResetError("4")],        # dry: drops=2
                    [_journal(1), END],
                ],
                offsets,
            ),
        )
        events = list(client.watch_events("r", reconnects=2))
        assert [e for e, _ in events] == ["run", "journal", "journal", "end"]

    def test_gives_up_after_consecutive_dry_drops(self, monkeypatch):
        client = make_client()
        offsets = []
        monkeypatch.setattr(
            client,
            "events",
            _stream(
                [[ConnectionResetError(str(i))] for i in range(4)], offsets
            ),
        )
        with pytest.raises(ServiceError) as excinfo:
            list(client.watch_events("r", reconnects=2))
        assert excinfo.value.status == 503
        assert "kept dropping" in str(excinfo.value)
        assert len(offsets) == 3  # initial connect + 2 reconnects

    def test_stream_closing_without_end_is_a_drop(self, monkeypatch):
        client = make_client()
        offsets = []
        monkeypatch.setattr(
            client,
            "events",
            _stream([[RUN, _journal(0)], [_journal(1), END]], offsets),
        )
        events = list(client.watch_events("r"))
        assert [e for e, _ in events] == ["run", "journal", "journal", "end"]
        assert offsets == [0, 1]


class TestErrorBodies:
    """One decoder reads every error body: ``_json`` and ``fetch``."""

    @staticmethod
    def respond(client, monkeypatch, status, body, headers=None):
        monkeypatch.setattr(
            client, "_request",
            lambda method, path, payload=None: (status, headers or {}, body),
        )

    def test_non_json_body_reads_as_text(self, monkeypatch):
        client = make_client()
        self.respond(
            client, monkeypatch, 502, b"<html>bad gateway</html>",
            {"retry-after": "soon"},
        )
        with pytest.raises(ServiceError) as excinfo:
            client.status()
        assert str(excinfo.value) == "HTTP 502: <html>bad gateway</html>"
        assert excinfo.value.retry_after is None
        with pytest.raises(ServiceError) as excinfo:
            client.fetch("r", "results")
        assert str(excinfo.value) == "HTTP 502: <html>bad gateway</html>"

    def test_json_array_body_is_a_service_error(self, monkeypatch):
        client = make_client()
        self.respond(
            client, monkeypatch, 500, b'["oops"]', {"retry-after": "2"}
        )
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 500
        assert str(excinfo.value) == 'HTTP 500: ["oops"]'
        assert excinfo.value.retry_after == 2.0
