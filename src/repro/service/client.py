"""Blocking client for the benchmark service (stdlib ``http.client``).

The CLI's ``submit``/``watch``/``fetch`` subcommands, the tests, and
the service benchmark all talk to the server through this one wrapper.
It deliberately mirrors the service's connection model — one request
per connection, ``Connection: close`` — so a client never has to
reason about keep-alive state, and :meth:`ServiceClient.events`
exposes the SSE stream as a plain generator of ``(event, payload)``
pairs.

Resilience is opt-in and bounded: :meth:`ServiceClient.submit` retries
``429``/``503`` (honoring ``Retry-After``) and connection resets up to
a caller-set budget with deterministic capped exponential backoff, and
:meth:`ServiceClient.watch_events` survives dropped SSE streams by
reconnecting with its last-seen journal offset — the server-side
tailer skip makes the resumed stream duplicate-free. All waiting goes
through the injectable clock, so retry schedules are testable under a
``FakeClock`` without wall-time.
"""

from __future__ import annotations

import http.client
import json
from typing import Dict, Iterator, Optional, Tuple

from repro.exceptions import GraphalyticsError

__all__ = ["ServiceError", "ServiceClient"]

#: Statuses worth re-asking: admission backpressure (429) and breaker
#: shedding (503). Anything else is the caller's bug or the server's.
_RETRYABLE_STATUSES = frozenset({429, 503})

#: Ceiling on any single retry/reconnect delay (seconds) — honoring a
#: hostile or confused ``Retry-After: 86400`` should not hang the CLI.
_MAX_DELAY = 30.0

#: Transport failures worth retrying: refused/reset connections and
#: malformed in-flight responses (the server died mid-reply).
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


class ServiceError(GraphalyticsError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str, *, retry_after: Optional[float] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.retry_after = retry_after


def _service_error(
    status: int, headers: Dict[str, str], data: bytes
) -> ServiceError:
    """The :class:`ServiceError` of one non-2xx response: the ``error``
    field of a JSON object body, else the body's first 200 bytes as
    text, with the ``Retry-After`` hint when the server sent a number."""
    try:
        decoded = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        decoded = None
    if isinstance(decoded, dict) and "error" in decoded:
        message = str(decoded["error"])
    else:
        message = data[:200].decode("utf-8", "replace")
    try:
        retry_after: Optional[float] = float(headers["retry-after"])
    except (KeyError, ValueError):
        retry_after = None
    return ServiceError(status, message, retry_after=retry_after)


class ServiceClient:
    """Talks to one service instance at ``host:port``.

    ``clock`` (anything with ``sleep``) is the retry/reconnect timing
    authority; ``None`` defers to the tracer clock at call time, which
    a ``FakeClock`` test can swap without touching this object.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 60.0,
        retry_backoff: float = 0.25,
        clock=None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry_backoff = retry_backoff
        self._clock = clock

    def _sleep(self, seconds: float) -> None:
        clock = self._clock
        if clock is None:
            from repro.trace import current_tracer

            clock = current_tracer().clock
        clock.sleep(seconds)

    def _delay(self, attempt: int, retry_after: Optional[float]) -> float:
        """Deterministic capped backoff; server hints win (capped)."""
        if retry_after is not None and retry_after > 0:
            return min(retry_after, _MAX_DELAY)
        return min(self.retry_backoff * (2 ** attempt), _MAX_DELAY)

    # -- plumbing ----------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            return (
                response.status,
                {k.lower(): v for k, v in response.getheaders()},
                data,
            )
        finally:
            conn.close()

    def _json(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        status, headers, data = self._request(method, path, payload)
        if status >= 400:
            raise _service_error(status, headers, data)
        try:
            return json.loads(data.decode("utf-8")) if data else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            return {}

    # -- API ---------------------------------------------------------------

    def submit(
        self,
        tenant: str,
        matrix: Dict[str, object],
        *,
        workers: Optional[object] = None,
        job_timeout: Optional[float] = None,
        chaos: Optional[Dict[str, object]] = None,
        retries: int = 0,
    ) -> Dict[str, object]:
        """``POST /v1/runs``; raises :class:`ServiceError` on 4xx/5xx.

        With ``retries=N`` a quota rejection (429), breaker shedding
        (503), or transport failure is retried up to N times, sleeping
        the server's ``Retry-After`` when it sent one and a capped
        exponential backoff otherwise. Other errors (400s, 500) raise
        immediately — retrying a malformed matrix cannot fix it.
        ``chaos`` attaches a seeded I/O fault plan
        (:meth:`~repro.faults.IoFaultPlan.as_dict` payload) the run
        child installs before executing.
        """
        payload: Dict[str, object] = {"tenant": tenant, "matrix": matrix}
        if workers is not None:
            payload["workers"] = workers
        if job_timeout is not None:
            payload["job_timeout"] = job_timeout
        if chaos is not None:
            payload["chaos"] = chaos
        attempt = 0
        while True:
            try:
                return self._json("POST", "/v1/runs", payload)
            except ServiceError as exc:
                if exc.status not in _RETRYABLE_STATUSES or attempt >= retries:
                    raise
                delay = self._delay(attempt, exc.retry_after)
            except _TRANSPORT_ERRORS:
                if attempt >= retries:
                    raise
                delay = self._delay(attempt, None)
            attempt += 1
            self._sleep(delay)

    def run(self, run_id: str) -> Dict[str, object]:
        return self._json("GET", f"/v1/runs/{run_id}")

    def runs(self, tenant: Optional[str] = None) -> Dict[str, object]:
        suffix = f"?tenant={tenant}" if tenant else ""
        return self._json("GET", f"/v1/runs{suffix}")

    def status(self) -> Dict[str, object]:
        return self._json("GET", "/v1/status")

    def healthz(self) -> Dict[str, object]:
        """``GET /v1/healthz``: queue depth, disk, breakers, flags."""
        return self._json("GET", "/v1/healthz")

    def fetch(self, run_id: str, artifact: str) -> bytes:
        """Download one artifact (``results``/``archive``/``trace``)."""
        status, headers, data = self._request(
            "GET", f"/v1/runs/{run_id}/{artifact}"
        )
        if status >= 400:
            raise _service_error(status, headers, data)
        return data

    def events(
        self, run_id: str, *, offset: int = 0
    ) -> Iterator[Tuple[str, Dict[str, object]]]:
        """The run's SSE stream as ``(event, payload)`` pairs.

        Yields until the server sends its terminal ``end`` event (which
        is included) or closes the connection. ``offset`` asks the
        server to skip that many journal records — the resume handle
        for a reconnecting client (see :meth:`watch_events`).
        """
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            suffix = f"?offset={offset}" if offset else ""
            conn.request("GET", f"/v1/runs/{run_id}/events{suffix}")
            response = conn.getresponse()
            if response.status >= 400:
                raise _service_error(
                    response.status,
                    {k.lower(): v for k, v in response.getheaders()},
                    response.read(),
                )
            event: Optional[str] = None
            for raw in response:
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith(":"):
                    continue  # keep-alive comment frame
                if line.startswith("event:"):
                    event = line[len("event:"):].strip()
                    continue
                if line.startswith("data:") and event is not None:
                    payload = json.loads(line[len("data:"):].strip())
                    yield event, payload
                    if event == "end":
                        return
                    event = None
        finally:
            conn.close()

    def watch_events(
        self, run_id: str, *, reconnects: int = 5
    ) -> Iterator[Tuple[str, Dict[str, object]]]:
        """:meth:`events`, surviving dropped streams without duplicates.

        A stream that dies before the terminal ``end`` event (server
        restart, network blip, proxy timeout) is reconnected up to
        ``reconnects`` consecutive times with capped exponential
        backoff; any delivered event resets the budget. Resumption is
        exact: the journal position travels as the server-side
        ``offset``, the repeated ``run`` banner is suppressed, and
        replayed trace spans are dropped by count — downstream
        consumers see each event once, in order.
        """
        journal_seen = 0
        spans_seen = 0
        run_seen = False
        drops = 0
        while True:
            delivered = 0
            span_index = 0
            try:
                for event, payload in self.events(
                    run_id, offset=journal_seen
                ):
                    if event == "journal":
                        journal_seen += 1
                    elif event == "span":
                        span_index += 1
                        if span_index <= spans_seen:
                            continue  # replayed on reconnect
                        spans_seen = span_index
                    elif event == "run":
                        if run_seen:
                            continue  # reconnect banner
                        run_seen = True
                    delivered += 1
                    yield event, payload
                    if event == "end":
                        return
            except _TRANSPORT_ERRORS as exc:
                last_error = f"{type(exc).__name__}: {exc}"
            else:
                last_error = "stream closed before the end event"
            drops = 1 if delivered else drops + 1
            if drops > reconnects:
                raise ServiceError(
                    503,
                    f"event stream for {run_id} kept dropping "
                    f"({last_error}); gave up after {reconnects} "
                    f"reconnects",
                )
            self._sleep(self._delay(drops - 1, None))
