"""``repro.service`` — benchmark-as-a-service over the crash-safe runtime.

The Graphalytics vision is a benchmark run *for* a community, not just
by one operator: platform teams submit benchmark matrices, a shared
harness executes them fairly, and everyone can watch progress and fetch
validated artifacts. This package is that deployment mode
(docs/service.md):

* :mod:`repro.service.server` — the asyncio HTTP server: submission,
  fair-share multi-tenant scheduling, SSE progress streams, artifact
  serving, spool recovery on restart;
* :mod:`repro.service.queue` — round-robin tenant queue with admission
  quotas (``429 Retry-After`` over quota);
* :mod:`repro.service.runs` — spool-directory run registry; run state
  is always derivable from disk;
* :mod:`repro.service.supervise` — run supervision: durable attempt
  ledger, quarantine records, and the per-tenant circuit breaker
  (``503 Retry-After`` while a tenant's runs keep dying);
* :mod:`repro.service.worker` — the per-run child process (journal
  resume, orphan watchdog, chaos-plan arming);
* :mod:`repro.service.tail` — torn-tail-safe live tailing of the
  run journal for the SSE stream;
* :mod:`repro.service.http` — minimal hand-rolled HTTP/1.1 + SSE over
  asyncio streams (no dependencies);
* :mod:`repro.service.client` — the blocking client used by the
  ``graphalytics serve/submit/watch/fetch`` CLI.
"""

from repro.facade import lazy_exports

__all__ = [
    "BenchmarkService",
    "BreakerOpen",
    "EventStream",
    "FairShareQueue",
    "JournalTailer",
    "ProtocolError",
    "QuotaExceeded",
    "Request",
    "Response",
    "RetryPolicy",
    "RunRecord",
    "RunRegistry",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "TenantBreaker",
    "decode_journal_line",
    "execute_service_run",
    "load_quarantine",
    "load_supervision",
    "normalize_matrix",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "repro.service.client": ("ServiceClient", "ServiceError"),
    "repro.service.http": (
        "EventStream", "ProtocolError", "Request", "Response",
    ),
    "repro.service.queue": ("FairShareQueue", "QuotaExceeded"),
    "repro.service.runs": ("RunRecord", "RunRegistry", "normalize_matrix"),
    "repro.service.server": ("BenchmarkService", "ServiceConfig"),
    "repro.service.supervise": (
        "BreakerOpen", "RetryPolicy", "TenantBreaker", "load_quarantine",
        "load_supervision",
    ),
    "repro.service.tail": ("JournalTailer", "decode_journal_line"),
    "repro.service.worker": ("execute_service_run",),
})
