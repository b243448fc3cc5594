"""The durable results store: one SQLite query layer for every result.

The paper's Figure 1 (boxes 11-12) makes the public results repository
a first-class benchmark component. Through PR 9 ours was a directory of
JSON blobs guarded by an ``flock`` sidecar and a ``.index.json`` shadow
index — workable for one harness process, a bottleneck for the
multi-tenant service and useless for longitudinal queries ("how did
this platform x algorithm x dataset cell move across the last 40
commits?"). This package replaces that design with a stdlib-``sqlite3``
store in WAL mode:

* :mod:`repro.resultsdb.store` — schema (``runs``, ``jobs``, ``spans``,
  ``sla_breaches``), transactional submission (the ``resultsdb.commit``
  fault point guards the commit), and lossless archive round-trip;
* :mod:`repro.resultsdb.queries` — the canned queries behind
  ``graphalytics db top|trend|regressions``, answer-identical to the
  retired JSON backend;
* :mod:`repro.resultsdb.migrate` — one-transaction import of a legacy
  JSON repository, byte-identical on round-trip.

Every layer that needs results talks to this package: ``full-run
--repository`` admits its validated run through
:func:`~repro.resultsdb.store.submit_validated_run`, the service's run
children commit outcomes, trace spans, and SLA breaches into the spool
store at terminal-commit time, ``healthz``
reports store statistics, and the Granula visualizer renders span
timelines and regression tables straight from SQL. Lint rule ROB003
keeps it that way: ``sqlite3.connect`` outside this package is a
finding.
"""

from repro.facade import lazy_exports

__all__ = [
    "STORE_NAME",
    "ResultsStore",
    "Regression",
    "RegressionQuery",
    "TopEntry",
    "TrendPoint",
    "best_platform",
    "commit_service_run",
    "import_json_repository",
    "regressions",
    "top",
    "trend",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "repro.resultsdb.migrate": ("import_json_repository",),
    "repro.resultsdb.queries": (
        "Regression", "RegressionQuery", "TopEntry", "TrendPoint",
        "best_platform", "regressions", "top", "trend",
    ),
    "repro.resultsdb.store": (
        "STORE_NAME", "ResultsStore", "commit_service_run",
    ),
})
