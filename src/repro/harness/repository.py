"""Public results repository (paper Figure 1, boxes 11–12).

"Validated results are stored in an online repository to track benchmark
results across platforms." Through PR 9 the repository was a directory
of JSON run archives with an ``.index.json`` shadow index and an
``flock`` sidecar serializing writers; this module is now a thin facade
over :mod:`repro.resultsdb` — every run lives in one WAL-mode SQLite
database (``results.db`` inside the repository directory) and a
submission is one ``BEGIN IMMEDIATE`` transaction, so concurrent
writers serialize on SQLite's own lock. That retires the flock sidecar,
the shadow index, and — crucially — the non-POSIX hole the old design
had: on platforms without ``fcntl`` the lock degraded to *no mutual
exclusion at all*, while a transaction is exclusive on every platform
SQLite runs on. This module no longer imports ``fcntl`` for anything.

A directory of legacy ``{run_id}.json`` archives is migrated once, with
``graphalytics db import <directory>`` (one transaction, byte-identical
round-trip verified, torn files reported instead of skipped); the
facade itself never reads them, so an un-imported directory lists no
runs.

The cross-run queries (:meth:`ResultsRepository.best_platform`,
:meth:`ResultsRepository.regressions`) delegate to the canned queries
in :mod:`repro.resultsdb.queries`, which preserve the JSON backend's
exact answers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.exceptions import ConfigurationError, ValidationError
from repro.harness.results import BenchmarkResult, ResultsDatabase
from repro.resultsdb import queries as _queries
from repro.resultsdb.queries import Regression
from repro.resultsdb.store import STORE_NAME, ResultsStore

__all__ = ["RunMetadata", "ResultsRepository", "Regression"]

_RUN_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


@dataclass(frozen=True)
class RunMetadata:
    """Descriptive metadata of one submitted run."""

    run_id: str
    system_under_test: str
    submitter: str = ""
    description: str = ""

    def __post_init__(self):
        if not _RUN_ID_PATTERN.match(self.run_id):
            raise ConfigurationError(
                f"run id {self.run_id!r} must be alphanumeric with ._-"
            )
        if not self.system_under_test:
            raise ConfigurationError("system_under_test must be non-empty")


class ResultsRepository:
    """A directory-rooted repository of validated benchmark runs.

    The root directory holds one ``results.db`` store.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._store = ResultsStore(self.root / STORE_NAME)

    @property
    def store(self) -> ResultsStore:
        """The underlying results store (for canned queries, stats)."""
        return self._store

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        metadata: RunMetadata,
        database: ResultsDatabase,
        *,
        require_validation: bool = True,
    ) -> Path:
        """Store a run; rejects duplicates and unvalidated submissions.

        ``require_validation`` enforces the paper's rule that only
        validated results enter the public repository: every *successful*
        job must have passed output validation.

        Submission is one SQLite transaction opened with ``BEGIN
        IMMEDIATE``: concurrent submitters — service run children,
        parallel harness processes, even on platforms without POSIX
        ``fcntl`` — serialize on the database's write lock, so exactly
        one claims a given run id and none can lose another's rows.
        Returns the store's database path.
        """
        if len(database) == 0:
            raise ConfigurationError("refusing to store an empty run")
        if require_validation:
            unvalidated = [
                r for r in database if r.succeeded and r.validated is not True
            ]
            if unvalidated:
                raise ValidationError(
                    f"{len(unvalidated)} successful jobs lack output "
                    f"validation; submit with require_validation=False only "
                    f"for private runs"
                )
        self._store.submit_run(
            {
                "run_id": metadata.run_id,
                "system_under_test": metadata.system_under_test,
                "submitter": metadata.submitter,
                "description": metadata.description,
            },
            [r.as_dict() for r in database],
        )
        return self._store.path

    # -- retrieval ----------------------------------------------------------

    def run_ids(self) -> List[str]:
        return self._store.run_ids()

    def metadata(self, run_id: str) -> RunMetadata:
        payload = self._store.canonical_payload(run_id)
        return RunMetadata(**payload["metadata"])

    def load(self, run_id: str) -> ResultsDatabase:
        return ResultsDatabase(
            [
                BenchmarkResult(**record)
                for record in self._store.run_records(run_id)
            ]
        )

    def index(self) -> Dict[str, Dict[str, object]]:
        """Run id -> summary; derived from the store, no shadow file."""
        return {
            run_id: {"system_under_test": sut, "jobs": jobs}
            for run_id, sut, jobs in _queries.runs(self._store)
        }

    # -- cross-run analysis -------------------------------------------------

    def best_platform(
        self, algorithm: str, dataset: str
    ) -> Optional[Dict[str, object]]:
        """Across all stored runs: the fastest compliant job for a workload."""
        return _queries.best_platform(self._store, algorithm, dataset)

    def regressions(
        self, old_run: str, new_run: str, *, threshold: float = 1.10
    ) -> List[Regression]:
        """Workloads at least ``threshold`` times slower in the new run."""
        return _queries.regressions(
            self._store, old_run, new_run, threshold=threshold
        )
