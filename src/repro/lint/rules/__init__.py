"""Built-in rule set; importing this package registers every rule.

===========  ========  ====================================================
rule id      severity  invariant
===========  ========  ====================================================
``DET001``   error     no unordered set/dict iteration in kernels/engines
``DET003``   warning   no float accumulation over unordered iterables
``CON001``   error     vertex programs respect the Pregel/GAS state contract
``EXC001``   warning   no broad except swallowing benchmark failures
``RUN001``   error     runtime entrypoints convert exceptions into records
``ROB001``   error     run artifacts are written via ``atomic_write``
``ROB003``   error     ``sqlite3.connect`` only inside ``repro.resultsdb``
``REP001``   warning   reporters emit metered numbers via harness.metrics
``OBS001``   error     timing goes through the ``repro.trace`` clock
``RACE003``  warning   no import-time fork-unsafe resources used in workers
``SRV001``   error     async request handlers never block the event loop
===========  ========  ====================================================

See ``docs/lint.md`` for rationale and suppression syntax.
"""

from repro.lint.rules.determinism import (  # noqa: F401
    UnorderedAccumulationRule,
    UnorderedIterationRule,
)
from repro.lint.rules.contracts import VertexProgramStateRule  # noqa: F401
from repro.lint.rules.robustness import (  # noqa: F401
    AtomicArtifactWriteRule,
    RuntimeFailureRecordRule,
    SanctionedSqliteConnectRule,
    SwallowedExceptionRule,
)
from repro.lint.rules.observability import BareClockCallRule  # noqa: F401
from repro.lint.rules.reporting import UnmeteredRateRule  # noqa: F401
from repro.lint.rules.concurrency import ForkUnsafeImportResourceRule  # noqa: F401
from repro.lint.rules.service import AsyncHandlerBlockingCallRule  # noqa: F401

__all__ = [
    "UnorderedIterationRule",
    "UnorderedAccumulationRule",
    "VertexProgramStateRule",
    "SwallowedExceptionRule",
    "RuntimeFailureRecordRule",
    "AtomicArtifactWriteRule",
    "SanctionedSqliteConnectRule",
    "UnmeteredRateRule",
    "BareClockCallRule",
    "ForkUnsafeImportResourceRule",
    "AsyncHandlerBlockingCallRule",
]
