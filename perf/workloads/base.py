"""What every workload provides to the round loop in ``perf.worker``."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

from perf.host import PROCESS_GROUPS_FILE
from perf.spans import SpanRecorder

__all__ = ["RoundResult", "Workload"]


@dataclass
class RoundResult:
    """What one round did, beyond the wall-clock the loop measures."""

    attempted: int = 0
    failed: int = 0
    #: Sum of |V| + |E| over the jobs executed this round.
    elements: float = 0.0
    #: Sum of T_proc over the same jobs (seconds).
    tproc: float = 0.0
    #: Per-layer samples that do not come from a span (counts, sizes).
    samples: Dict[str, float] = field(default_factory=dict)


class Workload:
    """One set of inputs: generated from the seed, run in fixed rounds.

    ``setup`` builds the inputs and the reference outputs; ``round`` does
    one fixed batch of user-visible work and checks it; ``probes`` runs
    isolated call loops after the rounds of a traced run; ``teardown``
    stops whatever ``setup`` started. Every call into the program sits
    inside ``self.rec.span("<layer>.<operation>")``.
    """

    name = ""

    def __init__(self, seed: int, scratch: Path, rec: SpanRecorder):
        self.seed = seed
        self.scratch = scratch
        self.rec = rec
        #: One-shot per-layer metrics of set-up that are not a span's
        #: duration (those are read off the set-up spans): rates.
        self.setup_metrics: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> RoundResult:
        raise NotImplementedError

    def probes(self) -> Dict[str, float]:
        return {}

    def final_metrics(self) -> Dict[str, float]:
        """Per-layer readings taken once after the rounds (store sizes)."""
        return {}

    def teardown(self) -> None:
        pass

    def derived(self, per_layer: Dict[str, float]) -> Dict[str, float]:
        """Ratios computed from the aggregated per-layer metrics."""
        return {}

    def register_process_group(self, pgid: int) -> None:
        """Tell ``perf.run`` about a process group to sweep on exit, in
        case this process dies before its own ``teardown`` runs."""
        with open(self.scratch / PROCESS_GROUPS_FILE, "a", encoding="ascii") as handle:
            handle.write(f"{pgid}\n")
