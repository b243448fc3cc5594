"""Calibrated per-platform performance models.

Each simulated platform owns one :class:`PerformanceModel`, which turns a
full-scale workload description (:class:`WorkloadProfile`) plus granted
resources into modeled processing time, makespan components, memory
demand, and failure events. The models are *mechanistic*: every paper
finding is produced by a model component, not a lookup table —

* single-node speed: ``base_evps`` (elements/second at a full node),
  calibrated to Table 8;
* per-algorithm cost: global work factors (algorithm registry) times a
  per-platform adjustment, calibrated to Figures 4 and 6;
* vertical scaling: Amdahl's law with per-algorithm parallel fractions
  plus a hyper-threading yield, calibrated to Table 9 / Figure 7;
* horizontal scaling: a distribution shock when leaving single-machine
  mode plus a per-algorithm scaling exponent, calibrated to §4.4/§4.5;
* memory: bytes/element footprints with skew sensitivity, boundary
  (non-partitionable) fractions and replication, which mechanically
  produce the Table 10 stress-test failures and the out-of-memory events
  of §4.4–4.6; near-capacity runs incur a swap penalty (GraphMat's
  single-machine PageRank outlier, §4.4);
* variability: seeded log-normal jitter with per-platform CVs (Table 11).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np
# Loaded lazily by the first ``np.random.default_rng`` otherwise (~11 ms
# in every forked run child, right after its first timed job).
import numpy.random  # noqa: F401

from repro.algorithms.registry import get_algorithm
from repro.exceptions import ConfigurationError
from repro.platforms.cluster import ClusterResources

__all__ = ["WorkloadProfile", "PerformanceModel"]

#: Reference workload for rate definitions: D300(L), elements = |V| + |E|.
_REFERENCE_ELEMENTS = 308.3e6

#: Fraction of node memory actually usable by a platform's heap.
_USABLE_MEMORY_FRACTION = 0.95


@dataclass(frozen=True)
class WorkloadProfile:
    """Full-scale shape descriptors of one dataset (model inputs)."""

    name: str
    num_vertices: int
    num_edges: int
    directed: bool
    weighted: bool
    #: Mean adjacency degree (2|E|/|V| undirected, |E|/|V| out-degree).
    mean_degree: float
    #: Squared coefficient of variation of the degree distribution;
    #: E[d^2] = mean_degree^2 (1 + degree_cv2). Drives LCC cost.
    degree_cv2: float
    #: Partition-imbalance / hub-replication multiplier (>= 1). Graph500
    #: graphs are far more skewed than Datagen graphs of equal scale —
    #: the §4.6 finding hinges on this.
    memory_skew: float = 1.0
    #: Fraction of the graph reached from the benchmark BFS root.
    bfs_coverage: float = 0.95
    #: Number of weakly connected components (PGX.D's WCC penalty, §4.2).
    component_count: int = 1

    @property
    def elements(self) -> int:
        return self.num_vertices + self.num_edges

    @property
    def scale(self) -> float:
        return round(math.log10(self.elements), 1) if self.elements else 0.0

    @property
    def degree_second_moment_sum(self) -> float:
        """Approximate sum over vertices of degree^2 (LCC work)."""
        return self.num_vertices * self.mean_degree ** 2 * (1.0 + self.degree_cv2)


@dataclass(frozen=True)
class PerformanceModel:
    """All calibrated knobs of one platform (see module docstring)."""

    # -- single-node speed ------------------------------------------------
    base_evps: float                 # elements/s, BFS, one full node
    tproc_floor: float               # fixed seconds inside every Tproc
    algorithm_adjust: Mapping[str, float] = field(default_factory=dict)
    #: Rate degradation on very large inputs (cache locality):
    #: divide the rate by (1 + scale_sensitivity * log10(elements/ref)).
    scale_sensitivity: float = 0.0
    #: Rate degradation on skewed inputs: divide by (1 + x*(skew-1)).
    rate_skew_sensitivity: float = 0.0

    # -- vertical scaling (threads on one machine) ------------------------
    parallel_fraction: Mapping[str, float] = field(default_factory=dict)
    ht_yield: float = 0.0            # capacity of a hyper-thread vs a core

    # -- horizontal scaling (machines) ------------------------------------
    distributed: bool = True
    dist_shock: float = 1.5          # slowdown factor entering 2+ machines
    dist_shock_adjust: Mapping[str, float] = field(default_factory=dict)
    dist_exponent: Mapping[str, float] = field(default_factory=dict)
    dist_floor: float = 0.5          # extra fixed seconds when distributed

    # -- memory model ------------------------------------------------------
    bytes_per_element: float = 50.0
    skew_sensitivity: float = 1.0    # footprint mult: 1 + s*(skew-1)
    boundary_fraction: float = 0.05  # share of footprint on every machine
    replication: float = 0.3         # ghosts: 1 + r*(1 - 1/M)
    memory_alg_mult: Mapping[str, float] = field(default_factory=dict)
    swap_threshold: float = 0.70     # memory fraction where swapping starts
    swap_penalty: float = 4.0        # Tproc multiplier at 100% memory

    # -- makespan / upload --------------------------------------------------
    fixed_overhead: float = 10.0     # deployment/startup seconds
    load_rate: float = 10e6          # elements/s, loading into the platform
    upload_rate: float = 10e6        # elements/s, format conversion

    # -- robustness ----------------------------------------------------------
    variability_cv_single: float = 0.05
    variability_cv_distributed: float = 0.05

    # -- quirks ---------------------------------------------------------------
    queue_based_bfs: bool = False    # OpenG: BFS work ∝ covered elements
    wcc_component_penalty: float = 0.0  # PGX.D: per-decade component cost

    # ---------------------------------------------------------------------
    def _adjust(self, algorithm: str) -> float:
        return float(self.algorithm_adjust.get(algorithm, 1.0))

    def _fraction(self, algorithm: str) -> float:
        table = self.parallel_fraction
        return float(table.get(algorithm, table.get("*", 0.9)))

    def _exponent(self, algorithm: str) -> float:
        table = self.dist_exponent
        return float(table.get(algorithm, table.get("*", 0.8)))

    def work_elements(self, algorithm: str, profile: WorkloadProfile) -> float:
        """Algorithm work, in BFS-edge-visit equivalents."""
        spec = get_algorithm(algorithm)
        if spec.quadratic_in_degree:
            base = profile.degree_second_moment_sum
        else:
            base = float(profile.elements)
            if algorithm == "bfs" and self.queue_based_bfs:
                # Queue-based BFS touches only the reached portion of the
                # graph; iterative platforms sweep everything (the §4.1
                # OpenG-on-R2 finding).
                base *= profile.bfs_coverage
        work = base * spec.work_factor * self._adjust(algorithm)
        if algorithm == "wcc" and self.wcc_component_penalty > 0:
            work *= 1.0 + self.wcc_component_penalty * math.log10(
                max(1, profile.component_count)
            )
        return work

    # -- scaling ---------------------------------------------------------

    def vertical_speedup(self, threads: int, resources: ClusterResources) -> float:
        """Amdahl speedup of `threads` vs 1 thread, with HT yield."""
        machine = resources.machine
        cores = machine.cores
        effective = min(threads, cores) + max(0, threads - cores) * self.ht_yield
        return effective

    def _amdahl(self, algorithm: str, threads: int, resources: ClusterResources) -> float:
        p = self._fraction(algorithm)
        capacity = self.vertical_speedup(threads, resources)
        return 1.0 / ((1.0 - p) + p / capacity)

    def thread_scaling_factor(
        self, algorithm: str, resources: ClusterResources
    ) -> float:
        """Rate multiplier vs a full node (base_evps is full-node speed)."""
        full = self._amdahl(algorithm, resources.machine.threads, resources)
        actual = self._amdahl(algorithm, resources.threads_per_machine, resources)
        return actual / full

    def machine_scaling_factor(self, algorithm: str, machines: int) -> float:
        """Rate multiplier vs a single machine."""
        if machines <= 1:
            return 1.0
        gamma = self._exponent(algorithm)
        shock = self.dist_shock * float(self.dist_shock_adjust.get(algorithm, 1.0))
        return (machines / 2.0) ** gamma / shock

    def _rate_modifier(self, profile: WorkloadProfile) -> float:
        """Dataset sensitivity: large and skewed graphs process slower."""
        modifier = 1.0
        if self.scale_sensitivity > 0 and profile.elements > _REFERENCE_ELEMENTS:
            modifier *= 1.0 + self.scale_sensitivity * math.log10(
                profile.elements / _REFERENCE_ELEMENTS
            )
        if self.rate_skew_sensitivity > 0:
            modifier *= 1.0 + self.rate_skew_sensitivity * (profile.memory_skew - 1.0)
        return modifier

    # -- memory -----------------------------------------------------------

    def memory_footprint_bytes(self, algorithm: str, profile: WorkloadProfile) -> float:
        """Total in-memory bytes needed for the dataset + algorithm state."""
        skew_mult = 1.0 + self.skew_sensitivity * (profile.memory_skew - 1.0)
        alg_mult = float(self.memory_alg_mult.get(algorithm, 1.0))
        return profile.elements * self.bytes_per_element * skew_mult * alg_mult

    def memory_demand_per_machine(
        self, algorithm: str, profile: WorkloadProfile, resources: ClusterResources
    ) -> float:
        """Peak bytes on the most loaded machine."""
        footprint = self.memory_footprint_bytes(algorithm, profile)
        machines = resources.machines
        if machines == 1:
            return footprint
        beta = self.boundary_fraction
        partition = 1.0 / machines + beta * (1.0 - 1.0 / machines)
        ghosts = 1.0 + self.replication * (1.0 - 1.0 / machines)
        return footprint * partition * ghosts

    def memory_capacity_per_machine(self, resources: ClusterResources) -> float:
        return resources.machine.memory_bytes * _USABLE_MEMORY_FRACTION

    def fits_in_memory(
        self, algorithm: str, profile: WorkloadProfile, resources: ClusterResources
    ) -> bool:
        demand = self.memory_demand_per_machine(algorithm, profile, resources)
        return demand <= self.memory_capacity_per_machine(resources)

    def swap_multiplier(
        self, algorithm: str, profile: WorkloadProfile, resources: ClusterResources
    ) -> float:
        """Tproc penalty when the job nearly fills memory (1.0 = none)."""
        demand = self.memory_demand_per_machine(algorithm, profile, resources)
        capacity = self.memory_capacity_per_machine(resources)
        fraction = demand / capacity
        if fraction <= self.swap_threshold:
            return 1.0
        span = 1.0 - self.swap_threshold
        over = min(fraction, 1.0) - self.swap_threshold
        return 1.0 + (self.swap_penalty - 1.0) * (over / span)

    # -- headline outputs ---------------------------------------------------

    def processing_time(
        self,
        algorithm: str,
        profile: WorkloadProfile,
        resources: ClusterResources,
    ) -> float:
        """Modeled Tproc in seconds (no jitter; see apply_variability)."""
        if resources.machines > 1 and not self.distributed:
            raise ConfigurationError("platform is not distributed")
        work = self.work_elements(algorithm, profile)
        rate = self.base_evps
        rate *= self.thread_scaling_factor(algorithm, resources)
        rate *= self.machine_scaling_factor(algorithm, resources.machines)
        rate /= self._rate_modifier(profile)
        seconds = self.tproc_floor + work / rate
        if resources.machines > 1:
            seconds += self.dist_floor
        seconds *= self.swap_multiplier(algorithm, profile, resources)
        return seconds

    def load_time(self, profile: WorkloadProfile) -> float:
        return profile.elements / self.load_rate

    def upload_time(self, profile: WorkloadProfile) -> float:
        return profile.elements / self.upload_rate

    def makespan(
        self,
        algorithm: str,
        profile: WorkloadProfile,
        resources: ClusterResources,
        *,
        processing_time: Optional[float] = None,
    ) -> float:
        """Modeled makespan: startup + loading + processing + teardown."""
        tproc = (
            processing_time
            if processing_time is not None
            else self.processing_time(algorithm, profile, resources)
        )
        teardown = 0.05 * self.fixed_overhead
        return self.fixed_overhead + self.load_time(profile) + tproc + teardown

    def variability_cv(self, resources: ClusterResources) -> float:
        if resources.machines > 1:
            return self.variability_cv_distributed
        return self.variability_cv_single

    def apply_variability(
        self,
        seconds: float,
        resources: ClusterResources,
        *,
        seed_key: tuple,
    ) -> float:
        """Mean-preserving log-normal jitter with the platform's CV."""
        cv = self.variability_cv(resources)
        if cv <= 0:
            return seconds
        sigma = math.sqrt(math.log(1.0 + cv * cv))
        # Python's builtin hash() is salted per process; derive the RNG
        # seed from a stable digest so repeated benchmark runs reproduce.
        digest = hashlib.sha256(repr(seed_key).encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        multiplier = math.exp(rng.normal(-0.5 * sigma * sigma, sigma))
        return seconds * multiplier
