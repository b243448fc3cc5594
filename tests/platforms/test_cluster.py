"""Tests for the cluster resource model."""

import pytest

from repro.exceptions import ConfigurationError
from repro.platforms.cluster import DAS5_MACHINE, ClusterResources, MachineSpec


class TestMachineSpec:
    def test_das5_matches_table7(self):
        # Table 7: 2x Xeon E5-2630, 16 cores / 32 HT threads, 64 GiB.
        assert DAS5_MACHINE.cores == 16
        assert DAS5_MACHINE.threads == 32
        assert DAS5_MACHINE.memory_bytes == 64 * 2 ** 30
        assert "E5-2630" in DAS5_MACHINE.name

    def test_threads_below_cores_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineSpec("bad", cores=8, threads=4, memory_bytes=1, network_gbps=1)

    def test_nonpositive_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineSpec("bad", cores=1, threads=1, memory_bytes=0, network_gbps=1)


class TestClusterResources:
    def test_defaults(self):
        r = ClusterResources()
        assert r.machines == 1
        assert r.threads_per_machine == 32
        assert not r.distributed

    def test_distributed_flag(self):
        assert ClusterResources(machines=2).distributed

    def test_total_memory(self):
        r = ClusterResources(machines=4)
        assert r.total_memory_bytes == 4 * 64 * 2 ** 30

    def test_thread_override(self):
        assert ClusterResources(threads=8).threads_per_machine == 8

    def test_invalid_threads(self):
        with pytest.raises(ConfigurationError):
            ClusterResources(threads=64)

    def test_invalid_machines(self):
        with pytest.raises(ConfigurationError):
            ClusterResources(machines=0)

    def test_describe(self):
        text = ClusterResources(machines=2, threads=16).describe()
        assert "2 x" in text and "16 threads" in text
