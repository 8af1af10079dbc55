"""Tests for the optional extensions: Tiny-Tail GC and LATR-style
batched shootdowns."""

import pytest

from repro.config import FlashConfig, OsConfig, make_config
from repro.core import Runner
from repro.errors import ConfigurationError
from repro.flash import FlashDevice
from repro.osmodel import DemandPager, ResidentSetManager
from repro.sim import Engine, spawn
from repro.units import US
from repro.workloads import make_workload


def gc_stress_device(policy: str, seed=3):
    """A tiny device with aggressive write churn + concurrent reads."""
    import random
    rng = random.Random(seed)
    engine = Engine()
    config = FlashConfig(channels=1, dies_per_channel=1, planes_per_die=1,
                         pages_per_block=8, overprovisioning=0.5,
                         gc_policy=policy)
    device = FlashDevice(engine, config, 32)
    read_latencies = []

    def writer():
        for index in range(200):
            yield device.write(index % 4)

    def reader():
        for _ in range(200):
            request = yield device.read(rng.randrange(32))
            read_latencies.append(request.latency_ns)
            yield 10.0 * US

    spawn(engine, writer())
    spawn(engine, reader())
    engine.run()
    return device, read_latencies


class TestTinyTailGc:
    def test_policy_validated(self):
        with pytest.raises(ConfigurationError):
            FlashConfig(gc_policy="nonsense")

    def test_both_policies_reclaim_space(self):
        for policy in ("blocking", "tiny-tail"):
            device, _ = gc_stress_device(policy)
            assert device.ftl.stats["gc_erases"] >= 1, policy
            # All hot pages still mapped exactly once.
            plane = device.ftl.planes[0]
            valid = sum(block.valid_count for block in plane.blocks)
            assert valid == 4, policy

    def test_tiny_tail_cuts_read_tail(self):
        _, blocking = gc_stress_device("blocking")
        _, tiny = gc_stress_device("tiny-tail")
        blocking.sort()
        tiny.sort()
        worst_blocking = blocking[-1]
        worst_tiny = tiny[-1]
        # Sliced GC bounds the worst read delay well below a full
        # blocking pass (migrations + 3 ms erase).
        assert worst_tiny < worst_blocking


class TestBatchedShootdowns:
    def make_pager(self, batched: bool, capacity=2):
        engine = Engine()
        flash = FlashDevice(
            engine,
            FlashConfig(channels=2, dies_per_channel=1, planes_per_die=2,
                        pages_per_block=16, overprovisioning=0.5),
            256,
        )
        os_config = OsConfig(batched_shootdowns=batched,
                             shootdown_batch_size=4)
        pager = DemandPager(engine, os_config,
                            ResidentSetManager(capacity), flash, 16)
        return engine, pager

    def _fault_series(self, engine, pager, pages):
        def driver():
            for page in pages:
                yield from pager.fault(page)

        spawn(engine, driver())
        engine.run()

    def test_batching_reduces_broadcasts(self):
        pages = list(range(20))
        engine_a, pager_a = self.make_pager(batched=False)
        self._fault_series(engine_a, pager_a, pages)
        engine_b, pager_b = self.make_pager(batched=True)
        self._fault_series(engine_b, pager_b, pages)
        assert pager_b.shootdowns < pager_a.shootdowns
        # Each batched broadcast covers at least a batch of evictions.
        assert pager_b.resident.evictions >= 4 * pager_b.shootdowns

    def test_batching_speeds_up_os_swap(self):
        def run(batched):
            config = make_config("os-swap", (
                ("num_cores", 2),
                ("scale.dataset_pages", 8192),
                ("scale.warmup_ns", 300.0 * US),
                ("scale.measurement_ns", 1_500.0 * US),
                ("os.batched_shootdowns", batched),
            ))
            workload = make_workload("arrayswap", 8192, seed=11, zipf_s=1.7)
            return Runner(config, workload).run()

        plain = run(False)
        batched = run(True)
        # Amortized broadcasts reduce the per-fault critical section.
        assert batched.throughput_jobs_per_s >= \
            0.9 * plain.throughput_jobs_per_s
