"""Unit tests for the OS demand-paging substrate."""

import pytest

from repro.config import FlashConfig, OsConfig
from repro.errors import ConfigurationError
from repro.flash import FlashDevice
from repro.osmodel import DemandPager, ResidentSetManager
from repro.sim import Engine, spawn
from repro.units import US


class TestResidentSetManager:
    def test_fault_then_hit(self):
        rsm = ResidentSetManager(4)
        assert not rsm.lookup(1)
        rsm.insert(1)
        assert rsm.lookup(1)
        assert (rsm.faults, rsm.hits, rsm.insertions) == (1, 1, 1)

    def test_lru_eviction(self):
        rsm = ResidentSetManager(2)
        rsm.insert(1)
        rsm.insert(2)
        rsm.lookup(1)
        victim = rsm.insert(3)
        assert victim == (2, False)

    def test_dirty_tracking(self):
        rsm = ResidentSetManager(1)
        rsm.insert(1)
        rsm.lookup(1, is_write=True)
        victim = rsm.insert(2)
        assert victim == (1, True)

    def test_insert_resident_page_is_noop_eviction(self):
        rsm = ResidentSetManager(2)
        rsm.insert(1)
        assert rsm.insert(1) is None
        assert len(rsm) == 1

    def test_warm(self):
        rsm = ResidentSetManager(8)
        rsm.warm(range(5))
        assert len(rsm) == 5

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            ResidentSetManager(0)


def make_pager(capacity=8, num_cores=4, dataset_pages=256):
    engine = Engine()
    flash = FlashDevice(
        engine,
        FlashConfig(channels=2, dies_per_channel=1, planes_per_die=2,
                    pages_per_block=16, overprovisioning=0.5),
        dataset_pages,
    )
    resident = ResidentSetManager(capacity)
    pager = DemandPager(engine, OsConfig(), resident, flash, num_cores)
    return engine, pager, flash


class TestDemandPager:
    def test_fault_brings_page_in(self):
        engine, pager, flash = make_pager()
        durations = []

        def faulter():
            start = engine.now
            yield from pager.fault(10)
            durations.append(engine.now - start)

        spawn(engine, faulter())
        engine.run()
        assert pager.resident.is_resident(10)
        # Kernel stack (~5 us) + flash read (~50 us).
        assert durations[0] >= 55.0 * US
        assert flash.stats["reads"] == 1

    def test_concurrent_faults_coalesce(self):
        engine, pager, flash = make_pager()
        done = []

        def faulter(tag):
            yield from pager.fault(20)
            done.append(tag)

        for tag in range(3):
            spawn(engine, faulter(tag))
        engine.run()
        assert sorted(done) == [0, 1, 2]
        assert flash.stats["reads"] == 1  # one read serves all three
        assert pager.resident.insertions == 1

    def test_eviction_costs_a_shootdown(self):
        engine, pager, flash = make_pager(capacity=1)

        def faulter():
            yield from pager.fault(1)
            yield from pager.fault(2)  # evicts page 1

        spawn(engine, faulter())
        engine.run()
        assert pager.shootdowns == 1
        assert not pager.resident.is_resident(1)
        assert pager.resident.is_resident(2)

    def test_dirty_eviction_writes_back(self):
        engine, pager, flash = make_pager(capacity=1)

        def faulter():
            yield from pager.fault(1, is_write=True)
            yield from pager.fault(2)
            yield 2000.0 * US  # let the async writeback finish

        spawn(engine, faulter())
        engine.run()
        assert pager.resident.dirty_evictions == 1
        assert flash.stats["writes"] == 1

    def test_page_table_lock_serializes_installs(self):
        engine, pager, flash = make_pager(capacity=1, num_cores=16)
        finish_times = []

        def faulter(page):
            yield from pager.fault(page)
            finish_times.append(engine.now)

        # Two distinct faults, both evicting: installs must serialize on
        # the kernel lock + shootdown.
        spawn(engine, faulter(1))
        spawn(engine, faulter(2))
        spawn(engine, faulter(3))
        engine.run()
        # The third install queues on the lock behind the second's
        # shootdown, then pays its own: the two cannot overlap.
        finish_times.sort()
        assert len(set(finish_times)) == 3
        assert finish_times[2] - finish_times[1] >= \
            pager.shootdown.latency_ns()

    def test_average_fault_latency_reported(self):
        engine, pager, flash = make_pager()

        def faulter():
            yield from pager.fault(5)

        spawn(engine, faulter())
        engine.run()
        assert pager.average_fault_latency_ns() >= 50.0 * US

    def test_access_fast_path(self):
        engine, pager, flash = make_pager()
        pager.resident.insert(7)
        assert pager.resident.lookup(7)
        assert not pager.resident.lookup(8)
