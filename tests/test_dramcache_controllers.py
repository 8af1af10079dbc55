"""Corner-case tests for the frontside/backside controllers: queue
backpressure, evict-buffer stalls, set-conflict retries."""

import dataclasses

import pytest

from repro.config import DramCacheConfig, FlashConfig
from repro.dramcache import DramCache
from repro.flash import FlashDevice
from repro.sim import Engine, spawn
from repro.units import MS, US


def make_cache(cache_pages=8, assoc=4, dataset_pages=512,
               **cache_overrides):
    engine = Engine()
    flash = FlashDevice(
        engine,
        FlashConfig(channels=2, dies_per_channel=1, planes_per_die=2,
                    pages_per_block=16, overprovisioning=0.5),
        dataset_pages,
    )
    config = dataclasses.replace(
        DramCacheConfig(associativity=assoc), **cache_overrides
    )
    cache = DramCache(engine, config, cache_pages, flash)
    return engine, cache, flash


class TestBcQueueBackpressure:
    def test_fc_stalls_counted_when_queue_tiny(self):
        engine, cache, flash = make_cache(miss_queue_entries=1,
                                          msr_entries=1)
        # Burst of distinct misses: the 1-entry queue + 1-entry MSR
        # cannot absorb them synchronously.
        for page in range(40, 52):
            result = cache.access(page)
            assert not result.hit
        engine.run()
        assert cache.frontside.bc_queue_stalls > 0
        # Every miss still completes (installs == unique misses).
        assert cache.organization.installs == 12


class TestEvictBufferStalls:
    def test_dirty_eviction_burst_fills_buffer(self):
        # 1-slot evict buffer + slow writebacks: the second dirty
        # eviction must wait for the first writeback to finish.
        engine, cache, flash = make_cache(cache_pages=4, assoc=4,
                                          evict_buffer_entries=1)

        def driver():
            # Fill the single set with dirty pages.
            for page in range(4):
                result = cache.access(page, is_write=True)
                yield result.completion
            # Two more misses evict two dirty victims back to back.
            first = cache.access(4)
            yield first.completion
            second = cache.access(5)
            yield second.completion
            yield 5.0 * MS  # drain writebacks

        spawn(engine, driver())
        engine.run()
        assert cache.organization.dirty_evictions == 2
        assert flash.stats["writes"] == 2

    def test_clean_evictions_skip_the_buffer(self):
        engine, cache, flash = make_cache(cache_pages=4, assoc=4,
                                          evict_buffer_entries=1)

        def driver():
            for page in range(4):
                result = cache.access(page)  # clean fills
                yield result.completion
            result = cache.access(4)
            yield result.completion

        spawn(engine, driver())
        engine.run()
        assert cache.organization.evictions == 1
        assert cache.organization.dirty_evictions == 0
        assert flash.stats["writes"] == 0


class TestSetConflictRetries:
    def test_more_misses_than_ways_in_one_set(self):
        # One set, 2 ways, 4 concurrent misses to it: reservations run
        # out and the BC must retry until refills land.
        engine, cache, flash = make_cache(cache_pages=2, assoc=2)
        completions = []

        def thread(page):
            result = cache.access(page)
            assert not result.hit
            yield result.completion
            completions.append(page)

        for page in (10, 11, 12, 13):  # all map to set 0 (1 set)
            spawn(engine, thread(page))
        engine.run()
        assert sorted(completions) == [10, 11, 12, 13]
        # The last two found both ways reserved (reservations are
        # claimed while the reads fly), retried, and could only evict
        # once the first two had installed.
        assert cache.organization.installs == 4
        assert cache.organization.evictions == 2


class TestCoalescingWindow:
    def test_miss_then_hit_after_install_then_miss_again(self):
        engine, cache, flash = make_cache(cache_pages=4, assoc=4)
        history = []

        def driver():
            first = cache.access(100)
            history.append(first.hit)
            yield first.completion
            second = cache.access(100)
            history.append(second.hit)
            # Evict page 100 by filling the set.
            for page in (104, 108, 112, 116):
                result = cache.access(page)
                if not result.hit:
                    yield result.completion
            third = cache.access(100)
            history.append(third.hit)
            if not third.hit:
                yield third.completion

        spawn(engine, driver())
        engine.run()
        assert history == [False, True, False]
        assert flash.stats["reads"] >= 6


class TestMissRequestAccounting:
    def test_fill_latency_tracked(self):
        engine, cache, flash = make_cache()
        fills = []

        def driver():
            result = cache.access(50)
            yield result.completion
            fills.append(engine.now)

        spawn(engine, driver())
        engine.run()
        assert len(fills) == 1
        assert fills[0] > 45.0 * US

    def test_outstanding_drops_to_zero(self):
        engine, cache, flash = make_cache()
        for page in range(60, 70):
            cache.access(page)
        engine.run()
        assert len(cache.backside.msr) == 0
