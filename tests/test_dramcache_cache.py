"""Integration tests: DRAM cache + controllers + flash refills."""

import dataclasses

import pytest

from repro.config import DramCacheConfig, FlashConfig
from repro.dramcache import DramCache, build_timing, flat_partition_access_ns
from repro.flash import FlashDevice
from repro.sim import Engine, spawn
from repro.units import US


def make_cache(cache_pages=64, assoc=4, dataset_pages=512, msr_entries=32,
               **cache_overrides):
    engine = Engine()
    flash_config = FlashConfig(
        channels=2, dies_per_channel=1, planes_per_die=2,
        pages_per_block=16, overprovisioning=0.5,
    )
    flash = FlashDevice(engine, flash_config, dataset_pages)
    cache_config = dataclasses.replace(
        DramCacheConfig(associativity=assoc, msr_entries=msr_entries),
        **cache_overrides,
    )
    cache = DramCache(engine, cache_config, cache_pages, flash)
    return engine, cache, flash


def test_warm_then_hit():
    engine, cache, flash = make_cache()
    cache.organization.warm_job([(0.0, page, False) for page in range(16)])
    result = cache.access(3)
    assert result.hit
    timing = build_timing(cache.config)
    assert result.latency_ns == pytest.approx(timing.hit_latency_ns)


def test_miss_refills_from_flash_and_then_hits():
    engine, cache, flash = make_cache()
    latencies = []

    def missing_thread():
        result = cache.access(100)
        assert not result.hit
        start = engine.now
        yield result.completion
        latencies.append(engine.now - start)
        replay = cache.access(100)
        assert replay.hit

    spawn(engine, missing_thread())
    engine.run()
    # The refill includes the ~50 us flash read.
    assert latencies[0] >= 50.0 * US
    assert latencies[0] < 70.0 * US
    assert flash.stats["reads"] == 1


def test_concurrent_misses_to_same_page_coalesce():
    engine, cache, flash = make_cache()
    completions = []

    def thread(tag):
        result = cache.access(200)
        assert not result.hit
        yield result.completion
        completions.append(tag)

    for tag in range(3):
        spawn(engine, thread(tag))
    engine.run()
    assert sorted(completions) == [0, 1, 2]
    assert flash.stats["reads"] == 1  # one refill serves all three
    assert cache.frontside.coalesced_misses == 2


def test_write_coalescing_onto_a_pending_read_installs_dirty():
    # A write to a page whose read miss is still refilling merges into
    # the frontside controller's pending request: one flash read, and
    # the page installs dirty.
    engine, cache, flash = make_cache()

    def reader():
        result = cache.access(60)
        assert not result.hit
        yield result.completion

    def writer():
        yield 1.0 * US  # the read's refill is in flight
        result = cache.access(60, is_write=True)
        assert not result.hit
        yield result.completion

    spawn(engine, reader())
    spawn(engine, writer())
    engine.run()
    assert flash.stats["reads"] == 1
    assert cache.frontside.coalesced_misses == 1
    assert cache.organization.dirty_count() == 1


def test_write_miss_installs_dirty():
    engine, cache, flash = make_cache()

    def writer():
        result = cache.access(50, is_write=True)
        assert not result.hit
        yield result.completion

    spawn(engine, writer())
    engine.run()
    assert cache.organization.dirty_count() == 1


def test_write_hit_dirties_the_way():
    engine, cache, flash = make_cache()
    cache.organization.warm_job([(0.0, 3, False)])
    assert cache.access(3, is_write=True).hit
    assert cache.organization.dirty_count() == 1
    assert (cache.organization.hits, cache.organization.misses) == (1, 0)


def test_dirty_eviction_writes_back_to_flash():
    # One-set cache so we control evictions precisely.
    engine, cache, flash = make_cache(cache_pages=4, assoc=4)
    num_sets = cache.organization.num_sets
    assert num_sets == 1

    def driver():
        # Fill all 4 ways with dirty pages via write misses.
        for page in range(4):
            result = cache.access(page, is_write=True)
            yield result.completion
        # A 5th page forces a dirty eviction.
        result = cache.access(4)
        yield result.completion
        # Give the async writeback time to finish.
        yield 2000.0 * US

    spawn(engine, driver())
    engine.run()
    assert cache.organization.dirty_evictions == 1
    assert flash.stats["writes"] == 1


def test_miss_ratio_reporting():
    engine, cache, flash = make_cache()
    cache.organization.warm_job([(0.0, page, False) for page in range(8)])
    done = []

    def driver():
        for page in range(8):
            assert cache.access(page).hit
        result = cache.access(400)
        yield result.completion
        done.append(True)

    spawn(engine, driver())
    engine.run()
    assert cache.frontside.misses / cache.frontside.accesses == \
        pytest.approx(1 / 9)
    assert cache.frontside.counts() == {"accesses": 9.0, "misses": 1.0}


def test_msr_capacity_backpressures_admission():
    # MSR of 2 with many distinct misses: all eventually complete.
    engine, cache, flash = make_cache(msr_entries=2)
    completed = []

    def thread(page):
        result = cache.access(page)
        assert not result.hit
        yield result.completion
        completed.append(page)

    pages = [100 + i for i in range(8)]
    for page in pages:
        spawn(engine, thread(page))
    engine.run()
    assert sorted(completed) == pages
    assert cache.backside.msr.peak_occupancy <= 2
    assert cache.backside.msr.full_stalls > 0


def test_outstanding_misses_visible():
    engine, cache, flash = make_cache()
    result = cache.access(300)
    assert not result.hit
    # Let the BC accept it.
    engine.run(until=1.0 * US)
    assert len(cache.backside.msr) == 1
    engine.run()
    assert len(cache.backside.msr) == 0


def test_flat_partition_latency_is_one_dram_access():
    engine, cache, flash = make_cache()
    flat = flat_partition_access_ns(cache.config)
    timing = build_timing(cache.config)
    # Flat rows skip the tag machinery: never slower than a cached hit
    # (equal when way prediction overlaps the tag check).
    assert flat <= timing.hit_latency_ns
    # Without way prediction the serialized tag probe costs extra.
    import dataclasses
    serialized = build_timing(
        dataclasses.replace(cache.config, way_prediction=False)
    )
    assert flat < serialized.hit_latency_ns
