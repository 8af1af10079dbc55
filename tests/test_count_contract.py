"""The count contract: counts that reach results, state fingerprints and
warm snapshots keep their first-fire key order, stay absent until they
first fire, and are floats.

``tests/test_vector_backend.py`` digests ``SimulationResult.counters``
and the organization's stats dict unsorted, so the key order and value
type of these dicts are part of the simulator's output.  The DRAM-cache
and resident-set counts are plain ints on the per-access path and
become dicts only at result build and ``dump_state``; these tests pin
that the dicts still come out in first-fire order rather than in any
fixed key order.
"""

import dataclasses

from repro.config import DramCacheConfig, FlashConfig
from repro.core import Runner
from repro.dramcache import DramCache
from repro.flash import FlashDevice
from repro.harness.common import HarnessScale, build_config
from repro.sim import Engine
from repro.workloads import EVALUATED_WORKLOADS, make_workload

TINY = HarnessScale(
    name="count-tiny", dataset_pages=2048, num_cores=1, warmup_us=100.0,
    measurement_us=400.0, zipf_s=1.8, workloads=EVALUATED_WORKLOADS,
)


def tiny_runner(config_name, warm=True):
    config = build_config(config_name, TINY)
    workload = make_workload("arrayswap", TINY.dataset_pages, seed=3,
                             zipf_s=TINY.zipf_s)
    return Runner(config, workload, warm=warm)


def assert_fired_floats(counts, owner):
    """Each key fired (a positive count) and carries its int as a float."""
    assert counts
    for key, value in counts.items():
        assert type(value) is float
        assert value == getattr(owner, key) > 0


def test_nothing_fired_means_no_keys():
    cache = tiny_runner("astriflash", warm=False).machine.dram_cache
    assert cache.frontside.counts() == {}
    assert cache.organization.dump_state()["stats"] == {}
    pager = tiny_runner("os-swap", warm=False).machine.pager
    assert pager.resident.dump_state()["stats"] == {}


def test_warm_counts_start_with_installs_and_survive_a_snapshot():
    runner = tiny_runner("astriflash")
    runner.warm()
    org = runner.machine.dram_cache.organization
    stats = org.dump_state()["stats"]
    # The first warm step misses an empty cache and installs; warm-up
    # counts no misses, and hits land once the first job ends.
    assert list(stats)[0] == "installs"
    assert "misses" not in stats and "hits" in stats
    assert_fired_floats(stats, org)

    restored = tiny_runner("astriflash", warm=False)
    restored.machine.load_warm_state(runner.machine.dump_warm_state())
    again = restored.machine.dram_cache.organization.dump_state()["stats"]
    assert list(again.items()) == list(stats.items())


def test_resident_set_counts_start_with_insertions():
    runner = tiny_runner("os-swap")
    runner.warm()
    resident = runner.machine.pager.resident
    stats = resident.dump_state()["stats"]
    assert list(stats)[0] == "insertions"
    assert "hits" not in stats and "faults" not in stats
    assert_fired_floats(stats, resident)
    runner.run()
    stats = resident.dump_state()["stats"]
    assert list(stats)[0] == "insertions"
    assert "hits" in stats and "faults" in stats
    assert_fired_floats(stats, resident)


def test_cold_run_counts_start_with_misses():
    runner = tiny_runner("astriflash", warm=False)
    result = runner.run()
    cache = runner.machine.dram_cache
    stats = cache.organization.dump_state()["stats"]
    # The first access misses an empty cache; nothing can hit or be
    # evicted before the first refill installs.
    assert list(stats)[:2] == ["misses", "installs"]
    assert "hits" in stats
    assert_fired_floats(stats, cache.organization)

    counters = [key for key in result.counters
                if key.startswith("dramcache.")]
    assert counters[:2] == ["dramcache.accesses", "dramcache.misses"]
    assert_fired_floats(cache.frontside.counts(), cache.frontside)
    assert all(type(value) is float for value in result.counters.values())


def test_frontside_counts_follow_first_fire_order():
    engine = Engine()
    flash = FlashDevice(
        engine,
        FlashConfig(channels=2, dies_per_channel=1, planes_per_die=2,
                    pages_per_block=16, overprovisioning=0.5),
        512,
    )
    config = dataclasses.replace(DramCacheConfig(), miss_queue_entries=1,
                                 msr_entries=1)
    cache = DramCache(engine, config, 8, flash)
    for page in (40, 41, 42):  # the 1-entry queue fills: the FC stalls
        cache.access(page)
    cache.access(40)  # a duplicate of a pending miss coalesces
    counts = cache.frontside.counts()
    assert list(counts) == ["accesses", "misses", "bc_queue_stalls",
                            "coalesced_misses"]
    assert counts == {"accesses": 4.0, "misses": 3.0,
                      "bc_queue_stalls": 2.0, "coalesced_misses": 1.0}
    assert cache.organization.dump_state()["stats"] == {"misses": 4.0}
