"""Focused tests of runner internals: forward progress, wake paths,
measurement accounting, and per-mode corner cases."""

import dataclasses

import pytest

from repro.config import make_config
from repro.core import Runner
from repro.core.runner import REPLAY_RACE_LIMIT
from repro.errors import SimulationError
from repro.units import US
from repro.workloads import PoissonArrivals, Workload, make_workload


class OnePageWorkload(Workload):
    """Deterministic workload: every job touches the same few pages."""

    name = "one-page"
    rob_occupancy = 32.0

    def __init__(self, dataset_pages=1024, seed=0, pages=(0,),
                 steps_per_job=8, compute_ns=200.0, writes=False):
        super().__init__(dataset_pages, seed)
        self.pages = pages
        self.steps_per_job = steps_per_job
        self.compute_ns_value = compute_ns
        self.writes = writes

    def _steps_for_job(self, job_id):
        for index in range(self.steps_per_job):
            page = self.pages[index % len(self.pages)]
            yield (self.compute_ns_value, page, self.writes)


def small_config(name, cores=1, dataset=1024, **overrides):
    config = make_config(name)
    config.num_cores = cores
    config.scale.dataset_pages = dataset
    config.scale.warmup_ns = 100.0 * US
    config.scale.measurement_ns = 1_000.0 * US
    for key, value in overrides.items():
        setattr(config.scale, key, value)
    return config


class TestDramOnlyPath:
    def test_throughput_matches_hand_computation(self):
        # 8 steps x (200 ns compute + flat DRAM latency); no TLB misses.
        config = small_config("dram-only")
        config.tlb = dataclasses.replace(config.tlb, miss_probability=0.0)
        workload = OnePageWorkload()
        runner = Runner(config, workload)
        result = runner.run()
        flat = runner.machine.flat_dram_latency_ns
        expected_service = 8 * (200.0 + flat)
        measured = 1e9 / result.throughput_jobs_per_s
        assert measured == pytest.approx(expected_service, rel=0.02)

    def test_tlb_misses_add_walk_cost(self):
        workload_a = OnePageWorkload()
        config_a = small_config("dram-only")
        config_a.tlb = dataclasses.replace(config_a.tlb,
                                           miss_probability=0.0)
        base = Runner(config_a, workload_a).run()

        workload_b = OnePageWorkload()
        config_b = small_config("dram-only")
        config_b.tlb = dataclasses.replace(config_b.tlb,
                                           miss_probability=1.0)
        walked = Runner(config_b, workload_b).run()
        assert walked.throughput_jobs_per_s < base.throughput_jobs_per_s


class TestForwardProgress:
    def test_thrashing_set_forces_synchronous_completion(self):
        # A one-set cache with more concurrently-hot pages than ways:
        # rescheduled threads find their page evicted and must use the
        # forward-progress path.
        config = small_config("astriflash")
        config.dram_cache = dataclasses.replace(
            config.dram_cache, associativity=2
        )
        # Shrink cache to 2 pages via the scale fraction.
        config.scale.dram_fraction = 2.5 / 1024
        num_sets_pages = [0, 1, 2, 3, 4, 5]  # >2 hot pages, same cache
        workload = OnePageWorkload(pages=tuple(num_sets_pages),
                                   steps_per_job=12)
        runner = Runner(config, workload, warm=False)
        runner.run()
        assert runner.stats["forward_progress_syncs"] > 0

    def test_forward_progress_bit_cleared_after_retire(self):
        config = small_config("astriflash")
        workload = make_workload("arrayswap", 1024, seed=2, zipf_s=1.8)
        runner = Runner(config, workload)
        runner.run()
        # After the run no thread may be left with the bit set while
        # idle (all completed threads cleared it).
        for library in runner.machine.libraries:
            for thread in library._threads:
                if thread.job is None:
                    assert not thread.forward_progress


class TestOpenLoopWakeups:
    def test_idle_core_wakes_on_arrival(self):
        # Sparse arrivals leave the core idle between jobs; every job
        # must still complete (wake path works).
        config = small_config("astriflash")
        workload = OnePageWorkload()
        runner = Runner(config, workload,
                        arrivals=PoissonArrivals(100.0 * US, seed=4))
        result = runner.run()
        assert result.completed_jobs >= 5
        # Response latency at this load is near pure service time.
        assert result.response_p99_ns < 50.0 * US


class TestOsSwapDetails:
    def test_faults_route_through_pager(self):
        config = small_config("os-swap")
        workload = make_workload("arrayswap", 1024, seed=3, zipf_s=1.8)
        runner = Runner(config, workload)
        runner.run()
        assert runner.machine.pager.resident.faults > 0
        assert runner.machine.flash.stats["reads"] > 0

    def test_shootdowns_happen_on_evictions(self):
        config = small_config("os-swap")
        workload = make_workload("arrayswap", 1024, seed=3, zipf_s=1.8)
        runner = Runner(config, workload)
        runner.run()
        assert runner.machine.pager.shootdowns > 0


class _FakeAccess:
    def __init__(self, hit, latency_ns=10.0, completion=None):
        self.hit = hit
        self.latency_ns = latency_ns
        self.completion = completion


class _FakeCache:
    """Scripted dram_cache stand-in for replay-race unit tests."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.accesses = 0

    def access(self, page, is_write):
        self.accesses += 1
        return self.outcomes.pop(0)


class TestReplayRace:
    """A synchronous waiter can find its page evicted again between the
    install signal and its wakeup; the replay must loop, not mispresent
    the miss as a hit (and leak the fresh completion signal)."""

    def make_runner(self, fake_cache):
        config = small_config("flash-sync")
        runner = Runner(config, OnePageWorkload())
        runner.machine.dram_cache = fake_cache
        return runner

    def test_immediate_hit_charges_hit_latency(self):
        runner = self.make_runner(_FakeCache([_FakeAccess(True, 42.0)]))
        gen = runner._replay_until_hit(3, False)
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value == 42.0
        assert runner.stats["replay_miss_races"] == 0

    def test_raced_replay_waits_for_fresh_refill(self):
        completion = object()  # the generator yields it untouched
        cache = _FakeCache([
            _FakeAccess(False, 5.0, completion),
            _FakeAccess(True, 42.0),
        ])
        runner = self.make_runner(cache)
        gen = runner._replay_until_hit(3, False)
        assert next(gen) is completion  # waits on the raced refill
        with pytest.raises(StopIteration) as stop:
            gen.send(None)
        assert stop.value.value == 42.0
        assert runner.stats["replay_miss_races"] == 1
        assert cache.accesses == 2

    def test_livelock_bounded(self):
        misses = [_FakeAccess(False, 5.0, object())
                  for _ in range(REPLAY_RACE_LIMIT + 2)]
        runner = self.make_runner(_FakeCache(misses))
        gen = runner._replay_until_hit(3, False)
        with pytest.raises(SimulationError):
            next(gen)  # first raced replay
            while True:
                gen.send(None)  # keep losing the race
        assert runner.stats["replay_miss_races"] == REPLAY_RACE_LIMIT + 1


class TestMeasurementWindowIsolation:
    def test_warmup_misses_do_not_pollute_miss_ratio(self):
        # One page, cold cache: the only miss happens during warmup, so
        # the measurement-window miss ratio must be exactly zero.
        config = small_config("flash-sync")
        workload = OnePageWorkload()
        runner = Runner(config, workload, warm=False)
        result = runner.run()
        assert runner._misses > 0  # the cold miss did happen ...
        assert result.miss_ratio == 0.0  # ... before the window opened

    def test_busy_fraction_uses_measurement_window_only(self):
        # A closed loop saturates the core: busy fraction of the
        # measurement window must be ~1, not diluted by warmup.
        config = small_config("dram-only")
        result = Runner(config, OnePageWorkload()).run()
        assert 0.9 < result.core_busy_fraction <= 1.0


class TestMeasurementAccounting:
    def test_completed_jobs_match_throughput(self):
        config = small_config("dram-only")
        workload = OnePageWorkload()
        result = Runner(config, workload).run()
        window_s = config.scale.measurement_ns / 1e9
        assert result.throughput_jobs_per_s == \
            pytest.approx(result.completed_jobs / window_s)

    def test_seed_reproducibility(self):
        def run_once():
            config = small_config("astriflash")
            workload = make_workload("arrayswap", 1024, seed=7, zipf_s=1.8)
            return Runner(config, workload, seed=7).run()

        first = run_once()
        second = run_once()
        assert first.completed_jobs == second.completed_jobs
        assert first.service_p99_ns == second.service_p99_ns
        assert first.miss_ratio == second.miss_ratio

    def test_disable_warmup(self):
        config = small_config("astriflash")
        workload = make_workload("arrayswap", 1024, seed=7, zipf_s=1.8)
        runner = Runner(config, workload, warm=False)
        assert not any(runner.machine.dram_cache.organization.tag_index)
        runner.run()


class TestTimeBreakdown:
    def test_astriflash_time_counters_populated(self):
        config = small_config("astriflash", cores=2, dataset=8192)
        workload = make_workload("arrayswap", 8192, seed=11, zipf_s=1.7)
        runner = Runner(config, workload)
        result = runner.run()
        counters = result.counters
        # Switch and flush time were charged.
        assert counters.get("time_switch_ns", 0) > 0
        assert counters.get("time_flush_ns", 0) > 0
        # Overheads are a small fraction of total core time here.
        window = 2 * (config.scale.warmup_ns + config.scale.measurement_ns)
        assert counters["time_switch_ns"] < 0.1 * window
        assert 0.0 < result.core_busy_fraction <= 1.0
