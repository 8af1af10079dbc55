"""Tests for the seven evaluated workloads and arrival processes."""

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.workloads import (
    EVALUATED_WORKLOADS,
    ClosedLoop,
    PoissonArrivals,
    make_workload,
)

DATASET_PAGES = 2048


@pytest.fixture(scope="module")
def workloads():
    return {
        name: make_workload(name, DATASET_PAGES, seed=7)
        for name in EVALUATED_WORKLOADS
    }


def collect_steps(workload, num_jobs=20):
    steps = []
    for _ in range(num_jobs):
        steps.extend(workload.make_job().steps)
    return steps


# sha256 of each producer's first 300 jobs at seed 7 over 4096 pages
# (``repr`` of every step tuple, ``|`` after each job), truncated.
STEP_STREAM_DIGESTS = {
    "arrayswap": "bf9aeac4b961533e",
    "rbtree": "e20cb9a5a734042a",
    "hashtable": "dc17894677426ba8",
    "tatp": "f0ed9a13e497ee1f",
    "tpcc": "5465d0bc7cc7f5c9",
    "silo": "5fc76e0a67902059",
    "masstree": "9c2a0123e843acc2",
    "kvstore": "16753454240bdc05",
}


@pytest.mark.parametrize("name", EVALUATED_WORKLOADS + ["kvstore"])
def test_step_stream_is_pinned(name):
    """Each producer draws the same steps in the same order, checked
    at the producer itself rather than through a simulated run."""
    workload = make_workload(name, 4096, seed=7)
    digest = hashlib.sha256()
    for _ in range(300):
        for compute_ns, page, is_write in workload.make_job().steps:
            digest.update(repr((compute_ns, page, bool(is_write))).encode())
        digest.update(b"|")
    assert digest.hexdigest()[:16] == STEP_STREAM_DIGESTS[name]


class TestAllWorkloads:
    def test_registry_has_all_seven(self):
        assert len(EVALUATED_WORKLOADS) == 7

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            make_workload("no-such-workload", DATASET_PAGES)

    @pytest.mark.parametrize("name", EVALUATED_WORKLOADS)
    def test_jobs_produce_valid_steps(self, workloads, name):
        workload = workloads[name]
        steps = collect_steps(workload, num_jobs=5)
        assert steps, f"{name} produced no steps"
        for step in steps:
            assert type(step) is tuple and len(step) == 3
            compute_ns, page, is_write = step
            assert type(compute_ns) is float
            assert type(page) is int
            assert type(is_write) is bool
            assert 0 <= page < DATASET_PAGES, \
                f"{name} touched page {page} outside the dataset"
            assert compute_ns > 0

    @pytest.mark.parametrize("name", EVALUATED_WORKLOADS)
    def test_job_ids_are_unique(self, workloads, name):
        workload = workloads[name]
        ids = {workload.make_job().job_id for _ in range(10)}
        assert len(ids) == 10

    @pytest.mark.parametrize("name", EVALUATED_WORKLOADS)
    def test_service_time_is_microsecond_scale(self, workloads, name):
        # Paper: datacenter jobs take ~10-100 us (Sec. IV-D2).
        workload = workloads[name]
        service_ns = workload.average_service_time_ns(num_jobs=30)
        assert 2_000 <= service_ns <= 120_000, \
            f"{name} service time {service_ns:.0f} ns out of range"

    @pytest.mark.parametrize("name", EVALUATED_WORKLOADS)
    def test_write_traffic_is_limited(self, workloads, name):
        # Paper Sec. V-A: workloads mimic limited write traffic.
        steps = collect_steps(workloads[name], num_jobs=30)
        write_fraction = sum(w for _, _, w in steps) / len(steps)
        # Array Swap is the read-write extreme at exactly half; the
        # database workloads are far below it.
        assert write_fraction <= 0.5, f"{name} writes {write_fraction:.0%}"

    @pytest.mark.parametrize("name", EVALUATED_WORKLOADS)
    def test_accesses_are_skewed(self, workloads, name):
        # The hottest 10% of pages should absorb well over 10% of
        # accesses (Zipfian popularity).
        from collections import Counter
        steps = collect_steps(workloads[name], num_jobs=60)
        counts = Counter(page for _, page, _ in steps)
        total = sum(counts.values())
        hottest = sum(count for _, count in
                      counts.most_common(max(1, len(counts) // 10)))
        assert hottest / total > 0.3, f"{name} not skewed enough"

    def test_tpcc_is_most_computationally_intensive(self, workloads):
        tpcc_occupancy = workloads["tpcc"].rob_occupancy
        for name in EVALUATED_WORKLOADS:
            if name != "tpcc":
                assert workloads[name].rob_occupancy < tpcc_occupancy


class TestArrivals:
    def test_poisson_mean(self):
        arrivals = PoissonArrivals(1000.0, seed=1)
        gaps = [arrivals.next_gap_ns() for _ in range(20_000)]
        assert sum(gaps) / len(gaps) == pytest.approx(1000.0, rel=0.05)

    def test_poisson_rate(self):
        arrivals = PoissonArrivals(10_000.0)
        assert arrivals.rate_per_second == pytest.approx(1e5)

    def test_poisson_invalid(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(0.0)

    def test_closed_loop_is_backlogged(self):
        source = ClosedLoop()
        assert source.next_gap_ns() == 0.0
        assert source.rate_per_second == float("inf")


class TestSiloOcc:
    def test_sequential_transactions_commit(self):
        from repro.workloads import SiloWorkload
        workload = SiloWorkload(2048, seed=3)
        for _ in range(20):
            job = workload.make_job()
            while next(job.steps, None) is not None:
                pass
        assert workload.commits > 0
        assert workload.aborts == 0  # no interleaving: no conflicts

    def test_interleaved_transactions_conflict(self):
        import random
        from repro.workloads import SiloWorkload
        # High contention: tiny key space, write-heavy.
        workload = SiloWorkload(2048, seed=3, num_keys=1024, zipf_s=2.5,
                                reads_per_txn=3, writes_per_txn=2)
        # Randomly interleave many jobs, mimicking the irregular
        # progress of concurrent cores (lockstep interleavings align
        # all validation phases and cannot conflict).
        rng = random.Random(5)
        live = [workload.make_job() for _ in range(16)]
        while live:
            job = rng.choice(live)
            if next(job.steps, None) is None:
                live.remove(job)
        assert workload.commits > 0
        assert workload.aborts > 0, "interleaving must cause OCC conflicts"
        assert 0.0 < workload.abort_rate() < 1.0

    def test_retry_bound_respected(self):
        from repro.workloads import SiloWorkload
        workload = SiloWorkload(2048, seed=3)
        assert workload.retry_exhaustions == 0
