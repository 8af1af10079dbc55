"""Unit tests for user-level threads, schedulers, and the library."""

import pytest

from repro.config import SchedulingPolicy, UltConfig
from repro.errors import ConfigurationError, ProtocolError
from repro.ult import (
    FifoScheduler,
    PriorityAgingScheduler,
    ThreadLibrary,
    ThreadState,
    UserThread,
    make_scheduler,
)


def new_thread(tid=0, job="job", now=0.0):
    thread = UserThread(tid, core_id=0)
    thread.bind(job, now)
    return thread


class TestUserThread:
    def test_lifecycle(self):
        thread = new_thread()
        assert thread.state is ThreadState.NEW
        thread.dispatch()
        assert thread.state is ThreadState.RUNNING
        thread.halt_on_miss(page=7, now=10.0)
        assert thread.state is ThreadState.PENDING
        thread.data_arrived(now=60.0)
        assert thread.state is ThreadState.READY
        thread.dispatch()
        job = thread.finish()
        assert job == "job"
        assert thread.state is ThreadState.DONE

    def test_pending_age(self):
        thread = new_thread()
        thread.dispatch()
        thread.halt_on_miss(page=1, now=100.0)
        assert thread.pending_age(150.0) == pytest.approx(50.0)

    def test_invalid_transitions_raise(self):
        thread = UserThread(0, 0)
        with pytest.raises(ProtocolError):
            thread.dispatch()  # DONE -> RUNNING not allowed
        bound = new_thread()
        with pytest.raises(ProtocolError):
            bound.halt_on_miss(1, 0.0)  # not running
        with pytest.raises(ProtocolError):
            bound.finish()  # not running
        with pytest.raises(ProtocolError):
            bound.pending_age(1.0)

    def test_rebinding_busy_thread_raises(self):
        thread = new_thread()
        with pytest.raises(ProtocolError):
            thread.bind("another", 0.0)

    def test_switch_count(self):
        thread = new_thread()
        thread.dispatch()
        thread.halt_on_miss(1, 0.0)
        thread.data_arrived(1.0)
        thread.dispatch()
        assert thread.switches == 2


def halted(tid, now, page=1):
    thread = new_thread(tid)
    thread.dispatch()
    thread.halt_on_miss(page, now)
    return thread


class TestPriorityAgingScheduler:
    def make(self, **overrides):
        config = UltConfig(**overrides)
        return PriorityAgingScheduler(config)

    def test_new_jobs_run_before_unready_pending(self):
        sched = self.make()
        pending = halted(0, now=0.0)
        sched.add_pending(pending)
        fresh = new_thread(1)
        sched.add_new(fresh)
        # Pending is young (age < flash response): new job wins.
        assert sched.pick_next(now=10.0, avg_flash_response_ns=50_000) is fresh

    def test_new_jobs_beat_young_ready_pending(self):
        # Paper: new jobs have priority 2, pending priority 1.
        sched = self.make()
        pending = halted(0, now=0.0)
        sched.add_pending(pending)
        pending.data_arrived(now=50.0)
        fresh = new_thread(1)
        sched.add_new(fresh)
        assert sched.pick_next(now=60.0, avg_flash_response_ns=50_000) is fresh
        # Once no new work remains, the ready pending job runs.
        assert sched.pick_next(now=60.0, avg_flash_response_ns=50_000) is pending

    def test_aging_promotes_old_ready_pending_over_new(self):
        sched = self.make()
        pending = halted(0, now=0.0)
        sched.add_pending(pending)
        pending.data_arrived(now=60_000.0)
        fresh = new_thread(1)
        sched.add_new(fresh)
        # Head is older than the average flash response and its data
        # arrived: it preempts new work (the anti-starvation rule).
        picked = sched.pick_next(now=100_000.0, avg_flash_response_ns=50_000)
        assert picked is pending
        assert sched.aged_dispatches == 1

    def test_aged_but_unready_head_does_not_block_new_work(self):
        sched = self.make()
        pending = halted(0, now=0.0)
        sched.add_pending(pending)
        fresh = new_thread(1)
        sched.add_new(fresh)
        # The queue-pair notification says data has not arrived: the
        # scheduler runs other work instead of blocking the core.
        picked = sched.pick_next(now=100_000.0, avg_flash_response_ns=50_000)
        assert picked is fresh

    def test_empty_scheduler_returns_none(self):
        sched = self.make()
        assert sched.pick_next(0.0, 50_000) is None

    def test_forced_dispatch_when_pending_full_and_no_new(self):
        sched = self.make(pending_queue_limit=1)
        pending = halted(0, now=0.0)
        sched.add_pending(pending)
        assert sched.pending_full
        picked = sched.pick_next(now=1.0, avg_flash_response_ns=50_000)
        assert picked is pending

    def test_pending_overflow_raises(self):
        sched = self.make(pending_queue_limit=1)
        sched.add_pending(halted(0, 0.0))
        with pytest.raises(ProtocolError):
            sched.add_pending(halted(1, 0.0))

    def test_only_correct_states_enqueue(self):
        sched = self.make()
        running = new_thread()
        running.dispatch()
        with pytest.raises(ProtocolError):
            sched.add_new(running)
        with pytest.raises(ProtocolError):
            sched.add_pending(running)


class TestFifoScheduler:
    def make(self, **overrides):
        return FifoScheduler(UltConfig(**overrides))

    def test_pending_only_checked_at_miss_points(self):
        sched = self.make()
        pending = halted(0, now=0.0)
        sched.add_pending(pending)
        pending.data_arrived(now=50.0)
        fresh = new_thread(1)
        sched.add_new(fresh)
        # No miss since the last decision: the ready pending job is
        # invisible; the new job runs, then the scheduler idles even
        # though a ready job waits (the Sec. VI-B starvation).
        assert sched.pick_next(now=60.0, avg_flash_response_ns=50_000) is fresh
        assert sched.pick_next(now=60.0, avg_flash_response_ns=50_000) is None
        # After a miss event, the pending head is finally noticed.
        sched.note_miss()
        assert sched.pick_next(now=61.0, avg_flash_response_ns=50_000) is pending

    def test_unready_head_blocks_ready_followers(self):
        sched = self.make()
        head = halted(0, now=0.0)
        follower = halted(1, now=1.0)
        sched.add_pending(head)
        sched.add_pending(follower)
        follower.data_arrived(now=50.0)
        sched.note_miss()
        # Head-of-line blocking: the ready follower cannot jump the
        # unready FIFO head.
        assert sched.pick_next(now=60.0, avg_flash_response_ns=50_000) is None

    def test_forced_drain_when_full(self):
        sched = self.make(pending_queue_limit=1)
        pending = halted(0, now=0.0)
        sched.add_pending(pending)
        assert sched.pick_next(now=1.0, avg_flash_response_ns=50_000) is pending


class TestMakeScheduler:
    def test_policy_selection(self):
        assert isinstance(
            make_scheduler(UltConfig(policy=SchedulingPolicy.PRIORITY_AGING)),
            PriorityAgingScheduler,
        )
        assert isinstance(
            make_scheduler(UltConfig(policy=SchedulingPolicy.FIFO)),
            FifoScheduler,
        )


class TestThreadLibrary:
    def test_admission_bounded_by_contexts(self):
        library = ThreadLibrary(0, UltConfig(threads_per_core=2))
        library.admit("a", now=0.0)
        library.admit("b", now=0.0)
        assert not library.can_admit()
        with pytest.raises(ConfigurationError):
            library.admit("c", now=0.0)

    def test_context_recycled_on_finish(self):
        library = ThreadLibrary(0, UltConfig(threads_per_core=1))
        thread = library.admit("job", now=0.0)
        picked = library.pick_next(0.0, 50_000)
        assert picked is thread
        picked.dispatch()
        assert library.on_finish(picked) == "job"
        assert library.can_admit()

    def test_miss_flow_through_library(self):
        library = ThreadLibrary(0, UltConfig(threads_per_core=2))
        thread = library.admit("job", now=0.0)
        library.pick_next(0.0, 50_000)
        thread.dispatch()
        library.on_miss(thread, page=9, now=5.0)
        assert library.scheduler.pending_count == 1
        library.on_data_ready(thread, now=55.0)
        assert thread.state is ThreadState.READY

    def test_in_flight_accounting(self):
        library = ThreadLibrary(0, UltConfig(threads_per_core=4))
        library.admit("a", 0.0)
        library.admit("b", 0.0)
        assert library.can_admit()
        library.admit("c", 0.0)
        library.admit("d", 0.0)
        assert not library.can_admit()

    def test_zero_threads_rejected(self):
        with pytest.raises(ConfigurationError):
            UltConfig(threads_per_core=0)
