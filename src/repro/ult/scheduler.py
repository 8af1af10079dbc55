"""User-level thread schedulers (Sec. IV-D2, Fig. 8).

Two policies:

* :class:`PriorityAgingScheduler` — the paper's scheduler.  New jobs
  run at priority 2, pending jobs at priority 1, and an aging rule
  promotes the head of the pending queue when it has waited longer than
  the average flash response time.  Ready pending jobs are also drained
  ahead of new work once their data has arrived (the queue-pair
  notification path), which keeps the service-latency distribution
  close to Flash-Sync (Table II).
* :class:`FifoScheduler` — the `AstriFlash-noPS` ablation: new jobs
  always win; the pending queue is only consulted when no new job is
  available.  Starves pending jobs under bursts, giving the ~7x p99
  degradation of Table II.

Schedulers are pure policy objects: the core loop in
:mod:`repro.core.runner` owns timing and thread-switch costs.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.config.system import SchedulingPolicy, UltConfig
from repro.errors import ConfigurationError, ProtocolError
from repro.obs.tracer import active as _tracer_active
from repro.ult.thread import ThreadState, UserThread


class UltScheduler:
    """Base class: queue bookkeeping shared by both policies."""

    def __init__(self, config: UltConfig, name: str) -> None:
        if config.pending_queue_limit < 1:
            raise ConfigurationError("pending queue needs at least one slot")
        self.config = config
        self.name = name
        self._new: Deque[UserThread] = deque()
        self._pending: Deque[UserThread] = deque()
        # Dispatches by kind (the scheduler study prints these).
        self.aged_dispatches = 0
        self.new_dispatches = 0
        self.ready_dispatches = 0
        self.forced_dispatches = 0
        self._tracer = _tracer_active()

    # -- queue maintenance ---------------------------------------------------

    def add_new(self, thread: UserThread) -> None:
        if thread.state is not ThreadState.NEW:
            raise ProtocolError("only NEW threads enter the new-job queue")
        self._new.append(thread)

    def add_pending(self, thread: UserThread) -> None:
        """A running thread halted on a DRAM-cache miss."""
        if thread.state is not ThreadState.PENDING:
            raise ProtocolError("only PENDING threads enter the pending queue")
        if self.pending_full:
            raise ProtocolError("pending queue overflow; caller must block")
        self._pending.append(thread)

    @property
    def pending_full(self) -> bool:
        return len(self._pending) >= self.config.pending_queue_limit

    @property
    def new_count(self) -> int:
        return len(self._new)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def oldest_pending(self) -> Optional[UserThread]:
        return self._pending[0] if self._pending else None

    # -- policy ---------------------------------------------------------------

    def note_miss(self) -> None:
        """Hook invoked when a thread halts on a miss (used by the
        FIFO ablation's miss-gated pending check)."""

    def pick_next(self, now: float, avg_flash_response_ns: float
                  ) -> Optional[UserThread]:
        raise NotImplementedError

    def _pop_ready_pending(self) -> Optional[UserThread]:
        """Oldest pending thread whose data has arrived."""
        for index, thread in enumerate(self._pending):
            if thread.state is ThreadState.READY:
                del self._pending[index]
                return thread
        return None

    def _pop_new(self) -> Optional[UserThread]:
        return self._new.popleft() if self._new else None


class PriorityAgingScheduler(UltScheduler):
    """Priority scheduling with aging (the AstriFlash policy)."""

    def __init__(self, config: UltConfig) -> None:
        super().__init__(config, "priority-aging")

    def pick_next(self, now: float, avg_flash_response_ns: float
                  ) -> Optional[UserThread]:
        head = self.oldest_pending()
        threshold = avg_flash_response_ns * self.config.aging_threshold_factor
        if (head is not None and head.pending_age(now) >= threshold
                and head.state is ThreadState.READY):
            # Aging rule: the head waited longer than a typical flash
            # response, so it runs ahead of new jobs.  The queue-pair
            # notification path (Sec. IV-D2) tells the scheduler when
            # data has *not* arrived yet (flash-side queueing or GC
            # spikes); in that case blocking the core would waste it,
            # so the head is left pending and other work runs.
            self._pending.popleft()
            self.aged_dispatches += 1
            if self._tracer is not None:
                self._tracer.instant(
                    f"core{head.core_id}", "aged_dispatch", now,
                    {"age_ns": round(head.pending_age(now), 1)},
                )
            return head
        new = self._pop_new()
        if new is not None:
            self.new_dispatches += 1
            return new
        # No new jobs: drain the oldest ready pending job.
        ready = self._pop_ready_pending()
        if ready is not None:
            self.ready_dispatches += 1
            return ready
        # Nothing ready and no new jobs: when saturated, run the head
        # even though it must block on flash, rather than idle
        # (the scheduler "waits for the flash response for the oldest
        # job", Sec. IV-D1).
        if head is not None and self.pending_full:
            self._pending.popleft()
            self.forced_dispatches += 1
            if self._tracer is not None:
                self._tracer.instant(
                    f"core{head.core_id}", "forced_dispatch", now,
                    {"age_ns": round(head.pending_age(now), 1)},
                )
            return head
        return None


class FifoScheduler(UltScheduler):
    """`AstriFlash-noPS` (Sec. VI-B): new jobs always beat pending jobs.

    The ablated scheduler "executes new jobs even if the requested page
    for a pending job has arrived and only checks the pending queue
    when encountering a miss".  Two behaviours follow:

    * pending jobs are only noticed at miss-triggered scheduling points
      (``note_miss``), never on completion boundaries;
    * the pending queue is strict FIFO: a ready job behind an unready
      head suffers head-of-line blocking.

    Together these starve the pending queue, producing Table II's ~7x
    p99 service-latency inflation.
    """

    def __init__(self, config: UltConfig) -> None:
        super().__init__(config, "fifo")
        self._miss_event = False

    def note_miss(self) -> None:
        """A DRAM-cache miss occurred: the next scheduling decision is
        allowed to look at the pending queue."""
        self._miss_event = True

    def pick_next(self, now: float, avg_flash_response_ns: float
                  ) -> Optional[UserThread]:
        if self._miss_event:
            self._miss_event = False
            head = self.oldest_pending()
            if head is not None and head.state is ThreadState.READY:
                self._pending.popleft()
                self.ready_dispatches += 1
                return head
        new = self._pop_new()
        if new is not None:
            self.new_dispatches += 1
            return new
        if self.pending_full:
            # Saturated: drain the head, blocking on flash if needed.
            head = self._pending.popleft()
            self.forced_dispatches += 1
            if self._tracer is not None:
                self._tracer.instant(
                    f"core{head.core_id}", "forced_dispatch", now,
                    {"age_ns": round(head.pending_age(now), 1)},
                )
            return head
        # Ready pending jobs keep waiting: they are only seen at miss
        # points — the starvation the priority scheduler fixes.
        return None


def make_scheduler(config: UltConfig) -> UltScheduler:
    """Build the scheduler selected by ``config.policy``."""
    if config.policy is SchedulingPolicy.PRIORITY_AGING:
        return PriorityAgingScheduler(config)
    if config.policy is SchedulingPolicy.FIFO:
        return FifoScheduler(config)
    raise ConfigurationError(f"unknown scheduling policy {config.policy!r}")
