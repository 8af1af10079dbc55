"""OS demand-paging path (the OS-Swap baseline, Sec. II-C / Fig. 4a).

Every page fault runs the kernel storage stack (~5 us), reads the page
from flash, then installs it under kernel synchronization: page-table
updates are serialized on a global lock and every eviction triggers a
broadcast TLB shootdown whose latency grows with the core count.  Those
two serial costs are what make OS paging fundamentally unscalable
(Fig. 2) — the model reproduces them structurally rather than as a
single fudge factor.

Concurrent faults on the same page coalesce on a per-page lock, like
the kernel's page-lock wait path.
"""

from __future__ import annotations

from typing import Dict

from repro.config.system import OsConfig
from repro.flash.device import FlashDevice
from repro.osmodel.resident import ResidentSetManager
from repro.sim import Engine, Server, Signal, spawn
from repro.vm.shootdown import TlbShootdownModel


class DemandPager:
    """The kernel's fault-to-mapped pipeline."""

    def __init__(self, engine: Engine, config: OsConfig,
                 resident: ResidentSetManager, flash: FlashDevice,
                 num_cores: int) -> None:
        self.engine = engine
        self.config = config
        self.resident = resident
        self.flash = flash
        self.shootdown = TlbShootdownModel(config, num_cores)
        # Kernel page-table lock: mapping updates serialize machine-wide.
        self._page_table_lock = Server(engine, capacity=1, name="pt-lock")
        # Faults already in flight (page -> completion signal).
        self._pending: Dict[int, Signal] = {}
        # LATR-style batching: evictions accumulated toward the next
        # amortized broadcast.
        self._unbatched_evictions = 0
        # Broadcast shootdowns issued (batching's saving shows here).
        self.shootdowns = 0
        # Completed faults and their summed latency, for the running
        # mean the kernel-thread aging policy reads.
        self._faults_done = 0
        self._fault_ns_total = 0.0

    def fault(self, page: int, is_write: bool = False):
        """Process generator handling one page fault end to end.

        The caller (a kernel thread on some core) runs this and is
        blocked for its whole duration; overlapping work on the core
        requires an OS context switch, charged by the core loop.
        """
        start = self.engine.now

        existing = self._pending.get(page)
        if existing is not None:
            # Another thread is already faulting this page in: wait on
            # the page lock instead of issuing duplicate I/O.
            yield existing
            return

        done = Signal(self.engine, f"fault:{page}")
        self._pending[page] = done
        try:
            # Kernel entry, page-cache check, storage stack, NVMe doorbell.
            yield self.config.page_fault_kernel_ns
            read_signal = self.flash.read(page)
            yield read_signal

            # Install under the global page-table lock.
            grant = self._page_table_lock.acquire()
            if grant is not None:
                yield grant
            victim = self.resident.insert(page, dirty=is_write)
            if victim is not None:
                victim_page, victim_dirty = victim
                # Unmapping the victim requires a broadcast shootdown,
                # held across the lock: this is the scalability killer.
                # With LATR-style batching (the paper's [46]) several
                # unmappings share one amortized broadcast.
                if self.config.batched_shootdowns:
                    self._unbatched_evictions += 1
                    if self._unbatched_evictions >= \
                            self.config.shootdown_batch_size:
                        yield self.shootdown.latency_ns(
                            batched_pages=self._unbatched_evictions
                        )
                        self.shootdowns += 1
                        self._unbatched_evictions = 0
                else:
                    yield self.shootdown.latency_ns()
                    self.shootdowns += 1
                if victim_dirty:
                    spawn(self.engine, self._writeback(victim_page),
                          name=f"swap-out:{victim_page}")
            self._page_table_lock.release()
        finally:
            self._pending.pop(page, None)
        self._faults_done += 1
        self._fault_ns_total += self.engine.now - start
        done.fire()

    def _writeback(self, page: int):
        yield self.flash.write(page)

    # -- derived metrics ------------------------------------------------------

    def average_fault_latency_ns(self) -> float:
        if not self._faults_done:
            return (self.config.page_fault_kernel_ns
                    + self.flash.config.read_latency_ns)
        return self._fault_ns_total / self._faults_done
