"""Miss Status Row: in-DRAM tracking of outstanding DRAM-cache misses.

On-chip caches track concurrent misses in CAM-based MSHRs, but with
50 us refills a DRAM cache can have hundreds outstanding, which would
make SRAM MSHRs prohibitively expensive.  AstriFlash instead keeps the
miss-handling entries in a specialized DRAM row (8 B per entry,
set-associative, searched with a CAS).  This module models that table's
admission side: one entry per pending page and bounded capacity, with
the backside controller parking while the table is full (Sec. IV-B2).
Duplicate misses never reach it: the frontside controller merges them
in its own pending table onto the first miss's request.  Threads that
missed wait on that request's install signal
(:class:`~repro.dramcache.controllers.MissRequest`), not on the table.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.errors import CapacityError, ConfigurationError, ProtocolError
from repro.obs.tracer import active as _tracer_active
from repro.sim import Engine, Signal


class MissStatusRow:
    """The in-DRAM miss table: the set of pages with a pending refill,
    bounded by ``capacity``.

    When the table is full the backside controller parks on
    :meth:`wait_for_free` and retries after the next release;
    ``full_stalls`` counts those parks (the MSR ablation's finding).
    """

    def __init__(self, engine: Engine, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError("MSR needs at least one entry")
        self.engine = engine
        self.capacity = capacity
        self._pages: Set[int] = set()
        self._free_waiters = []
        self.full_stalls = 0
        self._tracer = _tracer_active()
        self._peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def is_full(self) -> bool:
        return len(self._pages) >= self.capacity

    @property
    def peak_occupancy(self) -> int:
        return self._peak_occupancy

    def allocate(self, page: int) -> None:
        """Allocate an entry; raises :class:`CapacityError` when full."""
        if page in self._pages:
            raise ProtocolError(f"duplicate MSR allocation for page {page}")
        if self.is_full:
            raise CapacityError("MSR full")
        self._pages.add(page)
        self._peak_occupancy = max(self._peak_occupancy, len(self._pages))
        if self._tracer is not None:
            self._tracer.counter("msr", self.engine.now,
                                 float(len(self._pages)))

    def note_reissue(self, page: int) -> None:
        """Check a flash-read reissue against its still-outstanding miss.

        The resilience path (DESIGN.md §4f) retries timed-out or
        uncorrectable reads without releasing the entry — the miss is
        still one miss, it just took several device attempts.  Requires
        a pending entry: reissuing a read nobody is tracking would mean
        the BC lost an MSR entry.
        """
        if page not in self._pages:
            raise ProtocolError(
                f"flash reissue without pending MSR entry for page {page}"
            )

    def release(self, page: int) -> None:
        """Remove the entry on install completion and wake one waiter
        parked on a full table."""
        if page not in self._pages:
            raise ProtocolError(f"release of missing MSR entry for page {page}")
        self._pages.remove(page)
        if self._tracer is not None:
            self._tracer.counter("msr", self.engine.now,
                                 float(len(self._pages)))
        if self._free_waiters:
            self._free_waiters.pop(0).fire()

    def wait_for_free(self) -> Optional[Signal]:
        """Returns a signal to yield on while the table is full, or
        None when space is available right now."""
        if not self.is_full:
            return None
        self.full_stalls += 1
        signal = Signal(self.engine, "msr-free")
        self._free_waiters.append(signal)
        return signal
