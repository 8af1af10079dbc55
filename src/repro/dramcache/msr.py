"""Miss Status Row: in-DRAM tracking of outstanding DRAM-cache misses.

On-chip caches track concurrent misses in CAM-based MSHRs, but with
50 us refills a DRAM cache can have hundreds outstanding, which would
make SRAM MSHRs prohibitively expensive.  AstriFlash instead keeps the
miss-handling entries in a specialized DRAM row (8 B per entry,
set-associative, searched with a CAS).  This module models that table:
bounded capacity and duplicate-miss coalescing (Sec. IV-B2).  Threads
that missed wait on their miss request's install signal
(:class:`~repro.dramcache.controllers.MissRequest`), not on the table.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import CapacityError, ConfigurationError, ProtocolError
from repro.obs.tracer import active as _tracer_active
from repro.sim import Engine, Signal


class MsrEntry:
    """One outstanding miss: the page, its allocation time and whether
    any merged miss was a write."""

    __slots__ = ("page", "allocated_at", "is_write", "coalesced")

    def __init__(self, engine: Engine, page: int, is_write: bool) -> None:
        self.page = page
        self.allocated_at = engine.now
        self.is_write = is_write
        self.coalesced = 0  # duplicate misses merged into this entry

    def __repr__(self) -> str:
        return f"<MsrEntry page={self.page} coalesced={self.coalesced}>"


class MissStatusRow:
    """The in-DRAM miss table with bounded capacity.

    ``free_signal`` consumers: when the table is full the backside
    controller parks on :meth:`wait_for_free` and retries after the
    next release; ``full_stalls`` counts those parks (the MSR ablation's
    finding).
    """

    def __init__(self, engine: Engine, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError("MSR needs at least one entry")
        self.engine = engine
        self.capacity = capacity
        self._entries: Dict[int, MsrEntry] = {}
        self._free_waiters = []
        self.full_stalls = 0
        self._tracer = _tracer_active()
        self._peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def peak_occupancy(self) -> int:
        return self._peak_occupancy

    def lookup(self, page: int) -> Optional[MsrEntry]:
        """CAS search for a pending miss to ``page``."""
        return self._entries.get(page)

    def allocate(self, page: int, is_write: bool) -> MsrEntry:
        """Allocate an entry; raises :class:`CapacityError` when full."""
        if page in self._entries:
            raise ProtocolError(f"duplicate MSR allocation for page {page}")
        if self.is_full:
            raise CapacityError("MSR full")
        entry = MsrEntry(self.engine, page, is_write)
        self._entries[page] = entry
        self._peak_occupancy = max(self._peak_occupancy, len(self._entries))
        if self._tracer is not None:
            self._tracer.counter("msr", self.engine.now,
                                 float(len(self._entries)))
        return entry

    def coalesce(self, page: int, is_write: bool) -> MsrEntry:
        """Merge a duplicate miss into the existing entry."""
        entry = self._entries.get(page)
        if entry is None:
            raise ProtocolError(f"coalesce without pending entry for page {page}")
        entry.coalesced += 1
        if is_write:
            entry.is_write = True
        return entry

    def note_reissue(self, page: int) -> MsrEntry:
        """Check a flash-read reissue against its still-outstanding miss.

        The resilience path (DESIGN.md §4f) retries timed-out or
        uncorrectable reads without releasing the entry — the miss is
        still one miss, it just took several device attempts.  Requires
        a pending entry: reissuing a read nobody is tracking would mean
        the BC lost an MSR entry.  Returns that entry.
        """
        entry = self._entries.get(page)
        if entry is None:
            raise ProtocolError(
                f"flash reissue without pending MSR entry for page {page}"
            )
        return entry

    def release(self, page: int) -> MsrEntry:
        """Remove the entry on install completion and wake one waiter
        parked on a full table."""
        entry = self._entries.pop(page, None)
        if entry is None:
            raise ProtocolError(f"release of missing MSR entry for page {page}")
        if self._tracer is not None:
            self._tracer.counter("msr", self.engine.now,
                                 float(len(self._entries)))
        if self._free_waiters:
            self._free_waiters.pop(0).fire()
        return entry

    def wait_for_free(self) -> Optional[Signal]:
        """Returns a signal to yield on while the table is full, or
        None when space is available right now."""
        if not self.is_full:
            return None
        self.full_stalls += 1
        signal = Signal(self.engine, "msr-free")
        self._free_waiters.append(signal)
        return signal
