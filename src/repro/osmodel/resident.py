"""OS-managed resident-set (physical memory) bookkeeping.

Under OS-Swap the DRAM is not a hardware cache: the kernel tracks which
pages are resident, picks victims with an LRU-approximating policy, and
swaps against flash.  Functionally this mirrors the DRAM-cache
organization but is fully associative (the OS can place any page in any
frame) and is guarded by kernel locks, modelled in
:mod:`repro.osmodel.paging`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError

#: The resident set's counts, as named in :meth:`dump_state`'s ``stats``.
COUNT_KEYS = ("hits", "faults", "evictions", "dirty_evictions", "insertions")


class ResidentSetManager:
    """Fully-associative LRU resident set of ``capacity`` page frames."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 1:
            raise ConfigurationError("resident set needs at least one frame")
        self.capacity = capacity_pages
        self._resident: "OrderedDict[int, bool]" = OrderedDict()  # page -> dirty
        # Counts (COUNT_KEYS) are plain ints bumped inline; ``fired``
        # lists them in first-fire order for dump_state.
        self.hits = 0
        self.faults = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.insertions = 0
        self.fired: List[str] = []

    def __len__(self) -> int:
        return len(self._resident)

    def lookup(self, page: int, is_write: bool = False) -> bool:
        """Check residency (the OS-Swap per-access path): hits touch LRU
        and may set the dirty bit.  True = mapped, no fault."""
        resident = self._resident
        if page in resident:
            resident.move_to_end(page)
            if is_write:
                resident[page] = True
            hits = self.hits
            if not hits:
                self.fired.append("hits")
            self.hits = hits + 1
            return True
        if not self.faults:
            self.fired.append("faults")
        self.faults += 1
        return False

    def insert(self, page: int, dirty: bool = False
               ) -> Optional[Tuple[int, bool]]:
        """Map a faulted-in page; returns the evicted ``(page, dirty)``
        if a frame had to be reclaimed."""
        victim: Optional[Tuple[int, bool]] = None
        if page in self._resident:
            self._resident.move_to_end(page)
            if dirty:
                self._resident[page] = True
            return None
        if len(self._resident) >= self.capacity:
            victim = self._resident.popitem(last=False)
            if not self.evictions:
                self.fired.append("evictions")
            self.evictions += 1
            if victim[1]:
                if not self.dirty_evictions:
                    self.fired.append("dirty_evictions")
                self.dirty_evictions += 1
        self._resident[page] = dirty
        if not self.insertions:
            self.fired.append("insertions")
        self.insertions += 1
        return victim

    # -- warm-state snapshot (repro.snapshot) ---------------------------------

    def dump_state(self) -> dict:
        """Picklable dump: the ``(page, dirty)`` pairs in LRU order
        (OrderedDict insertion order *is* the eviction order) plus the
        counts (as floats, in first-fire order)."""
        return {
            "capacity": self.capacity,
            "resident": [(page, dirty)
                         for page, dirty in self._resident.items()],
            "stats": {key: float(getattr(self, key)) for key in self.fired},
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`dump_state` dump bit-identically."""
        if state["capacity"] != self.capacity:
            raise ConfigurationError(
                f"warm-state capacity mismatch: snapshot has "
                f"{state['capacity']} frames, resident set has "
                f"{self.capacity}"
            )
        self._resident.clear()
        for page, dirty in state["resident"]:
            self._resident[page] = dirty
        stats = state["stats"]
        for key in COUNT_KEYS:
            setattr(self, key, int(stats.get(key, 0)))
        self.fired = list(stats)
