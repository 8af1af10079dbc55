"""Set-associative, page-granularity DRAM-cache organization.

The DRAM cache stores 4 KiB pages; each DRAM row is one set holding
``associativity`` ways plus an 8-byte tag per way in the same row
(Sec. IV-B, Fig. 5a).  Tags therefore cost a serialized RAS+CAS before
data access — the timing model in :mod:`repro.dramcache.timing` charges
for that.

This module is purely functional state: tags, LRU, installs,
reservations (ways claimed for in-flight refills) and evictions.

Tag probes are the single hottest substrate operation in the simulator
(every access, warmup step, and replay goes through them), so each set
maintains a ``page -> Way`` dict for valid tags and another for
in-flight reservations alongside the way list.  The per-access probe
itself runs inside :meth:`FrontsideController.access
<repro.dramcache.controllers.FrontsideController.access>`, over
:attr:`DramCacheOrganization.tag_index`, so a hit costs one Python
frame.  The dicts are an *index*, not the source of truth: LRU and
victim selection still walk the way list, preserving the original
tie-breaking order exactly.  Two invariants keep the views coherent
(property-tested in ``tests/test_structure_properties.py``):

* a way is in the valid index iff ``way.page is not None``;
* a way is in the reserved index iff ``way.reserved_for is not None``
  (and a reserved way always has ``page is None``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigurationError, ProtocolError

#: The organization's counts, as named in :meth:`dump_state`'s ``stats``.
COUNT_KEYS = ("hits", "misses", "evictions", "dirty_evictions", "installs")


class Way:
    """One way of one set: a page frame plus tag metadata."""

    __slots__ = ("page", "dirty", "last_touch", "reserved_for",
                 "access_count")

    def __init__(self) -> None:
        self.page: Optional[int] = None
        self.dirty = False
        self.last_touch = 0
        # Logical page this way is reserved for while a refill is in
        # flight; the way cannot be victimized meanwhile.
        self.reserved_for: Optional[int] = None
        # Accesses during the current residency (footprint training).
        self.access_count = 0

    @property
    def valid(self) -> bool:
        return self.page is not None


class EvictedPage:
    """A victim page pushed out by a refill."""

    __slots__ = ("page", "dirty", "access_count")

    def __init__(self, page: int, dirty: bool, access_count: int = 0) -> None:
        self.page = page
        self.dirty = dirty
        self.access_count = access_count

    def __repr__(self) -> str:
        flag = "dirty" if self.dirty else "clean"
        return f"<EvictedPage {self.page} {flag}>"


class DramCacheOrganization:
    """Tag/data state for the whole DRAM cache."""

    def __init__(self, num_pages: int, associativity: int) -> None:
        if associativity < 1:
            raise ConfigurationError("associativity must be >= 1")
        if num_pages < associativity:
            raise ConfigurationError("cache smaller than one set")
        self.associativity = associativity
        self.num_sets = num_pages // associativity
        self.capacity_pages = self.num_sets * associativity
        self._sets: List[List[Way]] = [
            [Way() for _ in range(associativity)] for _ in range(self.num_sets)
        ]
        # Per-set tag indexes: page -> Way for valid tags, and
        # reserved_for -> Way for in-flight refills.
        self.tag_index: List[Dict[int, Way]] = [
            {} for _ in range(self.num_sets)
        ]
        self._reserved_index: List[Dict[int, Way]] = [
            {} for _ in range(self.num_sets)
        ]
        # Power-of-two set counts (the common configuration) index with
        # a mask instead of a modulo; identical mapping either way.
        self.set_mask = (self.num_sets - 1
                         if self.num_sets & (self.num_sets - 1) == 0
                         else None)
        self.clock = 0  # LRU timestamp source
        # Counts (COUNT_KEYS) are plain ints bumped inline, ``hits`` and
        # ``misses`` by the frontside controller's probe; ``fired``
        # lists them in first-fire order for dump_state.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.installs = 0
        self.fired: List[str] = []

    # -- indexing -------------------------------------------------------------

    def set_index(self, page: int) -> int:
        mask = self.set_mask
        if mask is not None:
            return page & mask
        return page % self.num_sets

    # -- refill path ------------------------------------------------------------

    def reserve_victim(self, page: int) -> Optional[EvictedPage]:
        """Claim a way for an incoming refill of ``page``.

        Picks an invalid way if possible, otherwise evicts the LRU
        non-reserved way.  Returns the evicted page (None if a free way
        was available).  Raises :class:`ProtocolError` when every way in
        the set is already reserved — the backside controller must bound
        outstanding misses per set to avoid this.
        """
        set_index = self.set_index(page)
        reserved = self._reserved_index[set_index]
        if page in reserved:
            raise ProtocolError(f"page {page} already has a reserved way")
        ways = self._sets[set_index]
        # Prefer an invalid, unreserved way.
        for way in ways:
            if way.page is None and way.reserved_for is None:
                way.reserved_for = page
                reserved[page] = way
                return None
        # Evict the LRU valid, unreserved way.
        victim: Optional[Way] = None
        for way in ways:
            if way.page is not None and way.reserved_for is None:
                if victim is None or way.last_touch < victim.last_touch:
                    victim = way
        if victim is None:
            raise ProtocolError(
                f"all ways of set {set_index} are reserved; "
                "too many concurrent misses to one set"
            )
        evicted = EvictedPage(victim.page, victim.dirty,
                              victim.access_count)
        del self.tag_index[set_index][victim.page]
        victim.page = None
        victim.dirty = False
        victim.access_count = 0
        victim.reserved_for = page
        reserved[page] = victim
        if not self.evictions:
            self.fired.append("evictions")
        self.evictions += 1
        if evicted.dirty:
            if not self.dirty_evictions:
                self.fired.append("dirty_evictions")
            self.dirty_evictions += 1
        return evicted

    def install(self, page: int, dirty: bool = False) -> None:
        """Fill the reserved way with the arrived page."""
        self.clock += 1
        set_index = self.set_index(page)
        way = self._reserved_index[set_index].pop(page, None)
        if way is None:
            raise ProtocolError(f"install of page {page} without a reservation")
        way.page = page
        way.dirty = dirty
        way.last_touch = self.clock
        way.access_count = 1  # the access that missed replays
        way.reserved_for = None
        self.tag_index[set_index][page] = way
        if not self.installs:
            self.fired.append("installs")
        self.installs += 1

    # -- warmup -----------------------------------------------------------------

    def warm_job(self, steps) -> int:
        """Warmup fast path: stream one job's steps into the cache
        without a method call per step; returns the number of steps
        consumed.  A resident page is touched like a read hit (LRU,
        access count, ``hits``); an absent one is installed without
        counting a miss.  A write step adds a write-hit touch (LRU,
        access count, dirty, ``hits``).  The job's hits are counted in
        one batch at its end, which fixes where ``hits`` lands in the
        first-fire order.
        """
        num_sets = self.num_sets
        mask = self.set_mask
        tag_index = self.tag_index
        hits = 0
        done = 0
        for _, page, is_write in steps:
            index = page & mask if mask is not None else page % num_sets
            way = tag_index[index].get(page)
            if way is None:
                self.reserve_victim(page)
                self.install(page)
                if is_write:
                    way = tag_index[index][page]
                    clock = self.clock + 1
                    self.clock = clock
                    way.last_touch = clock
                    way.access_count += 1
                    way.dirty = True
                    hits += 1
            else:
                clock = self.clock + 1
                self.clock = clock
                way.last_touch = clock
                way.access_count += 1
                hits += 1
                if is_write:
                    clock += 1
                    self.clock = clock
                    way.last_touch = clock
                    way.access_count += 1
                    way.dirty = True
                    hits += 1
            done += 1
        if hits:
            if not self.hits:
                self.fired.append("hits")
            self.hits += hits
        return done

    # -- warm-state snapshot (repro.snapshot) -----------------------------------

    def dump_state(self) -> Dict[str, object]:
        """Compact, picklable dump of the full tag state.

        Ways are flattened set-major into parallel int lists (TDRAM
        keeps tags alongside data in the row; this is the serialized
        analogue): page (-1 = invalid), dirty flag, LRU timestamp,
        access count, reserved_for (-1 = unreserved), plus the LRU
        clock and the counts (as floats, in first-fire order).
        """
        pages: List[int] = []
        dirty: List[int] = []
        last_touch: List[int] = []
        access_count: List[int] = []
        reserved_for: List[int] = []
        for ways in self._sets:
            for way in ways:
                pages.append(-1 if way.page is None else way.page)
                dirty.append(1 if way.dirty else 0)
                last_touch.append(way.last_touch)
                access_count.append(way.access_count)
                reserved_for.append(-1 if way.reserved_for is None
                                    else way.reserved_for)
        return {
            "num_sets": self.num_sets,
            "associativity": self.associativity,
            "pages": pages,
            "dirty": dirty,
            "last_touch": last_touch,
            "access_count": access_count,
            "reserved_for": reserved_for,
            "clock": self.clock,
            "stats": {key: float(getattr(self, key)) for key in self.fired},
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`dump_state` dump bit-identically.

        Geometry must match the dump; the tag and reservation indexes
        are rebuilt from the restored ways so the coherence invariants
        hold by construction.
        """
        if (state["num_sets"] != self.num_sets
                or state["associativity"] != self.associativity):
            raise ConfigurationError(
                f"warm-state geometry mismatch: snapshot is "
                f"{state['num_sets']}x{state['associativity']}, cache is "
                f"{self.num_sets}x{self.associativity}"
            )
        pages = state["pages"]
        dirty = state["dirty"]
        last_touch = state["last_touch"]
        access_count = state["access_count"]
        reserved_for = state["reserved_for"]
        flat = 0
        for set_index, ways in enumerate(self._sets):
            tag_index = self.tag_index[set_index]
            reserved_index = self._reserved_index[set_index]
            tag_index.clear()
            reserved_index.clear()
            for way in ways:
                page = pages[flat]
                way.page = None if page == -1 else page
                way.dirty = bool(dirty[flat])
                way.last_touch = last_touch[flat]
                way.access_count = access_count[flat]
                reserved = reserved_for[flat]
                way.reserved_for = None if reserved == -1 else reserved
                if way.page is not None:
                    tag_index[way.page] = way
                if way.reserved_for is not None:
                    reserved_index[way.reserved_for] = way
                flat += 1
        self.clock = state["clock"]
        stats = state["stats"]
        for key in COUNT_KEYS:
            setattr(self, key, int(stats.get(key, 0)))
        self.fired = list(stats)

    def dirty_count(self) -> int:
        return sum(
            1 for ways in self._sets for way in ways if way.valid and way.dirty
        )
