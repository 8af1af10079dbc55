"""Page-mapping Flash Translation Layer.

A DFTL-style page-level mapping: every logical page maps to a physical
(plane, block, page) slot.  Writes are out-of-place — they invalidate
the old slot and allocate at the plane's write point — which is what
creates garbage-collection work.  Wear levelling is greedy-with-wear:
GC victims are chosen by fewest valid pages, ties broken by lowest
erase count so erases spread across blocks.

Physical layout bookkeeping is intentionally explicit (per-block valid
bitmaps, free lists, erase counters) so GC and wear statistics fall out
of real state rather than synthetic probabilities.  Each block keeps
its valid-page count alongside the bitmap, so victim selection reads
one int per block instead of re-summing bitmaps.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import CapacityError, ConfigurationError, ProtocolError
from repro.stats import CounterSet

# A physical slot is (block_index, page_offset) within one plane.
PhysicalSlot = Tuple[int, int]


class Block:
    """One erase block: a run of physical pages with a valid bitmap.

    ``valid_count`` is the number of non-None bitmap entries, kept by
    every write to ``valid`` (allocate, invalidate, GC migration and
    erase).
    """

    __slots__ = ("index", "pages_per_block", "valid", "valid_count",
                 "write_offset", "erase_count")

    def __init__(self, index: int, pages_per_block: int) -> None:
        self.index = index
        self.pages_per_block = pages_per_block
        self.valid: List[Optional[int]] = [None] * pages_per_block
        self.valid_count = 0
        self.write_offset = 0
        self.erase_count = 0

    def erase(self) -> None:
        if any(page is not None for page in self.valid):
            raise ProtocolError(f"erasing block {self.index} with valid pages")
        self.valid = [None] * self.pages_per_block
        self.valid_count = 0
        self.write_offset = 0
        self.erase_count += 1


class PlaneState:
    """FTL state for one plane: blocks, free list and a write point."""

    def __init__(self, plane_index: int, num_blocks: int, pages_per_block: int):
        if num_blocks < 2:
            raise ConfigurationError("each plane needs >= 2 blocks (one spare for GC)")
        self.plane_index = plane_index
        self.blocks = [Block(i, pages_per_block) for i in range(num_blocks)]
        self.free_blocks: List[int] = list(range(1, num_blocks))
        self.open_block: int = 0
        self.pages_per_block = pages_per_block

    def allocate(self, logical_page: int) -> PhysicalSlot:
        """Claim the next physical page at the write point."""
        block = self.blocks[self.open_block]
        if block.write_offset >= self.pages_per_block:  # open block full
            if not self.free_blocks:
                raise CapacityError(
                    f"plane {self.plane_index} out of free blocks; GC required"
                )
            self.open_block = self.free_blocks.pop(0)
            block = self.blocks[self.open_block]
            if block.write_offset != 0:
                raise ProtocolError("free-list block was not erased")
        offset = block.write_offset
        block.valid[offset] = logical_page
        block.valid_count += 1
        block.write_offset += 1
        return (block.index, offset)

    def invalidate(self, slot: PhysicalSlot) -> None:
        block_index, offset = slot
        block = self.blocks[block_index]
        if block.valid[offset] is None:
            raise ProtocolError(f"double invalidate of {slot} on plane {self.plane_index}")
        block.valid[offset] = None
        block.valid_count -= 1

    def gc_victim(self) -> Optional[int]:
        """Greedy victim: fullest-garbage block, wear-aware tie break.

        Only closed (full) blocks other than the open block qualify.
        Returns None when no block has any garbage to reclaim.
        """
        best: Optional[int] = None
        best_key: Optional[Tuple[int, int]] = None
        open_block = self.open_block
        pages_per_block = self.pages_per_block
        for block in self.blocks:
            if (block.index == open_block
                    or block.write_offset < pages_per_block):
                continue  # the write point, or not yet full
            valid = block.valid_count
            if valid == pages_per_block:
                continue  # nothing reclaimable
            key = (valid, block.erase_count)
            if best_key is None or key < best_key:
                best, best_key = block.index, key
        return best


class PageMappingFtl:
    """Device-wide page-mapping FTL striped across planes."""

    def __init__(self, num_logical_pages: int, num_planes: int,
                 pages_per_block: int, overprovisioning: float) -> None:
        if num_logical_pages < 1:
            raise ConfigurationError("FTL needs at least one logical page")
        if not 0.0 <= overprovisioning < 1.0:
            raise ConfigurationError("overprovisioning fraction out of range")
        self.num_logical_pages = num_logical_pages
        self.num_planes = num_planes
        self.pages_per_block = pages_per_block

        physical_pages = int(num_logical_pages * (1.0 + overprovisioning))
        per_plane_pages = -(-physical_pages // num_planes)  # ceil
        # At least 4 blocks per plane: one open, one spare reserved for
        # GC migrations, and room for the pressure threshold below.
        blocks_per_plane = max(4, -(-per_plane_pages // pages_per_block))
        self.planes = [
            PlaneState(i, blocks_per_plane, pages_per_block)
            for i in range(num_planes)
        ]
        # logical page -> (plane, block, offset); None while never written.
        self._mapping: Dict[int, Tuple[int, PhysicalSlot]] = {}
        self.stats = CounterSet()

    # -- address mapping ----------------------------------------------------

    def plane_of(self, logical_page: int) -> int:
        """Plane serving ``logical_page``.

        Written pages live where the FTL placed them; never-written
        pages (the pristine dataset) are striped round-robin, which is
        how the initial dataset layout spreads load across channels.
        """
        self._check_page(logical_page)
        entry = self._mapping.get(logical_page)
        if entry is not None:
            return entry[0]
        return logical_page % self.num_planes

    def _check_page(self, logical_page: int) -> None:
        if not 0 <= logical_page < self.num_logical_pages:
            raise ProtocolError(
                f"logical page {logical_page} out of range "
                f"[0, {self.num_logical_pages})"
            )

    # -- write path -----------------------------------------------------------

    def write(self, logical_page: int) -> int:
        """Record an out-of-place write; returns the serving plane index.

        The previous slot (if any) is invalidated, creating GC work.
        """
        self._check_page(logical_page)
        old = self._mapping.get(logical_page)
        plane_index = old[0] if old is not None else logical_page % self.num_planes
        plane = self.planes[plane_index]
        if old is not None:
            plane.invalidate(old[1])
        slot = plane.allocate(logical_page)
        self._mapping[logical_page] = (plane_index, slot)
        self.stats["writes"] += 1.0
        return plane_index

    # -- garbage collection ---------------------------------------------------

    def gc_pressure(self, plane_index: int) -> bool:
        """True when the plane is low enough on free blocks to need GC.

        The threshold keeps one free block in reserve so a GC pass
        always has room to migrate a victim's valid pages.
        """
        plane = self.planes[plane_index]
        return len(plane.free_blocks) < 2

    def has_reclaimable(self, plane_index: int) -> bool:
        """True when a GC pass on the plane could free space.

        Distinguishes transient pressure (garbage exists, GC just has
        to catch up — callers should keep waiting) from genuine
        capacity exhaustion (every closed block fully valid — waiting
        is hopeless).
        """
        return self.planes[plane_index].gc_victim() is not None

    def collect(self, plane_index: int) -> Tuple[int, int]:
        """Run one GC pass on a plane.

        Migrates the victim block's valid pages to the write point and
        erases it.  Returns ``(migrated_pages, erased_blocks)`` so the
        device model can charge the right latencies.
        """
        plane = self.planes[plane_index]
        victim_index = plane.gc_victim()
        if victim_index is None:
            return (0, 0)
        victim = plane.blocks[victim_index]
        migrated = 0
        for offset, logical_page in enumerate(victim.valid):
            if logical_page is None:
                continue
            victim.valid[offset] = None
            victim.valid_count -= 1
            slot = plane.allocate(logical_page)
            self._mapping[logical_page] = (plane_index, slot)
            migrated += 1
        victim.erase()
        plane.free_blocks.append(victim_index)
        stats = self.stats
        stats["gc_passes"] += 1.0
        stats["gc_migrated_pages"] += migrated
        stats["gc_erases"] += 1.0
        return (migrated, 1)

    # -- wear statistics --------------------------------------------------------

    def erase_count_of(self, logical_page: int) -> int:
        """Erase count of the block currently holding ``logical_page``.

        Never-written pages live in the pristine striped layout, which
        by definition has no erase history, so they report 0.  The
        fault model uses this to couple effective RBER to wear.
        """
        self._check_page(logical_page)
        entry = self._mapping.get(logical_page)
        if entry is None:
            return 0
        plane_index, (block_index, _offset) = entry
        return self.planes[plane_index].blocks[block_index].erase_count

    def erase_counts(self) -> List[int]:
        """Erase counts of every block on the device (wear profile)."""
        return [
            block.erase_count
            for plane in self.planes
            for block in plane.blocks
        ]

    def wear_imbalance(self) -> float:
        """max/mean erase count; 1.0 is perfectly level, 0.0 if no erases."""
        counts = self.erase_counts()
        total = sum(counts)
        if total == 0:
            return 0.0
        mean = total / len(counts)
        return max(counts) / mean
