"""Unit tests for the page-mapping FTL."""

import pytest

from repro.errors import CapacityError, ConfigurationError, ProtocolError
from repro.flash.ftl import Block, PageMappingFtl, PlaneState


def make_ftl(pages=256, planes=2, pages_per_block=16, op=0.25):
    return PageMappingFtl(pages, planes, pages_per_block, op)


class TestBlock:
    def test_erase_resets_state(self):
        block = Block(0, 4)
        block.valid[0] = 7
        block.write_offset = 1
        block.valid[0] = None
        block.erase()
        assert block.erase_count == 1
        assert block.write_offset == 0

    def test_erase_with_valid_pages_raises(self):
        block = Block(0, 4)
        block.valid[0] = 7
        with pytest.raises(ProtocolError):
            block.erase()


class TestPlaneState:
    def test_allocate_fills_open_block_then_free_list(self):
        plane = PlaneState(0, num_blocks=3, pages_per_block=2)
        slots = [plane.allocate(i) for i in range(4)]
        assert slots[0] == (0, 0)
        assert slots[1] == (0, 1)
        assert slots[2][0] != 0  # moved to a free block

    def test_out_of_blocks_raises(self):
        plane = PlaneState(0, num_blocks=2, pages_per_block=1)
        plane.allocate(0)
        plane.allocate(1)
        with pytest.raises(CapacityError):
            plane.allocate(2)

    def test_one_block_plane_rejected(self):
        with pytest.raises(ConfigurationError):
            PlaneState(0, num_blocks=1, pages_per_block=4)

    def test_gc_victim_prefers_most_garbage(self):
        plane = PlaneState(0, num_blocks=4, pages_per_block=2)
        slots = [plane.allocate(i) for i in range(6)]  # fill 3 blocks
        # Invalidate both pages of the second filled block.
        plane.invalidate(slots[2])
        plane.invalidate(slots[3])
        # And one page of the first.
        plane.invalidate(slots[0])
        victim = plane.gc_victim()
        assert victim == slots[2][0]

    def test_gc_victim_skips_fully_valid_blocks(self):
        plane = PlaneState(0, num_blocks=3, pages_per_block=2)
        for i in range(2):
            plane.allocate(i)
        assert plane.gc_victim() is None

    def test_gc_victim_none_when_all_blocks_free(self):
        plane = PlaneState(0, num_blocks=4, pages_per_block=2)
        assert plane.gc_victim() is None

    def test_gc_victim_tie_breaks_on_erase_count(self):
        plane = PlaneState(0, num_blocks=4, pages_per_block=2)
        # Fill three blocks so the first two are closed (the third
        # stays the open block, which gc_victim must skip).
        slots = [plane.allocate(i) for i in range(6)]
        plane.invalidate(slots[1])  # one garbage page in block A
        plane.invalidate(slots[3])  # one garbage page in block B
        block_a, block_b = slots[0][0], slots[2][0]
        plane.blocks[block_a].erase_count = 5
        plane.blocks[block_b].erase_count = 2
        # Equal garbage: the less-worn block is collected first.
        assert plane.gc_victim() == block_b

    def test_gc_victim_tie_breaks_on_index_when_wear_equal(self):
        plane = PlaneState(0, num_blocks=4, pages_per_block=2)
        slots = [plane.allocate(i) for i in range(6)]
        plane.invalidate(slots[1])
        plane.invalidate(slots[3])
        # Equal garbage, equal wear: deterministic lowest-index pick.
        assert plane.gc_victim() == min(slots[0][0], slots[2][0])
        assert plane.gc_victim() == plane.gc_victim()

    def test_double_invalidate_raises(self):
        plane = PlaneState(0, num_blocks=2, pages_per_block=2)
        slot = plane.allocate(0)
        plane.invalidate(slot)
        with pytest.raises(ProtocolError):
            plane.invalidate(slot)


class TestPageMappingFtl:
    def test_unwritten_pages_stripe_round_robin(self):
        ftl = make_ftl(planes=4)
        assert ftl.plane_of(0) == 0
        assert ftl.plane_of(1) == 1
        assert ftl.plane_of(5) == 1

    def test_write_keeps_page_on_its_plane(self):
        ftl = make_ftl(planes=4)
        plane = ftl.write(9)
        assert plane == 9 % 4
        assert ftl.plane_of(9) == plane
        assert 9 in ftl._mapping

    def test_overwrite_invalidates_old_slot(self):
        ftl = make_ftl()
        ftl.write(3)
        ftl.write(3)
        plane = ftl.planes[ftl.plane_of(3)]
        total_valid = sum(block.valid_count for block in plane.blocks)
        assert total_valid == 1  # only the newest copy is valid

    def test_out_of_range_page_raises(self):
        ftl = make_ftl(pages=8)
        with pytest.raises(ProtocolError):
            ftl.plane_of(8)
        with pytest.raises(ProtocolError):
            ftl.write(-1)

    def test_collect_reclaims_garbage(self):
        ftl = make_ftl(pages=16, planes=1, pages_per_block=4, op=0.5)
        # Write the same small working set repeatedly to build garbage.
        for _ in range(10):
            for page in range(4):
                ftl.write(page)
                if ftl.gc_pressure(0):
                    migrated, erased = ftl.collect(0)
                    assert erased in (0, 1)
        # All 4 logical pages must still be mapped and valid exactly once.
        plane = ftl.planes[0]
        valid = sum(block.valid_count for block in plane.blocks)
        assert valid == 4
        assert ftl.stats["gc_erases"] >= 1

    def test_collect_preserves_mapping_correctness(self):
        ftl = make_ftl(pages=32, planes=1, pages_per_block=4, op=0.5)
        for round_number in range(8):
            for page in range(4):
                ftl.write(page)
                while ftl.gc_pressure(0):
                    if ftl.collect(0) == (0, 0):
                        break
        for page in range(4):
            plane_index, slot = ftl._mapping[page]
            block = ftl.planes[plane_index].blocks[slot[0]]
            assert block.valid[slot[1]] == page

    def test_wear_imbalance(self):
        ftl = make_ftl(pages=16, planes=1, pages_per_block=4, op=0.5)
        assert ftl.wear_imbalance() == 0.0
        for _ in range(12):
            for page in range(4):
                ftl.write(page)
                while ftl.gc_pressure(0):
                    if ftl.collect(0) == (0, 0):
                        break
        assert ftl.wear_imbalance() >= 1.0

    def test_wear_imbalance_uniform_wear_is_exactly_level(self):
        ftl = make_ftl(pages=16, planes=2, pages_per_block=4, op=0.5)
        assert ftl.wear_imbalance() == 0.0  # no erase history at all
        for plane in ftl.planes:
            for block in plane.blocks:
                block.erase_count = 3
        assert ftl.wear_imbalance() == pytest.approx(1.0)

    def test_erase_count_of_unwritten_page_is_zero(self):
        ftl = make_ftl(pages=16, planes=2, pages_per_block=4, op=0.5)
        assert ftl.erase_count_of(0) == 0
        with pytest.raises(ProtocolError):
            ftl.erase_count_of(16)

    def test_invalid_construction_raises(self):
        with pytest.raises(ConfigurationError):
            PageMappingFtl(0, 1, 16, 0.1)
        with pytest.raises(ConfigurationError):
            PageMappingFtl(16, 1, 16, 1.5)
