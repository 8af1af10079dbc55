"""Property-based tests: DRAM-cache organization and FTL invariants
under random operation sequences."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DramCacheConfig, FlashConfig
from repro.dramcache import DramCache, DramCacheOrganization
from repro.errors import CapacityError, ProtocolError
from repro.flash import FlashDevice
from repro.flash.ftl import PageMappingFtl
from repro.sim import Engine


def read(org, page):
    org.warm_job([(0.0, page, False)])


def contains(org, page):
    return page in org.tag_index[org.set_index(page)]


def is_reserved(org, page):
    return page in org._reserved_index[org.set_index(page)]


class TestOrganizationProperties:
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_populate_never_duplicates_or_overflows(self, pages):
        org = DramCacheOrganization(num_pages=16, associativity=4)
        for page in pages:
            read(org, page)
            assert sum(map(len, org.tag_index)) <= org.capacity_pages
        # No page may be resident in two ways at once.
        resident = [
            way.page
            for ways in org._sets for way in ways if way.valid
        ]
        counts = Counter(resident)
        assert all(count == 1 for count in counts.values())

    @given(st.lists(st.tuples(st.integers(0, 31), st.booleans()),
                    min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_miss_then_refill_makes_page_resident(self, accesses):
        engine = Engine()
        flash = FlashDevice(
            engine,
            FlashConfig(channels=1, dies_per_channel=1, planes_per_die=2,
                        pages_per_block=16, overprovisioning=0.5),
            32,
        )
        cache = DramCache(engine, DramCacheConfig(associativity=2), 8, flash)
        org = cache.organization
        for page, is_write in accesses:
            if not cache.access(page, is_write).hit:
                engine.run()  # the backside controller refills it
            assert contains(org, page)
        # Each access counted once, as a hit or a miss.
        assert cache.frontside.accesses == len(accesses)
        assert org.hits + org.misses == len(accesses)
        assert cache.frontside.misses == org.misses == org.installs

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=50,
                    unique=True))
    @settings(max_examples=40, deadline=None)
    def test_reservations_bounded_by_ways(self, pages):
        org = DramCacheOrganization(num_pages=4, associativity=4)
        reserved = 0
        for page in pages:
            try:
                org.reserve_victim(page)
                reserved += 1
            except ProtocolError:
                break
        assert reserved <= 4


class TestFtlProperties:
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=400),
           st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_random_write_streams_preserve_mapping(self, writes, planes):
        ftl = PageMappingFtl(num_logical_pages=16, num_planes=planes,
                             pages_per_block=4, overprovisioning=0.9)
        written = set()
        for page in writes:
            # Run GC to exhaustion before the write if under pressure.
            plane = ftl.plane_of(page)
            while ftl.gc_pressure(plane):
                if ftl.collect(plane) == (0, 0):
                    break
            try:
                ftl.write(page)
            except CapacityError:
                break
            written.add(page)
        # Every written page maps to exactly one valid physical slot.
        valid_pages = []
        for plane in ftl.planes:
            for block in plane.blocks:
                for logical in block.valid:
                    if logical is not None:
                        valid_pages.append(logical)
        counts = Counter(valid_pages)
        assert set(counts) == written
        assert all(count == 1 for count in counts.values())

    @given(st.integers(2, 8), st.integers(20, 120))
    @settings(max_examples=30, deadline=None)
    def test_gc_conserves_valid_data(self, hot_pages, num_writes):
        ftl = PageMappingFtl(num_logical_pages=16, num_planes=1,
                             pages_per_block=4, overprovisioning=0.9)
        for index in range(num_writes):
            page = index % hot_pages
            while ftl.gc_pressure(0):
                if ftl.collect(0) == (0, 0):
                    break
            ftl.write(page)
        plane = ftl.planes[0]
        valid = sum(block.valid_count for block in plane.blocks)
        assert valid == min(hot_pages, num_writes)

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=400),
           st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_kept_valid_counts_match_the_bitmaps(self, writes, planes):
        ftl = PageMappingFtl(num_logical_pages=16, num_planes=planes,
                             pages_per_block=4, overprovisioning=0.9)

        def recount_victim(plane):
            # gc_victim's rule over recounted bitmaps: the closed block
            # with the fewest valid pages (then fewest erases) that
            # holds any garbage.
            best, best_key = None, None
            for block in plane.blocks:
                if (block.index == plane.open_block
                        or block.write_offset < block.pages_per_block):
                    continue
                valid = sum(page is not None for page in block.valid)
                if valid == block.pages_per_block:
                    continue
                key = (valid, block.erase_count)
                if best_key is None or key < best_key:
                    best, best_key = block.index, key
            return best

        def check():
            for plane in ftl.planes:
                for block in plane.blocks:
                    assert block.valid_count == sum(
                        page is not None for page in block.valid)
                assert plane.gc_victim() == recount_victim(plane)

        for page in writes:
            plane = ftl.plane_of(page)
            while ftl.gc_pressure(plane):
                collected = ftl.collect(plane)
                check()
                if collected == (0, 0):
                    break
            try:
                ftl.write(page)
            except CapacityError:
                break
            check()


class TestTagIndexCoherence:
    """The per-set ``page -> Way`` dicts are an index over the way
    lists, not the source of truth; any operation sequence must leave
    the two views identical (the organization-module invariants)."""

    @given(st.lists(
        st.tuples(
            st.sampled_from(("touch", "write", "reserve", "install",
                             "populate")),
            st.integers(0, 63),
        ),
        min_size=1, max_size=250,
    ))
    @settings(max_examples=60, deadline=None)
    def test_dict_views_match_way_lists(self, operations):
        org = DramCacheOrganization(num_pages=32, associativity=4)
        for op, page in operations:
            if op == "touch":
                if contains(org, page):
                    read(org, page)  # a read hit
            elif op == "write":
                if contains(org, page):
                    org.warm_job([(0.0, page, True)])  # a write hit
            elif op == "reserve":
                if not is_reserved(org, page) and not contains(org, page):
                    try:
                        org.reserve_victim(page)
                    except ProtocolError:
                        pass  # every way of the set reserved
            elif op == "install":
                if is_reserved(org, page):
                    org.install(page)
            elif op == "populate":
                if not is_reserved(org, page):
                    try:
                        read(org, page)
                    except ProtocolError:
                        pass  # every way of the set reserved

            for set_index, ways in enumerate(org._sets):
                valid_view = {
                    way.page: way for way in ways if way.page is not None
                }
                reserved_view = {
                    way.reserved_for: way
                    for way in ways if way.reserved_for is not None
                }
                assert org.tag_index[set_index] == valid_view
                assert org._reserved_index[set_index] == reserved_view
                # A reserved way never simultaneously holds a page.
                assert all(way.page is None
                           for way in reserved_view.values())
