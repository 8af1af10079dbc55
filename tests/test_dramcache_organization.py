"""Unit tests for the DRAM-cache organization (sets/ways/LRU/reservations).

The per-access tag probe runs in ``FrontsideController.access``; here a
page is read or written through a one-step ``warm_job``: a resident
page takes a hit, an absent one is installed.  Residency is read off
the per-set indexes.
"""

import pytest

from repro.dramcache import DramCacheOrganization
from repro.errors import ConfigurationError, ProtocolError


def make_org(pages=32, assoc=4):
    return DramCacheOrganization(num_pages=pages, associativity=assoc)


def read(org, page):
    org.warm_job([(0.0, page, False)])


def contains(org, page):
    return page in org.tag_index[org.set_index(page)]


def is_reserved(org, page):
    return page in org._reserved_index[org.set_index(page)]


def occupancy(org):
    return sum(len(index) for index in org.tag_index)


def test_geometry():
    org = make_org(pages=32, assoc=4)
    assert org.num_sets == 8
    assert org.capacity_pages == 32


def test_lookup_miss_then_hit_after_install():
    org = make_org()
    assert not contains(org, 5)
    assert org.reserve_victim(5) is None  # free way available
    assert not contains(org, 5) and is_reserved(org, 5)
    org.install(5)
    assert contains(org, 5) and not is_reserved(org, 5)
    read(org, 5)  # a hit: nothing evicted
    assert (org.hits, org.installs, org.evictions) == (1, 1, 0)


def test_write_hit_sets_dirty():
    org = make_org()
    read(org, 3)
    org.warm_job([(0.0, 3, True)])
    assert org.dirty_count() == 1


def test_lru_eviction_order():
    org = make_org(pages=4, assoc=4)  # one set
    for page in range(4):
        read(org, page)
    read(org, 0)  # a hit: page 0 becomes MRU
    evicted = org.reserve_victim(4)
    assert evicted is not None
    assert evicted.page == 1  # LRU among 1,2,3


def test_eviction_reports_dirtiness():
    org = make_org(pages=4, assoc=4)
    for page in range(4):
        read(org, page)
    org.warm_job([(0.0, 2, True)])  # a write hit dirties page 2
    for page in (0, 1, 3):
        read(org, page)  # touch the others after it
    # Force page 2 to be the LRU: re-touch everything else.
    evicted = org.reserve_victim(4)
    assert evicted.page == 2
    assert evicted.dirty


def test_reserved_way_cannot_be_victimized():
    org = make_org(pages=2, assoc=2)  # one set, two ways
    read(org, 0)
    read(org, 2)  # wait -- set index: page % num_sets; num_sets=1
    org.reserve_victim(4)  # evicts LRU (page 0), reserves the way
    evicted = org.reserve_victim(6)  # must take the other way
    assert evicted.page == 2
    with pytest.raises(ProtocolError):
        org.reserve_victim(8)  # all ways reserved now


def test_double_reservation_for_same_page_raises():
    org = make_org()
    org.reserve_victim(1)
    with pytest.raises(ProtocolError):
        org.reserve_victim(1)


def test_install_without_reservation_raises():
    org = make_org()
    with pytest.raises(ProtocolError):
        org.install(9)


def test_populate_is_idempotent():
    org = make_org()
    read(org, 11)
    read(org, 11)
    assert occupancy(org) == 1
    assert (org.installs, org.hits, org.evictions) == (1, 1, 0)


def test_occupancy_counts_valid_pages():
    org = make_org(pages=8, assoc=2)
    for page in range(5):
        read(org, page)
    assert occupancy(org) == 5


def test_invalid_geometry_raises():
    with pytest.raises(ConfigurationError):
        DramCacheOrganization(num_pages=2, associativity=4)
    with pytest.raises(ConfigurationError):
        DramCacheOrganization(num_pages=8, associativity=0)
