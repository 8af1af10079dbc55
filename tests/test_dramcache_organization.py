"""Unit tests for the DRAM-cache organization (sets/ways/LRU/reservations).

The per-access tag probe runs in ``FrontsideController.access``; here a
resident page is touched through ``populate`` (a read hit) or a one-step
``warm_job`` (a write hit).
"""

import pytest

from repro.dramcache import DramCacheOrganization
from repro.errors import ConfigurationError, ProtocolError


def make_org(pages=32, assoc=4):
    return DramCacheOrganization(num_pages=pages, associativity=assoc)


def test_geometry():
    org = make_org(pages=32, assoc=4)
    assert org.num_sets == 8
    assert org.capacity_pages == 32


def test_lookup_miss_then_hit_after_install():
    org = make_org()
    assert not org.contains(5)
    assert org.reserve_victim(5) is None  # free way available
    assert not org.contains(5) and org.is_reserved(5)
    org.install(5)
    assert org.contains(5) and not org.is_reserved(5)
    assert org.populate(5) is None  # a hit: nothing evicted
    assert (org.hits, org.installs, org.evictions) == (1, 1, 0)


def test_write_hit_sets_dirty():
    org = make_org()
    org.populate(3)
    org.warm_job([(0.0, 3, True)])
    assert org.dirty_count() == 1


def test_lru_eviction_order():
    org = make_org(pages=4, assoc=4)  # one set
    for page in range(4):
        org.populate(page)
    org.populate(0)  # a hit: page 0 becomes MRU
    evicted = org.reserve_victim(4)
    assert evicted is not None
    assert evicted.page == 1  # LRU among 1,2,3


def test_eviction_reports_dirtiness():
    org = make_org(pages=4, assoc=4)
    for page in range(4):
        org.populate(page)
    org.warm_job([(0.0, 2, True)])  # a write hit dirties page 2
    for page in (0, 1, 3):
        org.populate(page)  # touch the others after it
    # Force page 2 to be the LRU: re-touch everything else.
    evicted = org.reserve_victim(4)
    assert evicted.page == 2
    assert evicted.dirty


def test_reserved_way_cannot_be_victimized():
    org = make_org(pages=2, assoc=2)  # one set, two ways
    org.populate(0)
    org.populate(2)  # wait -- set index: page % num_sets; num_sets=1
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


def test_cancel_reservation():
    org = make_org()
    org.reserve_victim(7)
    org.cancel_reservation(7)
    with pytest.raises(ProtocolError):
        org.cancel_reservation(7)


def test_populate_is_idempotent():
    org = make_org()
    assert org.populate(11) is None
    assert org.populate(11) is None
    assert org.occupancy() == 1


def test_occupancy_counts_valid_pages():
    org = make_org(pages=8, assoc=2)
    for page in range(5):
        org.populate(page)
    assert org.occupancy() == 5


def test_contains_has_no_lru_side_effect():
    org = make_org(pages=2, assoc=2)
    org.populate(0)
    org.populate(2)
    # 'contains' on page 0 must not promote it.
    assert org.contains(0)
    evicted = org.reserve_victim(4)
    assert evicted.page == 0


def test_invalid_geometry_raises():
    with pytest.raises(ConfigurationError):
        DramCacheOrganization(num_pages=2, associativity=4)
    with pytest.raises(ConfigurationError):
        DramCacheOrganization(num_pages=8, associativity=0)
