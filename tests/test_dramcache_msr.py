"""Unit tests for the in-DRAM Miss Status Row."""

import pytest

from repro.dramcache import MissStatusRow
from repro.errors import CapacityError, ConfigurationError, ProtocolError
from repro.sim import Engine, spawn


def make_msr(capacity=4):
    engine = Engine()
    return engine, MissStatusRow(engine, capacity)


def test_allocate_and_lookup():
    engine, msr = make_msr()
    msr.allocate(10)
    msr.note_reissue(10)  # finds the pending entry
    with pytest.raises(ProtocolError):
        msr.note_reissue(11)
    assert len(msr) == 1


def test_duplicate_allocation_raises():
    engine, msr = make_msr()
    msr.allocate(10)
    with pytest.raises(ProtocolError):
        msr.allocate(10)


def test_capacity_enforced():
    engine, msr = make_msr(capacity=2)
    msr.allocate(1)
    msr.allocate(2)
    assert msr.is_full
    with pytest.raises(CapacityError):
        msr.allocate(3)


def test_release_frees_space_and_wakes_waiter():
    engine, msr = make_msr(capacity=1)
    msr.allocate(1)
    woken = []

    def waiter():
        signal = msr.wait_for_free()
        assert signal is not None
        yield signal
        woken.append(engine.now)
        msr.allocate(2)

    def releaser():
        yield 100.0
        msr.release(1)

    spawn(engine, waiter())
    spawn(engine, releaser())
    engine.run()
    assert woken == [100.0]
    assert len(msr) == 1
    msr.release(2)


def test_release_missing_entry_raises():
    engine, msr = make_msr()
    with pytest.raises(ProtocolError):
        msr.release(99)


def test_wait_for_free_returns_none_when_space():
    engine, msr = make_msr(capacity=2)
    assert msr.wait_for_free() is None


def test_peak_occupancy_tracked():
    engine, msr = make_msr(capacity=8)
    for page in range(5):
        msr.allocate(page)
    for page in range(5):
        msr.release(page)
    assert msr.peak_occupancy == 5


def test_zero_capacity_rejected():
    engine = Engine()
    with pytest.raises(ConfigurationError):
        MissStatusRow(engine, 0)
