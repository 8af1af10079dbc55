"""Tests for the BC-to-core queue-pair notification mechanism."""

import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.ult import CompletionQueue


class TestCompletionQueue:
    def test_post_and_drain_fifo(self):
        cq = CompletionQueue(core_id=0)
        cq.post(10, now=1.0, context="a")
        cq.post(20, now=2.0, context="b")
        entries = cq.drain()
        assert [e.page for e in entries] == [10, 20]
        assert [e.context for e in entries] == ["a", "b"]
        assert len(cq) == 0

    def test_doorbell_rings_on_post(self):
        rings = []
        cq = CompletionQueue(core_id=1, doorbell=lambda: rings.append(1))
        cq.post(5, now=0.0)
        cq.post(6, now=0.0)
        assert len(rings) == 2

    def test_capacity_overflow_raises(self):
        cq = CompletionQueue(core_id=0, capacity=2)
        cq.post(1, now=0.0)
        cq.post(2, now=0.0)
        with pytest.raises(CapacityError):
            cq.post(3, now=0.0)

    def test_drain_empty_is_noop(self):
        cq = CompletionQueue(core_id=0)
        assert cq.drain() == []
        assert len(cq) == 0

    def test_stats(self):
        cq = CompletionQueue(core_id=0)
        cq.post(1, now=0.0)
        cq.post(2, now=0.0)
        assert len(cq.drain()) == 2
        assert cq.drain() == []

    def test_invalid_capacity_raises(self):
        with pytest.raises(ConfigurationError):
            CompletionQueue(core_id=0, capacity=0)
