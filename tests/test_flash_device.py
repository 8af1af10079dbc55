"""Unit tests for the flash device, PCIe link and garbage collection."""

import dataclasses

import pytest

from repro.config import FlashConfig
from repro.errors import ConfigurationError
from repro.flash import FlashDevice, PCIeLink
from repro.sim import Engine, spawn
from repro.units import KIB, US


def small_flash_config(**overrides) -> FlashConfig:
    config = FlashConfig(
        channels=2,
        dies_per_channel=1,
        planes_per_die=2,
        pages_per_block=8,
        overprovisioning=0.5,
    )
    return dataclasses.replace(config, **overrides)


def make_device(pages=256, **overrides):
    engine = Engine()
    device = FlashDevice(engine, small_flash_config(**overrides), pages)
    return engine, device


class TestPageMaps:
    def test_fresh_device_holds_no_page_map(self):
        # Reads of the pristine dataset program nothing, so only the
        # block the one write lands in gets a page map.
        engine = Engine()
        device = FlashDevice(engine, FlashConfig(), 4096)
        blocks = [block for plane in device.ftl.planes
                  for block in plane.blocks]
        assert len(blocks) >= 4 * FlashConfig().num_planes
        assert all(block.valid is None for block in blocks)
        for page in range(0, 4096, 97):
            device.read(page)
        device.write(11)
        engine.run()
        mapped = [block for block in blocks if block.valid is not None]
        assert len(mapped) == 1
        assert mapped[0].valid_count == 1 and 11 in mapped[0].valid


class TestPCIeLink:
    def test_transfer_time_includes_serialization_and_latency(self):
        engine = Engine()
        link = PCIeLink(engine, bandwidth_gbps=4.0, latency_ns=100.0)
        done = []

        def mover():
            yield from link.transfer(4 * KIB)
            done.append(engine.now)

        spawn(engine, mover())
        engine.run()
        assert done == [pytest.approx(4 * KIB / 4.0 + 100.0)]

    def test_transfers_serialize_on_the_pipe(self):
        engine = Engine()
        link = PCIeLink(engine, bandwidth_gbps=1.0, latency_ns=0.0)
        done = []

        def mover(tag):
            yield from link.transfer(1000)
            done.append((tag, engine.now))

        spawn(engine, mover("a"))
        spawn(engine, mover("b"))
        engine.run()
        assert ("a", 1000.0) in done
        assert ("b", 2000.0) in done

    def test_invalid_parameters_raise(self):
        engine = Engine()
        with pytest.raises(ConfigurationError):
            PCIeLink(engine, bandwidth_gbps=0.0, latency_ns=1.0)
        with pytest.raises(ConfigurationError):
            PCIeLink(engine, bandwidth_gbps=1.0, latency_ns=-1.0)


class TestFlashDevice:
    def test_read_latency_is_dominated_by_sensing(self):
        engine, device = make_device()
        results = []

        def reader():
            request = yield device.read(3)
            results.append(request)

        spawn(engine, reader())
        engine.run()
        request = results[0]
        assert request.complete_time is not None
        # 50 us sensing + ~2 us channel + ~0.5 us PCIe.
        assert request.latency_ns >= 50.0 * US
        assert request.latency_ns < 60.0 * US

    def test_reads_to_same_plane_queue(self):
        engine, device = make_device()
        latencies = []

        def reader(page):
            request = yield device.read(page)
            latencies.append(request.latency_ns)

        num_planes = device.config.num_planes
        # Two pages that stripe onto the same plane.
        spawn(engine, reader(0))
        spawn(engine, reader(num_planes))
        engine.run()
        latencies.sort()
        assert latencies[1] >= latencies[0] + 49.0 * US

    def test_reads_to_different_planes_overlap(self):
        engine, device = make_device()
        latencies = []

        def reader(page):
            request = yield device.read(page)
            latencies.append(request.latency_ns)

        spawn(engine, reader(0))
        spawn(engine, reader(1))
        engine.run()
        assert max(latencies) < 60.0 * US

    def test_write_allocates_in_ftl(self):
        engine, device = make_device()
        done = []

        def writer():
            request = yield device.write(5)
            done.append(request)

        spawn(engine, writer())
        engine.run()
        assert 5 in device.ftl._mapping
        assert done[0].complete_time is not None

    def test_gc_triggers_under_write_pressure(self):
        engine, device = make_device(pages=64)
        hot_pages = list(range(4))

        def writer():
            for _ in range(40):
                for page in hot_pages:
                    yield device.write(page)

        spawn(engine, writer())
        engine.run()
        assert device.ftl.stats["gc_erases"] >= 1
        # Mapping stays correct after GC.
        for page in hot_pages:
            assert page in device.ftl._mapping

    def test_gc_blocking_is_observed_by_reads(self):
        engine, device = make_device(pages=64)
        blocked = []

        def writer():
            for _ in range(60):
                for page in range(4):
                    yield device.write(page)

        def reader():
            for i in range(400):
                request = yield device.read(i % 16)
                if request.blocked_by_gc:
                    blocked.append(request)

        spawn(engine, writer())
        spawn(engine, reader())
        engine.run()
        assert device.stats["requests"] > 0
        # The blocked fraction is well-defined (may be zero on tiny runs
        # but the counter path must exist).
        assert 0.0 <= device.gc.blocked_fraction() <= 1.0

    def test_average_read_latency_defaults_to_config(self):
        engine, device = make_device()
        assert device.average_read_latency_ns() == device.config.read_latency_ns

    def test_zero_pages_raises(self):
        engine = Engine()
        with pytest.raises(ConfigurationError):
            FlashDevice(engine, small_flash_config(), 0)
