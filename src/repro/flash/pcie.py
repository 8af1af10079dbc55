"""PCIe link model.

AstriFlash memory-maps flash behind PCIe BARs (Sec. IV-A) and sizes the
system so PCIe Gen5 bandwidth (~128 GB/s) covers the aggregate flash
refill traffic (Sec. II-A, Fig. 1).  The link is modelled as a
serializing pipe: a fixed propagation latency plus ``bytes/bandwidth``
of occupancy.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sim import Engine, Server


class PCIeLink:
    """A serializing link with fixed latency and finite bandwidth."""

    def __init__(self, engine: Engine, bandwidth_gbps: float,
                 latency_ns: float, name: str = "pcie") -> None:
        if bandwidth_gbps <= 0:
            raise ConfigurationError("PCIe bandwidth must be positive")
        if latency_ns < 0:
            raise ConfigurationError("PCIe latency cannot be negative")
        self.engine = engine
        self.bandwidth_bytes_per_ns = bandwidth_gbps  # GB/s == bytes/ns
        self.latency_ns = latency_ns
        self.name = name
        self._pipe = Server(engine, capacity=1, name=f"{name}:pipe")
        # Bytes delivered (the footprint ablation's refill bandwidth).
        self.bytes_transferred = 0

    def occupancy_ns(self, num_bytes: int) -> float:
        """Serialization time for ``num_bytes`` on the link."""
        return num_bytes / self.bandwidth_bytes_per_ns

    def transfer(self, num_bytes: int):
        """Process generator: move ``num_bytes`` across the link.

        Usage: ``yield from link.transfer(PAGE_SIZE)``.
        """
        grant = self._pipe.acquire()
        if grant is not None:
            yield grant
        yield self.occupancy_ns(num_bytes)
        self._pipe.release()
        # Propagation happens after serialization, off the pipe.
        yield self.latency_ns
        self.bytes_transferred += num_bytes

    def __repr__(self) -> str:
        return f"<PCIeLink {self.bandwidth_bytes_per_ns:.0f} GB/s lat={self.latency_ns} ns>"
