"""Virtual-memory costs: the broadcast TLB-shootdown latency model."""

from repro.vm.shootdown import TlbShootdownModel

__all__ = ["TlbShootdownModel"]
