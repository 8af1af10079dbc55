"""TLB-shootdown cost model.

Unmapping or migrating a page requires removing stale translations from
every core's TLBs.  Modern shootdowns are broadcast IPIs: the initiator
interrupts all cores and waits for acknowledgements, so the latency
*grows* with the core count and the operation serializes page-table
updates across the machine (Sec. II-C).  This is the key reason OS
paging does not scale in Fig. 2.
"""

from __future__ import annotations

from repro.config.system import OsConfig
from repro.errors import ConfigurationError


class TlbShootdownModel:
    """Latency of broadcast TLB shootdowns."""

    def __init__(self, config: OsConfig, num_cores: int) -> None:
        if num_cores < 1:
            raise ConfigurationError("need at least one core")
        self.config = config
        self.num_cores = num_cores

    def latency_ns(self, batched_pages: int = 1) -> float:
        """Cost of one shootdown operation.

        The base IPI broadcast plus a per-responding-core term; batching
        several page invalidations amortizes the broadcast (LATR-style
        proposals) but each page still pays a small per-core cost.
        """
        if batched_pages < 1:
            raise ConfigurationError("must shoot down at least one page")
        per_core = self.config.tlb_shootdown_per_core_ns * (self.num_cores - 1)
        base = self.config.tlb_shootdown_base_ns
        # Subsequent pages in a batch only pay 10% of the per-core term.
        extra = 0.1 * per_core * (batched_pages - 1)
        return base + per_core + extra

