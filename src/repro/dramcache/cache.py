"""DRAM-cache facade: organization + timing + both controllers.

`DramCache` is the single object the rest of the system talks to.  It
also owns the hybrid DRAM partition (Sec. IV-A): a slice of DRAM rows
exposed flat to the OS so page tables stay DRAM-resident.  With
partitioning disabled (`AstriFlash-noDP`), page-table accesses go
through the cached partition like any other page and can miss to flash.
"""

from __future__ import annotations

from repro.config.system import DramCacheConfig
from repro.dramcache.controllers import (
    AccessResult,
    BacksideController,
    FrontsideController,
)
from repro.dramcache.organization import DramCacheOrganization
from repro.dramcache.timing import DramCacheTiming, build_timing
from repro.flash.device import FlashDevice
from repro.sim import Engine


class DramCache:
    """A hardware-managed, page-granularity DRAM cache over flash."""

    def __init__(self, engine: Engine, config: DramCacheConfig,
                 cache_pages: int, flash: FlashDevice,
                 admission=None) -> None:
        self.engine = engine
        self.config = config
        self.timing: DramCacheTiming = build_timing(config)
        self.organization = DramCacheOrganization(
            num_pages=cache_pages, associativity=config.associativity
        )
        self.backside = BacksideController(
            engine, config, self.timing, self.organization, flash,
            admission=admission,
        )
        self.frontside = FrontsideController(
            engine, config, self.timing, self.organization, self.backside,
            admission=admission,
        )
        self.flash = flash

    # -- data path ------------------------------------------------------------

    def access(self, page: int, is_write: bool = False) -> AccessResult:
        """One request from the on-chip hierarchy (see FC docs)."""
        return self.frontside.access(page, is_write)

    @property
    def capacity_pages(self) -> int:
        return self.organization.capacity_pages
