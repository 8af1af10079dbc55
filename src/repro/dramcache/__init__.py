"""Hardware-managed DRAM cache: organization, timing, MSR, controllers."""

from repro.dramcache.cache import DramCache
from repro.dramcache.controllers import (
    AccessResult,
    BacksideController,
    FrontsideController,
    MissRequest,
)
from repro.dramcache.msr import MissStatusRow
from repro.dramcache.organization import DramCacheOrganization, EvictedPage, Way
from repro.dramcache.timing import (
    DramCacheTiming,
    build_timing,
    flat_partition_access_ns,
)

__all__ = [
    "AccessResult",
    "BacksideController",
    "DramCache",
    "DramCacheOrganization",
    "DramCacheTiming",
    "EvictedPage",
    "FrontsideController",
    "MissRequest",
    "MissStatusRow",
    "Way",
    "build_timing",
    "flat_partition_access_ns",
]
