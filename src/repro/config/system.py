"""System configuration dataclasses.

All tunables of the modelled server live here, expressed in the same
units the paper uses (Table I and Sections II/IV/V).  The scaled-down
simulation keeps the paper's *ratios* (3 % DRAM cache, 4 KB pages,
50 us flash reads, 100 ns thread switches) while shrinking absolute
capacities so runs finish quickly in Python.

Every config is a frozen value that checks itself when it is built
(``__post_init__``), so no unchecked config exists.  :func:`derive`
is the one way to vary one: it applies ``(dotted path, value)`` pairs
such as ``("scale.dram_fraction", 0.05)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from typing import Any, Dict, Iterable, List, Tuple, TypeVar

from repro.errors import ConfigurationError
from repro.units import GIB, MIB, PAGE_SIZE, US


class PagingMode(Enum):
    """How data moves between DRAM and flash."""

    DRAM_ONLY = "dram-only"          # everything fits in DRAM (ideal)
    ASTRIFLASH = "astriflash"        # hardware DRAM cache + switch-on-miss
    OS_SWAP = "os-swap"              # traditional OS demand paging
    FLASH_SYNC = "flash-sync"        # synchronous flash access (FlatFlash)


class SchedulingPolicy(Enum):
    """User-level thread scheduling policy (Sec. IV-D)."""

    PRIORITY_AGING = "priority-aging"  # paper's scheduler
    FIFO = "fifo"                      # AstriFlash-noPS ablation


@dataclass(frozen=True)
class CoreConfig:
    """An ARM Cortex-A76-like out-of-order core (Table I)."""

    frequency_ghz: float = 2.5
    issue_width: int = 4
    rob_entries: int = 128
    store_buffer_entries: int = 32
    base_physical_registers: int = 128
    # ASO-style post-retirement speculation: registers kept per store in
    # the store buffer (paper measures an average of 4 modified
    # registers between consecutive stores).
    registers_per_speculative_store: int = 4
    architectural_registers: int = 32
    # Cost of flushing the ROB and redirecting to the user-level handler
    # when a miss signal arrives: refill of the window, expressed as the
    # average number of cycles of useful work lost per occupied ROB entry.
    flush_cycles_per_rob_entry: float = 0.5

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.frequency_ghz

    def __post_init__(self) -> None:
        if self.rob_entries < 1 or self.store_buffer_entries < 1:
            raise ConfigurationError("ROB/SB sizes must be positive")
        if self.store_buffer_entries > self.rob_entries:
            raise ConfigurationError("store buffer larger than ROB")
        if self.frequency_ghz <= 0:
            raise ConfigurationError("core frequency must be positive")
        if self.flush_cycles_per_rob_entry < 0:
            raise ConfigurationError(
                "flush_cycles_per_rob_entry cannot be negative")


@dataclass(frozen=True)
class DramCacheConfig:
    """Page-granularity DRAM cache with tags in DRAM (Sec. IV-B)."""

    capacity_bytes: int = 8 * GIB
    page_size: int = PAGE_SIZE
    associativity: int = 8              # one 64B tag column maps 8 ways
    # DRAM timing for the frontside controller (ns).
    row_activate_ns: float = 15.0       # RAS
    column_access_ns: float = 15.0      # CAS
    data_transfer_ns: float = 10.0      # burst for a 64B block
    # Controller command costs (Sec. V-A): FC is a 1-cycle FSM, BC is
    # programmable and takes 3 cycles per command.
    frontside_cycles_per_command: int = 1
    backside_cycles_per_command: int = 3
    controller_frequency_ghz: float = 2.0
    # Unison-style way prediction: fetch the predicted way's data in
    # parallel with the tag column, so hits avoid the serialized
    # tag-then-data lookup (Jevdjic et al. [35], cited in Sec. IV-B).
    way_prediction: bool = True
    # Footprint-cache extension (Sec. II-A cites it as a bandwidth
    # optimization): fetch only the predicted footprint of a page on a
    # miss instead of all 4 KiB.
    footprint_enabled: bool = False
    footprint_region_pages: int = 64
    footprint_safety_blocks: int = 4
    # Miss Status Row: one specialized DRAM row of 8B entries.
    msr_entries: int = 512
    # Backside controller structures.
    evict_buffer_entries: int = 64
    miss_queue_entries: int = 128
    # Hybrid partitioning: part of DRAM is exposed flat to the OS so
    # page tables never live in the cached partition (Sec. IV-A).  Only
    # its access latency is modelled (timing.flat_partition_access_ns).
    partitioning_enabled: bool = True   # False => AstriFlash-noDP

    @property
    def controller_cycle_ns(self) -> float:
        return 1.0 / self.controller_frequency_ghz

    def __post_init__(self) -> None:
        if self.capacity_bytes < self.page_size * self.associativity:
            raise ConfigurationError("DRAM cache smaller than one set")
        if self.associativity < 1:
            raise ConfigurationError("associativity must be >= 1")
        if self.msr_entries < 1:
            raise ConfigurationError("MSR must have at least one entry")
        if self.evict_buffer_entries < 1 or self.miss_queue_entries < 1:
            raise ConfigurationError(
                "evict buffer and miss queue need at least one entry")
        if self.controller_frequency_ghz <= 0:
            raise ConfigurationError(
                "DRAM-cache controller frequency must be positive")
        if min(self.row_activate_ns, self.column_access_ns,
               self.data_transfer_ns, self.frontside_cycles_per_command,
               self.backside_cycles_per_command) < 0:
            raise ConfigurationError(
                "DRAM timings and command cycles cannot be negative")


@dataclass(frozen=True)
class FlashConfig:
    """NAND flash device behind PCIe (Sec. II, V)."""

    capacity_bytes: int = 256 * GIB
    page_size: int = PAGE_SIZE
    read_latency_ns: float = 50.0 * US       # paper's 50 us reads
    # Effective per-4KiB program cost: multi-plane one-shot programs on
    # 16 KiB native pages amortize the ~600 us NAND program time.
    program_latency_ns: float = 150.0 * US
    erase_latency_ns: float = 3_000.0 * US
    # "Multiple SSDs" aggregate geometry (Sec. II-A sizes flash
    # bandwidth for the core count with several devices).
    channels: int = 16
    dies_per_channel: int = 8
    planes_per_die: int = 2
    pages_per_block: int = 256
    # Device-side write cache: programs are acked once buffered and
    # drain to the planes in the background.
    write_buffer_pages: int = 512
    # PCIe link (Gen5 x16-like).
    pcie_bandwidth_gbps: float = 128.0        # GB/s
    pcie_latency_ns: float = 500.0
    # Garbage collection model (Sec. VI-D): probability that a request
    # lands on a plane busy with GC, for the reference 256 GiB device.
    gc_blocked_fraction_at_256g: float = 0.04
    gc_reference_capacity_bytes: int = 256 * GIB
    # Over-provisioning fraction driving GC frequency.
    overprovisioning: float = 0.07
    # GC policy: "blocking" holds a plane for the whole pass;
    # "tiny-tail" (the paper's [80]) slices migrations so priority
    # reads slip in between pages.
    gc_policy: str = "blocking"

    @property
    def num_planes(self) -> int:
        return self.channels * self.dies_per_channel * self.planes_per_die

    @property
    def gc_blocked_fraction(self) -> float:
        """GC blocking probability scales down with capacity (more
        planes to spread GC over), per the paper's Sec. VI-D argument."""
        scale = self.capacity_bytes / self.gc_reference_capacity_bytes
        return min(1.0, self.gc_blocked_fraction_at_256g / max(scale, 1e-9))

    def __post_init__(self) -> None:
        if self.read_latency_ns <= 0:
            raise ConfigurationError("flash read latency must be positive")
        if self.gc_policy not in ("blocking", "tiny-tail"):
            raise ConfigurationError(
                f"unknown gc_policy {self.gc_policy!r}"
            )
        if self.channels < 1 or self.dies_per_channel < 1 or self.planes_per_die < 1:
            raise ConfigurationError("flash geometry must be positive")
        if self.capacity_bytes < self.page_size:
            raise ConfigurationError("flash smaller than one page")
        if self.pages_per_block < 1:
            raise ConfigurationError("pages_per_block must be >= 1")
        if self.write_buffer_pages < 1:
            raise ConfigurationError("write_buffer_pages must be >= 1")
        if not 0.0 <= self.overprovisioning < 1.0:
            raise ConfigurationError("overprovisioning must be in [0, 1)")
        if min(self.program_latency_ns, self.erase_latency_ns,
               self.pcie_latency_ns) < 0:
            raise ConfigurationError(
                "flash program, erase and PCIe latencies cannot be negative")
        if self.pcie_bandwidth_gbps <= 0:
            raise ConfigurationError("PCIe bandwidth must be positive")
        if not 0.0 <= self.gc_blocked_fraction_at_256g <= 1.0:
            raise ConfigurationError(
                "gc_blocked_fraction_at_256g must be in [0, 1]")


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection knobs for :mod:`repro.faults` (DESIGN.md §4f).

    Disabled by default: with ``enabled=False`` no :class:`FaultPlan`
    is constructed and the flash/BC hot paths take their original
    branches, keeping results bit-identical to the golden fixtures.
    The plan draws from its own seeded RNG stream (never the sim RNG),
    so two runs with the same ``seed`` inject identical fault
    sequences.
    """

    enabled: bool = False
    #: Fault-stream seed, independent of the simulation seed.
    seed: int = 0xF1A5
    #: Raw bit error rate of a first (nominal-Vref) NAND sense.
    rber: float = 0.0
    # ECC geometry: a 4 KiB page is protected as independent codewords;
    # each corrects up to ``ecc_correctable_bits`` raw bit errors.
    codewords_per_page: int = 4
    codeword_bits: int = 8192 + 1024          # 1 KiB payload + parity
    ecc_correctable_bits: int = 40
    # Read-retry: each extra sense re-reads with a shifted Vref, which
    # multiplies the effective RBER by ``retry_rber_scale`` and costs
    # ``sense * (1 + read_retry_backoff * round)`` on the plane.
    read_retry_max_rounds: int = 4
    retry_rber_scale: float = 0.35
    read_retry_backoff: float = 0.5
    # Slow planes: a deterministic subset of planes senses slower by
    # ``slow_plane_multiplier`` (process-variation outliers).
    slow_plane_fraction: float = 0.0
    slow_plane_multiplier: float = 3.0
    # Transient plane/channel hangs: the sense stalls for
    # ``timeout_stall_factor * read_latency_ns`` while holding the
    # plane; the completion still fires (late), so consumers without
    # timeout machinery (the OS-swap pager) only see a slow read.
    timeout_probability: float = 0.0
    timeout_stall_factor: float = 12.0
    # Wear coupling: effective RBER is scaled by
    # ``1 + wear_rber_factor * erase_count`` of the block holding the
    # page (fed by PageMappingFtl erase counters).
    wear_rber_factor: float = 0.0
    # BC resilience: reads are reissued after
    # ``bc_timeout_factor * read_latency_ns`` and capped at
    # ``bc_max_reissues`` reissues before DeviceFailedError surfaces.
    bc_timeout_factor: float = 6.0
    bc_max_reissues: int = 4
    # Graceful degradation: after this many consecutive hard faults a
    # plane is marked failing and its reads fall back to synchronous
    # mirror reads at ``degraded_read_multiplier`` x sense latency.
    # 0 disables degraded mode.  Must stay comfortably below
    # ``bc_timeout_factor`` or the degraded path itself times out and
    # the reissue chain cannot terminate (checked when built).
    plane_failure_threshold: int = 3
    degraded_read_multiplier: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rber < 1.0:
            raise ConfigurationError("rber must be in [0, 1)")
        if self.codewords_per_page < 1 or self.codeword_bits < 1:
            raise ConfigurationError("ECC geometry must be positive")
        if self.ecc_correctable_bits < 0:
            raise ConfigurationError("ECC strength cannot be negative")
        if self.read_retry_max_rounds < 0 or self.bc_max_reissues < 0:
            raise ConfigurationError("retry/reissue caps cannot be negative")
        if not 0.0 <= self.retry_rber_scale <= 1.0:
            raise ConfigurationError("retry_rber_scale must be in [0, 1]")
        if not 0.0 <= self.slow_plane_fraction <= 1.0:
            raise ConfigurationError("slow_plane_fraction out of range")
        if not 0.0 <= self.timeout_probability < 1.0:
            raise ConfigurationError("timeout_probability out of range")
        if self.slow_plane_multiplier < 1.0 \
                or self.degraded_read_multiplier < 1.0:
            raise ConfigurationError("latency multipliers must be >= 1")
        if self.bc_timeout_factor <= 0 or self.timeout_stall_factor <= 0:
            raise ConfigurationError("timeout factors must be positive")
        if self.plane_failure_threshold > 0 \
                and self.degraded_read_multiplier >= self.bc_timeout_factor:
            raise ConfigurationError(
                "degraded_read_multiplier must be below bc_timeout_factor "
                "or degraded reads themselves time out"
            )
        if self.wear_rber_factor < 0.0:
            raise ConfigurationError("wear_rber_factor cannot be negative")
        if self.plane_failure_threshold < 0:
            raise ConfigurationError("plane_failure_threshold cannot be negative")


@dataclass(frozen=True)
class WritesConfig:
    """Write-path knobs for :mod:`repro.writes` (DESIGN.md §4j).

    Disabled by default: with ``enabled=False`` no admission policy is
    constructed, dirty evictions stay free, and the flash/BC hot paths
    take their original branches, keeping results bit-identical to the
    golden fixtures.  The readiness sketch draws from its own seeded
    hash stream (never the sim RNG), so two runs with the same
    ``sketch_seed`` make identical admission decisions.
    """

    enabled: bool = False
    #: DRAM→flash admission policy: ``write-back`` persists a page when
    #: its dirty way is evicted, ``write-through`` issues a flash
    #: program on every store (dirty evictions are already persisted
    #: and elided), ``readiness`` is a Flashield-style filter that
    #: admits a dirty eviction only once the page has been read at
    #: least ``readiness_reads`` times within the sketch window.
    admission_policy: str = "write-back"
    #: Reads a page must accumulate before a dirty eviction is admitted.
    readiness_reads: int = 2
    #: Read observations per sketch epoch; on epoch rollover the
    #: counters are halved (aging), so stale popularity decays.
    readiness_window: int = 4096
    #: log2 of the counters per sketch row.
    sketch_bits: int = 12
    #: Hash rows in the count-min sketch.
    sketch_rows: int = 2
    #: Sketch hash seed, independent of the simulation seed.
    sketch_seed: int = 0x5EED
    #: Program/erase cycles a block survives; drives the lifetime
    #: estimate derived from the measured erase rate.
    pe_cycle_budget: int = 3000

    POLICIES = ("write-through", "write-back", "readiness")

    def __post_init__(self) -> None:
        if self.admission_policy not in self.POLICIES:
            raise ConfigurationError(
                f"unknown admission_policy {self.admission_policy!r}"
            )
        if self.readiness_reads < 1:
            raise ConfigurationError("readiness_reads must be >= 1")
        if self.readiness_window < 1:
            raise ConfigurationError("readiness_window must be >= 1")
        if not 1 <= self.sketch_bits <= 24:
            raise ConfigurationError("sketch_bits must be in [1, 24]")
        if self.sketch_rows < 1:
            raise ConfigurationError("sketch_rows must be >= 1")
        if self.pe_cycle_budget < 1:
            raise ConfigurationError("pe_cycle_budget must be >= 1")


@dataclass(frozen=True)
class OsConfig:
    """Costs of the traditional OS paging path (Sec. II-C)."""

    context_switch_ns: float = 5.0 * US      # ~5 us per switch
    page_fault_kernel_ns: float = 5.0 * US   # storage stack + NVMe driver
    tlb_shootdown_base_ns: float = 4.0 * US  # broadcast IPI base cost
    tlb_shootdown_per_core_ns: float = 0.5 * US  # scales with core count
    # LATR-style lazy/batched shootdowns (the paper's [46]): amortize
    # the broadcast over several page unmappings.
    batched_shootdowns: bool = False
    shootdown_batch_size: int = 8
    page_table_levels: int = 4
    # OS-Swap uses kernel threads multiplexed per core.
    kernel_threads_per_core: int = 32

    def __post_init__(self) -> None:
        if self.page_table_levels < 1:
            raise ConfigurationError("page_table_levels must be >= 1")
        if self.kernel_threads_per_core < 1:
            raise ConfigurationError("kernel_threads_per_core must be >= 1")
        if self.shootdown_batch_size < 1:
            raise ConfigurationError("shootdown_batch_size must be >= 1")
        for name in ("context_switch_ns", "page_fault_kernel_ns",
                     "tlb_shootdown_base_ns", "tlb_shootdown_per_core_ns"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} cannot be negative")


@dataclass(frozen=True)
class UltConfig:
    """User-level threading library (Sec. IV-D)."""

    threads_per_core: int = 48               # paper spawns 32-64
    switch_latency_ns: float = 100.0         # 100 ns user-level switch
    policy: SchedulingPolicy = SchedulingPolicy.PRIORITY_AGING
    # Sized with the thread pool: the context count already bounds the
    # number of in-flight jobs, so pending never overflows unless the
    # limit is deliberately lowered (the mechanism is still modelled).
    pending_queue_limit: int = 48
    # Aging threshold: multiple of the average flash response time after
    # which the pending-queue head preempts new jobs.
    aging_threshold_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.threads_per_core < 1:
            raise ConfigurationError("threads_per_core must be >= 1")
        if self.switch_latency_ns < 0:
            raise ConfigurationError("switch_latency_ns cannot be negative")
        if self.aging_threshold_factor < 0:
            raise ConfigurationError(
                "aging_threshold_factor cannot be negative")


@dataclass(frozen=True)
class TlbConfig:
    """Address translation (Sec. IV-A): how often a step misses the TLBs.

    The runner reads only ``miss_probability``; a miss costs a page
    walk whose latency depends on where the page tables live.
    """

    # Probability a job step needs translation not covered by the
    # on-core TLBs (cold/irregular accesses).
    miss_probability: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 <= self.miss_probability <= 1.0:
            raise ConfigurationError("miss_probability must be in [0, 1]")


@dataclass(frozen=True)
class SimulationScale:
    """Scaled-down sizes used by the Python simulation.

    The paper simulates 256 GiB of flash-resident dataset and an 8 GiB
    DRAM cache for 16 cores.  We keep the *ratio* (3 %) but shrink the
    page population so pure-Python runs are fast.  ``dataset_pages``
    controls everything: the DRAM cache gets
    ``dataset_pages * dram_fraction`` pages.
    """

    dataset_pages: int = 1 << 16             # 65,536 pages = 256 MiB
    dram_fraction: float = 0.03
    warmup_ns: float = 2_000.0 * US
    measurement_ns: float = 10_000.0 * US

    def __post_init__(self) -> None:
        if self.dataset_pages < 64:
            raise ConfigurationError("dataset too small to be meaningful")
        if not 0.0 < self.dram_fraction <= 1.0:
            raise ConfigurationError("dram_fraction out of range")
        # Written so that NaN fails them too.
        if not 0.0 <= self.warmup_ns < math.inf:
            raise ConfigurationError("warmup_ns must be finite and >= 0")
        if not 0.0 < self.measurement_ns < math.inf:
            raise ConfigurationError("measurement_ns must be finite and > 0")


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of an evaluated system configuration."""

    name: str = "astriflash"
    mode: PagingMode = PagingMode.ASTRIFLASH
    num_cores: int = 16
    core: CoreConfig = field(default_factory=CoreConfig)
    dram_cache: DramCacheConfig = field(default_factory=DramCacheConfig)
    flash: FlashConfig = field(default_factory=FlashConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    writes: WritesConfig = field(default_factory=WritesConfig)
    os: OsConfig = field(default_factory=OsConfig)
    ult: UltConfig = field(default_factory=UltConfig)
    tlb: TlbConfig = field(default_factory=TlbConfig)
    scale: SimulationScale = field(default_factory=SimulationScale)
    llc_capacity_per_core: int = 1 * MIB

    def __post_init__(self) -> None:
        # Each sub-config checked itself when it was built.
        if self.num_cores < 1:
            raise ConfigurationError("need at least one core")

    # -- derived, scaled quantities ----------------------------------------

    @property
    def scaled_dram_cache_pages(self) -> int:
        pages = int(self.scale.dataset_pages * self.scale.dram_fraction)
        return max(self.dram_cache.associativity, pages)


#: One ``(dotted path, value)`` override, e.g. ``("ult.policy", FIFO)``.
Override = Tuple[str, Any]

C = TypeVar("C")


def derive(config: C, overrides: Iterable[Override]) -> C:
    """A copy of ``config`` with ``overrides`` applied.

    The pairs are grouped by the first part of each path, and each
    group is applied in one ``dataclasses.replace``, so a cross-field
    check sees the final values.  When two pairs name the same path
    the later one wins.  An unknown path raises
    :class:`ConfigurationError` naming it.
    """
    return _derive(config, [(path, path.split("."), value)
                            for path, value in overrides])


def _derive(config: C, pairs: List[Tuple[str, List[str], Any]]) -> C:
    if not pairs:
        return config
    if not is_dataclass(config):
        raise ConfigurationError(
            f"config override {pairs[0][0]!r}: no such field")
    names = {f.name for f in fields(config)}
    changes: Dict[str, Any] = {}
    nested: Dict[str, List[Tuple[str, List[str], Any]]] = {}
    for path, parts, value in pairs:
        head = parts[0]
        if head not in names:
            raise ConfigurationError(
                f"config override {path!r}: no such field")
        if len(parts) == 1:
            changes[head] = value
        else:
            nested.setdefault(head, []).append((path, parts[1:], value))
    for head, rest in nested.items():
        changes[head] = _derive(changes.get(head, getattr(config, head)),
                                rest)
    return replace(config, **changes)
