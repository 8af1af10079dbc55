"""Garbage collection for the flash device.

GC runs per plane when the FTL reports free-block pressure.  While a
plane erases/migrates, its server is occupied, so reads queued behind
GC observe the latency spike the paper discusses in Sec. VI-D.  The
collector records how many foreground requests arrived while a plane
was collecting — the paper's "blocked requests" metric (≈4 % at
256 GiB, <1 % at 1 TiB).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.sim import spawn
from repro.stats import CounterSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flash.device import FlashDevice


class GarbageCollector:
    """Drives per-plane GC passes on the owning :class:`FlashDevice`.

    The collector keeps the parts of the device it reads (engine,
    config, FTL, plane servers, the device counters and the write-path
    config), not the device, which holds the collector: that pair
    would be a reference cycle.
    """

    def __init__(self, device: "FlashDevice") -> None:
        self.engine = device.engine
        self.config = device.config
        self.ftl = device.ftl
        self.planes = device.planes
        self.device_stats = device.stats
        self.writes = device.writes
        self.stats = CounterSet()
        self._active: List[bool] = [False] * device.ftl.num_planes
        # Measurement-window baselines (see start_measurement): until
        # the runner marks the warmup boundary both stay 0, so raw
        # device sims keep reporting whole-run fractions.
        self._window_requests = 0.0
        self._window_blocked = 0.0
        # Write-path window baselines (DESIGN.md §4j): snapshots of the
        # cumulative write counters at the warmup/measurement boundary,
        # the same pattern as the blocked-fraction baselines above.
        self._window_device: Dict[str, float] = {}
        self._window_ftl: Dict[str, float] = {}
        self._window_start_ns = 0.0

    def plane_collecting(self, plane_index: int) -> bool:
        """True while a GC pass occupies ``plane_index``."""
        return self._active[plane_index]

    def maybe_collect(self, plane_index: int) -> None:
        """Kick off a GC pass if the plane is under free-block pressure."""
        if self._active[plane_index]:
            return
        if not self.ftl.gc_pressure(plane_index):
            return
        self._active[plane_index] = True
        spawn(
            self.engine,
            self._collect_process(plane_index),
            name=f"gc:plane{plane_index}",
        )

    def _collect_process(self, plane_index: int):
        if self.config.gc_policy == "tiny-tail":
            yield from self._collect_tiny_tail(plane_index)
        else:
            yield from self._collect_blocking(plane_index)

    def _collect_blocking(self, plane_index: int):
        """Traditional GC: the plane is held for the whole pass, so
        reads queue behind migrations and the erase."""
        ftl = self.ftl
        config = self.config
        plane = self.planes[plane_index]
        try:
            while ftl.gc_pressure(plane_index):
                grant = plane.acquire()
                if grant is not None:
                    yield grant
                migrated, erased = ftl.collect(plane_index)
                if migrated == 0 and erased == 0:
                    plane.release()
                    break
                busy = (
                    migrated
                    * (config.read_latency_ns + config.program_latency_ns)
                    + erased * config.erase_latency_ns
                )
                yield busy
                plane.release()
                stats = self.stats
                stats["passes"] += 1.0
                stats["migrated_pages"] += migrated
                stats["busy_ns"] += busy
                if self.writes is not None:
                    # GC page moves are device-side programs: the write
                    # amplification the host never asked for.
                    self.device_stats["device_writes"] += migrated
        finally:
            self._active[plane_index] = False

    def _collect_tiny_tail(self, plane_index: int):
        """Tiny-Tail-style GC (the paper's [80]): migrations proceed in
        page-sized slices and the plane is released between slices, so
        priority reads slip in and observe at most one slice of delay
        instead of a multi-millisecond pass."""
        ftl = self.ftl
        config = self.config
        plane = self.planes[plane_index]
        slice_ns = config.read_latency_ns + config.program_latency_ns
        try:
            while ftl.gc_pressure(plane_index):
                migrated, erased = ftl.collect(plane_index)
                if migrated == 0 and erased == 0:
                    break
                for _ in range(migrated):
                    grant = plane.acquire()
                    if grant is not None:
                        yield grant
                    yield slice_ns
                    plane.release()
                # Erase-suspend: the long block erase is performed in
                # suspendable windows so priority reads slip in.
                erase_slices = 8
                erase_slice_ns = (erased * config.erase_latency_ns
                                  / erase_slices)
                for _ in range(erase_slices):
                    grant = plane.acquire()
                    if grant is not None:
                        yield grant
                    yield erase_slice_ns
                    plane.release()
                stats = self.stats
                stats["passes"] += 1.0
                stats["migrated_pages"] += migrated
                stats["busy_ns"] += (migrated * slice_ns
                                     + erased * config.erase_latency_ns)
                if self.writes is not None:
                    self.device_stats["device_writes"] += migrated
        finally:
            self._active[plane_index] = False

    def start_measurement(self) -> None:
        """Mark the warmup/measurement boundary.

        Snapshots the cumulative request counters so
        :meth:`blocked_fraction` reports the measurement window only —
        the same windowing fix the PR 1 ``miss_ratio`` change applied:
        warmup-era GC stalls (dataset builds, cache fills) must not
        dilute the steady-state blocked fraction.
        """
        stats = self.device_stats
        self._window_requests = stats["requests"]
        self._window_blocked = stats["requests_blocked_by_gc"]
        self._window_device = {key: stats[key] for key in _DEVICE_WRITE_KEYS}
        ftl_stats = self.ftl.stats
        self._window_ftl = {key: ftl_stats[key] for key in _FTL_WRITE_KEYS}
        self._window_start_ns = self.engine.now

    def blocked_fraction(self) -> float:
        """Fraction of foreground requests that arrived during GC,
        scoped to the measurement window once :meth:`start_measurement`
        has been called (whole-run before that)."""
        stats = self.device_stats
        requests = stats["requests"] - self._window_requests
        blocked = stats["requests_blocked_by_gc"] - self._window_blocked
        if requests <= 0:
            return 0.0
        return blocked / requests

    # ------------------------------------------------------- write path --

    def _ftl_window(self) -> Dict[str, float]:
        ftl_stats = self.ftl.stats
        base = self._window_ftl
        return {
            key: ftl_stats[key] - base.get(key, 0.0)
            for key in _FTL_WRITE_KEYS
        }

    def wa_factor(self) -> float:
        """Measured device-level write amplification, scoped to the
        measurement window: flash page programs (host programs plus GC
        migrations) per host program.  ``>= 1.0`` by construction —
        every host write is programmed exactly once and GC only ever
        adds migrations on top.  ``1.0`` when the window saw no host
        writes (no writes, nothing amplified)."""
        ftl = self._ftl_window()
        host = ftl["writes"]
        if host <= 0:
            return 1.0
        return (host + ftl["gc_migrated_pages"]) / host

    def lifetime_years(self,
                       pe_cycle_budget: Optional[int] = None
                       ) -> Optional[float]:
        """P/E-budget lifetime estimate from the window's erase rate.

        Remaining erase budget (``pe_cycle_budget`` per block, minus
        erases already consumed) divided by the measured erase rate in
        *simulated* time.  ``None`` when the window saw no erases (the
        estimate is unbounded).  At harness scale the dataset and the
        window are shrunk by the same machinery as everything else, so
        read this as a model-scale figure of merit for comparing
        policies, not a calendar prediction for a 256 GiB device.
        """
        if pe_cycle_budget is None:
            writes = self.writes
            pe_cycle_budget = writes.pe_cycle_budget if writes else 3000
        erases = self._ftl_window()["gc_erases"]
        window_ns = self.engine.now - self._window_start_ns
        if erases <= 0 or window_ns <= 0:
            return None
        ftl = self.ftl
        total_blocks = sum(len(plane.blocks) for plane in ftl.planes)
        consumed = ftl.stats["gc_erases"]
        remaining = max(0.0, total_blocks * pe_cycle_budget - consumed)
        erases_per_ns = erases / window_ns
        ns_per_year = 365.25 * 24 * 3600 * 1e9
        return remaining / erases_per_ns / ns_per_year

    def write_window(self) -> Dict[str, float]:
        """Measurement-window write-path telemetry (DESIGN.md §4j).

        All values are deltas against the :meth:`start_measurement`
        baselines, matching the ``blocked_fraction`` windowing:
        ``host_writes`` counts host programs (dirty writebacks plus
        write-through stores), ``device_writes`` adds the GC page
        moves, ``wa_factor`` is their ratio, and
        ``flash_writes_per_app_write`` is the Flashield-style
        end-to-end amplification (device programs per application
        store — below 1.0 when the DRAM cache coalesces stores).
        ``lifetime_years`` is present only when the window erased."""
        stats = self.device_stats
        base = self._window_device
        dev = {
            key: stats[key] - base.get(key, 0.0)
            for key in _DEVICE_WRITE_KEYS
        }
        ftl = self._ftl_window()
        host = ftl["writes"]
        migrated = ftl["gc_migrated_pages"]
        device_writes = host + migrated
        app_writes = dev["app_writes"]
        window: Dict[str, float] = {
            "host_writes": host,
            "device_writes": device_writes,
            "app_writes": app_writes,
            "admission_rejects": dev["admission_rejects"],
            "writeback_elided": dev["writeback_elided"],
            "gc_migrated_pages": migrated,
            "gc_erases": ftl["gc_erases"],
            "wa_factor": self.wa_factor(),
            "flash_writes_per_app_write": (
                device_writes / app_writes if app_writes > 0 else 0.0
            ),
        }
        lifetime = self.lifetime_years()
        if lifetime is not None:
            window["lifetime_years"] = lifetime
        return window


#: Cumulative device counters snapshotted at the measurement boundary.
#: ``host_writes``/``device_writes`` are the gated duplicates of the
#: FTL-derived figures; the admission counters only exist on the device
#: because the BC's own stats never reach :class:`SimulationResult`.
_DEVICE_WRITE_KEYS = (
    "host_writes",
    "device_writes",
    "app_writes",
    "admission_rejects",
    "writeback_elided",
)
_FTL_WRITE_KEYS = ("writes", "gc_migrated_pages", "gc_erases")
