"""Time-series telemetry: periodic snapshots of simulator state.

The :class:`TelemetrySampler` is a self-rescheduling engine event that
wakes every ``interval_ns`` of simulated time and snapshots the queues
and occupancies the paper's tail-latency story turns on: MSR occupancy,
per-core run/pending queue depths, dirty-way counts, flash in-flight
depth, BC miss-queue depth and core busy fraction.  Rows accumulate on
the active tracer (``tracer.telemetry_rows``) and, doubled as Chrome
``C`` counter events, render as counter tracks in Perfetto.

Determinism: sampling is **read-only**.  The sampler never touches the
simulation RNG, never fires signals, and never mutates model state; its
events only consume engine sequence numbers, which shifts nothing
observable (relative order of all other events is preserved) — the
golden determinism test pins this.
"""

from __future__ import annotations

import csv
import json
from typing import Dict, List

#: Aggregate columns every row carries (per-core ``core{i}_new`` /
#: ``core{i}_pending`` columns follow, one pair per core).
TELEMETRY_FIELDS = (
    "run",
    "time_us",
    "msr_occupancy",
    "runq_jobs",
    "new_threads",
    "pending_threads",
    "dirty_ways",
    "flash_inflight",
    "bc_queue_depth",
    "core_busy",
    # Flash/GC health columns (chaos runs in time series).  Appended
    # at the end: telemetry_fieldnames() ordering promises aggregates
    # in TELEMETRY_FIELDS order, and downstream CSV consumers index
    # the earlier columns by position.
    "gc_blocked_fraction",
    "erase_count_max",
    "erase_count_mean",
    "fault_stall_ns",
)

#: Aggregate fields also emitted as Chrome counter tracks.
_COUNTER_FIELDS = TELEMETRY_FIELDS[2:]


class TelemetrySampler:
    """Periodic, read-only state snapshotter for one runner."""

    def __init__(self, runner, tracer, interval_ns: float) -> None:
        if interval_ns <= 0.0:
            raise ValueError("telemetry interval must be positive")
        self.runner = runner
        self.tracer = tracer
        self.interval_ns = interval_ns
        self.samples = 0
        self._last_busy_ns = runner._busy_ns

    def start(self) -> None:
        """Schedule the first sample one interval from now."""
        self.runner.machine.engine.schedule(self.interval_ns, self._sample)

    # -- one snapshot ---------------------------------------------------------

    def _sample(self) -> None:
        runner = self.runner
        machine = runner.machine
        engine = machine.engine
        tracer = self.tracer
        now = engine.now

        row: Dict[str, float] = {
            "run": tracer.current_run,
            "time_us": now / 1000.0,
        }
        cache = machine.dram_cache
        if cache is not None:
            row["msr_occupancy"] = float(len(cache.backside.msr))
            row["dirty_ways"] = float(cache.organization.dirty_count())
            row["bc_queue_depth"] = float(len(cache.backside.miss_queue))
        else:
            row["msr_occupancy"] = 0.0
            row["dirty_ways"] = 0.0
            row["bc_queue_depth"] = 0.0
        flash = machine.flash
        if flash is not None:
            row["flash_inflight"] = float(sum(
                plane.busy + plane.queue_length for plane in flash.planes
            ))
            # Flash/GC health: GC contention, wear profile, cumulative
            # fault-induced BC stall time.  All read-only probes — the
            # sampler's determinism contract holds.
            row["gc_blocked_fraction"] = flash.gc.blocked_fraction()
            erase_counts = flash.ftl.erase_counts()
            if erase_counts:
                row["erase_count_max"] = float(max(erase_counts))
                row["erase_count_mean"] = (sum(erase_counts)
                                           / len(erase_counts))
            else:
                row["erase_count_max"] = 0.0
                row["erase_count_mean"] = 0.0
            row["fault_stall_ns"] = flash.stats["bc_fault_stall_ns"]
        else:
            row["flash_inflight"] = 0.0
            row["gc_blocked_fraction"] = 0.0
            row["erase_count_max"] = 0.0
            row["erase_count_mean"] = 0.0
            row["fault_stall_ns"] = 0.0

        row["runq_jobs"] = float(sum(
            len(queue) for queue in runner._queues.values()
        ))
        new_threads = 0
        pending_threads = 0
        for core_id, library in enumerate(machine.libraries):
            if library is None:
                continue
            scheduler = library.scheduler
            row[f"core{core_id}_new"] = float(scheduler.new_count)
            row[f"core{core_id}_pending"] = float(scheduler.pending_count)
            new_threads += scheduler.new_count
            pending_threads += scheduler.pending_count
        row["new_threads"] = float(new_threads)
        row["pending_threads"] = float(pending_threads)

        # Busy fraction over the elapsed interval, across all cores.
        busy_ns = runner._busy_ns
        capacity = self.interval_ns * runner.config.num_cores
        row["core_busy"] = min(1.0, (busy_ns - self._last_busy_ns) / capacity)
        self._last_busy_ns = busy_ns

        self.samples += 1
        tracer.telemetry_rows.append(row)
        for field in _COUNTER_FIELDS:
            tracer.counter(field, now, row[field])
        engine.schedule(self.interval_ns, self._sample)


# ------------------------------------------------------------------ output --


def telemetry_fieldnames(rows: List[Dict[str, float]]) -> List[str]:
    """Stable column order: aggregates first, per-core columns after."""
    extras: List[str] = []
    seen = set(TELEMETRY_FIELDS)
    for row in rows:
        for key in row:
            if key not in seen:
                seen.add(key)
                extras.append(key)
    return list(TELEMETRY_FIELDS) + sorted(extras)


def write_telemetry_csv(rows: List[Dict[str, float]], path: str) -> None:
    """Write the sampled series as CSV (one row per sample)."""
    fieldnames = telemetry_fieldnames(rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames,
                                restval=0.0)
        writer.writeheader()
        writer.writerows(rows)


def write_telemetry_json(rows: List[Dict[str, float]], path: str) -> None:
    """Write the sampled series as a JSON list of row objects.

    Goes through :func:`repro.jsonutil.json_safe` so a non-finite
    sample (e.g. an infinite rate from an empty window) serializes as
    ``null`` instead of a non-standard ``Infinity`` token.
    """
    from repro.jsonutil import json_safe

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(json_safe(rows), handle, allow_nan=False)
