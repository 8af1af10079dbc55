"""Chaos sweeps: degradation curves under injected flash faults.

``python -m repro chaos <experiment> --rber-sweep 0,2e-3,8e-3`` reruns
an experiment's flash-backed presets across injected raw bit error
rates and reports how throughput and p99 service latency degrade, the
resilience analogue of the paper's tail-latency figures.  Fault knobs
are not part of the warm key (faults fire only on reads, and warm-up
never runs the engine), so a preset's cells share one warm payload.

The swept variable is the RBER; the transient-timeout probability is
twice it (at most 0.25), and slow planes (one in 16) and wear coupling
switch on at every faulted point.  The rber = 0 point runs with faults
*disabled*: the clean baseline the curve hangs off.  One fixed
``fault_seed`` gives two runs the same curves and record fingerprint.
"""

from __future__ import annotations

import dataclasses
from operator import itemgetter
from typing import Optional, Tuple

from repro.harness.common import resolve_scale
from repro.harness.parallel import RunSpec
from repro.harness.sweep import (
    Column, Gate, Sweep, SweepResult, default_workload,
    experiment_presets, parse_points, run_sweep,
)

#: Presets used when an experiment module exposes no ``CONFIGS`` tuple.
DEFAULT_PRESETS: Tuple[str, ...] = ("astriflash", "flash-sync")

#: Default sweep: clean baseline versus a retry-storm error rate.  The
#: two points are deliberately far apart so the degradation signal
#: dwarfs scheduling noise for every preset — the monotone-p99 property
#: the record gates on.  Dense curves (``--rber-sweep 0,2e-3,4e-3,8e-3``) are
#: exploratory: around the degradation threshold, marking a plane
#: failing reroutes its reads to the uncontended mirror, which can
#: *flatten or heal* the tail between mid and high fault rates.
DEFAULT_RBER_SWEEP = "0,8e-3"

#: Fault counters lifted out of ``SimulationResult.counters`` per cell.
FAULT_COUNTER_KEYS: Tuple[str, ...] = (
    "flash.read_retries",
    "flash.ecc_recovered_reads",
    "flash.uncorrectable_reads",
    "flash.timeout_stalls",
    "flash.slow_plane_reads",
    "flash.degraded_reads",
    "flash.bc_timeouts",
    "flash.bc_reissues",
    "flash.bc_uncorrectable_replies",
    "flash.bc_fault_stall_ns",
)


def fault_overrides(rber: float, fault_seed: int
                    ) -> Tuple[Tuple[str, object], ...]:
    """Config overrides for one faulted sweep point.

    ``rber = 0`` returns no overrides: the clean baseline runs with
    faults disabled so its stats are bit-identical to a normal run.
    """
    if rber == 0.0:
        return ()
    return (
        ("faults.enabled", True),
        ("faults.seed", fault_seed),
        ("faults.rber", rber),
        ("faults.timeout_probability", min(0.25, rber * 2.0)),
        ("faults.slow_plane_fraction", 1.0 / 16.0),
        ("faults.wear_rber_factor", 0.05),
    )


def _read(result) -> dict:
    """A cell's columns; a run that raised (DeviceFailedError: the
    reissue cap was hit) leaves the device modelled as dead."""
    if result is None:
        return {"throughput_jobs_per_s": 0.0, "service_p99_ns": 0.0,
                "service_mean_ns": 0.0, "fault_counters": {}}
    return {
        "throughput_jobs_per_s": result.throughput_jobs_per_s,
        "service_p99_ns": result.service_p99_ns,
        "service_mean_ns": result.service_mean_ns,
        "fault_counters": {key: result.counters[key]
                           for key in FAULT_COUNTER_KEYS
                           if key in result.counters},
    }


def _counter(key: str):
    return lambda cell: cell["fault_counters"].get(key, 0.0)


#: The chaos table and record: monotone p99 and per-cell device failure
#: gate ``exact``, fault counters are ``info``.
CHAOS = Sweep(
    verb="chaos",
    head=("chaos sweep: {experiment} (scale={scale}, "
          "workload={workload}, fault_seed={fault_seed})",
          "  p99 monotone across sweep: {gate}"),
    gate=Gate("monotonic_p99", "service_p99_ns"),
    columns=(
        Column("rber", 8, ">8.1e", itemgetter("rber")),
        Column("jobs/s", 10, ">10,.0f", itemgetter("throughput_jobs_per_s")),
        Column("p99 us", 9, ">9.1f",
               lambda cell: cell["service_p99_ns"] / 1000.0),
        Column("retries", 8, ">8.0f", _counter("flash.read_retries")),
        Column("timeouts", 8, ">8.0f", _counter("flash.bc_timeouts")),
        Column("reissues", 8, ">8.0f", _counter("flash.bc_reissues")),
        Column("degraded", 8, ">8.0f", _counter("flash.degraded_reads")),
    ),
    metrics=(("service_p99_ns", ""), ("service_mean_ns", ""),
             ("throughput_jobs_per_s", ""), ("fault_counters", "info")),
    labels=(("rber", "rber"),),
    failed="device failed",
    read=_read,
)


def run_chaos(experiment: str = "fig9", scale="quick",
              rber_sweep: Optional[str] = None,
              fault_seed: int = 0xF1A5, workload: Optional[str] = None,
              jobs: Optional[int] = None) -> SweepResult:
    """Sweep injected fault rates over the experiment's flash-backed
    presets and build the degradation curves."""
    scale = resolve_scale(scale)
    rber_points = parse_points(
        DEFAULT_RBER_SWEEP if rber_sweep is None else rber_sweep,
        "rber", "[0, 1)")
    presets = experiment_presets(experiment, DEFAULT_PRESETS,
                                 drop="dram-only")
    workload = workload or default_workload(scale)

    def spec(preset: str, point) -> RunSpec:
        return RunSpec(preset, workload, scale, config_overrides=(
            fault_overrides(point["rber"], fault_seed)))

    return run_sweep(dataclasses.replace(
        CHAOS,
        about=(("experiment", experiment), ("scale", scale.name),
               ("workload", workload), ("fault_seed", fault_seed),
               ("rber_points", list(rber_points)),
               ("presets", list(presets))),
        points=tuple({"rber": rber} for rber in rber_points),
        spec=spec, seed=fault_seed, config_preset=scale.name,
    ), jobs=jobs)
