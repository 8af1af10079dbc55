"""Chaos sweeps: degradation curves under injected flash faults.

``python -m repro chaos <experiment> --rber-sweep 0,2e-3,8e-3`` reruns
an experiment's flash-backed presets across a range of injected raw bit
error rates and reports how throughput and p99 service latency degrade
— the resilience analogue of the paper's tail-latency figures.  Each
``(preset, rber)`` cell is one independent simulation, so the whole
grid fans out through :mod:`repro.harness.parallel` and shares warm-
state snapshots (fault knobs are not part of the warm key: faults only
fire on reads, and warmup never runs the engine).

Severity coupling: the swept variable is the RBER; transient-timeout
probability scales with it (``timeout_coupling``), slow planes and
wear coupling switch on for every faulted point.  The rber = 0 point
runs with faults *disabled* — the clean baseline the curve hangs off.

Determinism: every cell uses the same simulation seed and one fixed
``fault_seed``, so two invocations produce identical curves — and
identical record fingerprints, which is what CI's rerun gates on.
"""

from __future__ import annotations

import importlib
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.harness.common import resolve_scale
from repro.harness.parallel import (
    ParallelRunError,
    RunSpec,
    execute_spec,
    run_specs,
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
DEFAULT_RBER_POINTS: Tuple[float, ...] = (0.0, 8e-3)

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


@dataclass
class ChaosCell:
    """One (preset, rber) point of the degradation grid."""

    preset: str
    rber: float
    throughput_jobs_per_s: float = 0.0
    service_p99_ns: float = 0.0
    service_mean_ns: float = 0.0
    fault_counters: dict = field(default_factory=dict)
    #: True when the run surfaced DeviceFailedError (reissue cap hit):
    #: the device is modelled as dead at this fault rate.
    failed: bool = False


@dataclass
class ChaosBench:
    """Everything one chaos sweep produced."""

    experiment: str
    scale: str
    workload: str
    fault_seed: int
    rber_points: List[float]
    presets: List[str]
    cells: List[ChaosCell]
    #: True iff every preset's p99 series is non-decreasing across the
    #: rber points (failed cells excluded) — the acceptance property.
    monotonic_p99: bool = True
    config_preset: str = ""  # HarnessScale.name the run resolved to

    def curve(self, preset: str) -> List[ChaosCell]:
        """The preset's cells in sweep order."""
        return [cell for cell in self.cells if cell.preset == preset]

    def format_text(self) -> str:
        lines = [
            f"chaos sweep: {self.experiment} (scale={self.scale}, "
            f"workload={self.workload}, fault_seed={self.fault_seed})",
            f"  p99 monotone across sweep: "
            f"{'yes' if self.monotonic_p99 else 'NO'}",
        ]
        for preset in self.presets:
            lines.append(f"  {preset}:")
            lines.append(
                f"    {'rber':>8}  {'jobs/s':>10}  {'p99 us':>9}  "
                f"{'retries':>8}  {'timeouts':>8}  {'reissues':>8}  "
                f"{'degraded':>8}"
            )
            for cell in self.curve(preset):
                if cell.failed:
                    lines.append(
                        f"    {cell.rber:>8.1e}  {'device failed':>10}"
                    )
                    continue
                counters = cell.fault_counters
                lines.append(
                    f"    {cell.rber:>8.1e}  "
                    f"{cell.throughput_jobs_per_s:>10,.0f}  "
                    f"{cell.service_p99_ns / 1000.0:>9.1f}  "
                    f"{counters.get('flash.read_retries', 0.0):>8.0f}  "
                    f"{counters.get('flash.bc_timeouts', 0.0):>8.0f}  "
                    f"{counters.get('flash.bc_reissues', 0.0):>8.0f}  "
                    f"{counters.get('flash.degraded_reads', 0.0):>8.0f}"
                )
        return "\n".join(lines)

    def record(self):
        """This sweep as a :class:`~repro.metrics.RunRecord`: monotone
        p99 and per-cell device failure gate ``exact``, fault counters
        are ``info``, and the fingerprint pins every simulated figure."""
        from repro.metrics import (  # deferred: import cost
            EXACT, INFO, MetricSet, make_record, payload_digest,
        )

        metrics = MetricSet()
        metrics.add("chaos/monotonic_p99", float(self.monotonic_p99),
                    gate=EXACT)
        for cell in self.cells:
            labels = {"preset": cell.preset, "rber": format(cell.rber, "g")}
            metrics.add("chaos/failed", float(cell.failed), gate=EXACT,
                        **labels)
            if cell.failed:
                continue
            for stat in ("service_p99_ns", "service_mean_ns",
                         "throughput_jobs_per_s"):
                metrics.add(f"chaos/{stat}", getattr(cell, stat), **labels)
            for counter, value in cell.fault_counters.items():
                metrics.add(f"chaos/{counter.replace('.', '/')}", value,
                            gate=INFO, **labels)
        detail = asdict(self)
        return make_record(
            "chaos", experiment=self.experiment, scale=self.scale,
            preset=self.config_preset, workload=self.workload,
            seed=self.fault_seed, metrics=metrics.as_dict(),
            policies=metrics.policies(), detail=detail,
            fingerprint=payload_digest(detail))


def parse_rber_sweep(text: str) -> Tuple[float, ...]:
    """Parse a ``--rber-sweep`` comma list into sorted unique floats."""
    points = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            raise ReproError(f"bad rber sweep point {token!r}") from None
        if not 0.0 <= value < 1.0:
            raise ReproError(f"rber sweep point {value} outside [0, 1)")
        points.append(value)
    if not points:
        raise ReproError("rber sweep needs at least one point")
    return tuple(sorted(set(points)))


def fault_overrides(rber: float, fault_seed: int,
                    timeout_coupling: float = 2.0,
                    slow_plane_fraction: float = 1.0 / 16.0,
                    wear_rber_factor: float = 0.05,
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
        ("faults.timeout_probability", min(0.25, rber * timeout_coupling)),
        ("faults.slow_plane_fraction", slow_plane_fraction),
        ("faults.wear_rber_factor", wear_rber_factor),
    )


def _experiment_presets(experiment: str) -> Tuple[str, ...]:
    """Flash-backed presets for ``experiment`` (its ``CONFIGS`` tuple
    minus dram-only, falling back to :data:`DEFAULT_PRESETS`)."""
    from repro.harness import EXPERIMENTS  # deferred: heavy

    if experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ReproError(
            f"unknown experiment {experiment!r}; known: {known}"
        )
    module = importlib.import_module(f"repro.harness.{experiment}")
    configs = getattr(module, "CONFIGS", None)
    if not configs:
        return DEFAULT_PRESETS
    flash_backed = tuple(name for name in configs if name != "dram-only")
    return flash_backed or DEFAULT_PRESETS


def _check_monotonic(bench: ChaosBench) -> bool:
    for preset in bench.presets:
        last = None
        for cell in bench.curve(preset):
            if cell.failed:
                continue
            if last is not None and cell.service_p99_ns < last:
                return False
            last = cell.service_p99_ns
    return True


def run_chaos(experiment: str = "fig9", scale="quick",
              rber_points: Optional[Sequence[float]] = None,
              fault_seed: int = 0xF1A5, seed: int = 42,
              workload: Optional[str] = None,
              presets: Optional[Sequence[str]] = None,
              jobs: Optional[int] = None,
              snapshots: Optional[bool] = None,
              snapshot_dir=None) -> ChaosBench:
    """Sweep injected fault rates and build the degradation curves."""
    scale = resolve_scale(scale)
    if rber_points is None:
        rber_points = DEFAULT_RBER_POINTS
    rber_points = tuple(sorted(set(float(p) for p in rber_points)))
    if presets is None:
        presets = _experiment_presets(experiment)
    presets = tuple(presets)
    if workload is None:
        workload = "tatp" if "tatp" in scale.workloads \
            else scale.workloads[0]

    grid = [(preset, rber) for preset in presets for rber in rber_points]
    specs = [
        RunSpec(preset, workload, scale, seed=seed,
                config_overrides=fault_overrides(rber, fault_seed))
        for preset, rber in grid
    ]
    try:
        results = run_specs(specs, jobs=jobs, snapshots=snapshots,
                            snapshot_dir=snapshot_dir)
    except ParallelRunError:
        # Some point of the grid died (DeviceFailedError at an extreme
        # fault rate).  Re-run cell by cell so the surviving points
        # still produce a curve and the dead ones are marked.
        results = []
        for spec in specs:
            try:
                results.append(execute_spec(spec, snapshots=snapshots,
                                            snapshot_dir=snapshot_dir))
            except ReproError:
                results.append(None)

    cells = []
    for (preset, rber), result in zip(grid, results):
        if result is None:
            cells.append(ChaosCell(preset=preset, rber=rber, failed=True))
            continue
        counters = {
            key: result.counters[key]
            for key in FAULT_COUNTER_KEYS if key in result.counters
        }
        cells.append(ChaosCell(
            preset=preset,
            rber=rber,
            throughput_jobs_per_s=result.throughput_jobs_per_s,
            service_p99_ns=result.service_p99_ns,
            service_mean_ns=result.service_mean_ns,
            fault_counters=counters,
        ))

    bench = ChaosBench(
        experiment=experiment,
        scale=scale.name,
        workload=workload,
        fault_seed=fault_seed,
        rber_points=list(rber_points),
        presets=list(presets),
        cells=cells,
        config_preset=scale.name,
    )
    bench.monotonic_p99 = _check_monotonic(bench)
    return bench
