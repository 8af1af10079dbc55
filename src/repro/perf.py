"""Profiling subsystem: ``python -m repro profile <experiment>``.

The kernel hot-path work (DESIGN.md §4c) is driven by measurement, not
guesswork; this module packages that measurement loop so regressions
are one command away:

* :func:`profile_experiment` regenerates one paper artifact under
  :mod:`cProfile` — result cache disabled, in-process (``jobs=1``) so
  every simulated event is actually executed and attributed — and
  distils the run into a :class:`ProfileReport`: wall time, kernel
  events/sec, and the top-N hotspots by internal time.
* :meth:`ProfileReport.record` packs it into a
  :class:`~repro.metrics.RunRecord` — what ``--json`` writes and the
  run ledger appends (the sweep and kernel benches below do the same).

Events/sec counts *simulated events retired per wall-clock second*
(see :func:`repro.sim.engine.total_events_executed`), which makes it a
workload-independent figure of merit for the event loop itself; note
that cProfile's instrumentation slows call-heavy code severalfold, so
the events/sec reported here is pessimistic relative to an
unprofiled run (:class:`~repro.core.runner.SimulationResult` carries
the unprofiled per-run value).
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.sim.engine import total_events_executed


@dataclass
class Hotspot:
    """One profile row: a function and where its time went."""

    function: str
    calls: int
    total_s: float        # time inside the function itself (tottime)
    cumulative_s: float   # time including callees (cumtime)


@dataclass
class ProfileReport:
    """Everything one profiled experiment run produced."""

    experiment: str
    scale: str
    wall_seconds: float
    total_calls: int
    events_executed: int
    events_per_second: float
    hotspots: List[Hotspot] = field(default_factory=list)
    config_preset: str = ""  # HarnessScale.name the run resolved to
    warm_wall_seconds: float = 0.0  # cache-warm time excluded from events/s
    backend: str = "scalar"  # repro.sim.vector.BACKENDS member
    #: Vector->scalar fallbacks during the profiled runs, with the
    #: per-reason breakdown from repro.sim.vector.fallback_reasons().
    scalar_fallbacks: int = 0
    fallback_reasons: Dict[str, int] = field(default_factory=dict)

    def format_text(self) -> str:
        lines = [
            f"profile: {self.experiment} (scale={self.scale}, "
            f"backend={self.backend})",
            f"  wall time       {self.wall_seconds:.2f} s (under cProfile; "
            f"+{self.warm_wall_seconds:.2f} s warmup, excluded)",
            f"  kernel events   {self.events_executed:,} "
            f"({self.events_per_second:,.0f} events/s)",
            f"  function calls  {self.total_calls:,}",
        ]
        if self.scalar_fallbacks:
            reasons = "; ".join(f"{reason} x{count}" for reason, count
                                in sorted(self.fallback_reasons.items()))
            lines.append(f"  scalar fallbacks {self.scalar_fallbacks} "
                         f"({reasons})")
        lines.extend([
            "",
            f"  {'calls':>10}  {'tottime':>8}  {'cumtime':>8}  function",
        ])
        for spot in self.hotspots:
            lines.append(
                f"  {spot.calls:>10,}  {spot.total_s:>8.3f}  "
                f"{spot.cumulative_s:>8.3f}  {spot.function}"
            )
        return "\n".join(lines)

    def record(self):
        """This report as a :class:`~repro.metrics.RunRecord`; every
        figure is wall-clock-derived, so every metric is ``info``."""
        from repro.metrics import (  # deferred: import cost
            INFO, MetricSet, make_record,
        )

        metrics = MetricSet()
        for stat in ("events_executed", "events_per_second", "total_calls",
                     "wall_seconds", "warm_wall_seconds",
                     "scalar_fallbacks"):
            metrics.add(f"profile/{stat}", getattr(self, stat), gate=INFO)
        for reason, count in sorted(self.fallback_reasons.items()):
            metrics.add("profile/fallbacks", count, gate=INFO,
                        reason=reason.replace(",", ";"))
        return make_record(
            "profile", experiment=self.experiment, scale=self.scale,
            preset=self.config_preset, backend=self.backend,
            metrics=metrics.as_dict(), policies=metrics.policies(),
            detail=asdict(self), wall_seconds=self.wall_seconds,
            events_per_second=self.events_per_second)


def _function_label(func_key) -> str:
    """Compact ``path:lineno(name)`` label for a pstats function key."""
    filename, lineno, name = func_key
    if filename in ("~", ""):
        return name  # C builtins have no source location
    parts = filename.replace(os.sep, "/").split("/")
    short = "/".join(parts[-3:])
    return f"{short}:{lineno}({name})"


def hotspots_from_stats(stats: pstats.Stats, top: int = 15) -> List[Hotspot]:
    """The ``top`` functions by internal time as :class:`Hotspot` rows."""
    rows = sorted(
        stats.stats.items(),  # type: ignore[attr-defined]
        key=lambda item: item[1][2],  # tottime
        reverse=True,
    )
    return [
        Hotspot(
            function=_function_label(func_key),
            calls=ncalls,
            total_s=tottime,
            cumulative_s=cumtime,
        )
        for func_key, (_cc, ncalls, tottime, cumtime, _callers)
        in rows[:top]
    ]


def profile_experiment(experiment: str, scale: str = "quick",
                       top: int = 15,
                       profiler: Optional[cProfile.Profile] = None,
                       backend: Optional[str] = None) -> ProfileReport:
    """Regenerate ``experiment`` under cProfile and report hotspots.

    The result cache is disabled for the duration (a cache hit would
    profile pickle loads, not the simulator) and runs stay in-process
    (``jobs=1``) so the profiler sees every event.  ``backend`` selects
    the execution backend (scalar/vector) for every run in the
    experiment via ``$REPRO_BACKEND``; the default inherits whatever
    the environment already selects.

    Events/sec is computed over the *kernel* wall time: cache-warm
    seconds (``Runner.warm`` / snapshot restores, tracked by the
    process-wide wall split) are reported separately and excluded —
    warming is dataset construction, not event-loop work, and earlier
    versions understated the event loop by charging it.
    """
    if top < 1:
        raise ReproError("profile needs at least one hotspot row")
    from repro.core.runner import wall_split_totals  # deferred: heavy
    from repro.harness import EXPERIMENTS, resolve_scale  # deferred: heavy
    from repro.sim import vector
    from repro.sim.vector import ENV_VAR, resolve_backend

    try:
        runner = EXPERIMENTS[experiment]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ReproError(
            f"unknown experiment {experiment!r}; known: {known}"
        ) from None
    backend = resolve_backend(backend)

    profiler = profiler if profiler is not None else cProfile.Profile()
    # Disable both caching layers for the duration: a result-cache hit
    # would profile pickle loads, and a warm-state snapshot restore
    # would hide the warmup the profiler is supposed to attribute.
    saved_env = {name: os.environ.get(name)
                 for name in ("REPRO_CACHE", "REPRO_SNAPSHOT", ENV_VAR)}
    os.environ["REPRO_CACHE"] = "0"
    os.environ["REPRO_SNAPSHOT"] = "0"
    os.environ[ENV_VAR] = backend
    events_before = total_events_executed()
    warm_before = wall_split_totals()["warm_seconds"]
    fallbacks_before = vector.stats()["scalar_fallbacks"]
    reasons_before = vector.fallback_reasons()
    wall_start = time.perf_counter()
    try:
        profiler.enable()
        try:
            runner(scale=scale, jobs=1)
        finally:
            profiler.disable()
    finally:
        for name, value in saved_env.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value
    wall_seconds = time.perf_counter() - wall_start
    events = total_events_executed() - events_before
    warm_wall = wall_split_totals()["warm_seconds"] - warm_before
    kernel_wall = max(wall_seconds - warm_wall, 0.0)
    fallbacks = vector.stats()["scalar_fallbacks"] - fallbacks_before
    fallback_reasons = {
        reason: count - reasons_before.get(reason, 0)
        for reason, count in vector.fallback_reasons().items()
        if count - reasons_before.get(reason, 0) > 0
    }

    stats = pstats.Stats(profiler)
    return ProfileReport(
        experiment=experiment,
        scale=scale,
        wall_seconds=kernel_wall,
        total_calls=stats.total_calls,  # type: ignore[attr-defined]
        events_executed=events,
        events_per_second=(events / kernel_wall
                           if kernel_wall > 0 else 0.0),
        hotspots=hotspots_from_stats(stats, top=top),
        config_preset=resolve_scale(scale).name,
        warm_wall_seconds=warm_wall,
        backend=backend,
        scalar_fallbacks=fallbacks,
        fallback_reasons=fallback_reasons,
    )


# ------------------------------------------------------------- sweep bench --

@dataclass
class SweepBench:
    """End-to-end sweep wall time, snapshots off vs on.

    The harness-level companion to the kernel series: kernel events/s
    tracks the event loop, this tracks what :mod:`repro.snapshot`
    amortizes across a sweep (dataset builds, cache warmup).  Three
    timings: snapshots off, the cold on-run that also *builds* the
    snapshots, and the warm on-run that reuses them.  ``speedup`` is
    off/on — the figure the acceptance bar (>= 1.3x) reads.
    """

    experiment: str
    scale: str
    wall_seconds_snapshots_off: float
    wall_seconds_snapshots_cold: float
    wall_seconds_snapshots_on: float
    speedup: float
    config_preset: str = ""

    def record(self):
        """This bench as a :class:`~repro.metrics.RunRecord` (wall
        timings only, so every metric is ``info``)."""
        from repro.metrics import (  # deferred: import cost
            INFO, MetricSet, make_record,
        )

        metrics = MetricSet()
        for stat in ("wall_seconds_snapshots_off",
                     "wall_seconds_snapshots_cold",
                     "wall_seconds_snapshots_on", "speedup"):
            metrics.add(f"sweep/{stat}", getattr(self, stat), gate=INFO)
        return make_record(
            "bench-sweep", experiment=self.experiment, scale=self.scale,
            preset=self.config_preset, metrics=metrics.as_dict(),
            policies=metrics.policies(), detail=asdict(self),
            wall_seconds=(self.wall_seconds_snapshots_off
                          + self.wall_seconds_snapshots_cold
                          + self.wall_seconds_snapshots_on))

    def format_text(self) -> str:
        return "\n".join([
            f"sweep bench: {self.experiment} (scale={self.scale})",
            f"  snapshots off   {self.wall_seconds_snapshots_off:.3f} s",
            f"  snapshots cold  {self.wall_seconds_snapshots_cold:.3f} s "
            "(building snapshot files)",
            f"  snapshots on    {self.wall_seconds_snapshots_on:.3f} s",
            f"  speedup         {self.speedup:.2f}x (off/on)",
        ])


def bench_sweep(experiment: str = "fig1", scale: str = "quick",
                snapshot_dir: Optional[str] = None) -> SweepBench:
    """Time one experiment sweep with snapshots off, cold, and on.

    The result cache is disabled throughout (it would short-circuit the
    runs being timed) and everything stays in-process so the three
    timings are comparable.  Snapshots go to a throwaway directory
    (``snapshot_dir`` or a fresh temp dir) — the bench must not be
    contaminated by, or contaminate, a real snapshot store.
    """
    import shutil
    import tempfile

    from repro import snapshot
    from repro.harness import EXPERIMENTS, resolve_scale  # deferred: heavy

    try:
        runner = EXPERIMENTS[experiment]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ReproError(
            f"unknown experiment {experiment!r}; known: {known}"
        ) from None

    own_tmp = snapshot_dir is None
    directory = snapshot_dir if snapshot_dir is not None \
        else tempfile.mkdtemp(prefix="repro-bench-sweep-")
    # Policy via environment so every experiment participates, whether
    # or not its run() threads explicit snapshot kwargs.
    saved_env = {name: os.environ.get(name)
                 for name in ("REPRO_CACHE", "REPRO_SNAPSHOT",
                              "REPRO_SNAPSHOT_DIR")}
    os.environ["REPRO_CACHE"] = "0"
    os.environ["REPRO_SNAPSHOT_DIR"] = str(directory)
    try:
        def timed(snapshots_on: bool) -> float:
            os.environ["REPRO_SNAPSHOT"] = "1" if snapshots_on else "0"
            start = time.perf_counter()
            runner(scale=scale, jobs=1)
            return time.perf_counter() - start

        t_off = timed(False)
        t_cold = timed(True)
        # Drop the in-process memo so the warm run exercises the real
        # restore path (memo repopulates from the snapshot files).
        snapshot.SnapshotStore.clear_memo()
        t_on = timed(True)
    finally:
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        if own_tmp:
            shutil.rmtree(directory, ignore_errors=True)

    return SweepBench(
        experiment=experiment,
        scale=scale,
        wall_seconds_snapshots_off=t_off,
        wall_seconds_snapshots_cold=t_cold,
        wall_seconds_snapshots_on=t_on,
        speedup=(t_off / t_on if t_on > 0 else 0.0),
        config_preset=resolve_scale(scale).name,
    )


# ------------------------------------------------------------ kernel bench --

#: Kernel-bench request length (arrayswap ``ops_per_job``).  Long
#: requests keep the bench inside the batch-execution kernel rather
#: than per-request bookkeeping; 48 ops = 192 steps per request.
KERNEL_BENCH_OPS_PER_JOB = 48

#: The kernel bench runs a measurement window this many times the
#: harness scale's: steady-state events/s needs enough steps for the
#: fixed per-run costs (RNG bridge, planning probe) to amortize.
KERNEL_BENCH_WINDOW_FACTOR = 4.0

#: Per-shape vector/scalar speedup floor the bench's record gates on.
#: The merged loop measures 1.9-2.9x on a 2-vCPU VM, so the margin is
#: thin on slow hosts.
KERNEL_SPEEDUP_FLOOR = 2.0


@dataclass
class KernelBackendEntry:
    """One backend's timed kernel run (best-of-``repeat`` wall)."""

    backend: str
    wall_seconds: float
    events_executed: int
    events_per_second: float
    state_fingerprint: str
    vector_stats: Dict[str, int] = field(default_factory=dict)
    #: Vector->scalar fallbacks this entry's runs recorded, by reason
    #: (empty for the scalar backend and for clean vector runs).
    fallback_reasons: Dict[str, int] = field(default_factory=dict)


#: The run shapes ``bench-kernel`` times, in bench order.  All three
#: run the vector backend's merged loop on DRAM-only: ``fused`` one
#: closed-loop core, ``open-loop`` one core behind Poisson arrivals,
#: ``multi-core`` two closed-loop cores in lockstep.
KERNEL_BENCH_SHAPES = ("fused", "open-loop", "multi-core")

#: Shape name -> (config preset, cores, arrival process).
_SHAPE_SETUPS = {
    "fused": ("dram-only", 1, "closed"),
    "open-loop": ("dram-only", 1, "poisson"),
    "multi-core": ("dram-only", 2, "closed"),
}


@dataclass
class KernelShapeBench:
    """One run shape's backend entries + bit-identity verdict."""

    shape: str            # KERNEL_BENCH_SHAPES member
    workload: str
    config_preset: str
    num_cores: int
    arrival: str          # "closed" or "poisson"
    entries: List[KernelBackendEntry] = field(default_factory=list)
    bit_identical: Optional[bool] = None  # None until both backends ran
    speedup: Optional[float] = None       # vector/scalar events-per-sec

    def entry(self, backend: str) -> KernelBackendEntry:
        for item in self.entries:
            if item.backend == backend:
                return item
        raise ReproError(
            f"no {backend!r} entry in the {self.shape!r} shape cell")


@dataclass
class KernelBench:
    """Scalar-vs-vector kernel throughput across the pinned run shapes.

    Every shape cell runs closed or open-loop arrayswap with long
    requests (:data:`KERNEL_BENCH_OPS_PER_JOB`) and a widened
    measurement window (:data:`KERNEL_BENCH_WINDOW_FACTOR`) on the
    preset/core-count/arrival combination its vector loop kind pins
    (see :data:`KERNEL_BENCH_SHAPES`).  Both backends replay the
    identical simulation — per-shape ``bit_identical`` asserts the
    ``state_fingerprint`` and deterministic result fields match — so
    per-shape ``speedup`` (vector/scalar events-per-second) is
    apples-to-apples.
    """

    workload: str
    scale: str
    config_preset: str
    ops_per_job: int
    repeat: int
    shapes: List[KernelShapeBench] = field(default_factory=list)

    def shape(self, name: str) -> KernelShapeBench:
        for cell in self.shapes:
            if cell.shape == name:
                return cell
        raise ReproError(f"no {name!r} shape cell in this kernel bench")

    def format_text(self) -> str:
        lines = [
            f"kernel bench: {self.workload} "
            f"(scale={self.scale}, ops_per_job={self.ops_per_job}, "
            f"best of {self.repeat})",
        ]
        for cell in self.shapes:
            lines.append(
                f"  shape {cell.shape} ({cell.config_preset}, "
                f"{cell.num_cores} core(s), {cell.arrival}):")
            for item in cell.entries:
                lines.append(
                    f"    {item.backend:<7} "
                    f"{item.wall_seconds * 1e3:8.2f} ms   "
                    f"{item.events_executed:>10,} events   "
                    f"{item.events_per_second:>12,.0f} events/s"
                )
                if item.fallback_reasons:
                    reasons = "; ".join(
                        f"{reason} x{count}" for reason, count
                        in sorted(item.fallback_reasons.items()))
                    lines.append(f"            scalar fallbacks: "
                                 f"{reasons}")
            if cell.bit_identical is not None:
                lines.append(f"    bit-identical   {cell.bit_identical}")
            if cell.speedup is not None:
                lines.append(f"    speedup         {cell.speedup:.2f}x "
                             "(vector/scalar events per second)")
        return "\n".join(lines)

    def record(self):
        """This bench as a :class:`~repro.metrics.RunRecord`.

        Per shape, bit-identity and events executed gate ``exact``,
        vector fallbacks are pinned at their baseline (0), the speedup
        gates at :data:`KERNEL_SPEEDUP_FLOOR`, and wall figures are
        ``info``.  The fingerprint digests every shape's scalar
        ``state_fingerprint``.
        """
        from repro.metrics import (  # deferred: import cost
            EXACT, INFO, MetricSet, make_record, payload_digest,
        )

        metrics = MetricSet()
        entries = []
        for cell in self.shapes:
            shape = cell.shape
            if cell.bit_identical is not None:
                metrics.add("kernel/bit_identical",
                            float(cell.bit_identical), gate=EXACT,
                            shape=shape)
            metrics.add("kernel/speedup", cell.speedup,
                        gate={"mode": "floor", "min": KERNEL_SPEEDUP_FLOOR},
                        shape=shape)
            for entry in cell.entries:
                entries.append(entry)
                labels = {"backend": entry.backend, "shape": shape}
                metrics.add("kernel/events_executed",
                            entry.events_executed, gate=EXACT, **labels)
                metrics.add("kernel/events_per_second",
                            entry.events_per_second, gate=INFO, **labels)
                metrics.add("kernel/wall_seconds", entry.wall_seconds,
                            gate=INFO, **labels)
                for stat, value in entry.vector_stats.items():
                    metrics.add(f"vector/{stat}", value, gate=INFO,
                                **labels)
                if entry.backend == "vector":
                    metrics.add("kernel/scalar_fallbacks",
                                entry.vector_stats["scalar_fallbacks"],
                                gate=EXACT, shape=shape)
        scalar_prints = [entry.state_fingerprint for entry in entries
                         if entry.backend == "scalar"]
        wall = sum(entry.wall_seconds for entry in entries)
        events = sum(entry.events_executed for entry in entries)
        return make_record(
            "bench-kernel", scale=self.scale, preset=self.config_preset,
            workload=self.workload,
            backend=",".join(dict.fromkeys(e.backend for e in entries)),
            metrics=metrics.as_dict(), policies=metrics.policies(),
            detail=asdict(self),
            fingerprint=payload_digest(scalar_prints) if scalar_prints
            else "",
            wall_seconds=wall,
            events_per_second=events / wall if wall > 0 else 0.0)


#: SimulationResult fields that depend on wall clock or warm-state
#: provenance; everything else must match bit-for-bit across backends.
_NONDETERMINISTIC_RESULT_FIELDS = (
    "events_per_second", "wall_seconds", "warm_wall_seconds", "warm_source",
)


def canonical_result_dict(result) -> Dict[str, object]:
    """``result`` as a dict with the wall-clock-dependent fields
    removed — the cross-backend bit-identity comparison surface."""
    payload = dict(result.__dict__)
    for name in _NONDETERMINISTIC_RESULT_FIELDS:
        payload.pop(name, None)
    return payload


def bench_kernel(scale: str = "quick",
                 backends: Sequence[str] = ("scalar", "vector"),
                 repeat: int = 3,
                 ops_per_job: int = KERNEL_BENCH_OPS_PER_JOB,
                 shapes: Optional[Sequence[str]] = None) -> KernelBench:
    """Time the execution kernel on each backend, per run shape.

    Each timed run builds a fresh workload and runner (simulation state
    is single-use), executes once, and keeps the best-of-``repeat``
    wall.  Events/s uses the runner's own measurement wall, which
    excludes warmup by construction.  When both backends run, the
    fingerprints and deterministic result fields are compared on
    *every* repeat — a single divergent run fails the bench rather
    than averaging away.  ``shapes`` restricts the benched cells
    (default: all of :data:`KERNEL_BENCH_SHAPES`).
    """
    from repro.config import make_config  # deferred: heavy
    from repro.core import Runner
    from repro.harness import resolve_scale
    from repro.sim import vector
    from repro.units import US
    from repro.workloads import PoissonArrivals, make_workload

    if repeat < 1:
        raise ReproError("kernel bench needs at least one repeat")
    for name in backends:
        vector.resolve_backend(name)  # validate early
    shapes = tuple(shapes) if shapes is not None else KERNEL_BENCH_SHAPES
    if not shapes:
        raise ReproError("kernel bench needs at least one shape")
    for name in shapes:
        if name not in _SHAPE_SETUPS:
            known = ", ".join(KERNEL_BENCH_SHAPES)
            raise ReproError(
                f"unknown kernel bench shape {name!r}; known: {known}")

    harness_scale = resolve_scale(scale)

    def one_run(shape: str, backend: str):
        preset, num_cores, arrival = _SHAPE_SETUPS[shape]
        config = make_config(preset)
        config.num_cores = num_cores
        config.scale.dataset_pages = harness_scale.dataset_pages
        config.scale.warmup_ns = harness_scale.warmup_us * US
        config.scale.measurement_ns = (harness_scale.measurement_us
                                       * KERNEL_BENCH_WINDOW_FACTOR * US)
        workload = make_workload("arrayswap", harness_scale.dataset_pages,
                                 seed=42, zipf_s=harness_scale.zipf_s,
                                 ops_per_job=ops_per_job)
        arrivals = None
        if arrival == "poisson":
            # Per-core mean interarrival scaled to the request length:
            # a moderately loaded open queue — busy cores with a live
            # backlog, but arrivals still interleave the event horizon.
            arrivals = PoissonArrivals(ops_per_job * 1000.0, seed=43)
        runner = Runner(config, workload, arrivals=arrivals,
                        backend=backend)
        before = total_events_executed()
        result = runner.run()
        events = total_events_executed() - before
        return (result, events, runner.machine.state_fingerprint())

    def bench_shape(shape: str) -> KernelShapeBench:
        preset, num_cores, arrival = _SHAPE_SETUPS[shape]
        cell = KernelShapeBench(
            shape=shape,
            workload="arrayswap",
            config_preset=preset,
            num_cores=num_cores,
            arrival=arrival,
        )
        baseline = None  # (fingerprint, canonical) of the first run
        identical = True
        for backend in backends:
            best_wall = None
            events = 0
            fingerprint = ""
            stats_before = vector.stats()
            reasons_before = vector.fallback_reasons()
            for _ in range(repeat):
                result, events, fingerprint = one_run(shape, backend)
                wall = result.wall_seconds
                best_wall = (wall if best_wall is None
                             else min(best_wall, wall))
                canonical = canonical_result_dict(result)
                if baseline is None:
                    baseline = (fingerprint, canonical)
                elif (fingerprint, canonical) != baseline:
                    identical = False
            stats_after = vector.stats()
            reasons_after = vector.fallback_reasons()
            cell.entries.append(KernelBackendEntry(
                backend=backend,
                wall_seconds=best_wall,
                events_executed=events,
                events_per_second=(events / best_wall
                                   if best_wall > 0 else 0.0),
                state_fingerprint=fingerprint,
                vector_stats={
                    key: stats_after[key] - stats_before.get(key, 0)
                    for key in stats_after} if backend == "vector"
                else {},
                fallback_reasons={
                    reason: count - reasons_before.get(reason, 0)
                    for reason, count in reasons_after.items()
                    if count - reasons_before.get(reason, 0) > 0
                } if backend == "vector" else {},
            ))
        if len(cell.entries) >= 2:
            cell.bit_identical = identical
            try:
                scalar_eps = cell.entry("scalar").events_per_second
                vector_eps = cell.entry("vector").events_per_second
            except ReproError:
                pass  # exotic backend list; ratio undefined
            else:
                cell.speedup = (vector_eps / scalar_eps
                                if scalar_eps > 0 else 0.0)
        return cell

    return KernelBench(
        workload="arrayswap",
        scale=harness_scale.name,
        config_preset=_SHAPE_SETUPS[shapes[0]][0],
        ops_per_job=ops_per_job,
        repeat=repeat,
        shapes=[bench_shape(name) for name in shapes],
    )
