"""The loadgen sweep driver: offered-QPS grids and knee curves.

``python -m repro loadgen <experiment> --qps-sweep LO:HI:N`` sweeps
offered load across an experiment's config presets and reports, per
preset, the latency-vs-load curve plus the sustained-QPS-under-SLO
knee (TailBench methodology; the paper's Fig. 10 lens).  Each
``(preset, qps)`` cell is one independent open-loop simulation, so the
grid fans out through :mod:`repro.harness.parallel`, sharing the
process's datasets and warm payloads and the stored results.

Conventions this layer owns:

* **Rates are aggregate.**  Users think in machine QPS; the runner's
  arrival processes are per-core (one stream per core, all sharing a
  single process object — see :mod:`repro.workloads.arrival`).  The
  conversion ``per_core_mean_ns = num_cores / qps * 1e9`` happens in
  :func:`_arrival_spec` and nowhere downstream.
* **Censored cells never report a raw p99.**  A cell whose
  unfinished-job backlog exceeds ``backlog_threshold`` had its tail
  censored by the measurement window; its headline p99 is withheld
  (the right-censoring lower bound is reported instead) and the cell
  conservatively counts as an SLO violation.
* **SLO default.**  ``40 x`` the DRAM-only mean service time — the
  Sec. III-A convention :func:`repro.harness.fig3.max_load_within_slo`
  already uses.

Determinism: fixed seeds, simulation-derived fields only (no wall
clock), and a deterministic bisection, so two invocations of the same
sweep produce bit-identical ``BENCH_loadgen.json`` — the CI acceptance
bar.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.faults.chaos import fault_overrides
from repro.harness import parallel
from repro.harness.common import resolve_scale
from repro.harness.parallel import RunSpec, run_spec, run_specs
from repro.loadgen.knee import (
    ABOVE_RANGE,
    BELOW_RANGE,
    GRID,
    solve_knee,
)
from repro.loadgen.schema import (
    DEFAULT_BACKLOG_THRESHOLD,
    KneeEvalPoint,
    LoadgenBench,
    LoadgenCell,
    PresetKnee,
)
from repro.units import US

#: Default sweep: 30%..95% of the DRAM-only saturation throughput,
#: five points — brackets the knee for every preset without burning
#: cells deep inside the flat region.
DEFAULT_QPS_SWEEP = "0.3x:0.95x:5"

#: Default SLO: this multiple of the DRAM-only mean service time
#: (fig3's ``max_load_within_slo`` convention, Sec. III-A).
DEFAULT_SLO_SERVICE_FACTOR = 40.0

#: Fallback presets when the experiment module exposes no ``CONFIGS``.
DEFAULT_PRESETS: Tuple[str, ...] = ("dram-only", "astriflash")

# Bursty/diurnal arrival shapes (see _arrival_spec).  The MMPP cycle
# sits well inside the quick measurement window so every run sees
# multiple burst episodes; the diurnal period matches half the quick
# window for one full peak-trough swing.
MMPP_BURST_RATIO = 4.0        # burst-state rate / normal-state rate
MMPP_BURST_FRACTION = 0.1     # stationary fraction of time in burst
MMPP_CYCLE_NS = 400.0 * US    # mean dwell cycle (normal + burst)
DIURNAL_PERIOD_NS = 1_000.0 * US
DIURNAL_AMPLITUDE = 0.5

ARRIVAL_KINDS = ("poisson", "mmpp", "diurnal")


# ------------------------------------------------------------- qps grids --


@dataclass(frozen=True)
class QpsSweep:
    """A parsed ``LO:HI:N`` sweep request.

    Endpoints carry an optional ``x`` suffix marking them *relative*
    (a fraction of the DRAM-only saturation throughput, resolved once
    the saturation run has executed); bare numbers are absolute QPS.
    """

    lo: float
    hi: float
    points: int
    lo_relative: bool = False
    hi_relative: bool = False

    def resolve(self, saturation_qps: float) -> Tuple[float, ...]:
        """The absolute QPS grid, ``points`` evenly spaced loads."""
        lo = self.lo * saturation_qps if self.lo_relative else self.lo
        hi = self.hi * saturation_qps if self.hi_relative else self.hi
        if lo <= 0 or hi < lo:
            raise ConfigurationError(
                f"qps sweep resolves to bad range [{lo:.1f}, {hi:.1f}]"
            )
        if self.points == 1:
            return (lo,)
        step = (hi - lo) / (self.points - 1)
        return tuple(lo + i * step for i in range(self.points))


def _parse_endpoint(token: str) -> Tuple[float, bool]:
    relative = token.endswith(("x", "X"))
    if relative:
        token = token[:-1]
    try:
        value = float(token)
    except ValueError:
        raise ReproError(f"bad qps sweep endpoint {token!r}") from None
    if value <= 0:
        raise ReproError(f"qps sweep endpoint {value} must be positive")
    if relative and value > 2.0:
        raise ReproError(
            f"relative sweep endpoint {value}x exceeds 2x saturation"
        )
    return value, relative


def parse_qps_sweep(text: str) -> QpsSweep:
    """Parse ``LO:HI:N`` (endpoints optionally ``x``-suffixed as
    fractions of DRAM-only saturation, e.g. ``0.3x:0.95x:5``)."""
    parts = [part.strip() for part in text.split(":")]
    if len(parts) != 3:
        raise ReproError(
            f"qps sweep {text!r} must be LO:HI:N (e.g. {DEFAULT_QPS_SWEEP})"
        )
    lo, lo_relative = _parse_endpoint(parts[0])
    hi, hi_relative = _parse_endpoint(parts[1])
    try:
        points = int(parts[2])
    except ValueError:
        raise ReproError(f"bad qps sweep point count {parts[2]!r}") from None
    if points < 1:
        raise ReproError("qps sweep needs at least one point")
    if points > 64:
        raise ReproError("qps sweep capped at 64 points")
    if lo_relative == hi_relative and hi < lo:
        raise ReproError(f"qps sweep {text!r} has HI < LO")
    return QpsSweep(lo, hi, points, lo_relative, hi_relative)


# -------------------------------------------------------- arrival shapes --


def _arrival_spec(kind: str, qps: float, num_cores: int,
                  seed: int) -> Tuple:
    """Picklable arrival spec offering an *aggregate* load of ``qps``.

    This is the aggregate -> per-core conversion boundary: each core
    runs its own arrival stream, so the per-stream mean gap is
    ``num_cores / qps`` seconds.  The modulated shapes pass
    ``streams=num_cores`` so their shared dwell/period clocks track
    machine time rather than eroding N times too fast.
    """
    if qps <= 0:
        raise ConfigurationError(f"offered load must be positive: {qps}")
    per_core_mean_ns = num_cores / qps * 1e9
    if kind == "poisson":
        return parallel.poisson(per_core_mean_ns, seed=seed + 1)
    if kind == "mmpp":
        # Pick the normal-state gap so the *stationary* rate matches
        # the requested load: rate = (f0 + f1*ratio) / normal_gap.
        burst_dwell_ns = MMPP_CYCLE_NS * MMPP_BURST_FRACTION
        mean_dwell_ns = MMPP_CYCLE_NS - burst_dwell_ns
        normal_gap_ns = per_core_mean_ns * (
            (1.0 - MMPP_BURST_FRACTION)
            + MMPP_BURST_FRACTION * MMPP_BURST_RATIO
        )
        return parallel.mmpp(
            normal_gap_ns, normal_gap_ns / MMPP_BURST_RATIO,
            mean_dwell_ns, burst_dwell_ns, seed=seed + 1,
            streams=num_cores,
        )
    if kind == "diurnal":
        return parallel.diurnal(
            per_core_mean_ns, DIURNAL_PERIOD_NS, DIURNAL_AMPLITUDE,
            seed=seed + 1, streams=num_cores,
        )
    known = ", ".join(ARRIVAL_KINDS)
    raise ConfigurationError(
        f"unknown arrival kind {kind!r}; known: {known}"
    )


# ----------------------------------------------------------------- cells --


def _make_cell(preset: str, qps: float, result,
               slo_ns: float, backlog_threshold: float) -> LoadgenCell:
    """One simulation result -> one schema cell, censoring applied."""
    censored = result.backlog_fraction > backlog_threshold
    observed_p99 = result.response_p99_ns
    lower_bound = result.response_p99_lower_bound_ns
    if censored:
        p99_ns = None       # the window cannot certify this tail
        meets = False       # conservatively an SLO violation
    else:
        p99_ns = observed_p99
        meets = observed_p99 is not None and observed_p99 <= slo_ns
    return LoadgenCell(
        preset=preset,
        offered_qps=qps,
        achieved_qps=result.throughput_jobs_per_s,
        completed_jobs=result.completed_jobs,
        unfinished_jobs=result.unfinished_jobs,
        backlog_fraction=result.backlog_fraction,
        censored=censored,
        p99_us=None if p99_ns is None else p99_ns / US,
        observed_p99_us=(None if observed_p99 is None
                         else observed_p99 / US),
        p99_lower_bound_us=(None if lower_bound is None
                            else lower_bound / US),
        service_p99_us=result.service_p99_ns / US,
        response_mean_us=(None if result.response_mean_ns is None
                          else result.response_mean_ns / US),
        meets_slo=meets,
    )


def _experiment_presets(experiment: str) -> Tuple[str, ...]:
    """The experiment's config presets (its ``CONFIGS`` tuple, falling
    back to :data:`DEFAULT_PRESETS`)."""
    from repro.harness import EXPERIMENTS  # deferred: heavy

    if experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ReproError(
            f"unknown experiment {experiment!r}; known: {known}"
        )
    module = importlib.import_module(f"repro.harness.{experiment}")
    configs = getattr(module, "CONFIGS", None)
    return tuple(configs) if configs else DEFAULT_PRESETS


def _check_monotonic(bench: LoadgenBench) -> bool:
    """Uncensored headline p99 non-decreasing in load, per preset."""
    for preset in bench.presets:
        last = None
        for cell in bench.curve(preset):
            if cell.censored or cell.p99_us is None:
                continue
            if last is not None and cell.p99_us < last:
                return False
            last = cell.p99_us
    return True


# ----------------------------------------------------------------- knees --


def _solve_preset_knee(preset: str, cells: List[LoadgenCell],
                       measure_fresh, slo_ns: float,
                       refine_evals: int) -> PresetKnee:
    """Knee for one preset: bracket on the grid, optionally refine.

    ``measure_fresh(qps)`` runs one fresh simulation and returns its
    certified p99 in ns (``None`` = censored).  Grid cells seed the
    memo so the solver's endpoint re-checks never rerun simulations,
    and every probed load lands in ``evaluations``.
    """
    memo: Dict[float, Optional[float]] = {
        cell.offered_qps: (None if cell.p99_us is None
                           else cell.p99_us * US)
        for cell in cells
    }

    def measure(qps: float) -> Optional[float]:
        if qps not in memo:
            memo[qps] = measure_fresh(qps)
        return memo[qps]

    grid_evals = [
        KneeEvalPoint(cell.offered_qps, cell.p99_us,
                      bool(cell.meets_slo))
        for cell in cells
    ]
    last_good: Optional[float] = None
    first_bad: Optional[float] = None
    for cell in cells:
        if cell.meets_slo:
            last_good = cell.offered_qps
        else:
            first_bad = cell.offered_qps
            break

    if last_good is None:
        return PresetKnee(preset, None, None, BELOW_RANGE, grid_evals)
    if first_bad is None:
        return PresetKnee(preset, last_good, None, ABOVE_RANGE,
                          grid_evals)
    if refine_evals <= 0:
        return PresetKnee(preset, last_good, None, GRID, grid_evals)

    # Bisect inside the grid bracket.  The two endpoint checks hit the
    # memo, so ``refine_evals`` counts only fresh simulations.
    solution = solve_knee(measure, last_good, first_bad, slo_ns,
                          max_evals=refine_evals + 2)
    evals = grid_evals + [
        KneeEvalPoint(evaluation.qps,
                      (None if evaluation.p99_ns is None
                       else evaluation.p99_ns / US),
                      evaluation.meets_slo)
        for evaluation in solution.evaluations
        if evaluation.qps not in {point.qps for point in grid_evals}
    ]
    return PresetKnee(preset, solution.sustained_qps, None,
                      solution.status, evals)


# ------------------------------------------------------------ the driver --


def run_loadgen(experiment: str = "fig10", scale="quick",
                qps_sweep: Optional[str] = None,
                slo_us: Optional[float] = None,
                workload: Optional[str] = None,
                presets: Optional[Sequence[str]] = None,
                arrival: str = "poisson",
                rber: float = 0.0, fault_seed: int = 0xF1A5,
                seed: int = 42,
                backlog_threshold: float = DEFAULT_BACKLOG_THRESHOLD,
                refine_evals: int = 4,
                jobs: Optional[int] = None) -> LoadgenBench:
    """Sweep offered load and build per-preset knee curves.

    The DRAM-only closed-loop saturation run anchors everything:
    relative sweep endpoints, the default SLO
    (:data:`DEFAULT_SLO_SERVICE_FACTOR` x its mean service time) and
    the knee's ``sustained_fraction_of_dram`` normalization.  With
    ``rber > 0`` the flash-backed presets run under injected faults
    (same knobs as ``repro chaos``), composing the two sweep axes.
    """
    scale = resolve_scale(scale)
    if arrival not in ARRIVAL_KINDS:
        known = ", ".join(ARRIVAL_KINDS)
        raise ReproError(
            f"unknown arrival kind {arrival!r}; known: {known}"
        )
    sweep = parse_qps_sweep(qps_sweep if qps_sweep is not None
                            else DEFAULT_QPS_SWEEP)
    if presets is None:
        presets = _experiment_presets(experiment)
    presets = tuple(presets)
    if workload is None:
        workload = "tatp" if "tatp" in scale.workloads \
            else scale.workloads[0]

    saturation = run_spec(RunSpec("dram-only", workload, scale, seed=seed),
                          jobs=jobs)
    saturation_qps = saturation.throughput_jobs_per_s
    slo_ns = (slo_us * US if slo_us is not None
              else DEFAULT_SLO_SERVICE_FACTOR * saturation.service_mean_ns)

    def overrides_for(preset: str) -> Tuple:
        # Fault injection composes with chaos semantics: flash-backed
        # presets only (dram-only has no flash to fault) and rber = 0
        # stays the bit-identical clean baseline.
        if rber > 0.0 and preset != "dram-only":
            return fault_overrides(rber, fault_seed)
        return ()

    def spec_for(preset: str, qps: float) -> RunSpec:
        return RunSpec(
            preset, workload, scale, seed=seed,
            arrivals=_arrival_spec(arrival, qps, scale.num_cores, seed),
            config_overrides=overrides_for(preset),
        )

    qps_points = sweep.resolve(saturation_qps)
    grid = [(preset, qps) for preset in presets for qps in qps_points]
    results = run_specs([spec_for(preset, qps) for preset, qps in grid],
                        jobs=jobs)
    cells = [
        _make_cell(preset, qps, result, slo_ns, backlog_threshold)
        for (preset, qps), result in zip(grid, results)
    ]

    bench = LoadgenBench(
        experiment=experiment,
        scale=scale.name,
        workload=workload,
        arrival=arrival,
        seed=seed,
        slo_us=slo_ns / US,
        backlog_threshold=backlog_threshold,
        saturation_qps=saturation_qps,
        qps_points=list(qps_points),
        presets=list(presets),
        rber=rber,
        fault_seed=fault_seed,
        cells=cells,
        knees=[],
        config_preset=scale.name,
    )

    for preset in presets:
        def measure_fresh(qps: float, _preset: str = preset
                          ) -> Optional[float]:
            result = run_spec(spec_for(_preset, qps), jobs=jobs)
            cell = _make_cell(_preset, qps, result, slo_ns,
                              backlog_threshold)
            return None if cell.p99_us is None else cell.p99_us * US
        knee = _solve_preset_knee(preset, bench.curve(preset),
                                  measure_fresh, slo_ns, refine_evals)
        if knee.sustained_qps is not None and saturation_qps > 0:
            knee.sustained_fraction_of_dram = (
                knee.sustained_qps / saturation_qps
            )
        bench.knees.append(knee)

    bench.monotonic_p99 = _check_monotonic(bench)
    return bench
