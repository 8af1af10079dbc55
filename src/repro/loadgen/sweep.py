"""The loadgen sweep: offered-QPS grids and SLO knee curves.

``python -m repro loadgen <experiment> --qps-sweep LO:HI:N`` sweeps
offered load across an experiment's presets and reports each preset's
latency-vs-load curve and sustained-QPS-under-SLO knee (TailBench
methodology; the paper's Fig. 10 lens).  Beside the shared sweep
machine (:mod:`repro.harness.sweep`), loadgen owns:

* **the saturation anchor**: a DRAM-only closed-loop run fixes the
  relative grid ends, the default SLO (40x its mean service time, the
  Sec. III-A convention of :func:`repro.harness.fig3.max_load_within_slo`)
  and the knee's normalization;
* **aggregate rates**: :func:`_arrival_spec` alone converts machine
  QPS to the runner's per-core arrival streams;
* **censoring**: a cell whose unfinished-job backlog exceeds
  ``backlog_threshold`` had its tail censored by the window, so its
  p99 is withheld (the right-censoring lower bound stands in) and it
  counts as an SLO violation;
* **the knee**, bracketed on the grid and bisected with fresh runs.
"""

from __future__ import annotations

import dataclasses
import math
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.faults.chaos import fault_overrides
from repro.harness import parallel
from repro.harness.common import resolve_scale
from repro.harness.parallel import RunSpec, run_specs
from repro.harness.sweep import (
    Column, Gate, Sweep, SweepResult, default_workload,
    experiment_presets, run_sweep,
)
from repro.units import US

#: Default sweep: 30%..95% of the DRAM-only saturation throughput,
#: five points — brackets the knee for every preset without burning
#: cells deep inside the flat region.
DEFAULT_QPS_SWEEP = "0.3x:0.95x:5"

#: Default SLO: this multiple of the DRAM-only mean service time.
DEFAULT_SLO_SERVICE_FACTOR = 40.0

#: Default censoring threshold: a cell whose unfinished-job backlog
#: exceeds this fraction of offered requests cannot certify a p99 from
#: completed samples alone (the censored requests *are* the tail).
DEFAULT_BACKLOG_THRESHOLD = 0.05

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

#: Knee statuses: how the sustained QPS relates to the searched range.
BELOW_RANGE = "below_range"    # even the lowest load violates the SLO
ABOVE_RANGE = "above_range"    # even the highest load meets the SLO
BRACKETED = "bracketed"        # bisected between a good and a bad load
GRID = "grid"                  # read off sampled points, not refined


def parse_qps_sweep(text: str) -> Callable[[float], Tuple[float, ...]]:
    """Parse ``LO:HI:N`` (e.g. ``0.3x:0.95x:5``) into the grid it
    resolves to once the DRAM-only saturation throughput is known:
    ``N`` evenly spaced loads, each end absolute QPS or, with an ``x``
    suffix, a fraction of saturation."""
    parts = [part.strip() for part in text.split(":")]
    if len(parts) != 3:
        raise ReproError(
            f"qps sweep {text!r} must be LO:HI:N (e.g. {DEFAULT_QPS_SWEEP})")
    ends = []
    for token in parts[:2]:
        relative = token.endswith(("x", "X"))
        token = token[:-1] if relative else token
        try:
            value = float(token)
        except ValueError:
            raise ReproError(f"bad qps sweep endpoint {token!r}") from None
        if value <= 0:
            raise ReproError(f"qps sweep endpoint {value} must be positive")
        if relative and value > 2.0:
            raise ReproError(
                f"relative sweep endpoint {value}x exceeds 2x saturation")
        ends.append((value, relative))
    try:
        points = int(parts[2])
    except ValueError:
        raise ReproError(f"bad qps sweep point count {parts[2]!r}") from None
    if points < 1:
        raise ReproError("qps sweep needs at least one point")
    if points > 64:
        raise ReproError("qps sweep capped at 64 points")
    (lo, lo_relative), (hi, hi_relative) = ends
    if lo_relative == hi_relative and hi < lo:
        raise ReproError(f"qps sweep {text!r} has HI < LO")

    def resolve(saturation_qps: float) -> Tuple[float, ...]:
        first, last = (value * saturation_qps if relative else value
                       for value, relative in ends)
        if first <= 0 or last < first:
            raise ConfigurationError(f"qps sweep resolves to bad range "
                                     f"[{first:.1f}, {last:.1f}]")
        step = (last - first) / max(1, points - 1)
        return tuple(first + i * step for i in range(points))

    return resolve


def _arrival_spec(kind: str, qps: float, num_cores: int,
                  seed: int) -> Tuple:
    """Picklable arrival spec offering an *aggregate* load of ``qps``:
    each core runs its own stream, ``num_cores / qps`` seconds apart on
    average, and the modulated shapes pass ``streams=num_cores`` so
    their shared dwell/period clocks track machine time."""
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
    return parallel.diurnal(
        per_core_mean_ns, DIURNAL_PERIOD_NS, DIURNAL_AMPLITUDE,
        seed=seed + 1, streams=num_cores,
    )


def _read(result, slo_ns: float, backlog_threshold: float) -> dict:
    """A cell's columns, censoring applied (see the module doc)."""
    censored = result.backlog_fraction > backlog_threshold
    observed = result.response_p99_ns
    bound = result.response_p99_lower_bound_ns
    mean = result.response_mean_ns
    return {
        "achieved_qps": result.throughput_jobs_per_s,
        "completed_jobs": result.completed_jobs,
        "unfinished_jobs": result.unfinished_jobs,
        "backlog_fraction": result.backlog_fraction,
        "censored": censored,
        "p99_us": None if censored or observed is None else observed / US,
        "observed_p99_us": None if observed is None else observed / US,
        "p99_lower_bound_us": None if bound is None else bound / US,
        "service_p99_us": result.service_p99_ns / US,
        "response_mean_us": None if mean is None else mean / US,
        "meets_slo": (not censored and observed is not None
                      and observed <= slo_ns),
    }


def _p99_text(cell) -> str:
    if cell["censored"]:
        bound = cell["p99_lower_bound_us"]
        return "censored" if bound is None else f">= {bound:,.1f}"
    return "-" if cell["p99_us"] is None else f"{cell['p99_us']:,.1f}"


class KneeSolution(NamedTuple):
    """The knee, its status, and each probe as a knee evaluation."""

    sustained_qps: Optional[float]
    status: str
    evaluations: List[Dict]


def solve_knee(measure: Callable[[float], Optional[float]],
               lo_qps: float, hi_qps: float, slo_ns: float,
               rel_tol: float = 0.02, max_evals: int = 12) -> KneeSolution:
    """Max QPS in ``[lo_qps, hi_qps]`` whose p99 meets ``slo_ns``.

    ``measure(qps)`` returns the p99 in ns, or ``None`` (an SLO
    violation) when a censored window cannot certify it.  Assumes p99
    is non-decreasing in load and bisects until the bracket is within
    ``rel_tol`` of its upper end or ``max_evals`` measurements are
    spent; ``sustained_qps`` is always a load *measured* within the SLO.
    """
    if lo_qps <= 0 or hi_qps <= 0 or lo_qps > hi_qps:
        raise ConfigurationError(f"bad knee bracket [{lo_qps}, {hi_qps}]")
    if slo_ns <= 0:
        raise ConfigurationError("SLO must be positive")
    evaluations: List[Dict] = []

    def check(qps: float) -> bool:
        p99 = measure(qps)
        meets = p99 is not None and p99 <= slo_ns
        evaluations.append({"qps": qps,
                            "p99_us": None if p99 is None else p99 / US,
                            "meets_slo": meets})
        return meets

    if not check(lo_qps):
        return KneeSolution(None, BELOW_RANGE, evaluations)
    if lo_qps == hi_qps or check(hi_qps):
        return KneeSolution(hi_qps, ABOVE_RANGE, evaluations)
    good, bad = lo_qps, hi_qps
    while bad - good > rel_tol * bad and len(evaluations) < max_evals:
        mid = 0.5 * (good + bad)
        if check(mid):
            good = mid
        else:
            bad = mid
    return KneeSolution(good, BRACKETED, evaluations)


def _knee(preset: str, cells: List[dict], measure, slo_ns: float,
          refine_evals: int, saturation_qps: float) -> Dict:
    """One preset's knee: the last grid load under the SLO before the
    first miss, bisected towards it with ``refine_evals`` fresh runs of
    ``measure(preset, qps)`` (the certified p99 in ns, ``None`` when
    censored); every probed load lands in ``evaluations``."""
    grid = {cell["offered_qps"]: (None if cell["p99_us"] is None
                                  else cell["p99_us"] * US)
            for cell in cells}
    evaluations = [{"qps": cell["offered_qps"], "p99_us": cell["p99_us"],
                    "meets_slo": bool(cell["meets_slo"])}
                   for cell in cells]
    first_miss = next((index for index, cell in enumerate(cells)
                       if not cell["meets_slo"]), len(cells))
    good = cells[first_miss - 1]["offered_qps"] if first_miss else None
    if good is None:
        sustained, status = None, BELOW_RANGE
    elif first_miss == len(cells):
        sustained, status = good, ABOVE_RANGE
    elif refine_evals <= 0:
        sustained, status = good, GRID
    else:
        # The solver's two endpoint checks read the grid, so
        # ``refine_evals`` counts only fresh simulations.
        solution = solve_knee(
            lambda qps: grid[qps] if qps in grid else measure(preset, qps),
            good, cells[first_miss]["offered_qps"], slo_ns,
            max_evals=refine_evals + 2)
        sustained, status = solution.sustained_qps, solution.status
        evaluations += [probe for probe in solution.evaluations
                        if probe["qps"] not in grid]
    return {
        "preset": preset,
        "sustained_qps": sustained,
        # The paper's Fig. 10 x-axis: a share of DRAM-only saturation
        # ("AstriFlash at ~93% load matches the DRAM-only p99 at ~96%").
        "sustained_fraction_of_dram": (
            sustained / saturation_qps
            if sustained is not None and saturation_qps > 0 else None),
        "status": status,
        "evaluations": evaluations,
    }


def _summary(result: SweepResult):
    """The record's sweep-level metrics: the anchor and each knee."""
    yield "saturation_qps", dict(result.sweep.about)["saturation_qps"], {}
    for knee in result.extra["knees"]:
        for stat in ("sustained_qps", "sustained_fraction_of_dram"):
            yield stat, knee[stat], {"preset": knee["preset"]}


def _knee_lines(result: SweepResult, preset: str) -> List[str]:
    for knee in result.extra["knees"]:
        if knee["preset"] != preset:
            continue
        if knee["sustained_qps"] is None:
            return [f"    knee: below the swept range ({knee['status']})"]
        fraction = knee["sustained_fraction_of_dram"]
        norm = (f" ({fraction:.1%} of DRAM-only saturation)"
                if fraction is not None else "")
        return [f"    knee: sustains {knee['sustained_qps']:,.0f} qps "
                f"under SLO{norm} [{knee['status']}]"]
    return []


#: The loadgen table and record; the fingerprint pins cells and knees.
LOADGEN = Sweep(
    verb="loadgen",
    head=("loadgen sweep: {experiment} (scale={scale}, "
          "workload={workload}, arrival={arrival})",
          "  SLO: p99 <= {slo_us:,.1f} us | DRAM-only saturation: "
          "{saturation_qps:,.0f} jobs/s | censor threshold: "
          "backlog > {backlog_threshold:.0%}",
          "  p99 monotone across sweep: {gate}"),
    gate=Gate("monotonic_p99", "p99_us"),
    columns=(
        Column("offered qps", 12, ">12,.0f", itemgetter("offered_qps")),
        Column("achieved", 10, ">10,.0f", itemgetter("achieved_qps")),
        Column("p99 us", 10, ">10", _p99_text),
        Column("backlog", 8, ">8.1%", itemgetter("backlog_fraction")),
        Column("slo", 4, ">4", lambda cell: (
            "-" if cell["meets_slo"] is None
            else "ok" if cell["meets_slo"] else "MISS")),
    ),
    metrics=(("p99_us", ""), ("achieved_qps", ""), ("backlog_fraction", "")),
    labels=(("qps", "offered_qps"),),
    summary=_summary,
    tail=_knee_lines,
)


def run_loadgen(experiment: str = "fig10", scale="quick",
                qps_sweep: Optional[str] = None,
                slo_us: Optional[float] = None,
                workload: Optional[str] = None,
                arrival: str = "poisson",
                rber: float = 0.0, fault_seed: int = 0xF1A5,
                seed: int = 42,
                backlog_threshold: float = DEFAULT_BACKLOG_THRESHOLD,
                refine_evals: int = 4,
                jobs: Optional[int] = None) -> SweepResult:
    """Sweep offered load over the experiment's presets, anchored on
    the DRAM-only saturation run, and solve each preset's knee.  With
    ``rber > 0`` the flash-backed presets run under injected faults
    (same knobs as ``repro chaos``), composing the two sweep axes."""
    scale = resolve_scale(scale)
    if arrival not in ARRIVAL_KINDS:
        raise ReproError(f"unknown arrival kind {arrival!r}; "
                         f"known: {', '.join(ARRIVAL_KINDS)}")
    # The same ranges chaos's --rber-sweep points take; a negative
    # RBER would otherwise run the clean sweep unannounced.
    if not 0.0 <= rber < 1.0:
        raise ReproError(f"rber {rber:g} outside [0, 1)")
    if not 0.0 <= backlog_threshold <= 1.0:
        raise ReproError(
            f"backlog threshold {backlog_threshold:g} outside [0, 1]")
    # A non-positive SLO misses every cell; a negative budget refines
    # nothing: both would print a plausible, wrong knee.
    if slo_us is not None and not 0.0 < slo_us < math.inf:
        raise ReproError(f"SLO {slo_us:g} us must be finite and > 0")
    if refine_evals < 0:
        raise ReproError(f"refine evals {refine_evals} must be >= 0")
    qps_grid = parse_qps_sweep(qps_sweep if qps_sweep is not None
                               else DEFAULT_QPS_SWEEP)
    presets = experiment_presets(experiment, DEFAULT_PRESETS)
    workload = workload or default_workload(scale)

    (saturation,) = run_specs(
        [RunSpec("dram-only", workload, scale, seed=seed)], jobs=jobs)
    saturation_qps = saturation.throughput_jobs_per_s
    slo_ns = (slo_us * US if slo_us is not None
              else DEFAULT_SLO_SERVICE_FACTOR * saturation.service_mean_ns)
    qps_points = qps_grid(saturation_qps)

    def spec(preset: str, point) -> RunSpec:
        # Fault injection composes with chaos semantics: flash-backed
        # presets only (dram-only has no flash to fault) and rber = 0
        # stays the bit-identical clean baseline.
        return RunSpec(
            preset, workload, scale, seed=seed,
            arrivals=_arrival_spec(arrival, point["offered_qps"],
                                   scale.num_cores, seed),
            config_overrides=(fault_overrides(rber, fault_seed)
                              if rber > 0.0 and preset != "dram-only"
                              else ()),
        )

    def read(result) -> dict:
        return _read(result, slo_ns, backlog_threshold)

    result = run_sweep(dataclasses.replace(
        LOADGEN,
        about=(("experiment", experiment), ("scale", scale.name),
               ("workload", workload), ("arrival", arrival),
               ("seed", seed), ("slo_us", slo_ns / US),
               ("backlog_threshold", backlog_threshold),
               ("saturation_qps", saturation_qps),
               ("qps_points", list(qps_points)),
               ("presets", list(presets)), ("rber", rber),
               ("fault_seed", fault_seed)),
        head=LOADGEN.head + (("  injected faults: rber={rber:g} "
                              "(fault_seed={fault_seed})",)
                             if rber > 0.0 else ()),
        points=tuple({"offered_qps": qps} for qps in qps_points),
        spec=spec, read=read, seed=seed, config_preset=scale.name,
    ), jobs=jobs)

    def measure(preset: str, qps: float) -> Optional[float]:
        p99_us = read(run_specs([spec(preset, {"offered_qps": qps})],
                                jobs=jobs)[0])["p99_us"]
        return None if p99_us is None else p99_us * US

    result.extra["knees"] = [
        _knee(preset, [cell for cell in result.cells
                       if cell["preset"] == preset],
              measure, slo_ns, refine_evals, saturation_qps)
        for preset in presets
    ]
    return result
