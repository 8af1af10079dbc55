"""Profiling subsystem: ``python -m repro profile <experiment>``.

The kernel hot-path work (DESIGN.md §4c) is driven by measurement, not
guesswork; this module packages that measurement loop so regressions
are one command away:

* :func:`profile_experiment` regenerates one paper artifact under
  :mod:`cProfile` — in-process (``jobs=1``) so every simulated event
  is attributed — and distils the run into a :class:`ProfileReport`:
  wall time, kernel events/sec, and the top-N hotspots by internal
  time.
* :meth:`ProfileReport.record` packs it into a
  :class:`~repro.metrics.RunRecord` — what ``--json`` writes and the
  run ledger appends.

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
from typing import Dict, List, Optional

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

    def format_text(self) -> str:
        lines = [
            f"profile: {self.experiment} (scale={self.scale})",
            f"  wall time       {self.wall_seconds:.2f} s (under cProfile; "
            f"+{self.warm_wall_seconds:.2f} s warmup, excluded)",
            f"  kernel events   {self.events_executed:,} "
            f"({self.events_per_second:,.0f} events/s)",
            f"  function calls  {self.total_calls:,}",
            "",
            f"  {'calls':>10}  {'tottime':>8}  {'cumtime':>8}  function",
        ]
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
                     "wall_seconds", "warm_wall_seconds"):
            metrics.add(f"profile/{stat}", getattr(self, stat), gate=INFO)
        return make_record(
            "profile", experiment=self.experiment, scale=self.scale,
            preset=self.config_preset,
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
                       profiler: Optional[cProfile.Profile] = None
                       ) -> ProfileReport:
    """Regenerate ``experiment`` under cProfile and report hotspots.

    Runs stay in-process (``jobs=1``) so the profiler sees every
    event.  The process's datasets and warm payloads are dropped
    first, so each dataset build and each warm key's first warm-up
    show in the profile, as in a fresh CLI process.

    Events/sec is computed over the *kernel* wall time: cache-warm
    seconds (``Runner.warm`` / snapshot restores, tracked by the
    process-wide wall split) are reported separately and excluded —
    warming is dataset construction, not event-loop work, and earlier
    versions understated the event loop by charging it.
    """
    if top < 1:
        raise ReproError("profile needs at least one hotspot row")
    from repro import snapshot
    from repro.core.runner import wall_split_totals  # deferred: heavy
    from repro.harness import EXPERIMENTS, resolve_scale  # deferred: heavy

    try:
        runner = EXPERIMENTS[experiment]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ReproError(
            f"unknown experiment {experiment!r}; known: {known}"
        ) from None

    profiler = profiler if profiler is not None else cProfile.Profile()
    snapshot.clear_memo()
    events_before = total_events_executed()
    warm_before = wall_split_totals()["warm_seconds"]
    wall_start = time.perf_counter()
    profiler.enable()
    try:
        runner(scale=scale, jobs=1)
    finally:
        profiler.disable()
    wall_seconds = time.perf_counter() - wall_start
    events = total_events_executed() - events_before
    warm_wall = wall_split_totals()["warm_seconds"] - warm_before
    kernel_wall = max(wall_seconds - warm_wall, 0.0)

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
    )


def canonical_result_dict(result) -> Dict[str, object]:
    """``result`` as a dict without its wall-clock fields
    (:data:`~repro.core.runner.RESULT_WALL_FIELDS`) — the surface two
    runs of the same spec must match on bit-for-bit."""
    from repro.core.runner import RESULT_WALL_FIELDS  # deferred: heavy

    payload = dict(result.__dict__)
    for name in RESULT_WALL_FIELDS:
        payload.pop(name, None)
    return payload
