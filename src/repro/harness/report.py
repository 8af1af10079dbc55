"""Report rendering: ASCII charts and experiment report files.

The harness produces tabular :class:`ExperimentResult` rows; this
module adds terminal-friendly line charts for curve-shaped artifacts
(Figs. 1-3, 10) and a writer that bundles every regenerated artifact
into one report file — the generator behind EXPERIMENTS.md's measured
numbers.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.harness import ExperimentResult, run_experiments
from repro.sim.engine import total_events_executed

Point = Tuple[float, float]
_MARKERS = "*o+x#@%&"


def ascii_chart(series: Dict[str, Sequence[Point]], width: int = 64,
                height: int = 16, logy: bool = False,
                title: str = "") -> str:
    """Render named (x, y) series as a fixed-size ASCII scatter chart."""
    if not series:
        raise ReproError("no series to plot")
    if width < 8 or height < 4:
        raise ReproError("chart too small")

    points = [
        (x, y) for pts in series.values() for x, y in pts
        if math.isfinite(x) and math.isfinite(y)
        and (not logy or y > 0)
    ]
    if not points:
        raise ReproError("no finite points to plot")

    def transform_y(y: float) -> float:
        return math.log10(y) if logy else y

    xs = [p[0] for p in points]
    ys = [transform_y(p[1]) for p in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (name, pts) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        for x, y in pts:
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            if logy and y <= 0:
                continue
            col = int((x - x_low) / x_span * (width - 1))
            row = int((transform_y(y) - y_low) / y_span * (height - 1))
            grid[height - 1 - row][col] = marker

    lines = []
    if title:
        lines.append(title)
    y_label_high = f"{10 ** y_high:.3g}" if logy else f"{y_high:.3g}"
    y_label_low = f"{10 ** y_low:.3g}" if logy else f"{y_low:.3g}"
    lines.append(f"y: {y_label_low} .. {y_label_high}"
                 f"{' (log)' if logy else ''}")
    lines.extend("|" + "".join(row) + "|" for row in grid)
    lines.append("+" + "-" * width + "+")
    lines.append(f"x: {x_low:.3g} .. {x_high:.3g}")
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={name}"
        for i, name in enumerate(series)
    )
    lines.append(legend)
    return "\n".join(lines)


def chart_for(result: ExperimentResult, width: int = 64,
              height: int = 14) -> str:
    """An ASCII chart for curve-shaped experiments; '' otherwise."""
    if result.experiment == "fig3":
        loads = result.column("load")
        series = {
            name: list(zip(loads, result.column(name)))
            for name in result.columns[1:]
        }
        return ascii_chart(series, width, height, logy=True,
                           title=result.title)
    if result.experiment == "fig10":
        series = {
            "dram-only": list(zip(result.column("dram_only_tput"),
                                  result.column("dram_only_p99"))),
            "astriflash": list(zip(result.column("astriflash_tput"),
                                   result.column("astriflash_p99"))),
        }
        return ascii_chart(series, width, height, title=result.title)
    if result.experiment == "fig1":
        caps = result.column("dram_capacity_pct")
        series = {
            "miss_ratio": list(zip(caps, result.column("miss_ratio"))),
        }
        return ascii_chart(series, width, height, title=result.title)
    if result.experiment == "fig2":
        cores = result.column("cores")
        series = {
            "os-paging": list(zip(cores, result.column("os_paging_norm"))),
            "ideal": list(zip(cores, result.column("ideal_norm"))),
        }
        return ascii_chart(series, width, height, title=result.title)
    return ""


def render(result: ExperimentResult, with_chart: bool = True) -> str:
    """Table plus (where applicable) chart for one experiment."""
    parts = [result.format_table()]
    if with_chart:
        chart = chart_for(result)
        if chart:
            parts.append("")
            parts.append(chart)
    return "\n".join(parts)


def write_report(results: List[ExperimentResult], path: str,
                 header: str = "", footer: str = "") -> None:
    """Write all regenerated artifacts into one text report."""
    with open(path, "w") as handle:
        if header:
            handle.write(header.rstrip() + "\n\n")
        for result in results:
            handle.write(render(result) + "\n\n")
        if footer:
            handle.write(footer.rstrip() + "\n")


def generate(experiments: Mapping[str, Callable[..., ExperimentResult]],
             scale="quick", jobs: Optional[int] = None, *, out: str,
             header: str = ""
             ) -> Tuple[List[ExperimentResult], float, float]:
    """Regenerate ``experiments`` (id -> run callable) through
    :func:`repro.harness.run_experiments` into the report file ``out``.
    Returns ``(results, wall_seconds, events_per_second)``: the one
    measurement of the run, which the footer prints and ``repro
    report``'s ledger record carries.
    """
    from repro.core.runner import wall_split_totals

    events_before = total_events_executed()
    split_before = wall_split_totals()
    wall_start = time.perf_counter()
    results = run_experiments(experiments, scale=scale, jobs=jobs)
    wall_seconds = time.perf_counter() - wall_start
    events = total_events_executed() - events_before
    per_second = events / wall_seconds if events and wall_seconds > 0 else 0.0
    # Kernel throughput footer: in-process events only, so worker
    # processes (jobs > 1) leave it at zero — it is telemetry for the
    # simulator, not a result.
    lines = []
    if per_second:
        lines.append(
            f"kernel: {events:,} events in {wall_seconds:.1f} s "
            f"({per_second:,.0f} events/s in-process)")
    lines.append(_warmup_footer(split_before))
    write_report(results, out, header=header,
                 footer="\n".join(line for line in lines if line))
    return results, wall_seconds, per_second


def _warmup_footer(split_before: Dict[str, float]) -> str:
    """Warmup-vs-measurement wall split and restored and fresh warm
    counts accumulated in this process since ``generate`` started.

    Like the kernel line, this covers in-process runs only: with
    ``jobs > 1`` the workers' warm/measure seconds and warms land in
    the workers, but the pre-warm pass's warms still show up here.
    """
    from repro.core.runner import wall_split_totals

    split = wall_split_totals()
    warm = split["warm_seconds"] - split_before["warm_seconds"]
    measure = split["measure_seconds"] - split_before["measure_seconds"]
    restored = int(split["restored_warms"] - split_before["restored_warms"])
    fresh = int(split["fresh_warms"] - split_before["fresh_warms"])
    if not (warm or measure or restored or fresh):
        return ""
    return (f"warmup: {warm:.2f} s vs measurement {measure:.2f} s "
            f"in-process; warm state: {restored} restored, "
            f"{fresh} freshly warmed")
