"""``repro dashboard``: the run ledger as one HTML page.

Dependency-free on both ends: the input is the run ledger alone, the
output is a single self-contained HTML document — inline CSS, inline
SVG charts, no scripts, no external fetches — that renders the
kernel-throughput trajectory, the newest record's ``detail`` of each
measuring verb (sweep bench, chaos degradation curves, loadgen knee
curves, profile hotspots), and the latest tail-latency attribution.
Every section degrades gracefully: an empty ledger or a verb that
never ran renders a placeholder or nothing, never an error (the
dashboard must work on a fresh clone).
"""

from __future__ import annotations

import html
import os
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.metrics.ledger import RunRecord, read_ledger

#: Colorblind-safe categorical palette (Observable 10 ordering).
PALETTE = ("#4269d0", "#efb118", "#ff725c", "#6cc5b0", "#3ca951",
           "#ff8ab7", "#a463f2", "#97bbf5", "#9c6b4e", "#9498a0")

Point = Tuple[float, float]


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _color(index: int) -> str:
    return PALETTE[index % len(PALETTE)]


# ----------------------------------------------------------- SVG helpers --


def svg_sparkline(values: Sequence[float], width: int = 200,
                  height: int = 36, color: str = PALETTE[0]) -> str:
    """A minimal inline-SVG line for a metric trajectory."""
    finite = [float(v) for v in values if v is not None]
    if not finite:
        return "<span class='muted'>no data</span>"
    if len(finite) == 1:
        finite = finite * 2  # a single run still draws a flat line
    low, high = min(finite), max(finite)
    span = (high - low) or 1.0
    pad = 3
    points = " ".join(
        f"{pad + i * (width - 2 * pad) / (len(finite) - 1):.1f},"
        f"{height - pad - (v - low) / span * (height - 2 * pad):.1f}"
        for i, v in enumerate(finite)
    )
    last_x = width - pad
    last_y = height - pad - (finite[-1] - low) / span * (height - 2 * pad)
    return (
        f"<svg width='{width}' height='{height}' viewBox='0 0 {width} "
        f"{height}' role='img'>"
        f"<polyline fill='none' stroke='{color}' stroke-width='1.5' "
        f"points='{points}'/>"
        f"<circle cx='{last_x:.1f}' cy='{last_y:.1f}' r='2.5' "
        f"fill='{color}'/></svg>"
    )


def svg_chart(series: Mapping[str, Sequence[Point]], width: int = 460,
              height: int = 220, x_label: str = "",
              y_label: str = "") -> str:
    """Named (x, y) series as an inline-SVG chart with min/max ticks."""
    points = [(x, y) for pts in series.values() for x, y in pts
              if x is not None and y is not None]
    if not points:
        return "<p class='muted'>no plottable points</p>"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0
    left, right, top, bottom = 52, 12, 10, 34

    def sx(x: float) -> float:
        return left + (x - x_low) / x_span * (width - left - right)

    def sy(y: float) -> float:
        return height - bottom - (y - y_low) / y_span \
            * (height - top - bottom)

    parts = [
        f"<svg width='{width}' height='{height}' viewBox='0 0 {width} "
        f"{height}' role='img'>",
        f"<line x1='{left}' y1='{height - bottom}' x2='{width - right}' "
        f"y2='{height - bottom}' stroke='#aaa'/>",
        f"<line x1='{left}' y1='{top}' x2='{left}' "
        f"y2='{height - bottom}' stroke='#aaa'/>",
        f"<text x='{left}' y='{height - 8}' class='tick'>"
        f"{x_low:.4g}</text>",
        f"<text x='{width - right}' y='{height - 8}' class='tick' "
        f"text-anchor='end'>{x_high:.4g}</text>",
        f"<text x='{left - 6}' y='{height - bottom}' class='tick' "
        f"text-anchor='end'>{y_low:.4g}</text>",
        f"<text x='{left - 6}' y='{top + 8}' class='tick' "
        f"text-anchor='end'>{y_high:.4g}</text>",
    ]
    if x_label:
        parts.append(f"<text x='{(left + width - right) / 2}' "
                     f"y='{height - 8}' class='tick' "
                     f"text-anchor='middle'>{_esc(x_label)}</text>")
    if y_label:
        parts.append(f"<text x='12' y='{top + 2}' class='tick'>"
                     f"{_esc(y_label)}</text>")
    for index, (name, pts) in enumerate(series.items()):
        color = _color(index)
        clean = sorted((x, y) for x, y in pts
                       if x is not None and y is not None)
        if not clean:
            continue
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in clean)
        parts.append(f"<polyline fill='none' stroke='{color}' "
                     f"stroke-width='1.8' points='{path}'/>")
        for x, y in clean:
            parts.append(f"<circle cx='{sx(x):.1f}' cy='{sy(y):.1f}' "
                         f"r='2.6' fill='{color}'><title>"
                         f"{_esc(name)}: ({x:.5g}, {y:.5g})"
                         f"</title></circle>")
    parts.append("</svg>")
    legend = "".join(
        f"<span class='legend'><span class='swatch' "
        f"style='background:{_color(i)}'></span>{_esc(name)}</span>"
        for i, name in enumerate(series)
    )
    return "".join(parts) + f"<div>{legend}</div>"


def _table(headers: Sequence[str],
           rows: Sequence[Sequence[object]]) -> str:
    if not rows:
        return "<p class='muted'>no rows</p>"
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(cell)}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{body}</tbody></table>")


def _fmt(value: object, spec: str = ",.4g") -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return format(value, spec)
    return str(value)


def _section(title: str, body: str, note: str = "") -> str:
    note_html = f"<p class='muted'>{_esc(note)}</p>" if note else ""
    return (f"<section><h2>{_esc(title)}</h2>{note_html}{body}"
            "</section>")


# ------------------------------------------------------- panel builders --


def _ledger_panel(records: Sequence[RunRecord]) -> str:
    if not records:
        return _section("Run ledger", "<p class='muted'>ledger is empty "
                        "— measuring verbs append here</p>")
    rows = [
        (index, record.record_id[:8] or "-", record.timestamp,
         record.verb, record.experiment or "-",
         f"{record.preset or '-'}/{record.workload or '-'}",
         record.scale or "-",
         _fmt(record.wall_seconds, ".2f"),
         _fmt(record.events_per_second, ",.0f"),
         (record.fingerprint[:8] or "-"))
        for index, record in enumerate(records)
    ][-50:]
    table = _table(("#", "id", "timestamp (UTC)", "verb", "experiment",
                    "preset/workload", "scale", "wall s",
                    "events/s", "fingerprint"), rows)
    return _section("Run ledger", table,
                    note=f"{len(records)} records (newest last, "
                         "showing up to 50)")


def _kernel_trajectory_panel(records: Sequence[RunRecord]) -> str:
    """Per-(experiment, scale) profiled kernel events/s across ledger
    history."""
    series: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        value = record.metrics.get("profile/events_per_second")
        if record.verb == "profile" and value is not None:
            group = (record.experiment or "?", record.scale or "?")
            series.setdefault(group, []).append(value)
    if not series:
        return _section("Kernel throughput trajectory",
                        "<p class='muted'>no profile ledger records "
                        "yet</p>")
    rows = []
    for index, ((experiment, scale), values) in enumerate(
            sorted(series.items())):
        rows.append(f"<div class='spark'><b>{_esc(experiment)} / "
                    f"{_esc(scale)}</b> "
                    f"{svg_sparkline(values, color=_color(index))} "
                    f"<span class='muted'>latest "
                    f"{_fmt(values[-1], ',.0f')} events/s over "
                    f"{len(values)} runs</span></div>")
    return _section("Kernel throughput trajectory", "".join(rows),
                    note="repro profile events/s per experiment and "
                         "scale across ledger history (wall-clock: "
                         "trend, not a gate)")


def _sweep_panel(detail: Mapping) -> str:
    rows = [("snapshots off",
             _fmt(detail.get("wall_seconds_snapshots_off"), ".3f")),
            ("snapshots cold",
             _fmt(detail.get("wall_seconds_snapshots_cold"), ".3f")),
            ("snapshots on",
             _fmt(detail.get("wall_seconds_snapshots_on"), ".3f")),
            ("speedup (off/on)",
             _fmt(detail.get("speedup"), ".2f") + "x")]
    return _section("Sweep bench (snapshot amortization)",
                    _table(("timing", "value"), rows),
                    note=f"experiment={detail.get('experiment', '?')} "
                         f"scale={detail.get('scale', '?')}")


def _chaos_panel(detail: Mapping) -> str:
    series: Dict[str, List[Point]] = {}
    for cell in detail.get("cells", ()):
        if cell.get("failed") or cell.get("service_p99_ns") is None:
            continue
        series.setdefault(cell.get("preset", "?"), []).append(
            (float(cell.get("rber", 0.0)),
             float(cell["service_p99_ns"]) / 1000.0))
    chart = svg_chart(series, x_label="injected RBER",
                      y_label="service p99 (us)")
    failed = [(cell.get("preset", "?"), format(cell.get("rber", 0.0), "g"))
              for cell in detail.get("cells", ()) if cell.get("failed")]
    failed_note = ""
    if failed:
        items = ", ".join(f"{preset}@rber={rber}"
                          for preset, rber in failed)
        failed_note = (f"<p class='bad'>device failed at: "
                       f"{_esc(items)}</p>")
    return _section(
        "Chaos degradation curves", chart + failed_note,
        note=f"workload={detail.get('workload', '?')} "
             f"fault_seed={detail.get('fault_seed', '?')} "
             f"monotonic_p99="
             f"{bool(detail.get('monotonic_p99'))}")


def _loadgen_panel(detail: Mapping) -> str:
    series: Dict[str, List[Point]] = {}
    for cell in detail.get("cells", ()):
        p99 = cell.get("p99_us")
        if p99 is None:
            p99 = cell.get("p99_lower_bound_us")
        if p99 is None:
            continue
        series.setdefault(cell.get("preset", "?"), []).append(
            (float(cell.get("offered_qps", 0.0)), float(p99)))
    chart = svg_chart(series, x_label="offered QPS",
                      y_label="response p99 (us)")
    knee_rows = [
        (knee.get("preset", "?"),
         _fmt(knee.get("sustained_qps"), ",.0f"),
         (_fmt(knee["sustained_fraction_of_dram"], ".1%")
          if knee.get("sustained_fraction_of_dram") is not None else "-"),
         knee.get("status", "-"))
        for knee in detail.get("knees", ())
    ]
    knees = _table(("preset", "sustained QPS under SLO",
                    "fraction of DRAM saturation", "status"), knee_rows)
    return _section(
        "Loadgen knee curves", chart + knees,
        note=f"SLO p99 <= {_fmt(detail.get('slo_us'), ',.1f')} us; "
             "censored cells plot their censoring-corrected lower "
             "bound")


def _profile_panel(detail: Mapping) -> str:
    rows = [(spot.get("function", "?"),
             _fmt(spot.get("calls"), ",.0f"),
             _fmt(spot.get("total_s"), ".3f"),
             _fmt(spot.get("cumulative_s"), ".3f"))
            for spot in (detail.get("hotspots") or ())[:10]]
    return _section(
        "Profile hotspots",
        f"<h3>{_esc(detail.get('experiment', '?'))} at scale "
        f"{_esc(detail.get('scale', '?'))}, "
        f"{_esc(_fmt(detail.get('events_per_second'), ',.0f'))} "
        "events/s</h3>"
        + _table(("function", "calls", "tottime s", "cumtime s"), rows))


def _tail_panel(records: Sequence[RunRecord]) -> str:
    """Latest report/simulate record's latency attribution metrics."""
    latest: Optional[RunRecord] = None
    for record in records:
        if record.verb in ("report", "simulate"):
            latest = record
    if latest is None:
        return _section("Tail-latency attribution",
                        "<p class='muted'>no report/simulate ledger "
                        "records yet</p>")
    rows = [(key, _fmt(value))
            for key, value in latest.metrics.items()
            if any(token in key for token in
                   ("p99", "p50", "mean", "miss_ratio", "backlog"))]
    return _section(
        "Tail-latency attribution", _table(("metric", "value"), rows),
        note=f"from {latest.verb} record {latest.record_id[:8]} "
             f"({latest.timestamp})")


# ------------------------------------------------------------- assembly --

_CSS = """
body { font: 14px/1.45 -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 960px; color: #1a1a2e;
       padding: 0 1em; }
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 1.8em; }
h3 { font-size: 1.0em; }
table { border-collapse: collapse; margin: 0.6em 0; width: 100%; }
th, td { border-bottom: 1px solid #ddd; padding: 3px 8px;
         text-align: left; font-variant-numeric: tabular-nums; }
th { background: #f4f4f8; }
.muted { color: #777; }
.bad { color: #b33; font-weight: 600; }
.tick { font-size: 10px; fill: #666; }
.legend { margin-right: 1.2em; }
.swatch { display: inline-block; width: 10px; height: 10px;
          margin-right: 4px; border-radius: 2px; }
.spark { margin: 0.4em 0; }
section { page-break-inside: avoid; }
"""


#: Measuring verb -> the panel that renders its newest record's detail.
_DETAIL_PANELS = (
    ("bench-sweep", _sweep_panel),
    ("chaos", _chaos_panel),
    ("loadgen", _loadgen_panel),
    ("profile", _profile_panel),
)


def build_dashboard(records: Sequence[RunRecord]) -> str:
    """Assemble the full HTML document from the ledger records."""
    sections = [_ledger_panel(records),
                _kernel_trajectory_panel(records)]
    for verb, panel in _DETAIL_PANELS:
        newest = [record for record in records
                  if record.verb == verb and record.detail]
        if newest:
            sections.append(panel(newest[-1].detail))
    sections.append(_tail_panel(records))
    return (
        "<!doctype html>\n<html lang='en'><head>"
        "<meta charset='utf-8'>"
        "<meta name='viewport' content='width=device-width, "
        "initial-scale=1'>"
        "<title>repro observatory</title>"
        f"<style>{_CSS}</style></head><body>"
        "<h1>AstriFlash repro &mdash; run ledger &amp; regression "
        "observatory</h1>"
        f"<p class='muted'>{len(records)} ledger records</p>"
        + "".join(sections)
        + "</body></html>\n"
    )


def render_dashboard(out: os.PathLike,
                     ledger: Optional[os.PathLike] = None) -> Path:
    """Read the ledger, build, and write the dashboard; returns the
    path."""
    target = Path(out)
    if target.parent and not target.parent.is_dir():
        raise ReproError(f"output directory {target.parent} does not exist")
    target.write_text(build_dashboard(read_ledger(ledger)),
                      encoding="utf-8")
    return target
