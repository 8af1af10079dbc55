"""Typed knee-curve results of ``repro loadgen``.

Every field is deterministic (simulation-derived, no wall-clock
values), so two invocations of the same sweep produce the same record
fingerprint, the CI acceptance bar.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Optional

#: Default censoring threshold: a cell whose unfinished-job backlog
#: exceeds this fraction of offered requests cannot certify a p99 from
#: completed samples alone (the censored requests *are* the tail), so
#: its headline p99 is withheld and the lower bound reported instead.
DEFAULT_BACKLOG_THRESHOLD = 0.05


@dataclass
class LoadgenCell:
    """One (preset, offered QPS) point of the knee curve."""

    preset: str
    offered_qps: float
    achieved_qps: float
    completed_jobs: int
    unfinished_jobs: int
    backlog_fraction: float
    #: True when the backlog fraction exceeded the sweep's threshold:
    #: the measurement window censored the tail and ``p99_us`` is
    #: withheld (see ``p99_lower_bound_us``).
    censored: bool
    #: Headline p99 response latency; ``None`` for censored cells.
    p99_us: Optional[float]
    #: The raw completed-sample window p99 — optimistic when censored.
    observed_p99_us: Optional[float]
    #: Censoring-corrected lower bound (completed samples merged with
    #: unfinished-job ages).
    p99_lower_bound_us: Optional[float]
    service_p99_us: float
    response_mean_us: Optional[float]
    #: SLO verdict (None when the cell was run without an SLO).
    #: Censored cells conservatively report False: their tail cannot
    #: be certified from this window.
    meets_slo: Optional[bool]


@dataclass
class KneeEvalPoint:
    """One load probed while refining a preset's knee."""

    qps: float
    p99_us: Optional[float]
    meets_slo: bool


@dataclass
class PresetKnee:
    """Sustained-QPS-under-SLO for one config preset."""

    preset: str
    #: Max offered QPS whose p99 met the SLO (None: even the lowest
    #: swept load violated it).
    sustained_qps: Optional[float]
    #: Same, normalized to the DRAM-only saturation throughput — the
    #: paper's Fig. 10 x-axis ("AstriFlash at ~93% load matches the
    #: DRAM-only p99 at ~96%").
    sustained_fraction_of_dram: Optional[float]
    status: str
    evaluations: List[KneeEvalPoint] = field(default_factory=list)


@dataclass
class LoadgenBench:
    """Everything one loadgen sweep produced."""

    experiment: str
    scale: str
    workload: str
    arrival: str
    seed: int
    slo_us: float
    backlog_threshold: float
    saturation_qps: float
    qps_points: List[float]
    presets: List[str]
    rber: float
    fault_seed: int
    cells: List[LoadgenCell]
    knees: List[PresetKnee]
    #: True iff every preset's observed p99 series is non-decreasing
    #: across the swept loads (censored cells excluded) — the
    #: acceptance property the record gates on.
    monotonic_p99: bool = True
    config_preset: str = ""  # HarnessScale.name the run resolved to

    def curve(self, preset: str) -> List[LoadgenCell]:
        """The preset's cells in sweep order."""
        return [cell for cell in self.cells if cell.preset == preset]

    def knee(self, preset: str) -> Optional[PresetKnee]:
        for knee in self.knees:
            if knee.preset == preset:
                return knee
        return None

    def format_text(self) -> str:
        lines = [
            f"loadgen sweep: {self.experiment} (scale={self.scale}, "
            f"workload={self.workload}, arrival={self.arrival})",
            f"  SLO: p99 <= {self.slo_us:,.1f} us | DRAM-only "
            f"saturation: {self.saturation_qps:,.0f} jobs/s | "
            f"censor threshold: backlog > {self.backlog_threshold:.0%}",
            f"  p99 monotone across sweep: "
            f"{'yes' if self.monotonic_p99 else 'NO'}",
        ]
        if self.rber > 0.0:
            lines.append(f"  injected faults: rber={self.rber:g} "
                         f"(fault_seed={self.fault_seed})")
        for preset in self.presets:
            lines.append(f"  {preset}:")
            lines.append(
                f"    {'offered qps':>12}  {'achieved':>10}  "
                f"{'p99 us':>10}  {'backlog':>8}  {'slo':>4}"
            )
            for cell in self.curve(preset):
                if cell.censored:
                    bound = (f">= {cell.p99_lower_bound_us:,.1f}"
                             if cell.p99_lower_bound_us is not None
                             else "censored")
                    p99_text = bound
                else:
                    p99_text = (f"{cell.p99_us:,.1f}"
                                if cell.p99_us is not None else "-")
                slo_text = ("-" if cell.meets_slo is None
                            else "ok" if cell.meets_slo else "MISS")
                lines.append(
                    f"    {cell.offered_qps:>12,.0f}  "
                    f"{cell.achieved_qps:>10,.0f}  "
                    f"{p99_text:>10}  "
                    f"{cell.backlog_fraction:>8.1%}  {slo_text:>4}"
                )
            knee = self.knee(preset)
            if knee is not None:
                if knee.sustained_qps is None:
                    lines.append(
                        f"    knee: below the swept range "
                        f"({knee.status})"
                    )
                else:
                    fraction = knee.sustained_fraction_of_dram
                    norm = (f" ({fraction:.1%} of DRAM-only saturation)"
                            if fraction is not None else "")
                    lines.append(
                        f"    knee: sustains {knee.sustained_qps:,.0f} "
                        f"qps under SLO{norm} [{knee.status}]"
                    )
        return "\n".join(lines)

    def record(self):
        """This sweep as a :class:`~repro.metrics.RunRecord`: monotone
        p99 gates ``exact``, and the fingerprint pins every simulated
        figure (cells and knees alike)."""
        from repro.metrics import (  # deferred: import cost
            EXACT, MetricSet, make_record, payload_digest,
        )

        metrics = MetricSet()
        metrics.add("loadgen/monotonic_p99", float(self.monotonic_p99),
                    gate=EXACT)
        metrics.add("loadgen/saturation_qps", self.saturation_qps)
        for knee in self.knees:
            for stat in ("sustained_qps", "sustained_fraction_of_dram"):
                metrics.add(f"loadgen/{stat}", getattr(knee, stat),
                            preset=knee.preset)
        for cell in self.cells:
            for stat in ("p99_us", "achieved_qps", "backlog_fraction"):
                metrics.add(f"loadgen/{stat}", getattr(cell, stat),
                            preset=cell.preset,
                            qps=format(cell.offered_qps, "g"))
        detail = asdict(self)
        return make_record(
            "loadgen", experiment=self.experiment, scale=self.scale,
            preset=self.config_preset, workload=self.workload,
            seed=self.seed, metrics=metrics.as_dict(),
            policies=metrics.policies(), detail=detail,
            fingerprint=payload_digest(detail))
