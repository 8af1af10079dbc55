"""Write-path sweeps: WA and lifetime across admission policies.

``python -m repro writes <experiment> --write-ratio-sweep 0.2,0.5``
runs the write-enabled presets across the admission-policy axis
(write-through, write-back, Flashield-style readiness) and a set of
SET-ratio points, and reports write amplification, the P/E-budget
lifetime estimate, and tail latency per cell — the write-path analogue
of the chaos degradation curves.  Each ``(preset, policy, ratio)``
cell is one independent simulation fanned out through
:mod:`repro.harness.parallel`.

Two write-amplification numbers per cell, both from the measurement
window (DESIGN.md §4j):

* ``wa_factor`` — device-level WA: flash programs issued (host
  writebacks + GC migrations) per host writeback.  ≥ 1.0 by
  construction; the classic FTL metric.
* ``flash_writes_per_app_write`` — end-to-end WA in Flashield's sense:
  flash programs per *application* store.  The DRAM cache coalesces
  repeated stores to a page into one writeback, so this can be far
  below 1 — and it is where the admission policies separate by
  construction: write-through programs flash on (almost) every SET,
  write-back only on dirty eviction, and the readiness filter drops
  evictions of pages without a read history.

Determinism: every cell uses the same simulation seed and the readiness
sketch hashes with its own seeded salts, so two invocations produce
identical records, down to the fingerprint CI's rerun gates on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import make_config
from repro.config.system import WritesConfig
from repro.errors import ReproError
from repro.harness.common import HarnessScale, resolve_scale
from repro.harness.parallel import RunSpec, run_specs_or_none

#: The write-enabled presets (outside EVALUATED_CONFIG_NAMES).
DEFAULT_PRESETS: Tuple[str, ...] = ("astriflash-writes", "flash-sync-writes")

#: Default SET-ratio points (``--write-ratio-sweep`` overrides).
DEFAULT_WRITE_RATIOS: Tuple[float, ...] = (0.5,)

#: Sweep order = expected end-to-end WA order, highest first.
POLICY_ORDER: Tuple[str, ...] = WritesConfig.POLICIES

#: Window-scoped write counters lifted out of ``result.counters``
#: (``writes.`` prefix) into the cell, in cell-field order.
_WINDOW_FIELDS: Tuple[str, ...] = (
    "host_writes",
    "device_writes",
    "app_writes",
    "admission_rejects",
    "writeback_elided",
    "gc_migrated_pages",
    "gc_erases",
    "wa_factor",
    "flash_writes_per_app_write",
)


@dataclass
class WritesCell:
    """One (preset, policy, write_ratio) point of the sweep grid."""

    preset: str
    policy: str
    write_ratio: float
    throughput_jobs_per_s: float = 0.0
    service_p99_ns: float = 0.0
    service_mean_ns: float = 0.0
    host_writes: float = 0.0
    device_writes: float = 0.0
    app_writes: float = 0.0
    admission_rejects: float = 0.0
    writeback_elided: float = 0.0
    gc_migrated_pages: float = 0.0
    gc_erases: float = 0.0
    wa_factor: float = 1.0
    flash_writes_per_app_write: float = 0.0
    #: None when the window saw no erases (P/E budget untouched).
    lifetime_years: Optional[float] = None
    #: True when the run died (e.g. write-buffer capacity exhaustion).
    failed: bool = False


@dataclass
class WritesBench:
    """Everything one write sweep produced."""

    experiment: str
    scale: str
    workload: str
    seed: int
    write_ratio_points: List[float]
    presets: List[str]
    policies: List[str]
    cells: List[WritesCell]
    #: True iff for every (preset, ratio) group the end-to-end WA
    #: (``flash_writes_per_app_write``) is strictly decreasing in
    #: write-through → write-back → readiness order (failed cells
    #: void the group) — the acceptance property the record gates on.
    policy_order_ok: bool = True
    config_preset: str = ""  # HarnessScale.name the run resolved to

    def grid(self, preset: str, write_ratio: float) -> List[WritesCell]:
        """The preset's cells at one ratio, in policy sweep order."""
        return [cell for cell in self.cells
                if cell.preset == preset and cell.write_ratio == write_ratio]

    def format_text(self) -> str:
        lines = [
            f"write sweep: {self.experiment} (scale={self.scale}, "
            f"workload={self.workload}, seed={self.seed})",
            f"  policy WA order (wt > wb > readiness): "
            f"{'yes' if self.policy_order_ok else 'NO'}",
        ]
        for preset in self.presets:
            for ratio in self.write_ratio_points:
                lines.append(f"  {preset} @ write_ratio={ratio:g}:")
                lines.append(
                    f"    {'policy':>13}  {'jobs/s':>9}  {'p99 us':>8}  "
                    f"{'WA(dev)':>7}  {'WA(e2e)':>8}  {'host wr':>8}  "
                    f"{'gc moves':>8}  {'rejects':>7}  {'life yrs':>9}"
                )
                for cell in self.grid(preset, ratio):
                    if cell.failed:
                        lines.append(f"    {cell.policy:>13}  "
                                     f"{'run failed':>9}")
                        continue
                    # Model-scale years are microscopic (tiny device,
                    # 4 KiB blocks): scientific notation or nothing.
                    life = "inf" if cell.lifetime_years is None \
                        else f"{cell.lifetime_years:.2e}"
                    lines.append(
                        f"    {cell.policy:>13}  "
                        f"{cell.throughput_jobs_per_s:>9,.0f}  "
                        f"{cell.service_p99_ns / 1000.0:>8.1f}  "
                        f"{cell.wa_factor:>7.3f}  "
                        f"{cell.flash_writes_per_app_write:>8.4f}  "
                        f"{cell.host_writes:>8.0f}  "
                        f"{cell.gc_migrated_pages:>8.0f}  "
                        f"{cell.admission_rejects:>7.0f}  "
                        f"{life:>8}"
                    )
        return "\n".join(lines)

    def record(self):
        """This sweep as a :class:`~repro.metrics.RunRecord`.

        The policy WA order, per-cell failure, and each cell's write
        counts and the WA ratios they derive gate ``exact`` (they are
        deterministic per seed); latency, throughput and lifetime are
        ``info``.  The fingerprint pins every simulated figure.
        """
        from repro.metrics import (  # deferred: import cost
            EXACT, INFO, MetricSet, make_record, payload_digest,
        )

        metrics = MetricSet()
        metrics.add("writes/policy_order_ok", float(self.policy_order_ok),
                    gate=EXACT)
        for cell in self.cells:
            labels = {"preset": cell.preset, "policy": cell.policy,
                      "ratio": format(cell.write_ratio, "g")}
            metrics.add("writes/failed", float(cell.failed), gate=EXACT,
                        **labels)
            if cell.failed:
                continue
            for stat in _WINDOW_FIELDS:
                metrics.add(f"writes/{stat}", getattr(cell, stat),
                            gate=EXACT, **labels)
            for stat in ("service_p99_ns", "service_mean_ns",
                         "throughput_jobs_per_s", "lifetime_years"):
                metrics.add(f"writes/{stat}", getattr(cell, stat),
                            gate=INFO, **labels)
        detail = asdict(self)
        return make_record(
            "writes", experiment=self.experiment, scale=self.scale,
            preset=self.config_preset, workload=self.workload,
            seed=self.seed, metrics=metrics.as_dict(),
            policies=metrics.policies(), detail=detail,
            fingerprint=payload_digest(detail))


def parse_write_ratio_sweep(text: str) -> Tuple[float, ...]:
    """Parse a ``--write-ratio-sweep`` comma list into sorted floats."""
    points = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            raise ReproError(
                f"bad write-ratio sweep point {token!r}") from None
        if not 0.0 < value <= 1.0:
            raise ReproError(
                f"write-ratio sweep point {value} outside (0, 1]")
        points.append(value)
    if not points:
        raise ReproError("write-ratio sweep needs at least one point")
    return tuple(sorted(set(points)))


def writes_overrides(policy: str) -> Tuple[Tuple[str, object], ...]:
    """Config overrides selecting one admission policy.

    The write presets already enable the write path; the sweep only
    varies the policy axis, so every cell shares one warm-state key.
    """
    if policy not in WritesConfig.POLICIES:
        known = ", ".join(WritesConfig.POLICIES)
        raise ReproError(f"unknown admission policy {policy!r}; "
                         f"known: {known}")
    return (("writes.admission_policy", policy),)


#: Extra kvstore knobs for sweep cells.  ``compute_ns`` models a few
#: microseconds of per-op request handling, which throttles the SET
#: rate to the small write-preset device's program bandwidth —
#: without it the closed loop offers an order of magnitude more
#: stores than the device can ever program and every policy saturates
#: identically.  ``num_keys`` bounds the dirtied footprint well below
#: the FTL's usable space so steady-state GC always has garbage to
#: compact (see the preset's over-provisioning note).
KV_SWEEP_OVERRIDES: Tuple[Tuple[str, object], ...] = (
    ("compute_ns", 5_000.0),
    ("num_keys", 192),
)


def writes_scale(scale: HarnessScale) -> HarnessScale:
    """Derive the write-sweep scale from a harness scale.

    The dataset is capped far below harness scale so the shrunken
    write-preset device turns its physical space over inside the
    (stretched) measurement window — steady-state GC, measured WA and
    a finite lifetime estimate need the space to actually churn.  The
    zipf exponent is capped at 1.2: the read presets' 1.7 concentrates
    half the SET stream on one value page, and since a logical page is
    pinned to one plane, that single plane saturates long before the
    device does.
    """
    return dataclasses.replace(
        scale,
        name=f"{scale.name}-writes",
        dataset_pages=min(scale.dataset_pages, 192),
        measurement_us=max(scale.measurement_us, 30_000.0),
        zipf_s=min(scale.zipf_s, 1.2),
    )


def _check_policy_order(bench: WritesBench) -> bool:
    ordered = [p for p in POLICY_ORDER if p in bench.policies]
    if len(ordered) < 2:
        return True
    for preset in bench.presets:
        for ratio in bench.write_ratio_points:
            by_policy: Dict[str, WritesCell] = {
                cell.policy: cell for cell in bench.grid(preset, ratio)
            }
            last = None
            for policy in ordered:
                cell = by_policy.get(policy)
                if cell is None or cell.failed:
                    return False
                value = cell.flash_writes_per_app_write
                if last is not None and value >= last:
                    return False
                last = value
    return True


def run_writes(experiment: str = "kv", scale="quick",
               write_ratios: Optional[Sequence[float]] = None,
               policies: Optional[Sequence[str]] = None,
               presets: Optional[Sequence[str]] = None,
               workload: str = "kvstore", seed: int = 42,
               jobs: Optional[int] = None) -> WritesBench:
    """Sweep admission policies and SET ratios over the write presets."""
    base_scale = resolve_scale(scale)
    scale = writes_scale(base_scale)
    if write_ratios is None:
        write_ratios = DEFAULT_WRITE_RATIOS
    write_ratios = tuple(sorted(set(float(r) for r in write_ratios)))
    if policies is None:
        policies = POLICY_ORDER
    policies = tuple(policies)
    for policy in policies:
        writes_overrides(policy)  # validate early
    if presets is None:
        presets = DEFAULT_PRESETS
    presets = tuple(presets)
    for preset in presets:  # validate early, like the policies
        if not make_config(preset).writes.enabled:
            raise ReproError(
                f"preset {preset!r} has no write path; write presets: "
                f"{', '.join(DEFAULT_PRESETS)}")

    grid = [
        (preset, policy, ratio)
        for preset in presets
        for ratio in write_ratios
        for policy in policies
    ]
    kv_overrides = KV_SWEEP_OVERRIDES if workload == "kvstore" else ()
    specs = [
        RunSpec(preset, workload, scale, seed=seed,
                workload_overrides=tuple(sorted(
                    kv_overrides + (("write_ratio", ratio),))),
                config_overrides=writes_overrides(policy))
        for preset, policy, ratio in grid
    ]
    results = run_specs_or_none(specs, jobs=jobs)

    cells = []
    for (preset, policy, ratio), result in zip(grid, results):
        if result is None:
            cells.append(WritesCell(preset=preset, policy=policy,
                                    write_ratio=ratio, failed=True))
            continue
        window = {
            name: result.counters.get(f"writes.{name}", 0.0)
            for name in _WINDOW_FIELDS
        }
        lifetime = result.counters.get("writes.lifetime_years")
        cells.append(WritesCell(
            preset=preset,
            policy=policy,
            write_ratio=ratio,
            throughput_jobs_per_s=result.throughput_jobs_per_s,
            service_p99_ns=result.service_p99_ns,
            service_mean_ns=result.service_mean_ns,
            lifetime_years=lifetime,
            **window,
        ))

    bench = WritesBench(
        experiment=experiment,
        scale=base_scale.name,
        workload=workload,
        seed=seed,
        write_ratio_points=list(write_ratios),
        presets=list(presets),
        policies=list(policies),
        cells=cells,
        config_preset=scale.name,
    )
    bench.policy_order_ok = _check_policy_order(bench)
    return bench
