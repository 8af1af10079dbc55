"""Write-path sweeps: WA and lifetime across admission policies.

``python -m repro writes <experiment> --write-ratio-sweep 0.2,0.5``
runs the write-enabled presets across the admission policies
(write-through, write-back, Flashield-style readiness) and SET ratios,
and reports write amplification, the P/E-budget lifetime estimate and
tail latency per cell: the write-path analogue of the chaos curves.

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

The readiness sketch hashes with its own seeded salts, so two runs
produce the same record, down to the fingerprint CI's rerun gates on.
"""

from __future__ import annotations

import dataclasses
from operator import itemgetter
from typing import Optional, Sequence, Tuple

from repro.config import make_config
from repro.config.system import WritesConfig
from repro.errors import ReproError
from repro.harness.common import HarnessScale, resolve_scale
from repro.harness.parallel import RunSpec
from repro.harness.sweep import (
    Column, Gate, Sweep, SweepResult, parse_points, run_sweep,
)

#: The write-enabled presets (outside EVALUATED_CONFIG_NAMES).
DEFAULT_PRESETS: Tuple[str, ...] = ("astriflash-writes", "flash-sync-writes")

#: Default SET-ratio points (``--write-ratio-sweep`` overrides).
DEFAULT_WRITE_RATIO_SWEEP = "0.5"

#: Sweep order = expected end-to-end WA order, highest first.
POLICY_ORDER: Tuple[str, ...] = WritesConfig.POLICIES

_LATENCY_FIELDS: Tuple[str, ...] = (
    "throughput_jobs_per_s", "service_p99_ns", "service_mean_ns")

#: Window-scoped write counters lifted out of ``result.counters``
#: (``writes.`` prefix) into the cell, in cell order.
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


def _read(result) -> dict:
    """A cell's columns.  ``lifetime_years`` is None when the window
    saw no erases (P/E budget untouched); a run that raised (e.g.
    write-buffer capacity exhaustion) reads as zeros."""
    if result is None:
        return {**dict.fromkeys(_LATENCY_FIELDS + _WINDOW_FIELDS, 0.0),
                "wa_factor": 1.0, "lifetime_years": None}
    counters = result.counters
    return {
        **{name: getattr(result, name) for name in _LATENCY_FIELDS},
        **{name: counters.get(f"writes.{name}", 0.0)
           for name in _WINDOW_FIELDS},
        "lifetime_years": counters.get("writes.lifetime_years"),
    }


def _lifetime(cell) -> str:
    # Model-scale years are microscopic (tiny device, 4 KiB blocks):
    # scientific notation or nothing.
    years = cell["lifetime_years"]
    return "inf" if years is None else f"{years:.2e}"


#: The write-sweep table and record.  The policy WA order, per-cell
#: failure, and each cell's write counts and the WA ratios they derive
#: gate ``exact`` (deterministic per seed); latency, throughput and
#: lifetime are ``info``.
WRITES = Sweep(
    verb="writes",
    head=("write sweep: {experiment} (scale={scale}, "
          "workload={workload}, seed={seed})",
          "  policy WA order (wt > wb > readiness): {gate}"),
    gate=Gate("policy_order_ok", "flash_writes_per_app_write",
              factor="policy",
              order=POLICY_ORDER,
              failure="admission-policy WA ordering violated (expected "
                      "write-through > write-back > readiness on "
                      "flash_writes_per_app_write)"),
    columns=(
        Column("policy", 13, ">13", itemgetter("policy")),
        Column("jobs/s", 9, ">9,.0f", itemgetter("throughput_jobs_per_s")),
        Column("p99 us", 8, ">8.1f",
               lambda cell: cell["service_p99_ns"] / 1000.0),
        Column("WA(dev)", 7, ">7.3f", itemgetter("wa_factor")),
        Column("WA(e2e)", 8, ">8.4f",
               itemgetter("flash_writes_per_app_write")),
        Column("host wr", 8, ">8.0f", itemgetter("host_writes")),
        Column("gc moves", 8, ">8.0f", itemgetter("gc_migrated_pages")),
        Column("rejects", 7, ">7.0f", itemgetter("admission_rejects")),
        Column("life yrs", 9, ">8", _lifetime),
    ),
    metrics=tuple((name, "exact") for name in _WINDOW_FIELDS) + (
        ("service_p99_ns", "info"), ("service_mean_ns", "info"),
        ("throughput_jobs_per_s", "info"), ("lifetime_years", "info")),
    labels=(("policy", "policy"), ("ratio", "write_ratio")),
    block="  {preset} @ write_ratio={write_ratio:g}:",
    failed="run failed",
    read=_read,
)


def run_writes(experiment: str = "kv", scale="quick",
               write_ratio_sweep: Optional[str] = None,
               policies: Optional[Sequence[str]] = None,
               presets: Optional[Sequence[str]] = None,
               seed: int = 42, jobs: Optional[int] = None) -> SweepResult:
    """Sweep admission policies and SET ratios of the kvstore workload
    over the write presets."""
    base_scale = resolve_scale(scale)
    scale = writes_scale(base_scale)
    write_ratios = parse_points(
        DEFAULT_WRITE_RATIO_SWEEP if write_ratio_sweep is None
        else write_ratio_sweep, "write-ratio", "(0, 1]")
    policies = POLICY_ORDER if policies is None else tuple(policies)
    presets = DEFAULT_PRESETS if presets is None else tuple(presets)
    # An empty list runs no cell, and the order gate would pass on
    # no evidence.
    if not policies:
        raise ReproError("writes needs at least one admission policy")
    if not presets:
        raise ReproError("writes needs at least one preset")
    for policy in policies:
        writes_overrides(policy)  # validate early
    for preset in presets:  # validate early, like the policies
        if not make_config(preset).writes.enabled:
            raise ReproError(
                f"preset {preset!r} has no write path; write presets: "
                f"{', '.join(DEFAULT_PRESETS)}")

    def spec(preset: str, point) -> RunSpec:
        return RunSpec(preset, "kvstore", scale, seed=seed,
                       workload_overrides=tuple(sorted(
                           KV_SWEEP_OVERRIDES
                           + (("write_ratio", point["write_ratio"]),))),
                       config_overrides=writes_overrides(point["policy"]))

    return run_sweep(dataclasses.replace(
        WRITES,
        about=(("experiment", experiment), ("scale", base_scale.name),
               ("workload", "kvstore"), ("seed", seed),
               ("write_ratio_points", list(write_ratios)),
               ("presets", list(presets)), ("policies", list(policies))),
        points=tuple({"policy": policy, "write_ratio": ratio}
                     for ratio in write_ratios for policy in policies),
        spec=spec, seed=seed, config_preset=scale.name,
    ), jobs=jobs)
