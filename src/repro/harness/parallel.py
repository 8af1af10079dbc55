"""Process-parallel experiment fan-out.

Every paper artifact is a batch of *independent* ``(config, workload,
arrivals, overrides)`` simulations, so regenerating figures is
embarrassingly parallel.  This module provides the fan-out layer the
figure/table modules build on:

* :class:`RunSpec` — a picklable, hashable description of one run.
  Executing a spec (:func:`execute_spec`) is the one-run path, so
  results are bit-identical regardless of the number of worker
  processes.
* :func:`run_specs` — simulate a batch, returning results in spec
  order; when specs raised, one :class:`ParallelRunError` carries
  every failure.  Every result is simulated: nothing is read from or
  written to disk.
* :func:`map_tasks` — a generic fan-out for harness stages that are
  not full-system runs (Fig. 1's per-workload page traces).
* :func:`saturation` and :func:`arrival_spec` — the DRAM-only anchor run
  and the aggregate-load-to-per-core-streams step Fig. 10, Table II and
  ``repro loadgen`` share.

Both share one fan-out (:func:`_fan_out`): a process pool when
``jobs > 1`` (``--jobs``, ``REPRO_JOBS``), else in-process, with each
call run once, so a batch fails the same way at every job count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError, ReproError
from repro.harness.common import HarnessScale, build_config, resolve_scale
from repro.core import Runner
from repro.units import US
from repro.workloads import arrival_from_spec


class ParallelRunError(ReproError):
    """One or more specs of a batch raised.

    ``failures`` holds every ``(spec, cause)`` in spec order, ``spec``
    and ``cause`` the first of them, and ``results`` the batch's
    results in spec order with ``None`` where a spec failed, so a sweep
    keeps the points that finished and reports *which* ones died.
    """

    def __init__(self, failures: List[Tuple["RunSpec", Exception]],
                 results: List) -> None:
        self.failures, self.results = failures, results
        self.spec, self.cause = failures[0]
        more = f" (and {len(failures) - 1} more)" if failures[1:] else ""
        super().__init__(f"run spec {self.spec.label()} failed: "
                         f"{self.cause!r}{more}")


# --------------------------------------------------------------- run specs --


@dataclass(frozen=True)
class RunSpec:
    """One full-system simulation, described by value.

    ``arrivals`` is ``None`` for a closed loop or the tuple returned by
    :func:`poisson`; ``workload_overrides`` are extra keyword arguments
    for :func:`~repro.workloads.make_workload`; ``config_overrides``
    are ``(dotted_path, value)`` pairs that
    :func:`~repro.config.derive` applies to the preset (e.g.
    ``("scale.dram_fraction", 0.05)``).
    """

    config_name: str
    workload_name: str
    scale: Union[str, HarnessScale]
    seed: int = 42
    arrivals: Optional[Tuple] = None
    workload_overrides: Tuple[Tuple[str, Any], ...] = ()
    config_overrides: Tuple[Tuple[str, Any], ...] = ()

    def label(self) -> str:
        """``config/workload@scale`` and each field set beyond its
        default, so the specs of one batch read apart."""
        scale = self.scale.name if isinstance(self.scale, HarnessScale) \
            else self.scale
        parts = [f"{self.config_name}/{self.workload_name}@{scale}"]
        if self.seed != 42:
            parts.append(f"seed={self.seed}")
        if self.arrivals is not None:
            parts.append(f"{self.arrivals[0]} gap={self.arrivals[1]:g}ns")
        parts.extend(f"{path}={value}" for path, value
                     in self.workload_overrides + self.config_overrides)
        return " ".join(parts)


def poisson(mean_interarrival_ns: float, seed: int = 42) -> Tuple:
    """Arrival spec for open-loop Poisson arrivals (picklable tuple).

    ``mean_interarrival_ns`` is *per core* (each core runs its own
    arrival stream; see :mod:`repro.workloads.arrival`): a machine
    with N cores sees an aggregate rate of ``N / mean``.
    """
    return ("poisson", float(mean_interarrival_ns), int(seed))


def mmpp(mean_interarrival_ns: float, burst_interarrival_ns: float,
         mean_dwell_ns: float, burst_dwell_ns: float, seed: int = 42,
         streams: int = 1) -> Tuple:
    """Arrival spec for bursty two-state MMPP arrivals (per-core
    means; ``streams`` = cores sharing the process object)."""
    return ("mmpp", float(mean_interarrival_ns),
            float(burst_interarrival_ns), float(mean_dwell_ns),
            float(burst_dwell_ns), int(seed), int(streams))


def diurnal(mean_interarrival_ns: float, period_ns: float,
            amplitude: float = 0.5, seed: int = 42,
            streams: int = 1) -> Tuple:
    """Arrival spec for sinusoidally rate-modulated arrivals."""
    return ("diurnal", float(mean_interarrival_ns), float(period_ns),
            float(amplitude), int(seed), int(streams))


# Bursty/diurnal arrival shapes (see arrival_spec).  The MMPP cycle
# sits well inside the quick measurement window so every run sees
# multiple burst episodes; the diurnal period matches half the quick
# window for one full peak-trough swing.
MMPP_BURST_RATIO = 4.0        # burst-state rate / normal-state rate
MMPP_BURST_FRACTION = 0.1     # stationary fraction of time in burst
MMPP_CYCLE_NS = 400.0 * US    # mean dwell cycle (normal + burst)
DIURNAL_PERIOD_NS = 1_000.0 * US
DIURNAL_AMPLITUDE = 0.5

ARRIVAL_KINDS = ("poisson", "mmpp", "diurnal")


def arrival_spec(kind: str, qps: float, num_cores: int,
                 seed: int) -> Tuple:
    """Arrival spec offering an *aggregate* load of ``qps``: each core
    runs its own stream, ``num_cores / qps`` seconds apart on average,
    and the modulated shapes pass ``streams=num_cores`` so their shared
    dwell/period clocks track machine time."""
    per_core_mean_ns = num_cores / qps * 1e9
    if kind == "poisson":
        return poisson(per_core_mean_ns, seed=seed + 1)
    if kind == "mmpp":
        # Pick the normal-state gap so the *stationary* rate matches
        # the requested load: rate = (f0 + f1*ratio) / normal_gap.
        burst_dwell_ns = MMPP_CYCLE_NS * MMPP_BURST_FRACTION
        mean_dwell_ns = MMPP_CYCLE_NS - burst_dwell_ns
        normal_gap_ns = per_core_mean_ns * (
            (1.0 - MMPP_BURST_FRACTION)
            + MMPP_BURST_FRACTION * MMPP_BURST_RATIO
        )
        return mmpp(
            normal_gap_ns, normal_gap_ns / MMPP_BURST_RATIO,
            mean_dwell_ns, burst_dwell_ns, seed=seed + 1,
            streams=num_cores,
        )
    return diurnal(
        per_core_mean_ns, DIURNAL_PERIOD_NS, DIURNAL_AMPLITUDE,
        seed=seed + 1, streams=num_cores,
    )


def saturation(workload: str, scale, seed: int = 42) -> RunSpec:
    """The DRAM-only closed-loop run whose throughput anchors the
    open-loop loads of Fig. 10, Table II and ``repro loadgen``."""
    return RunSpec("dram-only", workload, scale, seed=seed)


def _spec_parts(spec: RunSpec):
    """Resolve a spec into its (config, workload kwargs, scale) parts —
    shared by execution and warm-key computation."""
    scale = resolve_scale(spec.scale)
    config = build_config(spec.config_name, scale, spec.config_overrides)
    kwargs = scale.workload_kwargs()
    kwargs.update(dict(spec.workload_overrides))
    return config, kwargs, scale


def _spec_warm_key(spec: RunSpec) -> Optional[str]:
    """The spec's warm-state snapshot key (None = no warm state)."""
    from repro import snapshot as snap

    config, kwargs, scale = _spec_parts(spec)
    return snap.warm_key(config, spec.workload_name, spec.seed, kwargs,
                         dataset_pages=scale.dataset_pages)


def _prepare_runner(spec: RunSpec) -> Runner:
    """Build the :class:`Runner` for one spec, warm state included.

    The workload is a session over the process's shared dataset, and
    the warm/measure-boundary state is restored when this process
    already captured the spec's warm key — bit-identical to a fresh
    ``machine.warm_caches()`` — or captured for the rest of the sweep
    otherwise.
    """
    from repro import snapshot as snap

    config, kwargs, scale = _spec_parts(spec)
    arrivals = arrival_from_spec(spec.arrivals)
    workload = snap.build_workload(spec.workload_name, scale.dataset_pages,
                                   spec.seed, **kwargs)
    key = snap.warm_key(config, spec.workload_name, spec.seed, kwargs,
                        dataset_pages=scale.dataset_pages)
    captured = key is not None and snap.warm_captured(key)
    runner = Runner(config, workload, arrivals=arrivals, warm=not captured)
    if captured:
        snap.restore_warm(runner, key)
    elif key is not None:
        snap.capture_warm(runner, key)
    return runner


def execute_spec(spec: RunSpec):
    """Run one spec to a ``SimulationResult``.

    The capture and the restore path (see :func:`_prepare_runner`)
    give results bit-identical to a run that builds its own workload
    and warms from scratch — ``tests/test_snapshot.py`` pins this.
    """
    return _prepare_runner(spec).run()


# ---------------------------------------------------------------- job count --


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS``; 1 (serial) when unset."""
    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ConfigurationError(
            f"REPRO_JOBS must be an integer >= 1, got {raw!r}")
    return jobs


def resolve_jobs(jobs: Optional[int]) -> int:
    """``jobs``, or :func:`default_jobs` when ``None``; a count below
    1 is an error, not a serial run."""
    if jobs is None:
        return default_jobs()
    if jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {jobs}")
    return int(jobs)


# ----------------------------------------------------------------- fan-out --


def _pool_context():
    """The multiprocessing context for worker pools.

    ``fork`` is requested explicitly (not left to the platform
    default): forked workers inherit the parent's datasets and warm
    payloads, so pre-warmed state reaches them for free.  On platforms
    without ``fork`` (Windows; macOS where it is unreliable with
    threads) this falls back to the platform default (``spawn``), where
    workers build their own datasets and warm for themselves — same
    results.
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def _run_in_pool(func: Callable, items: Sequence,
                 jobs: int) -> Optional[List]:
    """Each ``func(item)``'s result or exception from a pool of
    ``jobs`` workers, in item order (a call the pool lost to a dead
    worker is a ``BrokenProcessPool``); ``None`` when no pool could be
    created or could start its workers."""
    try:
        from concurrent.futures import Future, ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=_pool_context()) as pool:
            futures = [pool.submit(func, item) for item in items]
            return [_call(Future.result, future) for future in futures]
    except Exception:
        return None


def _call(func: Callable, item):
    """``func(item)``, or the exception it raised."""
    try:
        return func(item)
    except Exception as exc:
        return exc


def _fan_out(func: Callable, items: Sequence, jobs: int) -> List:
    """Each ``func(item)``'s result or exception, in item order, from a
    process pool when ``jobs > 1`` and there are two or more items,
    else (or when no pool can be created) in-process.  Only a call the
    pool lost runs again, once and in-process; a call that raised is
    never re-run."""
    outcomes = None
    if jobs > 1 and len(items) > 1:
        outcomes = _run_in_pool(func, items, min(jobs, len(items)))
    if outcomes is None:
        return [_call(func, item) for item in items]
    from concurrent.futures.process import BrokenProcessPool

    return [_call(func, item) if isinstance(outcome, BrokenProcessPool)
            else outcome for item, outcome in zip(items, outcomes)]


def _prewarm_groups(specs: Sequence[RunSpec]) -> None:
    """Warm each warm-key group once in the parent before fanning out,
    so workers restore instead of re-warming.

    Only groups of two or more specs whose key is not already
    captured are warmed here — singletons capture inside their own
    worker at no extra cost.  Forked workers inherit the resulting
    warm payloads and datasets; spawned workers warm for themselves.
    A spec that cannot be built or warmed is left to its own run,
    which reports it.
    """
    from repro import snapshot as snap

    groups: Dict[str, List[RunSpec]] = {}
    for spec in specs:
        key = _call(_spec_warm_key, spec)
        if isinstance(key, str):
            groups.setdefault(key, []).append(spec)
    for key, members in groups.items():
        if len(members) > 1 and not snap.warm_captured(key):
            # Builds, warms, and captures; the runner is discarded.
            _call(_prepare_runner, members[0])


def run_specs(specs: Sequence[RunSpec], jobs: Optional[int] = None,
              cache: bool = False, snapshots: bool = True,
              snapshot_dir: Optional[Union[str, Path]] = None) -> List:
    """Simulate a batch of run specs, results in spec order.

    ``jobs`` defaults to ``REPRO_JOBS`` (1 = in-process).  Runs share
    the process's datasets and warm payloads, and with ``jobs > 1``
    each group of specs that shares a warm key is warmed once in the
    parent before the pool fans out.  ``cache``, ``snapshots`` and
    ``snapshot_dir`` remain only for ``bench/sweep.py``, which passes
    ``cache=False``, ``snapshots=True`` and a directory this never
    touches; any other ``cache`` or ``snapshots`` value raises.  Every
    spec runs before a :class:`ParallelRunError` reports the ones that
    raised.
    """
    if cache or not snapshots:
        raise ReproError("run_specs always simulates and always shares "
                         "datasets and warm payloads; cache=True and "
                         "snapshots=False are not supported")
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    if jobs > 1 and len(specs) > 1:
        _prewarm_groups(specs)
    results = _fan_out(execute_spec, specs, jobs)
    failures = [(spec, outcome) for spec, outcome in zip(specs, results)
                if isinstance(outcome, Exception)]
    if failures:
        raise ParallelRunError(failures, [
            None if isinstance(outcome, Exception) else outcome
            for outcome in results])
    return results


def map_tasks(func: Callable, kwargs_list: Sequence[Mapping[str, Any]],
              jobs: Optional[int] = None) -> List:
    """Generic fan-out: ``[func(**kw) for kw in kwargs_list]``
    across worker processes, in order, through the same fan-out as
    :func:`run_specs`; the first task that raised raises
    :class:`ReproError`.

    ``func`` must be a module-level (picklable) callable.
    """
    items = [(func, dict(kwargs)) for kwargs in kwargs_list]
    outcomes = _fan_out(_call_task, items, resolve_jobs(jobs))
    for (_, kwargs), outcome in zip(items, outcomes):
        if isinstance(outcome, Exception):
            raise ReproError(f"task {func.__name__}(**{kwargs!r}) failed: "
                             f"{outcome!r}") from outcome
    return outcomes


def _call_task(item: Tuple[Callable, Dict[str, Any]]):
    func, kwargs = item
    return func(**kwargs)
