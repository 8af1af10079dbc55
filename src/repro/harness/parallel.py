"""Process-parallel experiment fan-out with stored results.

Every paper artifact is a batch of *independent* ``(config, workload,
arrivals, overrides)`` simulations, so regenerating figures is
embarrassingly parallel.  This module provides the fan-out layer the
figure/table modules build on:

* :class:`RunSpec` — a picklable, hashable description of one run.
  Executing a spec (:func:`execute_spec`) is the one-run path, so
  results are bit-identical regardless of the number of worker
  processes.
* :func:`run_specs` — execute a batch, returning results in spec
  order; when specs raised, one :class:`ParallelRunError` carries
  every failure.  Each finished
  :class:`~repro.core.runner.SimulationResult` is stored by
  :class:`repro.snapshot.SnapshotStore` under :func:`spec_key`
  (``REPRO_CACHE_DIR``, default ``.repro_cache``; disable with
  ``REPRO_CACHE=0``).  The store's header check (format version + a
  digest of the ``repro`` sources) means *any* simulator change
  invalidates stale results.
* :func:`map_tasks` — an uncached generic fan-out for harness stages
  that are not full-system runs (Fig. 1's per-workload page traces).

Both share one fan-out (:func:`_fan_out`): a process pool when
``jobs > 1`` (``--jobs``, ``REPRO_JOBS``), else in-process, with each
call run once, so a batch fails the same way at every job count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
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
        scale = self.scale.name if isinstance(self.scale, HarnessScale) \
            else self.scale
        return f"{self.config_name}/{self.workload_name}@{scale}"


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


def trace(gaps_ns, cycle: bool = False) -> Tuple:
    """Arrival spec replaying recorded inter-arrival gaps."""
    return ("trace", tuple(float(gap) for gap in gaps_ns), bool(cycle))


def _spec_parts(spec: RunSpec):
    """Resolve a spec into its (config, workload kwargs, scale) parts —
    shared by execution and snapshot-key computation."""
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


# ---------------------------------------------------------- stored results --


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


def spec_key(spec: RunSpec) -> str:
    """Content hash naming the stored result for ``spec``."""
    scale = resolve_scale(spec.scale)
    canonical = (
        spec.config_name,
        spec.workload_name,
        tuple(sorted(dataclasses.asdict(scale).items(),
                     key=lambda item: item[0])),
        spec.seed,
        spec.arrivals,
        spec.workload_overrides,
        spec.config_overrides,
    )
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


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


def _log(message: str) -> None:
    if os.environ.get("REPRO_QUIET", "0") != "1":
        print(f"[repro.parallel] {message}", file=sys.stderr)


def _prewarm_groups(specs: Sequence[RunSpec],
                    pending: Sequence[int]) -> None:
    """Warm each warm-key group once in the parent before fanning out,
    so workers restore instead of re-warming.

    Only groups of two or more pending specs whose key is not already
    captured are warmed here — singletons capture inside their own
    worker at no extra cost.  Forked workers inherit the resulting
    warm payloads and datasets; spawned workers warm for themselves.
    A spec that cannot be built or warmed is left to its own run,
    which reports it.
    """
    from repro import snapshot as snap

    groups: Dict[str, List[RunSpec]] = {}
    for index in pending:
        key = _call(_spec_warm_key, specs[index])
        if isinstance(key, str):
            groups.setdefault(key, []).append(specs[index])
    for key, members in groups.items():
        if len(members) > 1 and not snap.warm_captured(key):
            # Builds, warms, and captures; the runner is discarded.
            _call(_prepare_runner, members[0])


def run_specs(specs: Sequence[RunSpec], jobs: Optional[int] = None,
              cache: Optional[bool] = None,
              snapshots: bool = True,
              snapshot_dir: Optional[Union[str, Path]] = None) -> List:
    """Execute a batch of run specs, results in spec order.

    The batch's store policy is set here, once; the experiment and
    verb drivers leave it to the environment the CLI flags set.
    ``jobs`` defaults to ``REPRO_JOBS`` (1 = in-process).  Stored
    results are read from and written to ``snapshot_dir`` (default
    ``REPRO_CACHE_DIR``) when ``cache`` is enabled (default, unless
    ``REPRO_CACHE=0``).  Runs share the process's datasets and warm
    payloads, and with ``jobs > 1`` each group of pending specs that
    shares a warm key is warmed once in the parent before the pool
    fans out; ``snapshots`` must be true (``bench/sweep.py`` still
    passes it).  Every finished result is stored before a
    :class:`ParallelRunError` reports the specs that raised.
    """
    from repro import snapshot as snap

    if not snapshots:
        raise ReproError("run_specs always shares datasets and warm "
                         "payloads; snapshots=False is not supported")
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    store = snap.SnapshotStore(snapshot_dir, enabled=cache)

    results: List = [None] * len(specs)
    keys: List[Optional[str]] = [None] * len(specs)
    if store.enabled:
        keys = [spec_key(spec) for spec in specs]
        results = [store.load(key) for key in keys]
    pending = [index for index, result in enumerate(results)
               if result is None]
    hits = len(specs) - len(pending)

    if jobs > 1 and len(pending) > 1:
        _prewarm_groups(specs, pending)
    outcomes = _fan_out(execute_spec, [specs[i] for i in pending], jobs)
    failures = []
    for index, outcome in zip(pending, outcomes):
        if isinstance(outcome, Exception):
            failures.append((specs[index], outcome))
        else:
            results[index] = outcome
            store.store(keys[index], outcome)

    if hits or jobs > 1:
        _log(f"{len(specs)} runs: {hits} cache hits, "
             f"{len(pending)} executed (jobs={jobs})")
    if failures:
        raise ParallelRunError(failures, results)
    return results


def map_tasks(func: Callable, kwargs_list: Sequence[Mapping[str, Any]],
              jobs: Optional[int] = None) -> List:
    """Generic uncached fan-out: ``[func(**kw) for kw in kwargs_list]``
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
