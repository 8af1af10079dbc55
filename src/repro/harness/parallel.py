"""Process-parallel experiment fan-out with stored results.

Every paper artifact is a batch of *independent* ``(config, workload,
arrivals, overrides)`` simulations, so regenerating figures is
embarrassingly parallel.  This module provides the fan-out layer the
figure/table modules build on:

* :class:`RunSpec` — a picklable, hashable description of one run.
  Executing a spec (:func:`execute_spec`) is the one-run path, so
  results are bit-identical regardless of the number of worker
  processes.
* :func:`run_specs` — execute a batch across a
  ``ProcessPoolExecutor``, returning results in spec order.  Falls back
  to in-process execution when ``jobs == 1`` (the default, also set via
  ``REPRO_JOBS``) or when a process pool cannot be created.  A crashed
  worker is retried once in-process before a structured
  :class:`ParallelRunError` is raised.  Each finished
  :class:`~repro.core.runner.SimulationResult` is stored by
  :class:`repro.snapshot.SnapshotStore` under :func:`spec_key`
  (``REPRO_CACHE_DIR``, default ``.repro_cache``; disable with
  ``REPRO_CACHE=0``).  The store's header check (format version + a
  digest of the ``repro`` sources) means *any* simulator change
  invalidates stale results.
* :func:`map_tasks` — an uncached generic fan-out for harness stages
  that are not full-system runs (Fig. 1's per-workload page traces).
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
    """A run spec failed (after the one crash retry the pool allows).

    Carries the failing spec and the underlying cause so sweep drivers
    can report *which* point of a batch died.
    """

    def __init__(self, spec: "RunSpec", cause: BaseException) -> None:
        super().__init__(f"run spec {spec.label()} failed: {cause!r}")
        self.spec = spec
        self.cause = cause


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
    """Run ``func`` over ``items`` in a process pool.

    Returns a list aligned with ``items`` where each slot is either the
    result or the exception that run raised.  Returns ``None`` when no
    pool could be created at all (caller falls back in-process).
    """
    try:
        from concurrent.futures import ProcessPoolExecutor
        executor = ProcessPoolExecutor(max_workers=jobs,
                                       mp_context=_pool_context())
    except Exception:
        return None
    outcomes: List = [None] * len(items)
    try:
        with executor:
            futures = {
                executor.submit(func, item): index
                for index, item in enumerate(items)
            }
            for future, index in futures.items():
                try:
                    outcomes[index] = future.result()
                except BaseException as exc:  # includes BrokenProcessPool
                    outcomes[index] = exc
    except Exception:
        # The pool itself failed to start workers; fall back.
        return None
    return outcomes


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
    """
    from repro import snapshot as snap

    groups: Dict[str, List[int]] = {}
    for index in pending:
        key = _spec_warm_key(specs[index])
        if key is not None:
            groups.setdefault(key, []).append(index)
    for key, members in groups.items():
        if len(members) < 2 or snap.warm_captured(key):
            continue
        # Builds, warms, and captures; the runner itself is discarded.
        _prepare_runner(specs[members[0]])


def run_specs(specs: Sequence[RunSpec], jobs: Optional[int] = None,
              cache: Optional[bool] = None,
              report: Optional[Dict[str, int]] = None,
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
    passes it).  Each spec that crashes its worker is retried once
    in-process; a second failure raises :class:`ParallelRunError`.
    ``report``, if given, is filled with batch statistics
    (``cache_hits`` / ``executed`` / ``retried`` / ``jobs``).
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

    retried = 0
    if pending:
        outcomes: Optional[List] = None
        if jobs > 1 and len(pending) > 1:
            _prewarm_groups(specs, pending)
            outcomes = _run_in_pool(
                execute_spec, [specs[i] for i in pending],
                min(jobs, len(pending)),
            )
        if outcomes is None:
            # In-process path: jobs == 1, a single spec, or no usable
            # process pool on this platform.  The warm payloads already
            # give in-process group sharing, no pre-warm pass needed.
            outcomes = []
            for index in pending:
                try:
                    outcomes.append(execute_spec(specs[index]))
                except Exception as exc:
                    outcomes.append(exc)
        for slot, index in enumerate(pending):
            outcome = outcomes[slot]
            if isinstance(outcome, BaseException):
                # One retry, in-process: a crashed worker poisons every
                # future on its pool, so the retry both re-runs genuine
                # failures and rescues innocent casualties.
                retried += 1
                try:
                    outcome = execute_spec(specs[index])
                except Exception as exc:
                    raise ParallelRunError(specs[index], exc) from exc
            results[index] = outcome
            store.store(keys[index], outcome)

    if report is not None:
        report.update(cache_hits=hits, executed=len(pending),
                      retried=retried, jobs=jobs)
    if hits or jobs > 1:
        _log(f"{len(specs)} runs: {hits} cache hits, "
             f"{len(pending)} executed (jobs={jobs})")
    return results


def run_spec(spec: RunSpec, **kwargs):
    """Convenience wrapper: one spec, one result."""
    return run_specs([spec], **kwargs)[0]


def run_specs_or_none(specs: Sequence[RunSpec],
                      jobs: Optional[int] = None) -> List:
    """:func:`run_specs` for sweep grids whose points may die: a spec
    that fails comes back as ``None`` instead of raising.

    When the batch raises :class:`ParallelRunError` (a
    ``DeviceFailedError`` at an extreme fault rate, write-buffer
    capacity at an extreme SET ratio), every spec is re-run in-process,
    so the surviving points still produce curves and a spec that
    raises :class:`ReproError` is marked ``None``.
    """
    try:
        return run_specs(specs, jobs=jobs)
    except ParallelRunError:
        results = []
        for spec in specs:
            try:
                results.append(execute_spec(spec))
            except ReproError:
                results.append(None)
        return results


def map_tasks(func: Callable, kwargs_list: Sequence[Mapping[str, Any]],
              jobs: Optional[int] = None) -> List:
    """Generic uncached fan-out: ``[func(**kw) for kw in kwargs_list]``
    across worker processes, in order, with the same in-process
    fallback and single-retry policy as :func:`run_specs`.

    ``func`` must be a module-level (picklable) callable.
    """
    jobs = resolve_jobs(jobs)
    items = [(func, dict(kwargs)) for kwargs in kwargs_list]
    outcomes: Optional[List] = None
    if jobs > 1 and len(items) > 1:
        outcomes = _run_in_pool(_call_task, items, min(jobs, len(items)))
    if outcomes is None:
        outcomes = []
        for item in items:
            try:
                outcomes.append(_call_task(item))
            except Exception as exc:
                outcomes.append(exc)
    results: List = []
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, BaseException):
            try:
                outcome = _call_task(items[index])
            except Exception as exc:
                raise ReproError(
                    f"task {func.__name__}(**{items[index][1]!r}) failed: "
                    f"{exc!r}"
                ) from exc
        results.append(outcome)
    return results


def _call_task(item: Tuple[Callable, Dict[str, Any]]):
    func, kwargs = item
    return func(**kwargs)
