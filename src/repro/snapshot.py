"""The process's shared run state: datasets and warm payloads, which
amortize dataset builds and cache warmup across experiment sweeps
(DESIGN.md §4e).

Every figure/table harness is a *sweep*, yet each run used to rebuild
its workload dataset and re-warm the DRAM cache / resident set from
scratch — even when sweep points differ only in a parameter that does
not affect warm state (arrival rate, switch cost, MSR depth).  This
module memoizes both, in the process and never on disk; every run is
still simulated:

* **Datasets** (:func:`build_workload`) — each workload dataset (hash
  index, trees, page layout, Zipf tables) is built once per process
  for its :func:`workload_key` and shared read-only; every run gets a
  fresh *session* over it (:meth:`~repro.workloads.Workload.session`),
  which holds all the state a run mutates.
* **Warm payloads** (:func:`capture_warm` / :func:`restore_warm`) —
  DRAM-cache tags/ways/dirty bits and reservation maps (or the OS
  resident set), plus the workload session and the runner RNG state at
  the warm/measure boundary; no dataset.  Each is pickled under its
  :func:`warm_key` beside the datasets, so every restore unpickles a
  private object graph.  Restoring is *bit-identical* to a fresh warm:
  the golden determinism test passes unchanged through both paths,
  enforced by :meth:`~repro.core.machine.Machine.state_fingerprint`
  equality.

``fork``-started workers inherit the datasets and the warm payloads;
spawn-started workers build and warm for themselves, with the same
results.  :func:`source_digest` stamps every run record with the
sources that produced it.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.config.system import PagingMode, SystemConfig
from repro.core.machine import DEFAULT_WARM_STEPS
from repro.workloads import Workload, make_workload
from repro.workloads.registry import workload_class

# ------------------------------------------------------------------ digests --

_SOURCE_DIGEST: Optional[str] = None


def source_digest() -> str:
    """Digest of every ``repro`` source file, which stamps each run
    record with the simulator that produced it."""
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        import repro
        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
        _SOURCE_DIGEST = digest.hexdigest()[:16]
    return _SOURCE_DIGEST


def _digest(canonical: Tuple) -> str:
    return hashlib.sha256(repr(canonical).encode()).hexdigest()[:32]


def workload_key(name: str, dataset_pages: int, seed: int,
                 kwargs: Dict[str, Any]) -> str:
    """Digest of the parameters that shape the built dataset: the seed
    only where the build draws from it (rbtree)."""
    if not workload_class(name).seeded_dataset:
        seed = None
    return _digest(("workload", name, int(dataset_pages), seed,
                    tuple(sorted(kwargs.items()))))


def warm_key(config: SystemConfig, workload_name: str, seed: int,
             workload_kwargs: Dict[str, Any],
             dataset_pages: Optional[int] = None,
             warm_steps: int = DEFAULT_WARM_STEPS) -> Optional[str]:
    """Digest of only the *resolved* config fields and workload
    parameters that affect post-warmup machine state.

    Sweep points that differ in arrival rate, switch cost, MSR depth,
    scheduling policy, partitioning, ... hash identically and share one
    warm.  ``dataset_pages`` is the *workload's* dataset size (defaults
    to the config's); cache geometry enters through the resolved tier
    tuple, so e.g. astriflash / astriflash-ideal / flash-sync share a
    warm.  ``None`` when the configuration has no warm state
    (DRAM-only).
    """
    mode = config.mode
    if mode is PagingMode.DRAM_ONLY:
        return None
    if dataset_pages is None:
        dataset_pages = config.scale.dataset_pages
    if mode in (PagingMode.ASTRIFLASH, PagingMode.FLASH_SYNC):
        # Hardware DRAM cache: warm state depends on the cache geometry
        # the organization is built with.
        tier: Tuple = ("dramcache", config.scaled_dram_cache_pages,
                       config.dram_cache.associativity)
    else:
        # OS-Swap: fully-associative resident set of the same capacity.
        tier = ("resident", config.scaled_dram_cache_pages)
    return _digest(("warm-state", workload_name, int(dataset_pages),
                    int(seed), tuple(sorted(workload_kwargs.items())),
                    tier, int(warm_steps)))


# ------------------------------------------------------------ shared datasets --

#: The process's built datasets by :func:`workload_key`.  Each is a
#: workload that never runs; runs get sessions over it.
_DATASETS: Dict[str, Workload] = {}

#: The process's warm payloads by :func:`warm_key`, pickled, so each
#: restore unpickles a private object graph.
_WARM: Dict[str, bytes] = {}


def clear_memo() -> None:
    """Forget the process's built datasets and warm payloads."""
    _DATASETS.clear()
    _WARM.clear()


def build_workload(name: str, dataset_pages: int, seed: int, **kwargs):
    """:func:`~repro.workloads.make_workload` over a shared dataset.

    The dataset (the hash index's flat chains, masstree/rbtree node
    builds, page layout, Zipf tables) is built once per process and
    key; the returned workload is a fresh session over it,
    bit-identical to a fresh construction, and shares its indexes'
    per-key path memos.
    """
    key = workload_key(name, dataset_pages, seed, kwargs)
    dataset = _DATASETS.get(key)
    if dataset is None:
        dataset = _DATASETS[key] = make_workload(
            name, dataset_pages, seed=seed, **kwargs)
    return dataset.session(seed)


# ------------------------------------------------- warm-state capture/restore --


def warm_captured(key: str) -> bool:
    """Whether this process holds a warm payload under ``key``."""
    return key in _WARM


def capture_warm(runner, key: str,
                 warm_steps: Optional[int] = None) -> None:
    """Warm ``runner`` freshly (idempotent) and keep the
    warm/measure-boundary state under ``key``.

    The payload carries everything the measurement phase reads that
    warmup wrote: the workload session (RNG and Zipf streams, job
    counter, run state; not the dataset), the runner RNG state, and the
    machine's warm state (DRAM-cache tags/ways/dirty bits and
    reservation maps, or the resident set).
    """
    runner.warm(warm_steps)
    _WARM[key] = pickle.dumps({
        "session": runner.workload.dump_session(),
        "rng_state": runner._rng.getstate(),
        "machine": runner.machine.dump_warm_state(),
    }, protocol=pickle.HIGHEST_PROTOCOL)


def restore_warm(runner, key: str) -> None:
    """Load the warm payload captured under ``key`` into a
    freshly-constructed runner whose workload is a fresh session of the
    payload's seed, instead of calling ``machine.warm_caches()``.

    The restore contract is *bit-identical continuation*: after this
    call the runner's observable state (machine fingerprint, workload
    session, runner RNG) equals the state a fresh warm with the same
    inputs would have produced.
    """
    payload = pickle.loads(_WARM[key])
    start = time.perf_counter()
    runner.workload.load_session(payload["session"])
    runner._rng.setstate(payload["rng_state"])
    runner.machine.load_warm_state(payload["machine"])
    runner.mark_warm_restored(time.perf_counter() - start)

