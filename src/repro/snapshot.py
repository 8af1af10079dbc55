"""The harness store and the process's shared run state: datasets,
warm payloads and stored results, which amortize dataset builds, cache
warmup and whole runs across experiment sweeps (DESIGN.md §4e).

Every figure/table harness is a *sweep*, yet each run used to rebuild
its workload dataset and re-warm the DRAM cache / resident set from
scratch — even when sweep points differ only in a parameter that does
not affect warm state (arrival rate, switch cost, MSR depth).  This
module memoizes both, and the finished runs themselves:

* **Datasets** (:func:`build_workload`) — each workload dataset (hash
  index, trees, page layout, Zipf tables) is built once per process
  for its :func:`workload_key` and shared read-only; every run gets a
  fresh *session* over it (:meth:`~repro.workloads.Workload.session`),
  which holds all the state a run mutates.
* **Warm payloads** (:func:`capture_warm` / :func:`restore_warm`) —
  DRAM-cache tags/ways/dirty bits and reservation maps (or the OS
  resident set), plus the workload session and the runner RNG state at
  the warm/measure boundary; no dataset.  Each lives in the process,
  pickled under its :func:`warm_key` beside the datasets, so every
  restore unpickles a private object graph.  Restoring is
  *bit-identical* to a fresh warm: the golden determinism test passes
  unchanged through both paths, enforced by
  :meth:`~repro.core.machine.Machine.state_fingerprint` equality.
* **Finished results** (:class:`SnapshotStore`) — the only files:
  each run's ``SimulationResult`` under its spec's content hash
  (:func:`~repro.harness.parallel.run_specs`), and fig1's whole
  result under its inputs.

``fork``-started workers inherit the datasets and the warm payloads;
spawn-started workers build and warm for themselves, with the same
results.  Store files are versioned: a header (format version + a
digest of the ``repro`` sources + the key) is validated before the
payload is unpickled; any mismatch rejects and deletes the stale file
so the run is redone rather than silently loaded.

Every run goes through the datasets and warm payloads; only the
stored results have policy knobs (``--snapshot-dir`` sets the
directory, see ``repro --help``):

* ``REPRO_CACHE=0``           — disable stored results;
* ``REPRO_CACHE_DIR=PATH``    — the store directory (default:
  ``.repro_cache``);
* ``REPRO_CACHE_MAX_BYTES=N`` — byte cap for the store directory,
  LRU-pruned on write (``0``: no cap; not an integer >= 0: an
  error).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.config.system import PagingMode, SystemConfig
from repro.core.machine import DEFAULT_WARM_STEPS
from repro.errors import ConfigurationError
from repro.stats import CounterSet
from repro.workloads import Workload, make_workload
from repro.workloads.registry import workload_class

#: Bump on any change to the store file layout or payload schema.
SNAPSHOT_VERSION = 3

#: Default byte cap for the store directory: 256 MiB.
DEFAULT_CACHE_MAX_BYTES = 256 * 1024 * 1024

#: Suffixes the LRU pruner manages inside the store directory
#: (``.pkl`` and the ``CACHE_VERSION`` stamp file are an older
#: checkout's result-cache leftovers).
_PRUNABLE_SUFFIXES = (".pkl", ".snap")

#: Process-global store telemetry (``repro report`` footer).
STATS = CounterSet()


# ------------------------------------------------------------------ digests --

_SOURCE_DIGEST: Optional[str] = None


def source_digest() -> str:
    """Digest of every ``repro`` source file: any simulator change
    invalidates stored results without manual version bumps."""
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


# -------------------------------------------------------------- LRU pruning --


def cache_max_bytes() -> Optional[int]:
    """Byte cap for the cache tree from ``REPRO_CACHE_MAX_BYTES``;
    ``None`` (the variable set to 0) disables pruning.  A value that is
    not an integer >= 0 is a :class:`ConfigurationError`."""
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES")
    if raw is None:
        return DEFAULT_CACHE_MAX_BYTES
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ConfigurationError(
            f"REPRO_CACHE_MAX_BYTES must be an integer >= 0, got {raw!r}")
    return value or None


def prune_cache(directory: Path, max_bytes: Optional[int] = None,
                keep: Iterable[Path] = ()) -> Tuple[int, int]:
    """LRU-prune store files under ``directory`` to the cap.

    Recency is file mtime — loads touch their entry on every hit, so
    mtime order is LRU order.  ``keep`` paths (typically the entry just
    written) are never pruned.  Returns ``(files_removed,
    bytes_removed)``.
    """
    if max_bytes is None:
        max_bytes = cache_max_bytes()
    if max_bytes is None or not directory.is_dir():
        return (0, 0)
    protected = {Path(p).resolve() for p in keep}
    entries: List[Tuple[float, int, Path]] = []
    total = 0
    for path in directory.rglob("*"):
        if path.suffix not in _PRUNABLE_SUFFIXES or not path.is_file():
            continue
        try:
            stat = path.stat()
        except OSError:
            continue
        total += stat.st_size
        if path.resolve() not in protected:
            entries.append((stat.st_mtime, stat.st_size, path))
    entries.sort()  # oldest first
    removed_files = removed_bytes = 0
    for mtime, size, path in entries:
        if total <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        removed_files += 1
        removed_bytes += size
    return (removed_files, removed_bytes)


def clear_cache(directory: Path) -> Tuple[int, int]:
    """Delete every store file under ``directory``."""
    if not directory.is_dir():
        return (0, 0)
    removed_files = removed_bytes = 0
    for path in directory.rglob("*"):
        if not path.is_file():
            continue
        if path.suffix not in _PRUNABLE_SUFFIXES and \
                path.name != "CACHE_VERSION":
            continue
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            continue
        removed_files += 1
        removed_bytes += size
    return (removed_files, removed_bytes)


# ------------------------------------------------------------- result store --


def cache_enabled() -> bool:
    return os.environ.get("REPRO_CACHE", "1") != "0"


def default_snapshot_dir() -> Path:
    """The store directory: ``$REPRO_CACHE_DIR`` or ``.repro_cache``."""
    return Path(os.environ.get("REPRO_CACHE_DIR") or ".repro_cache")


class SnapshotStore:
    """Versioned files of finished results, one per key.

    File layout: two concatenated pickles — a small header
    ``{"version", "stamp", "key"}`` followed by the payload.  Loads
    validate the header before touching the payload, so stale files
    (format bump or simulator source change) and corrupt ones are
    rejected and deleted, never silently loaded.  Every load reads its
    file and unpickles a fresh object graph.  ``enabled`` defaults to
    ``REPRO_CACHE`` and ``directory`` to ``REPRO_CACHE_DIR``.
    """

    def __init__(self, directory: Optional[Path] = None,
                 enabled: Optional[bool] = None) -> None:
        self.enabled = cache_enabled() if enabled is None else enabled
        self.directory = Path(directory) if directory is not None \
            else default_snapshot_dir()

    def _path(self, key: str) -> Path:
        return self.directory / f"result-{key}.snap"

    @staticmethod
    def _header(key: str) -> Dict[str, Any]:
        return {"version": SNAPSHOT_VERSION, "stamp": source_digest(),
                "key": key}

    def load(self, key: str):
        """The stored payload as a fresh object graph, or ``None``.

        A file with a stale or foreign header, or a corrupt payload, is
        deleted and reported as a miss (counted under
        ``stale_rejected``)."""
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                if pickle.load(handle) != self._header(key):
                    raise ValueError("stale header")
                payload = pickle.load(handle)
        except OSError:
            return None
        except Exception:
            # Stale (format or simulator change) or corrupt
            # (interrupted writer, unreadable pickle).
            STATS["stale_rejected"] += 1.0
            self._discard(path)
            return None
        self._touch(path)
        STATS["results_reused"] += 1.0
        return payload

    def store(self, key: str, payload) -> None:
        """Write ``payload`` (atomically) as a versioned file;
        LRU-prunes the directory afterwards."""
        if not self.enabled:
            return
        path = self._path(key)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(self._header(key), handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
                pickle.dump(payload, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            self._discard(tmp)
            return
        prune_cache(self.directory, keep=(path,))

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass


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
        STATS["workload_builds"] += 1.0
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


def summary() -> Dict[str, float]:
    """Current process-global store counters (report footer)."""
    return dict(STATS)
