"""Tests for the shared datasets and warm payloads.

The subsystem's contract is *bit-identical amortization*: a session
over a shared dataset, and a restored warm payload, must be
indistinguishable from building or warming from scratch.  The property
test below pins that with :meth:`Machine.state_fingerprint` equality
for every evaluated preset x workload pair; the rest covers the shared
datasets (never changed by a run) and the harness integration
(warm-key grouping, fork pool context, fig1's traces).
"""

import dataclasses
import hashlib
from array import array

import pytest

from repro import perf
from repro import snapshot as snap
from repro.config import EVALUATED_CONFIG_NAMES
from repro.config.system import PagingMode
from repro.core import Runner
from repro.core.runner import wall_split_totals
from repro.errors import ConfigurationError, ReproError
from repro.harness import fig1, parallel
from repro.harness.common import HarnessScale, build_config, resolve_scale
from repro.harness.parallel import RunSpec, execute_spec, run_specs
from repro.workloads import (
    EVALUATED_WORKLOADS,
    HashIndex,
    Masstree,
    RedBlackTree,
    ZipfianGenerator,
    arrival_from_spec,
    make_workload,
)
from repro.workloads.registry import _REGISTRY

#: Every registered workload: the seven evaluated ones plus kvstore.
REGISTERED_WORKLOADS = sorted(_REGISTRY)
#: The workloads that look keys up in an index.
INDEX_WORKLOADS = ("hashtable", "masstree", "rbtree", "silo", "tatp")

SEED = 11
WARM_STEPS = 2_000

# Small enough that one warm or run takes a fraction of a second.
TINY = HarnessScale(
    name="snap-tiny", dataset_pages=2048, num_cores=1, warmup_us=100.0,
    measurement_us=400.0, zipf_s=1.8, workloads=EVALUATED_WORKLOADS,
)
# Long enough for one core to finish a tpcc job under OS-Swap at
# every seed the path test runs.
TINY_LONG = dataclasses.replace(TINY, name="snap-tiny-long",
                                measurement_us=1_500.0)


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Each test starts without the process's datasets and warm
    payloads, so capture vs restore is the test's own choice, not
    execution order's."""
    snap.clear_memo()
    yield
    snap.clear_memo()


def tiny_spec(config_name="astriflash", seed=7,
              workload_name="arrayswap", scale=TINY) -> RunSpec:
    return RunSpec(config_name, workload_name, scale, seed=seed)


def result_fields(result) -> dict:
    """Result as a dict minus wall-clock (non-deterministic) fields."""
    return perf.canonical_result_dict(result)


def reference_run(spec: RunSpec):
    """The run the shared paths must match: ``spec``'s workload built
    on its own, by ``make_workload``, and warmed from scratch by the
    runner."""
    config, kwargs, scale = parallel._spec_parts(spec)
    workload = make_workload(spec.workload_name, scale.dataset_pages,
                             seed=spec.seed, **kwargs)
    return Runner(config, workload,
                  arrivals=arrival_from_spec(spec.arrivals)).run()


def _tiny_workload(workload_name: str):
    return snap.build_workload(workload_name, TINY.dataset_pages, SEED,
                               **TINY.workload_kwargs())


def _fresh_runner(config_name: str, workload_name: str) -> Runner:
    return Runner(build_config(config_name, TINY),
                  _tiny_workload(workload_name))


# ------------------------------------------------ fingerprint property test --


@pytest.mark.parametrize("workload_name", EVALUATED_WORKLOADS)
@pytest.mark.parametrize("config_name", EVALUATED_CONFIG_NAMES)
def test_restore_is_bit_identical_to_fresh_warm(config_name, workload_name):
    """For every preset x workload pair, the machine fingerprint after
    a capture, and after a restore of the captured payload, equals the
    fingerprint after a fresh warm."""
    config = build_config(config_name, TINY)
    key = snap.warm_key(config, workload_name, SEED,
                        TINY.workload_kwargs(),
                        dataset_pages=TINY.dataset_pages,
                        warm_steps=WARM_STEPS)

    reference = _fresh_runner(config_name, workload_name)
    reference.warm(WARM_STEPS)
    want = reference.machine.state_fingerprint()

    if key is None:
        # DRAM-only has no warm tier: nothing to snapshot, and the
        # fingerprint must match a never-warmed machine's.
        assert config.mode is PagingMode.DRAM_ONLY
        fresh = _fresh_runner(config_name, workload_name)
        assert fresh.machine.state_fingerprint() == want
        return

    captured = _fresh_runner(config_name, workload_name)
    snap.capture_warm(captured, key, warm_steps=WARM_STEPS)
    assert captured.machine.state_fingerprint() == want
    assert snap.warm_captured(key)

    restored = Runner(build_config(config_name, TINY),
                      _tiny_workload(workload_name), warm=False)
    snap.restore_warm(restored, key)
    assert restored.machine.state_fingerprint() == want
    assert restored._warm_source == "snapshot"
    # The runner RNG and the workload session resume exactly where the
    # fresh warm left them.
    assert restored._rng.getstate() == reference._rng.getstate()
    assert restored.workload.dump_session() == \
        reference.workload.dump_session()


# ------------------------------------------------------------- warm keying --


def test_warm_key_shared_across_dram_cache_modes():
    kwargs = TINY.workload_kwargs()
    keys = {
        name: snap.warm_key(build_config(name, TINY), "tatp", SEED,
                            kwargs, dataset_pages=TINY.dataset_pages)
        for name in EVALUATED_CONFIG_NAMES
    }
    assert keys["dram-only"] is None
    # Identical DRAM-cache tier geometry -> one shared warm.
    assert (keys["astriflash"] == keys["flash-sync"]
            == keys["astriflash-ideal"] == keys["astriflash-nops"]
            == keys["astriflash-nodp"] is not None)
    # OS-Swap warms a resident set, not a set-associative cache.
    assert keys["os-swap"] not in (None, keys["astriflash"])


def test_warm_key_varies_with_warm_inputs():
    config = build_config("astriflash", TINY)
    kwargs = TINY.workload_kwargs()
    base = snap.warm_key(config, "tatp", SEED, kwargs,
                         dataset_pages=TINY.dataset_pages)
    assert base != snap.warm_key(config, "tatp", SEED + 1, kwargs,
                                 dataset_pages=TINY.dataset_pages)
    assert base != snap.warm_key(config, "tpcc", SEED, kwargs,
                                 dataset_pages=TINY.dataset_pages)
    assert base != snap.warm_key(config, "tatp", SEED, kwargs,
                                 dataset_pages=TINY.dataset_pages,
                                 warm_steps=WARM_STEPS)


# ------------------------------------------------------ execute_spec paths --


@pytest.mark.parametrize("workload_name", REGISTERED_WORKLOADS)
def test_execute_spec_identical_across_snapshot_paths(workload_name):
    """The reference run (its own workload, warmed from scratch), a
    capture run and a restore run must all produce bit-identical
    results (the golden test pins the values; this pins path
    equivalence for every mode with warm state).  So must a run of
    another seed over the dataset the first seed's runs built: a build
    that draws from the seed must key by it."""
    for config_name in ("astriflash", "os-swap", "flash-sync"):
        # Empty table per config: astriflash and flash-sync share a
        # warm key by design, which would make the later "cold" runs
        # restores rather than captures.
        snap.clear_memo()
        spec = tiny_spec(config_name, workload_name=workload_name,
                         scale=TINY_LONG)
        reference = reference_run(spec)
        cold = execute_spec(spec)
        memo = execute_spec(spec)
        assert reference.warm_source == "fresh"
        assert cold.warm_source == "fresh"
        assert memo.warm_source == "snapshot"
        assert (result_fields(reference) == result_fields(cold)
                == result_fields(memo))

        other = tiny_spec(config_name, seed=8, workload_name=workload_name,
                          scale=TINY_LONG)
        shared = execute_spec(other)
        assert result_fields(shared) == result_fields(reference_run(other))


def test_run_specs_warms_shared_group_once():
    """Specs sharing a warm key re-use one capture: the second run of
    the batch restores instead of warming."""
    specs = [tiny_spec("astriflash", seed=23),
             tiny_spec("flash-sync", seed=23)]
    before = wall_split_totals()
    run_specs(specs, jobs=1)
    after = wall_split_totals()
    assert after["fresh_warms"] - before["fresh_warms"] == 1
    assert after["restored_warms"] - before["restored_warms"] == 1
    # And only one dataset was actually constructed.
    assert len(snap._DATASETS) == 1

    # Two seeds share one dataset, unless the build draws from the seed.
    for workload_name, builds in (("tatp", 1), ("rbtree", 2)):
        before = len(snap._DATASETS)
        run_specs([tiny_spec("dram-only", seed, workload_name)
                   for seed in (23, 24)], jobs=1)
        assert len(snap._DATASETS) - before == builds


def test_run_specs_rejects_snapshots_off():
    """Every run is simulated and shares the datasets and warm
    payloads: the keywords the benchmark still passes take no other
    value."""
    with pytest.raises(ReproError):
        run_specs([tiny_spec()], jobs=1, cache=False, snapshots=False)
    with pytest.raises(ReproError):
        run_specs([tiny_spec()], jobs=1, cache=True)


def test_bench_span_wrappers_see_each_call(monkeypatch):
    """The bench's traced pass wraps these three names on the module
    and times what they cover; over a warm-sharing pair, run one cell
    at a time the way the bench runs them, each wrapper sees its
    calls: a session per run, one capture and one restore."""
    calls = {}
    for name in ("build_workload", "capture_warm", "restore_warm"):
        original = getattr(snap, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(snap, name, wrapper)
    for config_name in ("astriflash", "flash-sync"):
        run_specs([tiny_spec(config_name, seed=29)], jobs=1, cache=False)
    assert calls == {"build_workload": 2, "capture_warm": 1,
                     "restore_warm": 1}


# ------------------------------------------------------- dataset memoization --


def test_build_workload_memoizes_but_never_shares_objects():
    """The dataset is built once and shared; the session objects
    around it never are."""
    first = snap.build_workload("tatp", 512, 3)
    assert len(snap._DATASETS) == 1
    second = snap.build_workload("tatp", 512, 4)
    assert len(snap._DATASETS) == 1
    # One dataset: the hash index and the Zipf CDF table ...
    assert first.index is second.index
    assert first._zipf._cdf is second._zipf._cdf
    # ... and the index's path memo: a key looked up through one
    # session is the identical entry through the other.
    assert first.index.lookup(17) is second.index.lookup(17)
    # ... under private sessions with their own streams.
    assert first is not second
    assert first._rng is not second._rng
    assert first._zipf is not second._zipf
    assert (first.seed, second.seed) == (3, 4)


#: The index structures, each with a per-key path memo (``_memo``).
INDEX_TYPES = (HashIndex, Masstree, RedBlackTree)


def _indexes(workload) -> list:
    return [value for value in vars(workload).values()
            if isinstance(value, INDEX_TYPES)]


def _dataset_digest(workload) -> str:
    """sha256 of every attribute but the session's: the RNG, the job
    counter, the run state and the samplers' streams (a sampler counts
    by its CDF table).  An index's path memo is a cache of the dataset,
    not state of it, so it is skipped (and checked against a fresh walk
    by the test below).

    The object graph is walked with an explicit stack: a Masstree leaf
    chain nests deeper than pickle's recursion limit.
    """
    session = {"seed", "_rng", "_rng_random", "_next_job_id"}
    session.update(workload.run_state)
    stack = []
    for name, value in sorted(vars(workload).items()):
        if name not in session:
            if isinstance(value, ZipfianGenerator):
                value = (value.n, value.s, value.permute,
                         value._cdf.tobytes())
            stack += [value, name]
    digest = hashlib.sha256()
    seen = {}
    while stack:
        obj = stack.pop()
        if isinstance(obj, array):  # the hash index's flat columns
            obj = obj.typecode.encode() + obj.tobytes()
        if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
            digest.update(repr(obj).encode())
            continue
        if id(obj) in seen:
            digest.update(b"@%d" % seen[id(obj)])
            continue
        seen[id(obj)] = len(seen)
        if isinstance(obj, dict):
            children = [part for item in obj.items() for part in item]
        elif isinstance(obj, (list, tuple)):
            children = list(obj)
        elif hasattr(obj, "__dict__"):
            children = [part for item in sorted(vars(obj).items())
                        if not (isinstance(obj, INDEX_TYPES)
                                and item[0] == "_memo")
                        for part in item]
        else:
            children = [getattr(obj, slot, None)
                        for slot in type(obj).__slots__]
        digest.update(b"%s/%d" % (type(obj).__name__.encode(),
                                  len(children)))
        stack += reversed(children)
    return digest.hexdigest()


@pytest.mark.parametrize("workload_name", REGISTERED_WORKLOADS)
def test_shared_dataset_unchanged_by_runs(workload_name):
    """A warm capture, a restore and a full run of sessions leave the
    shared dataset as built: whatever a run mutates must be session
    state (``Workload.run_state`` or a sampler's stream).  The runs
    fill every index's path memo, and each entry is what a fresh walk
    of its key returns."""
    config = build_config("astriflash", TINY)
    key = snap.warm_key(config, workload_name, SEED, TINY.workload_kwargs(),
                        dataset_pages=TINY.dataset_pages,
                        warm_steps=WARM_STEPS)
    captured = Runner(config, _tiny_workload(workload_name))
    (dataset,) = snap._DATASETS.values()
    built = _dataset_digest(dataset)

    snap.capture_warm(captured, key, warm_steps=WARM_STEPS)
    captured.run()
    restored = Runner(build_config("astriflash", TINY),
                      _tiny_workload(workload_name), warm=False)
    snap.restore_warm(restored, key)
    restored.run()
    assert restored.workload.dump_session() != dataset.dump_session()
    assert _dataset_digest(dataset) == built
    indexes = _indexes(dataset)
    assert len(indexes) == (1 if workload_name in INDEX_WORKLOADS else 0)
    for index in indexes:
        assert index._memo
        for key, hit in index._memo.items():
            assert hit == index._walk(key)


# -------------------------------------------------- machine state contracts --


def test_dump_warm_state_rejects_started_machine():
    runner = _fresh_runner("astriflash", "arrayswap")
    runner.run()
    with pytest.raises(ConfigurationError):
        runner.machine.dump_warm_state()


def test_load_warm_state_rejects_tier_mismatch():
    donor = _fresh_runner("astriflash", "arrayswap")
    donor.warm(WARM_STEPS)
    state = donor.machine.dump_warm_state()
    target = _fresh_runner("os-swap", "arrayswap")
    with pytest.raises(ConfigurationError):
        target.machine.load_warm_state(state)


# ------------------------------------------------------ harness integration --


def test_pool_context_prefers_fork():
    import multiprocessing

    context = parallel._pool_context()
    if "fork" in multiprocessing.get_all_start_methods():
        assert context.get_start_method() == "fork"
    else:  # documented spawn fallback (Windows)
        expected = multiprocessing.get_context().get_start_method()
        assert context.get_start_method() == expected


def _fresh_trace(workload_name, scale, num_steps, seed):
    """``fig1.workload_trace``'s pages, drawn from a workload built
    on its own."""
    workload = make_workload(workload_name, scale.dataset_pages, seed=seed,
                             **scale.workload_kwargs())
    pages = []
    while len(pages) < num_steps:
        pages.extend(page for _, page, _ in workload.make_job().steps)
    return pages[:num_steps]


def test_fig1_traces_match_fresh_workloads():
    """Each quick workload's fig1 trace, drawn from a session over the
    shared dataset (the first builds it, the second reuses it and its
    path memos), equals one drawn from a fresh ``make_workload``."""
    scale = resolve_scale("quick")
    for name in scale.workloads:
        want = _fresh_trace(name, scale, 60_000, 42)
        for _ in range(2):
            assert fig1.workload_trace(name, scale, 60_000, 42) == want

