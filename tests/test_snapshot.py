"""Tests for the warm-state snapshot/restore subsystem.

The subsystem's contract is *bit-identical amortization*: restoring a
dataset or warm-state snapshot must be indistinguishable from building
or warming from scratch.  The property test below pins that with
:meth:`Machine.state_fingerprint` equality for every evaluated
preset x workload pair; the rest covers the versioned file format
(stale rejection + rebuild), the LRU byte-cap pruner, and the harness
integration (warm-key grouping, fork pool context, sweep bench).
"""

import json
import os
import pickle

import pytest

from repro import perf
from repro import snapshot as snap
from repro.config import EVALUATED_CONFIG_NAMES
from repro.config.system import PagingMode
from repro.core import Runner
from repro.errors import ConfigurationError, ReproError
from repro.harness import fig1, parallel
from repro.harness.common import HarnessScale, build_config
from repro.harness.parallel import RunSpec, execute_spec, run_specs
from repro.stats import CounterSet
from repro.workloads import EVALUATED_WORKLOADS, make_workload

SEED = 11
WARM_STEPS = 2_000

# Small enough that one warm or run takes a fraction of a second.
TINY = HarnessScale(
    name="snap-tiny", dataset_pages=2048, num_cores=1, warmup_us=100.0,
    measurement_us=400.0, zipf_s=1.8, workloads=EVALUATED_WORKLOADS,
)


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Each test starts without the process-global bytes memo, so disk
    vs memo behaviour is the test's own choice, not execution order's."""
    snap.SnapshotStore.clear_memo()
    yield
    snap.SnapshotStore.clear_memo()


def tiny_spec(config_name="astriflash", seed=7) -> RunSpec:
    return RunSpec(config_name, "arrayswap", TINY, seed=seed)


def result_fields(result) -> dict:
    """Result as a dict minus wall-clock (non-deterministic) fields."""
    return perf.canonical_result_dict(result)


def _fresh_runner(config_name: str, workload_name: str) -> Runner:
    config = build_config(config_name, TINY)
    workload = snap.build_workload(workload_name, TINY.dataset_pages,
                                   SEED, **TINY.workload_kwargs())
    return Runner(config, workload)


# ------------------------------------------------ fingerprint property test --


@pytest.mark.parametrize("workload_name", EVALUATED_WORKLOADS)
@pytest.mark.parametrize("config_name", EVALUATED_CONFIG_NAMES)
def test_restore_is_bit_identical_to_fresh_warm(config_name, workload_name,
                                                tmp_path):
    """For every preset x workload pair, the machine fingerprint after
    snapshot-restore equals the fingerprint after a fresh warm — both
    via capture (memo) and via a cold load from the snapshot file."""
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

    store = snap.SnapshotStore(tmp_path, enabled=True)
    captured = _fresh_runner(config_name, workload_name)
    snap.capture_warm(captured, key, store, warm_steps=WARM_STEPS)
    assert captured.machine.state_fingerprint() == want

    # Cold-restore path: drop the memo so the payload comes off disk.
    snap.SnapshotStore.clear_memo()
    payload = store.load(snap.WARM_KIND, key)
    assert payload is not None
    restored = Runner(build_config(config_name, TINY),
                      payload["workload"], warm=False)
    snap.restore_warm(restored, payload)
    assert restored.machine.state_fingerprint() == want
    assert restored._warm_source == "snapshot"
    # The runner RNG resumes exactly where the fresh warm left it.
    assert restored._rng.getstate() == reference._rng.getstate()


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


# ------------------------------------------------------ stale/corrupt files --


def _read_snapshot(path):
    with open(path, "rb") as handle:
        return pickle.load(handle), handle.read()


def _write_snapshot(path, header, blob):
    with open(path, "wb") as handle:
        handle.write(pickle.dumps(header,
                                  protocol=pickle.HIGHEST_PROTOCOL))
        handle.write(blob)


@pytest.mark.parametrize("tamper", ["version", "stamp", "payload"])
def test_stale_snapshot_rejected_and_deleted(tmp_path, tamper):
    store = snap.SnapshotStore(tmp_path, enabled=True)
    store.store(snap.WORKLOAD_KIND, "k1", {"payload": 1})
    snap.SnapshotStore.clear_memo()
    path = store._path(snap.WORKLOAD_KIND, "k1")
    header, blob = _read_snapshot(path)
    if tamper == "version":
        header["version"] = snap.SNAPSHOT_VERSION + 1
    elif tamper == "stamp":
        header["stamp"] = "0" * 16
    else:
        blob = blob[: len(blob) // 2]  # interrupted writer
    _write_snapshot(path, header, blob)

    before = snap.summary().get("stale_rejected", 0)
    assert store.load(snap.WORKLOAD_KIND, "k1") is None
    assert not path.exists(), "stale snapshot must be deleted"
    assert snap.summary().get("stale_rejected", 0) == before + 1
    assert not store.contains(snap.WORKLOAD_KIND, "k1")


def test_stale_warm_snapshot_rebuilt_not_silently_loaded(tmp_path):
    spec = tiny_spec()
    baseline = result_fields(execute_spec(spec, snapshots=False))
    execute_spec(spec, snapshots=True, snapshot_dir=tmp_path)

    files = list(tmp_path.glob("warm-*.snap"))
    assert len(files) == 1
    path = files[0]
    header, blob = _read_snapshot(path)
    header["stamp"] = "0" * 16  # simulator "changed" since capture
    _write_snapshot(path, header, blob)
    snap.SnapshotStore.clear_memo()

    before = snap.summary().get("stale_rejected", 0)
    result = execute_spec(spec, snapshots=True, snapshot_dir=tmp_path)
    assert result.warm_source == "fresh"  # re-warmed, not loaded
    assert result_fields(result) == baseline
    assert snap.summary().get("stale_rejected", 0) > before
    # A valid snapshot replaced the stale one.
    header, _ = _read_snapshot(path)
    assert header["stamp"] == snap.source_digest()


# ------------------------------------------------------ execute_spec paths --


def test_execute_spec_identical_across_snapshot_paths(tmp_path):
    """Off, cold-capture, memo-restore, and disk-restore runs must all
    produce bit-identical results (the golden test pins the values;
    this pins path equivalence for every mode with warm state)."""
    for config_name in ("astriflash", "os-swap", "flash-sync"):
        # Private store per config: astriflash and flash-sync share a
        # warm key by design, which would make the later "cold" runs
        # restores rather than captures.
        store_dir = tmp_path / config_name
        snap.SnapshotStore.clear_memo()
        spec = tiny_spec(config_name)
        off = execute_spec(spec, snapshots=False)
        cold = execute_spec(spec, snapshots=True, snapshot_dir=store_dir)
        memo = execute_spec(spec, snapshots=True, snapshot_dir=store_dir)
        snap.SnapshotStore.clear_memo()
        disk = execute_spec(spec, snapshots=True, snapshot_dir=store_dir)
        assert off.warm_source == "fresh"
        assert cold.warm_source == "fresh"
        assert memo.warm_source == "snapshot"
        assert disk.warm_source == "snapshot"
        assert (result_fields(off) == result_fields(cold)
                == result_fields(memo) == result_fields(disk))


def test_run_specs_warms_shared_group_once(tmp_path):
    """Specs sharing a warm key re-use one capture: the second run of
    the batch restores instead of warming."""
    specs = [tiny_spec("astriflash", seed=23),
             tiny_spec("flash-sync", seed=23)]
    before = snap.summary()
    run_specs(specs, jobs=1, cache=False,
              snapshots=True, snapshot_dir=tmp_path)
    after = snap.summary()

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    assert delta("warm_captures") == 1
    assert delta("warm_restores") == 1
    # And only one dataset was actually constructed.
    assert delta("workload_builds") == 1


# ------------------------------------------------------- dataset memoization --


def test_build_workload_memoizes_but_never_shares_objects(tmp_path):
    store = snap.SnapshotStore(tmp_path, enabled=True)
    before = snap.summary().get("workload_builds", 0)
    first = snap.build_workload("arrayswap", 512, 3, store=store)
    assert snap.summary().get("workload_builds", 0) == before + 1
    second = snap.build_workload("arrayswap", 512, 3, store=store)
    assert snap.summary().get("workload_builds", 0) == before + 1
    assert first is not second, "restores must be private copies"
    assert first.name == second.name == "arrayswap"


def test_build_workload_disabled_store_bypasses_files(tmp_path):
    store = snap.SnapshotStore(tmp_path, enabled=False)
    workload = snap.build_workload("arrayswap", 512, 3, store=store)
    assert workload.name == "arrayswap"
    assert list(tmp_path.iterdir()) == []


def test_deep_workloads_pickle_roundtrip(tmp_path):
    """Linked-structure datasets (masstree) exceed the default pickle
    recursion limit at full scale; the big-stack fallback must produce
    a loadable blob."""
    store = snap.SnapshotStore(tmp_path, enabled=True)
    built = snap.build_workload("masstree", 1024, 3, store=store)
    snap.SnapshotStore.clear_memo()
    restored = snap.build_workload("masstree", 1024, 3, store=store)
    assert built is not restored
    assert restored.name == "masstree"


# ----------------------------------------------------------- LRU byte cap --


def _aged_file(tmp_path, name, size, age_rank):
    path = tmp_path / name
    path.write_bytes(b"x" * size)
    os.utime(path, (1_000_000 + age_rank, 1_000_000 + age_rank))
    return path


def test_prune_cache_evicts_oldest_first(tmp_path):
    oldest = _aged_file(tmp_path, "a.snap", 100, 0)
    middle = _aged_file(tmp_path, "b.pkl", 100, 1)
    newest = _aged_file(tmp_path, "c.snap", 100, 2)
    files, freed = snap.prune_cache(tmp_path, max_bytes=250)
    assert (files, freed) == (1, 100)
    assert not oldest.exists() and middle.exists() and newest.exists()


def test_prune_cache_protects_keep_paths(tmp_path):
    oldest = _aged_file(tmp_path, "a.snap", 100, 0)
    newest = _aged_file(tmp_path, "b.snap", 100, 1)
    snap.prune_cache(tmp_path, max_bytes=100, keep=(oldest,))
    assert oldest.exists() and not newest.exists()


def test_prune_cache_ignores_foreign_files(tmp_path):
    stamp = tmp_path / "CACHE_VERSION"
    stamp.write_text("1:abc")
    doomed = _aged_file(tmp_path, "a.snap", 100, 0)
    snap.prune_cache(tmp_path, max_bytes=1)
    assert stamp.exists() and not doomed.exists()


def test_store_prunes_to_byte_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "512")
    old = _aged_file(tmp_path, "old.snap", 4096, 0)
    store = snap.SnapshotStore(tmp_path, enabled=True)
    store.store(snap.WORKLOAD_KIND, "fresh", {"payload": 1})
    assert not old.exists(), "write must prune older entries over cap"
    assert store._path(snap.WORKLOAD_KIND, "fresh").exists()


def test_cache_max_bytes_env_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
    assert snap.cache_max_bytes() == snap.DEFAULT_CACHE_MAX_BYTES
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1024")
    assert snap.cache_max_bytes() == 1024
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
    assert snap.cache_max_bytes() is None, "0 disables pruning"
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "bogus")
    assert snap.cache_max_bytes() == snap.DEFAULT_CACHE_MAX_BYTES


def test_clear_cache_removes_only_cache_files(tmp_path):
    (tmp_path / "a.snap").write_bytes(b"x")
    (tmp_path / "b.pkl").write_bytes(b"y")
    (tmp_path / "CACHE_VERSION").write_text("1:abc")
    foreign = tmp_path / "notes.txt"
    foreign.write_text("keep me")
    files, _freed = snap.clear_cache(tmp_path)
    assert files == 3
    assert foreign.exists()
    assert list(tmp_path.iterdir()) == [foreign]


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


def test_counterset_restore_replaces_values():
    counters = CounterSet("t")
    counters.add("kept", 1)
    counters.add("dropped", 2)
    counters.restore({"kept": 5.0, "created": 7.0})
    assert counters.as_dict() == {"kept": 5.0, "created": 7.0}
    counters.add("kept")
    assert counters.as_dict()["kept"] == 6.0


# ------------------------------------------------------ harness integration --


def test_pool_context_prefers_fork():
    import multiprocessing

    context = parallel._pool_context()
    if "fork" in multiprocessing.get_all_start_methods():
        assert context.get_start_method() == "fork"
    else:  # documented spawn fallback (Windows)
        expected = multiprocessing.get_context().get_start_method()
        assert context.get_start_method() == expected


def test_fig1_rows_identical_with_and_without_snapshots(tmp_path):
    off = fig1.run(scale="quick", jobs=1, snapshots=False)
    cold = fig1.run(scale="quick", jobs=1, snapshots=True,
                    snapshot_dir=tmp_path)
    snap.SnapshotStore.clear_memo()
    warm = fig1.run(scale="quick", jobs=1, snapshots=True,
                    snapshot_dir=tmp_path)
    assert off.rows == cold.rows == warm.rows


def test_bench_sweep_schema_and_speedup(tmp_path):
    from repro.metrics import LEDGER_SCHEMA_VERSION, write_record

    bench = perf.bench_sweep("fig1", scale="quick",
                             snapshot_dir=str(tmp_path))
    record = bench.record()
    assert record.verb == "bench-sweep"
    assert record.schema_version == LEDGER_SCHEMA_VERSION
    data = record.detail
    for field in ("experiment", "scale", "wall_seconds_snapshots_off",
                  "wall_seconds_snapshots_cold",
                  "wall_seconds_snapshots_on", "speedup",
                  "config_preset"):
        assert field in data
    assert data["experiment"] == "fig1"
    assert data["wall_seconds_snapshots_on"] > 0
    assert data["speedup"] > 0
    assert record.metrics["sweep/speedup"] == data["speedup"]
    out = tmp_path / "sweep.json"
    write_record(record, out)
    assert json.loads(out.read_text())["detail"]["speedup"] == \
        data["speedup"]


def test_bench_sweep_unknown_experiment():
    with pytest.raises(ReproError):
        perf.bench_sweep("nonesuch")
