"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

import compare
import layers
import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(1, -(-pct * len(ordered) // 100)) - 1]


def test_every_source_file_maps_to_one_layer():
    repro_root = run.SRC / "repro"
    used = set()
    for path in sorted(repro_root.rglob("*.py")):
        layer = layers.layer_of(path.relative_to(repro_root).as_posix())
        assert layer in layers.LAYERS, path
        used.add(layer)
    assert used == set(layers.LAYERS)


def test_sampler_charges_the_innermost_repro_frame(tmp_path):
    sampler = layers.LayerSampler(tmp_path)

    def frame_under(relpath):
        # A function compiled as if it lived in src/repro/<relpath>,
        # calling back into this (non-repro) file.
        code = compile("def call(inner):\n    return inner()\n",
                       str(tmp_path / relpath), "exec")
        namespace = {}
        exec(code, namespace)
        return namespace["call"](lambda: sys._getframe())

    assert sampler.layer_of_frame(frame_under("dramcache/way.py")) \
        == "dramcache"
    assert sampler.layer_of_frame(frame_under("sim/vector.py")) \
        == "sim.vector"
    assert sampler.layer_of_frame(sys._getframe()) == layers.ROOT_LAYER
    assert sampler.layer_of_frame(frame_under("newpkg/mod.py")) \
        == layers.ROOT_LAYER
    assert sampler.unmapped == {"newpkg/mod.py"}


@pytest.mark.parametrize("cells, pct", [(35, 71), (45, 77), (120, 91),
                                        (180, 94), (72, 86)])
def test_tail_percentile_examples(cells, pct):
    assert run.tail_percentile(cells) == pct


def test_tail_percentile_leaves_ten_samples_beyond():
    def beyond(n, pct):
        values = list(range(n))
        return sum(1 for v in values if v > nearest_rank(values, pct))

    for n in range(1, 400):
        pct = run.tail_percentile(n)
        if n <= 10:
            assert pct == 100
            continue
        assert beyond(n, pct) >= 10
        assert pct == 99 or beyond(n, pct + 1) < 10


def test_harrell_davis_quantile():
    values = [float(v) for v in range(1, 36)]
    assert run.quantile_hd(values, 0.5) == pytest.approx(18.0)
    assert run.quantile_hd([3.0] * 7, 0.71) == pytest.approx(3.0)
    estimates = [run.quantile_hd(values, q / 100) for q in range(5, 100, 5)]
    assert estimates == sorted(estimates)
    assert 1.0 < estimates[0] and estimates[-1] < 35.0
    # The tail estimate stays near its nearest-rank value.
    pct = run.tail_percentile(len(values))
    assert abs(run.quantile_hd(values, pct / 100)
               - nearest_rank(values, pct)) < 1.0
    assert run.quantile_hd([1.0, 9.0], 1.0) == 9.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert per_layer == run.LAYER_UNITS
    for name in list(e2e) + list(per_layer):
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _sweep(digests):
    return {"cells": [{"id": cell_id, "digest": digest, "problems": [],
                       "vector": 0}
                      for cell_id, digest in digests.items()]}


def test_perturbed_digest_fails_the_cell():
    good = {"a": "0" * 64, "b": "1" * 64}
    bad = dict(good, b="2" * 64)
    assert run.failed_cells([_sweep(good)], good) == {}
    assert list(run.failed_cells([_sweep(bad)], good)) == ["b"]
    # Without a recorded reference, a later pass must match the first.
    assert list(run.failed_cells([_sweep(good), _sweep(bad)], None)) == ["b"]


def test_a_cell_failing_in_every_pass_counts_once():
    good = {"a": "0" * 64, "b": "1" * 64}
    bad = dict(good, b="2" * 64)
    failed = run.failed_cells([_sweep(bad), _sweep(bad)], good)
    assert list(failed) == ["b"]
    vector = _sweep(good)
    vector["cells"][0]["vector"] = 1
    assert list(run.failed_cells([_sweep(good), vector], good)) == ["a"]
    assert list(run.failed_cells([_sweep(good), _sweep({"a": "0" * 64})],
                                 good)) == ["b"]


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [value * 0.8 for value in parent]
    slower = [value * 1.2 for value in parent]
    assert compare.verdict(parent, faster, True, 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, True, 0.1)[0] == "REGRESSED"
    assert compare.verdict(parent, parent, True, 0.1)[0] == "within bound"
    noisy = [5.0, 15.0] * 5
    assert compare.verdict(noisy, noisy, True, 0.1)[0] == "unresolved"


def test_smoke_run_emits_every_metric():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--cells", "1",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    for workload in run.WORKLOADS:
        shown = {name.split("/", 1)[1] for name in last["metrics"]
                 if name.startswith(workload + "/")}
        assert shown == set(run.LAYER_UNITS)
        detail = json.loads((run.OUT / f"{workload}.json").read_text())
        assert set(detail["metrics"]) == \
            set(run.E2E_UNITS) | set(run.LAYER_UNITS)
        assert detail["digests"]
