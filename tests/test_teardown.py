"""A finished run frees its ``Runner`` and ``Machine`` by refcount.

``Runner.run`` ends by closing the engine, which releases the
suspended process generators and unfired observers that would hold the
runner and the machine in reference cycles; no other callback or
back-reference forms a cycle.  So with the cyclic collector off, both
die on ``del runner`` and a collection afterwards finds nothing.
"""

import gc
import weakref

import pytest

from repro.faults.chaos import fault_overrides
from repro.harness.common import resolve_scale
from repro.harness.parallel import RunSpec, _prepare_runner, poisson
from repro.writes.bench import KV_SWEEP_OVERRIDES, writes_overrides, \
    writes_scale

WRITE_CELL = RunSpec(
    "astriflash-writes", "kvstore", writes_scale(resolve_scale("quick")),
    workload_overrides=tuple(sorted(
        KV_SWEEP_OVERRIDES + (("write_ratio", 0.5),))),
    config_overrides=writes_overrides("write-back"))

SPECS = [
    pytest.param(RunSpec(name, "tatp", "quick"), id=name)
    for name in ("dram-only", "flash-sync", "astriflash",
                 "astriflash-ideal", "os-swap")
] + [
    pytest.param(WRITE_CELL, id="kvstore-write-back"),
    pytest.param(RunSpec("astriflash", "tatp", "quick",
                         arrivals=poisson(20_000.0, seed=5)),
                 id="astriflash-poisson"),
    pytest.param(RunSpec("astriflash", "tatp", "quick",
                         config_overrides=fault_overrides(8e-3, 0xF1A5)),
                 id="astriflash-faults"),
]


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("spec", SPECS)
def test_finished_run_is_freed_by_refcount(spec, collector_off):
    runner = _prepare_runner(spec)
    result = runner.run()
    assert result.completed_jobs > 0
    machine_ref = weakref.ref(runner.machine)
    runner_ref = weakref.ref(runner)
    del runner
    assert runner_ref() is None
    assert machine_ref() is None
    assert gc.collect() == 0

