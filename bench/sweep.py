"""One sweep of one benchmark workload, in a fresh process.

    python bench/sweep.py WORKLOAD SEED MODE [CELLS]

``run.py`` starts this with the simulator's ``src`` on ``PYTHONPATH``
and a scrubbed environment.  MODE is one of

* ``setup`` — import and build the cell list, then stop;
* ``sweep`` — run every cell once, one at a time, timing each;
* ``trace`` — the same under the layer sampler, with spans recorded
  around the simulator's public calls and written to
  ``out/<WORKLOAD>.spans.json``.

CELLS, when given, keeps only the first CELLS cells of the workload.

Every cell goes through ``run_specs([spec], jobs=1, cache=False,
snapshots=True, snapshot_dir=<fresh directory>)`` with the sweep-level
default backend: the settings a verb uses on a fresh checkout.  The
process prints one JSON object on stdout.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Tuple

import cells as bench_cells
import layers
import speed
import repro
from repro import snapshot
from repro.core import runner as runner_module
from repro.harness import parallel
from repro.perf import canonical_result_dict
from repro.sim import vector

OUT = Path(__file__).resolve().parent / "out"

#: vector.stats() keys counting runs the vector backend executed.
_VECTOR_RUN_KEYS = ("fused_runs", "job_epoch_runs", "open_loop_runs",
                    "multi_core_runs")


def result_digest(result) -> str:
    """sha256 of the result's wall-clock-free fields."""
    canonical = json.dumps(canonical_result_dict(result), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def result_problems(result) -> List[str]:
    """Invariants every simulation result must satisfy."""
    problems = []
    if result.completed_jobs < 1:
        problems.append("no completed jobs")
    if not (math.isfinite(result.throughput_jobs_per_s)
            and result.throughput_jobs_per_s > 0):
        problems.append(f"throughput {result.throughput_jobs_per_s}")
    if not 0.0 <= result.miss_ratio <= 1.0:
        problems.append(f"miss ratio {result.miss_ratio}")
    if result.service_p50_ns > result.service_p99_ns:
        problems.append("service p50 above p99")
    if result.counters.get("engine.events_executed", 0) <= 0:
        problems.append("no events executed")
    if not 0.0 <= result.backlog_fraction <= 1.0:
        problems.append(f"backlog fraction {result.backlog_fraction}")
    wa = result.counters.get("writes.wa_factor")
    if wa is not None and wa < 1.0:
        problems.append(f"write amplification {wa} below 1")
    return problems


def vector_runs() -> int:
    """Runs the vector backend has executed in this process so far."""
    stats = vector.stats()
    return sum(stats[key] for key in _VECTOR_RUN_KEYS)


def cell_record(cell_id: str, result, seconds: float, vector_ran: int
                ) -> dict:
    counters = result.counters
    return {
        "id": cell_id,
        "seconds": seconds,
        "vector": vector_ran,
        "digest": result_digest(result),
        "problems": result_problems(result),
        "wall_s": result.wall_seconds,
        "warm_s": result.warm_wall_seconds,
        "warm_source": result.warm_source,
        "jobs": result.completed_jobs,
        "events": counters.get("engine.events_executed", 0.0),
        "dramcache_misses": counters.get("dramcache.misses", 0.0),
        "flash_reads": counters.get("flash.reads", 0.0),
        "flash_programs": counters.get("flash.programs_drained", 0.0),
        "gc_migrated_pages": counters.get("writes.gc_migrated_pages", 0.0),
    }


def run_cells(plan, snapshot_dir: str, recorder=None, sampler=None
              ) -> Tuple[List[dict], List[float]]:
    """Run the cells in order, probing host speed before the first and
    after each; a cell that raises is recorded, not fatal.

    Returns the cell records, each with the ``factor`` that scales its
    host times (see ``speed.py``) and ``vector`` (1 when the vector
    backend ran it), and the probe times.  Only the cells
    themselves run under ``sampler`` and inside ``recorder`` spans.
    """
    results: Dict[str, object] = {}
    records = []
    probes = [speed.probe()]
    for cell in plan:
        span = sampling = nullcontext()
        if recorder is not None:
            recorder.cell = cell.id
            span = recorder.span("run_specs")
        if sampler is not None:
            sampling = sampler.sampling()
        result = None
        vector_before = vector_runs()
        start = time.perf_counter()
        try:
            with sampling, span:
                result = parallel.run_specs(
                    [cell.resolve(results)], jobs=1, cache=False,
                    snapshots=True, snapshot_dir=snapshot_dir)[0]
        except Exception as exc:
            error = "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
        finally:
            seconds = time.perf_counter() - start
        probes.append(speed.probe())
        if result is None:
            record = {"id": cell.id, "seconds": seconds, "error": error}
        else:
            results[cell.id] = result
            record = cell_record(cell.id, result, seconds,
                                 vector_runs() - vector_before)
        record["factor"] = speed.factor(probes[-2], probes[-1])
        records.append(record)
    return records, probes


def install_spans(recorder: layers.SpanRecorder) -> None:
    """Wrap the public calls a cell makes below ``run_specs``."""
    runner_class = runner_module.Runner
    recorder.wrap(snapshot, "build_workload", "snapshot.build_workload")
    recorder.wrap(snapshot, "restore_warm", "snapshot.restore_warm")
    recorder.wrap(snapshot, "capture_warm", "snapshot.capture_warm")
    recorder.wrap(runner_class, "__init__", "Runner.__init__")
    recorder.wrap(runner_class, "warm", "Runner.warm")
    recorder.wrap(runner_class, "run", "Runner.run")


def main(argv: List[str]) -> int:
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    if mode not in ("setup", "sweep", "trace"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    plan = bench_cells.plan(workload, seed)
    if len(argv) > 4:
        plan = plan[:int(argv[4])]
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="snap-", dir=OUT) as snap_dir:
        recorder = sampler = None
        if mode == "trace":
            recorder = layers.SpanRecorder()
            install_spans(recorder)
            sampler = layers.LayerSampler(Path(repro.__file__).parent)
        # Setup ends here: perf_counter is CLOCK_MONOTONIC on Linux, so
        # the parent subtracts its own spawn timestamp from this one.
        first_cell_at = time.perf_counter()
        if mode == "setup":
            print(json.dumps({"first_cell_at": first_cell_at,
                              "probe_s": speed.probe()}))
            return 0
        records, probes = run_cells(plan, snap_dir, recorder, sampler)
        sweep_s = time.perf_counter() - first_cell_at

    payload = {
        "first_cell_at": first_cell_at,
        "probe_s": probes[0],
        "probes": probes,
        "sweep_s": sweep_s,
        "cells": records,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if mode == "trace":
        recorder.write(OUT / f"{workload}.spans.json")
        payload.update(self_s=sampler.seconds,
                       unmapped=sorted(sampler.unmapped),
                       spans=recorder.summary())
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
