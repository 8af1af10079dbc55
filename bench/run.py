"""End-to-end host-time benchmark of the paper's sweeps.

    python3 bench/run.py [--workload NAME] [--seed 42] [--seconds 12]
                         [--trace 0|1] [--record] [--cells N]

Each sweep of a workload runs in a fresh child process (``sweep.py``),
one child at a time, with ``OMP_NUM_THREADS=1`` and every ``REPRO_*``
variable scrubbed.  An invocation runs one timed sweep per selected
workload (w1..wn), each cell's host time scaled to a reference host
speed (see ``speed.py``); repeats come from running the benchmark
again.  Set-up-only children then sample ``setup_s`` round-robin until
``--seconds`` per workload is used, at least five per workload.  With
``--trace 1`` one more sweep per workload runs under the layer sampler
with spans, for the per-layer metrics.  Without ``--workload`` every
workload runs and metric names get a ``<workload>/`` prefix in the
result line.

Every metric is printed by name with its unit; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  ``attempted`` and ``failed`` count
distinct cells.  A cell fails if it raises, breaks a result invariant,
or its result digest differs from ``expected.json`` (on the recorded
seed) or, in the traced pass, from the timed sweep.  On any other seed
an untimed child also reruns the first cells of the recorded seed and
checks them against ``expected.json``.  ``--record`` rewrites
``expected.json`` for ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import speed
from layers import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

WORKLOADS = ("fig9-full", "fig9-quick", "openloop-full", "kv-writes")

E2E_UNITS = {
    "wall_s": "s",
    "cell_p50_s": "s",
    "cell_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cells_ok_frac": "fraction",
}

#: Counter sums over a sweep's cells (key in a sweep.py cell record).
COUNT_FIELDS = {
    "count.sim_jobs": "jobs",
    "count.events": "events",
    "count.dramcache_misses": "dramcache_misses",
    "count.flash_reads": "flash_reads",
    "count.flash_programs": "flash_programs",
    "count.gc_migrated_pages": "gc_migrated_pages",
}

LAYER_UNITS = {
    "phase.warm_s": "s",
    "phase.measure_s": "s",
    "phase.prep_s": "s",
    "count.cells": "count",
    "count.vector_cells": "count",
    **{name: "count" for name in COUNT_FIELDS},
    "ratio.vector_engaged": "fraction",
    "ratio.warm_restored": "fraction",
    "rate.events_per_measure_s": "1/s",
    "span.build_s": "s",
    "span.machine_s": "s",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "trace.overhead_x": "x",
}

#: Set-up-only children per workload: at least the first, while
#: ``--seconds`` lasts, never more than the second.
SETUP_MIN, SETUP_MAX = 5, 40
#: Cells of the recorded seed rerun and checked when ``--seed`` differs.
CHECK_CELLS = 3
#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170


class ChildError(RuntimeError):
    pass


# -------------------------------------------------------------- statistics --


def tail_percentile(n: int) -> int:
    """Highest integer percentile with at least ten of ``n`` samples
    beyond its nearest-rank value; 100 (the maximum) below 11."""
    for pct in range(99, 0, -1):
        if n - (-(-pct * n // 100)) >= TAIL_BEYOND:
            return pct
    return 100


def quantile_hd(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile of ``values``.

    A mean of all order statistics, weighted by the Beta((n+1)q,
    (n+1)(1-q)) mass over each rank's interval.  Cells of a sweep differ
    a lot, so one order statistic carries one cell's timing noise; on
    repeated sweeps this estimate moved 2-5x less than the nearest-rank
    value.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1 or q >= 1.0:
        return ordered[-1]
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32   # midpoint rule inside each rank's interval

    def density(x: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(x)
                        + (b - 1) * math.log1p(-x))

    weights = [sum(density((i + (k + 0.5) / steps) / n)
                   for k in range(steps)) for i in range(n)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


# --------------------------------------------------------------- children --


def child_env() -> Dict[str, str]:
    """The environment of every child: no ``REPRO_*`` setting of the
    caller leaks in, one thread per numeric library, and this
    checkout's ``src`` is the only extra import path."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(
        REPRO_LEDGER="0",
        REPRO_QUIET="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(SRC),
    )
    return env


def run_child(workload: str, seed: int, mode: str, env: Dict[str, str],
              cells: Optional[int] = None) -> dict:
    """Run one ``sweep.py`` child to completion; its JSON result gains
    ``setup_s``: spawn to first cell, scaled by the speed probes taken
    just before the spawn and just after the set-up."""
    argv = [sys.executable, str(BENCH / "sweep.py"), workload, str(seed),
            mode] + ([] if cells is None else [str(cells)])
    probe_s = speed.probe()
    spawned_at = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} child for {workload} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = (result["first_cell_at"] - spawned_at) \
        * speed.factor(probe_s, result["probe_s"])
    return result


def precompile(env: Dict[str, str]) -> None:
    """Untimed: byte-compile the simulator and the benchmark, so no
    timed child pays for writing ``.pyc`` files."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro"),
         str(BENCH)],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S)


def setup_samples(workloads, budget_s: float,
                  spawn: Callable[[str, str], dict]) -> Dict[str, List[float]]:
    """``setup_s`` of set-up-only children, round-robin (w1..wn, w1..wn,
    ...): ``SETUP_MIN`` rounds, then more while a further round is
    predicted to end within ``budget_s``, up to ``SETUP_MAX``."""
    samples: Dict[str, List[float]] = {name: [] for name in workloads}
    start = time.perf_counter()
    for number in range(SETUP_MAX):
        round_start = time.perf_counter()
        for name in workloads:
            samples[name].append(spawn(name, "setup")["setup_s"])
        now = time.perf_counter()
        if number + 1 >= SETUP_MIN and \
                (now - start) + (now - round_start) > budget_s:
            break
    return samples


# ---------------------------------------------------------------- metrics --


def scaled(cell: dict, key: str = "seconds") -> float:
    """A host time of ``cell``, scaled to the reference host speed."""
    return cell[key] * cell["factor"]


def _ok_cells(sweep: dict) -> List[dict]:
    return [cell for cell in sweep["cells"] if "error" not in cell]


def e2e_metrics(sweep: dict, setups: List[float], ok_frac: float) -> dict:
    times = [scaled(cell) for cell in sweep["cells"]]
    return {
        "wall_s": sum(times),
        "cell_p50_s": quantile_hd(times, 0.5),
        "cell_tail_s": quantile_hd(times, tail_percentile(len(times)) / 100),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": sweep["peak_rss_mb"],
        "cells_ok_frac": ok_frac,
    }


def sweep_counts(sweep: dict) -> Dict[str, float]:
    """The counts of one sweep; a perf-only change leaves them as
    they are."""
    cells = _ok_cells(sweep)
    counts = {"count.cells": len(sweep["cells"]),
              "count.vector_cells": sum(cell["vector"] for cell in cells)}
    for name, field in COUNT_FIELDS.items():
        counts[name] = sum(cell[field] for cell in cells)
    return counts


def layer_metrics(sweep: dict, traced: dict) -> dict:
    cells = _ok_cells(sweep)
    warm = sum(scaled(cell, "warm_s") for cell in cells)
    wall = sum(scaled(cell, "wall_s") for cell in cells)
    metrics = {
        "phase.warm_s": warm,
        "phase.measure_s": wall - warm,
        "phase.prep_s": sum(scaled(cell) for cell in cells) - wall,
    }
    counts = sweep_counts(sweep)
    metrics.update(counts)
    warm_tier = [c for c in cells if c["warm_source"] != "none"]
    restored = [c for c in warm_tier if c["warm_source"] == "snapshot"]
    metrics["ratio.vector_engaged"] = \
        counts["count.vector_cells"] / max(1, counts["count.cells"])
    metrics["ratio.warm_restored"] = len(restored) / max(1, len(warm_tier))
    metrics["rate.events_per_measure_s"] = \
        counts["count.events"] / max(metrics["phase.measure_s"], 1e-9)
    # The traced pass's own times scale by its mean speed factor.
    traced_scaled = sum(scaled(cell) for cell in traced["cells"])
    factor = traced_scaled / sum(cell["seconds"] for cell in traced["cells"])
    spans = traced["spans"]
    metrics["span.build_s"] = factor * \
        spans.get("snapshot.build_workload", {}).get("total_s", 0.0)
    metrics["span.machine_s"] = factor * \
        spans.get("Runner.__init__", {}).get("total_s", 0.0)
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = factor * traced["self_s"][layer]
    metrics["trace.overhead_x"] = \
        traced_scaled / sum(scaled(cell) for cell in sweep["cells"])
    return metrics


# ------------------------------------------------------------ correctness --


def load_expected() -> dict:
    try:
        with open(EXPECTED) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def failed_cells(passes: List[dict], reference: Optional[Dict[str, str]]
                 ) -> Dict[str, str]:
    """Cell id -> why it failed, over passes of the same cells; a cell
    that fails in several passes is one failed cell.

    ``reference`` maps cell id to the expected digest; ``None`` makes
    the first pass the reference.  Every later pass must run the first
    pass's cells and agree with it on which ran on the vector backend.
    """
    first = {cell["id"]: cell for cell in passes[0]["cells"]}
    if reference is None:
        reference = {cell_id: cell.get("digest")
                     for cell_id, cell in first.items()}
    failed: Dict[str, str] = {}
    for number, sweep in enumerate(passes):
        ran = {cell["id"]: cell for cell in sweep["cells"]}
        for cell_id in first:
            cell = ran.get(cell_id)
            if cell is None:
                why = "missing"
            elif "error" in cell:
                why = cell["error"]
            elif cell["problems"]:
                why = "; ".join(cell["problems"])
            elif cell_id not in reference:
                why = "no recorded digest (rerun --record)"
            elif cell["digest"] != reference[cell_id]:
                why = "result digest differs from the reference"
            elif "vector" in first[cell_id] \
                    and cell["vector"] != first[cell_id]["vector"]:
                why = "vector backend engaged in one pass only"
            else:
                continue
            failed.setdefault(cell_id, f"pass {number}: {why}")
    return failed


# ------------------------------------------------------------------ main --


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the paper's sweeps.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, round-robin)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="per workload: set-up samples fill what the "
                             "timed sweep leaves of this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add the traced pass and per-layer metrics")
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json for --seed and stop")
    parser.add_argument("--cells", type=int,
                        help="run only the first N cells of each workload")
    args = parser.parse_args(argv)
    if args.record and args.cells is not None:
        parser.error("--record needs every cell; drop --cells")
    return args


def record(workloads, seed: int, spawn: Callable[..., dict]) -> int:
    expected = load_expected()
    for name in workloads:
        sweep = spawn(name, "sweep")
        bad = [c["id"] for c in sweep["cells"]
               if "error" in c or c["problems"]]
        if bad:
            print(f"{name}: not recording, failed cells: {bad}",
                  file=sys.stderr)
            return 1
        expected[name] = {"seed": seed, "cells": {
            cell["id"]: cell["digest"] for cell in sweep["cells"]}}
        print(f"{name}: recorded {len(sweep['cells'])} digests "
              f"for seed {seed}")
    with open(EXPECTED, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def report(name: str, seed: int, sweep: dict, setups: List[float],
           traced: Optional[dict], failures: Dict[str, str],
           ok_frac: float) -> dict:
    """Print one workload's metrics; write ``out/<name>.json``."""
    metrics = {name_: (value, E2E_UNITS[name_]) for name_, value
               in e2e_metrics(sweep, setups, ok_frac).items()}
    if traced is not None:
        metrics.update(
            (name_, (value, LAYER_UNITS[name_]))
            for name_, value in layer_metrics(sweep, traced).items())
    cells = len(sweep["cells"])
    notes = {
        "wall_s": f"sum of {cells} cells",
        "cell_p50_s": f"{cells} cells",
        "cell_tail_s": f"p{tail_percentile(cells)} of {cells} cells",
        "setup_s": f"median of {len(setups)} children",
        "cells_ok_frac": f"{len(failures)} failed",
    }
    for metric, (value, unit) in metrics.items():
        print(f"{name:14s} {metric:28s} {value:14.6g} {unit:8s} "
              f"{notes.get(metric, '')}".rstrip())
    if traced is not None:
        sampled = sum(traced["self_s"].values())
        traced_s = sum(cell["seconds"] for cell in traced["cells"])
        print(f"{name:14s} self_s sum {sampled:.3f} s of traced cells "
              f"{traced_s:.3f} s (unscaled); unmapped repro files: "
              f"{traced['unmapped'] or 'none'}")
    for cell_id, why in failures.items():
        print(f"{name:14s} FAILED {cell_id}: {why}")
    detail = {
        "workload": name,
        "seed": seed,
        "cells": cells,
        "tail_percentile": tail_percentile(cells),
        "metrics": {m: {"value": v, "unit": u}
                    for m, (v, u) in metrics.items()},
        "samples": {
            "sweep_s_unscaled": sweep["sweep_s"],
            "cell_s": {c["id"]: scaled(c) for c in sweep["cells"]},
            "speed_factors": [c["factor"] for c in sweep["cells"]],
            "setup_s": setups,
        },
        "digests": {c["id"]: c.get("digest") for c in sweep["cells"]},
        "failures": failures,
    }
    with open(OUT / f"{name}.json", "w") as handle:
        json.dump(detail, handle, indent=1)
        handle.write("\n")
    return metrics


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    OUT.mkdir(parents=True, exist_ok=True)
    env = child_env()
    expected = load_expected()

    def spawn(name: str, mode: str, seed: int = args.seed,
              cells: Optional[int] = args.cells) -> dict:
        return run_child(name, seed, mode, env, cells)

    try:
        precompile(env)
        if args.record:
            return record(workloads, args.seed, spawn)
        # Untimed: on another seed than the recorded one, rerun the
        # first recorded cells so every run checks results exactly.
        checks = {name: spawn(name, "sweep", expected[name]["seed"],
                              min(CHECK_CELLS, args.cells or CHECK_CELLS))
                  for name in workloads
                  if name in expected and expected[name]["seed"] != args.seed}
        start = time.perf_counter()
        sweeps = {name: spawn(name, "sweep") for name in workloads}
        setups = setup_samples(
            workloads,
            args.seconds * len(workloads) - (time.perf_counter() - start),
            spawn)
        traced = {name: spawn(name, "trace")
                  for name in workloads} if args.trace else {}
    except (ChildError, subprocess.SubprocessError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    shown: Dict[str, dict] = {}
    for name in workloads:
        sweep = sweeps[name]
        entry = expected.get(name)
        reference = entry["cells"] \
            if entry and entry["seed"] == args.seed else None
        passes = [sweep] + ([traced[name]] if name in traced else [])
        failures = failed_cells(passes, reference)
        tried = len(sweep["cells"])
        if name in checks:
            failures.update(failed_cells([checks[name]], entry["cells"]))
            tried += len(checks[name]["cells"])
        attempted += tried
        failed += len(failures)
        setups[name].append(sweep["setup_s"])
        metrics = report(name, args.seed, sweep, setups[name],
                         traced.get(name), failures,
                         1.0 - len(failures) / tried)
        units = LAYER_UNITS if args.trace else E2E_UNITS
        prefix = "" if len(workloads) == 1 else f"{name}/"
        shown.update((prefix + m, {"value": metrics[m][0],
                                   "unit": metrics[m][1]}) for m in units)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
