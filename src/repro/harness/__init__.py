"""Experiment harness: one module per paper figure/table.

``EXPERIMENTS`` maps experiment ids to their ``run(scale=...)``
callables; :func:`run_experiment` runs one by id.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.harness import fig1, fig2, fig3, fig9, fig10, gc_overheads
from repro.harness import table1, table2
from repro.harness.common import (
    FULL,
    QUICK,
    SCALES,
    ExperimentResult,
    HarnessScale,
    build_config,
    resolve_scale,
)
from repro.harness.parallel import (
    ParallelRunError,
    RunSpec,
    execute_spec,
    map_tasks,
    run_specs,
)

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig1": fig1.run,
    "fig2": fig2.run,
    "fig3": fig3.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "table1": table1.run,
    "table2": table2.run,
    "gc_overheads": gc_overheads.run,
}


def run_experiment(name: str, scale="quick", **kwargs) -> ExperimentResult:
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from None
    return runner(scale=scale, **kwargs)


__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "FULL",
    "HarnessScale",
    "ParallelRunError",
    "QUICK",
    "RunSpec",
    "SCALES",
    "build_config",
    "execute_spec",
    "map_tasks",
    "resolve_scale",
    "run_experiment",
    "run_specs",
]
