"""Experiment harness: one module per paper figure/table.

``EXPERIMENTS`` maps experiment ids to their ``(scale=...)`` callables;
:func:`run_experiment` runs one by id, and :func:`run_experiments` a
registry, whose declared figures :func:`run_figures` runs together.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.harness import fig1, fig2, fig3, fig9, fig10, gc_overheads
from repro.harness import table1, table2
from repro.harness.common import (
    FULL,
    QUICK,
    SCALES,
    ExperimentResult,
    Figure,
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
    saturation,
)

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig1": fig1.run,
    "fig2": fig2.run,
    "fig3": fig3.run,
    "fig9": fig9.FIGURE,
    "fig10": fig10.FIGURE,
    "table1": table1.run,
    "table2": table2.FIGURE,
    "gc_overheads": gc_overheads.run,
}


def run_experiment(name: str, scale="quick", **kwargs) -> ExperimentResult:
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from None
    return runner(scale=scale, **kwargs)


def _run_distinct(specs, results: Dict, jobs: Optional[int]) -> None:
    """Run each of ``specs`` not in ``results`` once, as one batch."""
    pending = [spec for spec in dict.fromkeys(specs) if spec not in results]
    if pending:
        results.update(zip(pending, run_specs(pending, jobs=jobs)))


def run_figures(figures: Sequence[Figure], scale="quick", seed: int = 42,
                jobs: Optional[int] = None) -> List[ExperimentResult]:
    """The figures' results from two batches: the distinct DRAM-only
    anchors, then every distinct cell not already run."""
    scale = resolve_scale(scale)
    anchor_specs = [saturation(figure.anchor, scale, seed) if figure.anchor
                    else None for figure in figures]
    results: Dict = {}
    _run_distinct(filter(None, anchor_specs), results, jobs)
    anchors = [results.get(spec) for spec in anchor_specs]
    grids = [figure.cells(scale, seed, anchor)
             for figure, anchor in zip(figures, anchors)]
    _run_distinct((spec for grid in grids for spec in grid.values()),
                  results, jobs)
    built = []
    for figure, grid, anchor in zip(figures, grids, anchors):
        result = ExperimentResult(figure.experiment, figure.title,
                                  list(figure.columns), notes=figure.notes)
        for row in figure.rows(
                scale, {key: results[spec] for key, spec in grid.items()},
                anchor):
            result.add_row(*row)
        built.append(result)
    return built


def run_experiments(registry: Mapping[str, Callable[..., ExperimentResult]],
                    scale="quick",
                    jobs: Optional[int] = None) -> List[ExperimentResult]:
    """Every experiment of ``registry``, in order: the declared figures
    together through :func:`run_figures`, the others one by one."""
    runners = list(registry.values())
    declared = iter(run_figures(
        [runner for runner in runners if isinstance(runner, Figure)],
        scale, jobs=jobs))
    return [next(declared) if isinstance(runner, Figure)
            else runner(scale=scale, jobs=jobs) for runner in runners]


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
