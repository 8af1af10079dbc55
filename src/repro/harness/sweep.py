"""One sweep machine for ``repro chaos``, ``writes`` and ``loadgen``.

A :class:`Sweep` is a value: presets × one axis of points, how a
``(preset, point)`` pair becomes a :class:`RunSpec`, the columns a cell
reads off its :class:`~repro.core.runner.SimulationResult`, the table
that prints them and the one :class:`Gate` its record carries.  Each
verb declares its sweep once and fills in the grid per run with
:func:`dataclasses.replace`; :func:`run_sweep` runs it, and the
:class:`SweepResult` prints one table and emits one record.

A cell is a dict: ``preset``, the point's keys, the columns ``read``
returns and, when the sweep has a ``failed`` text, ``failed`` (a run
that raises a :class:`~repro.errors.ReproError` is then a failed cell;
otherwise the raise ends the verb).
"""

from __future__ import annotations

import copy
import importlib
import itertools
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping,
                    NamedTuple, Optional, Tuple)

from repro.errors import ReproError
from repro.harness import EXPERIMENTS
from repro.harness.parallel import ParallelRunError, RunSpec, run_specs

Point = Mapping[str, Any]
Cell = Dict[str, Any]


class Column(NamedTuple):
    """A table column: ``title`` right-aligned to ``width`` over each
    cell's ``value`` formatted with ``spec``."""

    title: str
    width: int
    spec: str
    value: Callable[[Cell], Any]


@dataclass(frozen=True)
class Gate:
    """The sweep's one pass/fail property, recorded ``exact``.

    Without an ``order``, ``column`` must not decrease along the axis
    for any preset, failed and censored cells skipped.  With one,
    ``column`` must strictly decrease in that order of ``factor`` in
    every group of cells sharing the rest of their point; a failed or
    missing cell fails it, and fewer than two ordered values in the
    sweep pass it.  A gate with a ``failure`` message exits the verb 1
    when it fails.
    """

    name: str
    column: str
    factor: str = ""
    order: Tuple[str, ...] = ()
    failure: str = ""

    def holds(self, points: Tuple[Point, ...], cells: List[Cell]) -> bool:
        if not self.order:
            last: Dict[str, Any] = {}
            for cell in cells:
                value = cell[self.column]
                if cell.get("failed") or cell.get("censored") \
                        or value is None:
                    continue
                if value < last.get(cell["preset"], value):
                    return False
                last[cell["preset"]] = value
            return True
        swept = {point[self.factor] for point in points}
        ordered = [value for value in self.order if value in swept]
        if len(ordered) < 2:
            return True
        rest = sorted({key for point in points for key in point}
                      - {self.factor})
        groups: Dict[Tuple, Dict[Any, Cell]] = {}
        for cell in cells:
            group = (cell["preset"],) + tuple(cell[key] for key in rest)
            groups.setdefault(group, {})[cell[self.factor]] = cell
        for by_factor in groups.values():
            values = [by_factor.get(value, {"failed": True})
                      for value in ordered]
            if any(cell.get("failed") for cell in values) or any(
                    later[self.column] >= earlier[self.column]
                    for earlier, later in zip(values, values[1:])):
                return False
        return True


@dataclass(frozen=True)
class Sweep:
    """A sweep, declared: the verb's table, record and gate, then the
    grid each run fills in."""

    verb: str                     # record verb and metric prefix
    head: Tuple[str, ...]         # over the detail; {gate} is yes/NO
    gate: Gate
    columns: Tuple[Column, ...]   # the first names the row
    #: Per-cell ``(key, gate mode)`` metrics ("" = relative); a dict
    #: value records one metric per entry.
    metrics: Tuple[Tuple[str, str], ...]
    labels: Tuple[Tuple[str, str], ...]   # metric label -> cell key
    block: str = "  {preset}:"    # a table block's title, over a cell
    failed: str = ""              # a failed cell's table text
    #: Sweep-level ``(name, value, labels)`` metrics and the lines under
    #: a preset's block (loadgen's anchor and knees).
    summary: Callable[["SweepResult"], Iterable] = lambda result: ()
    tail: Callable[["SweepResult", str], List[str]] = \
        lambda result, preset: []
    #: The record's detail ahead of its cells: experiment, scale,
    #: workload, presets and what else the verb swept.
    about: Tuple[Tuple[str, Any], ...] = ()
    points: Tuple[Point, ...] = ()
    spec: Optional[Callable[[str, Point], RunSpec]] = None
    read: Optional[Callable[[Any], Cell]] = None  # None: the run raised
    seed: int = 0                 # the record's seed
    config_preset: str = ""       # the scale the runs resolved to


@dataclass
class SweepResult:
    """A sweep's cells in grid order, plus the detail the verb adds
    after them (loadgen's knees)."""

    sweep: Sweep
    cells: List[Cell]
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.sweep.gate.holds(self.sweep.points, self.cells)

    def detail(self) -> Dict[str, Any]:
        sweep = self.sweep
        return copy.deepcopy({
            **dict(sweep.about), "cells": self.cells, **self.extra,
            sweep.gate.name: self.ok, "config_preset": sweep.config_preset,
        })

    def format_text(self) -> str:
        sweep, detail = self.sweep, self.detail()
        first, second = sweep.columns[:2]
        verdict = "yes" if detail[sweep.gate.name] else "NO"
        lines = [line.format(**detail, gate=verdict) for line in sweep.head]
        for title, cells in itertools.groupby(
                self.cells, key=lambda cell: sweep.block.format(**cell)):
            lines += [title, "    " + "  ".join(
                f"{column.title:>{column.width}}"
                for column in sweep.columns)]
            for cell in cells:
                values = ([format(first.value(cell), first.spec),
                           f"{sweep.failed:>{second.width}}"]
                          if cell.get("failed") else
                          [format(column.value(cell), column.spec)
                           for column in sweep.columns])
                lines.append("    " + "  ".join(values))
            lines += sweep.tail(self, cell["preset"])
        return "\n".join(lines)

    def record(self):
        """This sweep as a :class:`~repro.metrics.RunRecord`: the gate
        and each cell's failure gate ``exact``, and the fingerprint
        digests the whole detail."""
        from repro.metrics import (  # deferred: import cost
            EXACT, MetricSet, make_record, payload_digest,
        )

        sweep, detail = self.sweep, self.detail()
        prefix = sweep.verb + "/"
        metrics = MetricSet()
        metrics.add(prefix + sweep.gate.name, float(self.ok), gate=EXACT)
        for name, value, labels in sweep.summary(self):
            metrics.add(prefix + name, value, **labels)
        for cell in self.cells:
            labels = {label: cell[key] if isinstance(cell[key], str)
                      else format(cell[key], "g")
                      for label, key in (("preset", "preset"),)
                      + sweep.labels}
            if "failed" in cell:
                metrics.add(prefix + "failed", float(cell["failed"]),
                            gate=EXACT, **labels)
                if cell["failed"]:
                    continue
            for key, mode in sweep.metrics:
                values = cell[key] if isinstance(cell[key], dict) \
                    else {key: cell[key]}
                for name, value in values.items():
                    metrics.add(prefix + name.replace(".", "/"), value,
                                gate={"mode": mode} if mode else None,
                                **labels)
        return make_record(
            sweep.verb, experiment=detail["experiment"],
            scale=detail["scale"], preset=sweep.config_preset,
            workload=detail["workload"], seed=sweep.seed,
            metrics=metrics.as_dict(), policies=metrics.policies(),
            detail=detail, fingerprint=payload_digest(detail))


def run_sweep(sweep: Sweep, jobs: Optional[int] = None) -> SweepResult:
    """Run every ``(preset, point)`` cell of the grid, in order.  With
    a ``failed`` text, a run that raised a :class:`ReproError` is a
    failed cell; any other failure ends the sweep."""
    grid = [(preset, point) for preset in dict(sweep.about)["presets"]
            for point in sweep.points]
    specs = [sweep.spec(preset, point) for preset, point in grid]
    try:
        results = run_specs(specs, jobs=jobs)
    except ParallelRunError as error:
        if not sweep.failed or not all(
                isinstance(cause, ReproError) for _, cause in error.failures):
            raise
        results = error.results
    return SweepResult(sweep, [
        {"preset": preset, **point, **sweep.read(result),
         **({"failed": result is None} if sweep.failed else {})}
        for (preset, point), result in zip(grid, results)])


def parse_points(text: str, name: str, interval: str) -> Tuple[float, ...]:
    """A comma list of floats inside ``interval`` (written like
    ``"[0, 1)"``) as sorted unique points."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    points = set()
    for token in filter(None, (token.strip() for token in text.split(","))):
        try:
            value = float(token)
        except ValueError:
            raise ReproError(f"bad {name} sweep point {token!r}") from None
        if not ((lo < value if interval[0] == "(" else lo <= value)
                and (value < hi if interval[-1] == ")" else value <= hi)):
            raise ReproError(f"{name} sweep point {value} outside {interval}")
        points.add(value)
    if not points:
        raise ReproError(f"{name} sweep needs at least one point")
    return tuple(sorted(points))


def experiment_presets(experiment: str, fallback: Tuple[str, ...],
                       drop: str = "") -> Tuple[str, ...]:
    """The experiment's ``CONFIGS`` less ``drop``, or ``fallback``
    when none are left."""
    if experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ReproError(f"unknown experiment {experiment!r}; known: {known}")
    module = importlib.import_module(f"repro.harness.{experiment}")
    configs = getattr(module, "CONFIGS", None) or ()
    return tuple(name for name in configs if name != drop) or fallback


def default_workload(scale) -> str:
    """tatp when the scale runs it, else the scale's first workload."""
    return "tatp" if "tatp" in scale.workloads else scale.workloads[0]
