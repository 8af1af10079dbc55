"""Shared experiment-harness infrastructure.

Every figure/table module exposes ``run(scale=...)`` returning an
:class:`ExperimentResult` whose rows regenerate the paper's series, and
the harness registry lets the CLI/benchmarks enumerate them.

Two scales:

* ``quick`` — small dataset/short windows; minutes for everything.
  Used by the pytest-benchmark targets and CI.
* ``full``  — the scaled-up configuration DESIGN.md documents; use for
  the numbers recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.config import Override, SystemConfig, make_config
from repro.units import US


@dataclass(frozen=True)
class HarnessScale:
    """Knobs shared by the simulation-backed experiments."""

    name: str
    dataset_pages: int
    num_cores: int
    warmup_us: float
    measurement_us: float
    zipf_s: float
    workloads: Sequence[str]

    def workload_kwargs(self) -> Dict[str, float]:
        return {"zipf_s": self.zipf_s}


QUICK = HarnessScale(
    name="quick",
    dataset_pages=8192,
    num_cores=2,
    warmup_us=300.0,
    measurement_us=2_000.0,
    zipf_s=1.7,
    workloads=("arrayswap", "tatp", "tpcc"),
)

FULL = HarnessScale(
    name="full",
    dataset_pages=1 << 15,
    num_cores=8,
    warmup_us=1_000.0,
    measurement_us=6_000.0,
    zipf_s=1.62,
    workloads=("arrayswap", "rbtree", "hashtable", "tatp", "tpcc",
               "silo", "masstree"),
)

SCALES = {"quick": QUICK, "full": FULL}


def resolve_scale(scale) -> HarnessScale:
    if isinstance(scale, HarnessScale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        known = ", ".join(sorted(SCALES))
        raise KeyError(f"unknown scale {scale!r}; known: {known}") from None


@dataclass
class ExperimentResult:
    """Rows of one regenerated figure/table."""

    experiment: str
    title: str
    columns: List[str]
    rows: List[List] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> List:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def format_table(self) -> str:
        """The figure/table as aligned text, ready to print."""
        header = [self.title, ""]
        rendered = [
            [f"{v:.3f}" if isinstance(v, float) else str(v) for v in row]
            for row in self.rows
        ]
        widths = [
            max(len(self.columns[i]),
                max((len(r[i]) for r in rendered), default=0))
            for i in range(len(self.columns))
        ]
        header.append("  ".join(
            name.ljust(widths[i]) for i, name in enumerate(self.columns)
        ))
        header.append("  ".join("-" * w for w in widths))
        for row in rendered:
            header.append("  ".join(
                row[i].ljust(widths[i]) for i in range(len(self.columns))
            ))
        if self.notes:
            header.extend(["", self.notes])
        return "\n".join(header)


def build_config(config_name: str, scale: HarnessScale,
                 overrides: Iterable[Override] = ()) -> SystemConfig:
    """The preset at the harness scale, with ``overrides`` on top."""
    return make_config(config_name, (
        ("num_cores", scale.num_cores),
        ("scale.dataset_pages", scale.dataset_pages),
        ("scale.warmup_ns", scale.warmup_us * US),
        ("scale.measurement_ns", scale.measurement_us * US),
    ) + tuple(overrides))
