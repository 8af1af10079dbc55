"""Compare benchmark runs of a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one file per run, named ``<workload>.<n>.json``,
whose last line is the JSON object ``run.py`` prints.  Runs pair up by
``n`` (run them alternating which side goes first).  One row per
workload and metric gives each side's median and quartiles, the share
of pairs the change wins, and a verdict:

* ``improved`` — the change wins at least 90% of pairs and the medians
  differ by more than the parent's interquartile range;
* ``REGRESSED`` — the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — either side's spread (IQR over median) exceeds the
  bound, unless every change run beats every parent run;
* ``within bound`` — none of the above; ``no claim`` for a metric
  without a bound;
* ``count.*`` metrics must be identical on both sides: ``identical`` or
  ``DIFFERS``.

Exits 1 when any row is ``REGRESSED`` or ``DIFFERS``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: A gain needs the change to win this share of pairs.
WIN_SHARE = 0.9


def load_runs(directory: Path) -> Dict[str, List[Dict[str, float]]]:
    """Workload -> metric values per run, in run-number order."""
    found: Dict[str, List[Tuple[int, Dict[str, float]]]] = {}
    for path in directory.glob("*.json"):
        workload, _, number = path.stem.rpartition(".")
        lines = path.read_text().strip().splitlines()
        if not workload or not number.isdigit() or not lines:
            continue
        metrics = json.loads(lines[-1])["metrics"]
        found.setdefault(workload, []).append(
            (int(number), {name: entry["value"]
                           for name, entry in metrics.items()}))
    return {workload: [metrics for _, metrics in sorted(runs)]
            for workload, runs in found.items()}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: List[float], change: List[float], lower_better: bool,
            bound) -> Tuple[str, float]:
    """(verdict, win share) for one metric on one workload."""
    def better(a: float, b: float) -> bool:
        return a < b if lower_better else a > b

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    share = wins / len(pairs) if pairs else 0.0
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    if share >= WIN_SHARE and better(cmed, pmed) \
            and abs(cmed - pmed) > p3 - p1:
        return "improved", share
    if bound is None:
        return "no claim", share
    worse = cmed - pmed if lower_better else pmed - cmed
    if worse > bound * abs(pmed):
        return "REGRESSED", share
    spread = max((p3 - p1) / abs(pmed) if pmed else 0.0,
                 (c3 - c1) / abs(cmed) if cmed else 0.0)
    all_better = all(better(c, p) for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", share
    return "within bound", share


def compare(parent: Dict[str, List[Dict[str, float]]],
            change: Dict[str, List[Dict[str, float]]],
            spec: dict) -> Tuple[List[str], bool]:
    """Report lines, and whether any metric regressed or a count moved."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower"
             for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"{'workload':14s} {'metric':28s} {'parent q1/med/q3':>32s} "
             f"{'change q1/med/q3':>32s} {'wins':>5s}  verdict"]
    bad = False
    for workload in sorted(set(parent) & set(change)):
        names = [name for name in parent[workload][0]
                 if name in change[workload][0]]
        for name in names:
            p_values = [run[name] for run in parent[workload]]
            c_values = [run[name] for run in change[workload]]
            if name.startswith("count."):
                same = len(set(p_values + c_values)) == 1
                result, share = ("identical" if same else "DIFFERS"), 0.0
            else:
                result, share = verdict(p_values, c_values,
                                        lower.get(name, True),
                                        bounds.get(name))
            bad = bad or result in ("REGRESSED", "DIFFERS")
            p1, pmed, p3 = quartiles(p_values)
            c1, cmed, c3 = quartiles(c_values)
            lines.append(
                f"{workload:14s} {name:28s} "
                f"{p1:10.4g} {pmed:10.4g} {p3:10.4g} "
                f"{c1:10.4g} {cmed:10.4g} {c3:10.4g} "
                f"{share:5.0%}  {result}")
    return lines, bad


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    parent, change = (load_runs(Path(arg)) for arg in argv)
    lines, bad = compare(parent, change, spec)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
