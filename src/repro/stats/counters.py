"""Named counters and rate/ratio helpers used by every component."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ReproError


class Counter:
    """A bound increment handle for one named counter.

    Hot paths pay a dict lookup plus string hash for every
    ``CounterSet.add`` call; components that bump the same counter per
    simulated event bind a handle once (``stats.counter("hits")``) and
    increment through it.  The handle shares the underlying value cell
    with the owning :class:`CounterSet`, so reads through either view
    always agree.

    The cell is created on the *first increment*, not when the handle
    is bound — a counter that never fires must stay absent from
    ``as_dict()``, exactly as with plain ``add``.
    """

    __slots__ = ("key", "_cells", "_cell")

    def __init__(self, key: str, cells: Dict[str, List[float]]) -> None:
        self.key = key
        self._cells = cells
        self._cell: Optional[List[float]] = cells.get(key)

    def _bind(self) -> List[float]:
        cell = self._cells.get(self.key)
        if cell is None:
            cell = self._cells[self.key] = [0.0]
        self._cell = cell
        return cell

    def incr(self) -> None:
        """Add 1 (the per-event fast path: no checks, no hashing)."""
        cell = self._cell
        if cell is None:
            cell = self._bind()
        cell[0] += 1.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ReproError(f"counter {self.key!r} decremented by {amount}")
        cell = self._cell
        if cell is None:
            cell = self._bind()
        cell[0] += amount

    @property
    def value(self) -> float:
        cell = self._cell if self._cell is not None \
            else self._cells.get(self.key)
        return cell[0] if cell is not None else 0.0

    def __repr__(self) -> str:
        return f"<Counter {self.key}={self.value:g}>"


class CounterSet:
    """A bag of named monotonically-increasing counters.

    Components expose a ``stats`` attribute of this type; the harness
    collects them into report rows.  Values live in shared one-element
    list cells so :class:`Counter` handles stay coherent with the set.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._cells: Dict[str, List[float]] = {}

    def counter(self, key: str) -> Counter:
        """A bound-increment handle for ``key``.

        The key appears in :meth:`as_dict` only once incremented.
        """
        return Counter(key, self._cells)

    def add(self, key: str, amount: float = 1.0) -> None:
        if amount < 0:
            raise ReproError(f"counter {key!r} decremented by {amount}")
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = [0.0]
        cell[0] += amount

    def get(self, key: str) -> float:
        cell = self._cells.get(key)
        return cell[0] if cell is not None else 0.0

    def __getitem__(self, key: str) -> float:
        return self.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._cells

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator`` counters; 0 when denominator is 0."""
        denom = self.get(denominator)
        if denom == 0:
            return 0.0
        return self.get(numerator) / denom

    def as_dict(self) -> Dict[str, float]:
        return {key: cell[0] for key, cell in self._cells.items()}

    def merge(self, other: "CounterSet") -> None:
        for key, cell in other._cells.items():
            self.add(key, cell[0])

    def restore(self, values: Dict[str, float]) -> None:
        """Overwrite the counters with a snapshot's ``as_dict()`` dump.

        Existing cells are updated in place (bound :class:`Counter`
        handles stay coherent); missing keys are created; extras are
        dropped.  Intended for *freshly constructed* objects only —
        once a handle has cached a cell, dropping its key would orphan
        it, so snapshot restore always targets new component instances
        whose handles have not fired yet.
        """
        for key in list(self._cells):
            if key not in values:
                del self._cells[key]
        for key, value in values.items():
            cell = self._cells.get(key)
            if cell is None:
                self._cells[key] = [value]
            else:
                cell[0] = value

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{k}={v[0]:g}" for k, v in sorted(self._cells.items())
        )
        return f"<CounterSet {self.name} {inner}>"
