"""Layer map, span recorder and layer sampler for the traced pass.

Everything here measures the simulator from outside: spans wrap calls
into its public functions, and a sampling profiler charges host time to
the layer of the source module that was running.  Standard library
only, so the tests can import it without the simulator on the path.
"""

from __future__ import annotations

import functools
import json
import signal
import time
from contextlib import contextmanager
from pathlib import Path, PurePosixPath
from typing import Dict, List, Optional

#: Layers that sampled host time is charged to, in report order.
LAYERS = (
    "harness", "snapshot", "workloads", "core", "sim", "sim.vector",
    "dramcache", "flash", "ult", "osmodel", "cpu", "vm", "stats", "writes",
)

#: Single files whose layer differs from their package's.
_FILE_LAYERS = {"sim/vector.py": "sim.vector"}

#: Entries of ``src/repro`` (module file or package directory) -> layer.
_ENTRY_LAYERS = {
    "__init__.py": "harness",
    "__main__.py": "harness",
    "cli.py": "harness",
    "errors.py": "harness",
    "jsonutil.py": "harness",
    "units.py": "harness",
    "perf.py": "harness",
    "harness": "harness",
    "loadgen": "harness",
    "metrics": "harness",
    "config": "harness",
    "analytic": "harness",
    "snapshot.py": "snapshot",
    "workloads": "workloads",
    "trace.py": "workloads",
    "core": "core",
    "sim": "sim",
    "dramcache": "dramcache",
    "mem": "dramcache",
    "flash": "flash",
    "faults": "flash",
    "ult": "ult",
    "osmodel": "osmodel",
    "cpu": "cpu",
    "vm": "vm",
    "stats": "stats",
    "obs": "stats",
    "writes": "writes",
}

#: Where time with no simulator frame on its call path is charged.
ROOT_LAYER = "harness"


def layer_of(relpath: str) -> Optional[str]:
    """Layer of a source file, given by its path relative to
    ``src/repro``; ``None`` when the map does not cover it."""
    path = PurePosixPath(relpath).as_posix()
    if path in _FILE_LAYERS:
        return _FILE_LAYERS[path]
    return _ENTRY_LAYERS.get(path.split("/", 1)[0])


# ------------------------------------------------------------------ sampler --


class LayerSampler:
    """Host time per layer, sampled from the running stack.

    A timer signal fires every ``interval_s`` of process CPU time.  Each
    sample charges the wall time since the previous sample to the layer
    of the innermost ``src/repro`` frame on the stack, so time in
    builtins, the standard library or numpy goes to the layer that
    called them, and time with no ``repro`` frame on the stack to
    :data:`ROOT_LAYER`.  Weighting by elapsed time keeps a long native
    call, during which the coalesced signal waits, at its full length.

    Unlike cProfile, which multiplied sweep time by 3-4x and inflated
    the layers that make many small calls, this costs a few percent.
    """

    def __init__(self, repro_root: Path, interval_s: float = 0.001) -> None:
        self.root = repro_root.resolve()
        self.interval_s = interval_s
        self.seconds: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.unmapped: set = set()
        self._file_layers: Dict[str, Optional[str]] = {}
        self._last = 0.0
        self._last_layer = ROOT_LAYER

    def layer_of_frame(self, frame) -> str:
        """Layer of the innermost ``repro`` frame from ``frame`` out."""
        while frame is not None:
            filename = frame.f_code.co_filename
            if filename not in self._file_layers:
                self._file_layers[filename] = self._layer_of_file(filename)
            layer = self._file_layers[filename]
            if layer is not None:
                return layer
            frame = frame.f_back
        return ROOT_LAYER

    def _layer_of_file(self, filename: str) -> Optional[str]:
        try:
            rel = Path(filename).resolve().relative_to(self.root)
        except (ValueError, OSError):
            return None
        layer = layer_of(rel.as_posix())
        if layer is None:
            self.unmapped.add(rel.as_posix())
        return layer

    def _charge(self, layer: str) -> None:
        now = time.perf_counter()
        self.seconds[layer] += now - self._last
        self._last, self._last_layer = now, layer

    def _sample(self, _signum, frame) -> None:
        self._charge(self.layer_of_frame(frame))

    @contextmanager
    def sampling(self):
        """Sample while the block runs; the time since the last sample
        is charged to the layer that sample found."""
        previous = signal.signal(signal.SIGPROF, self._sample)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)
            self._charge(self._last_layer)


# -------------------------------------------------------------------- spans --


class SpanRecorder:
    """In-memory spans around calls into the simulator.

    Each span records its id, its parent (the span open when it began),
    its name, start and end (``perf_counter`` seconds) and the id of the
    cell it ran for.  Single-threaded: the open spans form a stack.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.cell: Optional[str] = None
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "cell": self.cell,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with a wrapper recording a span
        named ``name`` around every call."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, wrapper)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total seconds and self seconds (the
        duration minus the time its child spans cover)."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += \
                    record["end"] - record["start"]
        by_name: Dict[str, Dict[str, float]] = {}
        for record in self.spans:
            duration = record["end"] - record["start"]
            entry = by_name.setdefault(
                record["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[record["id"]]
        return by_name

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "by_name": self.summary()},
                      handle, indent=1)
            handle.write("\n")
