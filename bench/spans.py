"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, request, units).  Spans are opened and
closed by the benchmark's own code around calls into the library, kept in
flat arrays while the run lasts, and written out once when it ends.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns

import numpy as np


def call(tracer, name: str, fn, *args, units: float = 1.0, **kw):
    """fn(*args, **kw), inside a span named `name` when tracing."""
    if tracer is None:
        return fn(*args, **kw)
    return tracer.call(name, fn, *args, units=units, **kw)


class Tracer:
    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.units = array("d")
        self.counts: dict[str, float] = {}
        self._open = -1
        self.req = -1

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, units: float = 1.0) -> int:
        """Start a parent span; returns its index for close()."""
        idx = len(self.start)
        self.name.append(self._nid(name))
        self.parent.append(self._open)
        self.request.append(self.req)
        self.units.append(units)
        self.end.append(0)
        self._open = idx
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._open = self.parent[idx]

    def call(self, name: str, fn, *args, units: float = 1.0, **kw):
        """fn(*args, **kw) inside a leaf span; the span is kept if it raises."""
        idx = self.open(name, units)
        try:
            return fn(*args, **kw)
        finally:
            self.close(idx)

    def count(self, key: str, by: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + by

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "units": np.frombuffer(self.units, dtype=np.float64),
        }

    def durations(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(duration in ns, units) of every span with this name."""
        a = self.arrays()
        nid = self._ids.get(name)
        if nid is None:
            return np.empty(0), np.empty(0)
        sel = a["name"] == nid
        return (a["end"][sel] - a["start"][sel]).astype(float), a["units"][sel]

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, median total and median self time in us.

        Self time is the span's duration minus the time its child spans
        cover; children never overlap because the client is single-threaded.
        """
        a = self.arrays()
        if a["start"].size == 0:
            return {}
        dur = (a["end"] - a["start"]).astype(float)
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        selft = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            if sel.any():
                out[name] = {"calls": int(sel.sum()),
                             "total_us_p50": float(np.median(dur[sel])) / 1e3,
                             "self_us_p50": float(np.median(selft[sel])) / 1e3,
                             "self_s_sum": float(selft[sel].sum()) / 1e9}
        return out

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
