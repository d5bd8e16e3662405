"""Shared result type and statistics for the benchmark workloads."""

from __future__ import annotations

import hashlib
import sys
from array import array
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Result checksums cover this many leading operations of a run, so two runs
# of one seed compare equal whatever their speed.
CHECKSUM_OPS = 64
MAX_PROBLEMS = 50
# Every tail percentile has at least this many samples beyond it, and every
# run at least this many blocks for the per-block medians.
MIN_BEYOND_TAIL = 10
MIN_BLOCKS = 3
# A percentile that falls on failed operations reads as this latency.
FAILED_LATENCY = sys.float_info.max


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    # per operation: latency in seconds (+inf when it failed), seconds spent
    # in the timed calls (failed ones too), and work units done
    latencies: array = field(default_factory=lambda: array("d"))
    spent: array = field(default_factory=lambda: array("d"))
    work: array = field(default_factory=lambda: array("d"))
    # reference-kernel seconds (reference.py), timed before the operation
    # whose index is in ref_at, and once more after the last one
    refs: array = field(default_factory=lambda: array("d"))
    ref_at: array = field(default_factory=lambda: array("q"))
    attempted: int = 0
    failed: int = 0          # operations that raised or returned a wrong result
    incorrect: int = 0       # operations whose returned result failed its check
    # failed operations that raised the recorded tightening defect (a bare
    # RuntimeError from tighten_with_scaling on boxes whose fixed-point test
    # never settles): they count in `failed` and failed_frac like any other,
    # and run.py reports them apart from the run's other failures
    known_defect: int = 0
    failed_index: list = field(default_factory=list)
    defect_index: list = field(default_factory=list)  # those of known_defect
    problems: list = field(default_factory=list)  # the first MAX_PROBLEMS
    mix: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    # traced runs only: per-operation seconds untraced and traced
    baseline: array = field(default_factory=lambda: array("d"))
    traced: array = field(default_factory=lambda: array("d"))
    _digest: object = field(default_factory=hashlib.sha256)

    def reference(self, at: int, seconds: float) -> None:
        self.refs.append(seconds)
        self.ref_at.append(at)

    def ok(self, seconds: float, fingerprint, units: float = 1.0) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        self.spent.append(seconds)
        self.work.append(units)
        if self.attempted <= CHECKSUM_OPS:
            self._digest.update(repr(fingerprint).encode())

    def fail(self, index: int, kind: str, reason: str, seconds: float,
             wrong_result: bool, known_defect: bool = False) -> None:
        """A failed operation; it misses every latency percentile."""
        self.attempted += 1
        self.failed += 1
        if known_defect:
            self.known_defect += 1
            self.defect_index.append(index)
        self.latencies.append(np.inf)
        self.spent.append(seconds)
        self.work.append(0.0)
        self.failed_index.append(index)
        if wrong_result:
            self.incorrect += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append({"index": index, "kind": kind,
                                  "reason": reason, "wrong_result": wrong_result,
                                  "known_defect": known_defect})
        if self.attempted <= CHECKSUM_OPS:
            self._digest.update(("fail:%s" % kind).encode())

    @property
    def checksum(self) -> str:
        return self._digest.hexdigest()

    def rates(self, block: int, tail_q: float, block_quantiles: bool,
              tail_mean: bool = False, tail_ref_q: float | None = None):
        """((throughput, p50, tail) in units/s and seconds, the same in
        reference units, number of blocks).

        The run is cut into consecutive blocks of `block` operations (a
        cyclic workload's cycle).  Throughput is the median over blocks of
        block work / block time, so a burst of machine noise moves one block
        and not the run.  With block_quantiles the percentiles are medians of
        per-block percentiles too; otherwise they are taken over the run.
        With tail_mean the tail is the mean of the samples beyond the
        tail_q percentile instead of the percentile itself.  In
        reference units every time is divided by the mean of the reference
        times taken within its block and at both its ends; operations after
        the last whole block take the last block's.  With tail_ref_q the
        tail is divided by that quantile of the block's reference times
        instead of their mean (see wl_node.TAIL_REF_Q).
        """
        lat = np.asarray(self.latencies)
        spent = np.asarray(self.spent)
        work = np.asarray(self.work)
        refs = np.asarray(self.refs)
        at = np.asarray(self.ref_at)
        nb = lat.size // block
        if nb < MIN_BLOCKS:
            cuts = [slice(0, lat.size)]
        else:
            cuts = [slice(k * block, (k + 1) * block) for k in range(nb)]
        scale = np.empty(lat.size)
        tail_scale = np.empty(lat.size)
        for s in cuts:
            r = refs[(at >= s.start) & (at <= s.stop)]
            scale[s.start:] = r.mean()
            tail_scale[s.start:] = (r.mean() if tail_ref_q is None
                                    else np.quantile(r, tail_ref_q))

        tail = mean_beyond if tail_mean else quantile

        def summary(unit, tail_unit):
            t, busy, tt = lat / unit, spent / unit, lat / tail_unit
            thr = median([work[s].sum() / busy[s].sum() for s in cuts])
            if block_quantiles and len(cuts) > 1:
                return (thr, median([quantile(t[s], 0.5) for s in cuts]),
                        median([tail(tt[s], tail_q) for s in cuts]))
            return thr, quantile(t, 0.5), tail(tt, tail_q)

        return summary(1.0, 1.0), summary(scale, tail_scale), len(cuts)


class Budget:
    """Closed-loop stopping rule: `seconds` of wall time but at least
    `min_ops` operations (untraced runs, whose tails are gated), or exactly
    `max_ops` operations when given (as the tests do).  Cyclic workloads
    stop only at a cycle boundary, so every run holds whole cycles of its
    mix and the percentiles do not move with where the clock ran out."""

    def __init__(self, seconds: float, max_ops: int | None, min_ops: int = 0):
        self.max_ops = max_ops
        self.min_ops = min_ops
        self.deadline = perf_counter() + seconds

    def more(self, done: int, at_boundary: bool = True) -> bool:
        if self.max_ops is not None:
            return done < self.max_ops
        return (not at_boundary or done < self.min_ops
                or perf_counter() < self.deadline)


def min_ops(block: int, tail_q: float, block_quantiles: bool) -> int:
    """Fewest operations, in whole blocks and at least MIN_BLOCKS of them,
    that put MIN_BEYOND_TAIL samples beyond the tail percentile of each
    quantile (a block's with block_quantiles, else the run's)."""
    if block_quantiles:
        assert samples_beyond(block, tail_q) >= MIN_BEYOND_TAIL
        return MIN_BLOCKS * block
    n = MIN_BLOCKS * block
    while samples_beyond(n, tail_q) < MIN_BEYOND_TAIL:
        n += block
    return n


def quantile(values, q: float) -> float:
    """Quantile by the exclusive rule of statistics.quantiles (position
    q*(n+1)); failed operations sit at +inf and read as FAILED_LATENCY."""
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    if n == 0:
        return float("nan")
    pos = min(max(q * (n + 1), 1.0), float(n)) - 1.0
    lo = int(np.floor(pos))
    hi = min(lo + 1, n - 1)
    a, b = v[lo], v[hi]
    if not (np.isfinite(a) and np.isfinite(b)):
        return FAILED_LATENCY
    return float(a + (b - a) * (pos - lo))


def mean_beyond(values, q: float) -> float:
    """Mean of the samples_beyond(n, q) largest values; failed operations
    among them read as FAILED_LATENCY."""
    v = np.sort(np.asarray(values, dtype=float))
    k = max(1, samples_beyond(v.size, q))
    top = v[-k:]
    return float(top.mean()) if np.isfinite(top).all() else FAILED_LATENCY


def samples_beyond(n: int, q: float) -> int:
    return int(np.floor(n * (1.0 - q)))


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))

