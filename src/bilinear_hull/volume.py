"""Relaxation volumes over the unit box and the optimal branching point.

Closed forms cover the two single-bound cases with a zero lower corner;
general descriptions are integrated numerically (midpoint rule with one
Richardson step) or by counter-based Monte Carlo, keyed per chunk of
samples, so a run reproduces exactly from its seed; a helper thread draws
the next chunk while the calling thread counts the current one.
"""

from __future__ import annotations

import math
import threading
from enum import Enum

import numpy as np

from .geometry import _Frozen
from .hull import (
    HullDescription,
    Region,
    _envelope_tiles,
    membership_mask,
)

_MC_CHUNK = 65536
_SIXTH = 1.0 / 6.0


class Side(Enum):
    UPPER = "Upper"
    LOWER = "Lower"


def _check_b(b: float) -> None:
    if not 0.0 < b < 1.0:
        raise ValueError("need 0 < b < 1")


def vol_rlt_cut(side: Side, b: float) -> float:
    """Volume of the RLT tetrahedra after adding the single product bound b.

    The two sides always add up to the full RLT volume of 1/6.
    """
    _check_b(b)
    if side is Side.UPPER:
        return b * (b * b - 3.0 * b + 3.0) / 6.0
    return (1.0 - b) ** 3 / 6.0


def vol_hull(side: Side, b: float) -> float:
    """Exact hull volume for the single product bound b, zero lower corner."""
    _check_b(b)
    if side is Side.UPPER:
        return b * (3.0 - b - b * b + 2.0 * b * math.log(b)) / 6.0
    return (1.0 - b) * (1.0 - b * b + 2.0 * b * math.log(b)) / 6.0


def vol_removed(side: Side, b: float) -> float:
    """What the curved patches shave off the RLT cut: rlt_cut - hull."""
    _check_b(b)
    if side is Side.UPPER:
        return b * b * (b - 1.0 - math.log(b)) / 3.0
    return b * (1.0 - b) * (b - 1.0 - math.log(b)) / 3.0


def vol_closed(d: HullDescription) -> float | None:
    """vol_hull for the descriptions it covers: a single product bound
    over a box whose lower corner can be taken as zero; None for every
    other description.

    An upper-only box needs lx = ly = 0.  A lower-only box needs only
    max(lx, ly) <= lz: xy >= lz with x, y <= 1 already forces x, y >= lz,
    so the hull is that of the zero-corner box (tightening lifts the zero
    corner to (lz, lz)).
    """
    b = d.bounds
    if d.case.region is Region.UPPER_ONLY and b.lx == 0.0 and b.ly == 0.0:
        return vol_hull(Side.UPPER, b.uz)
    if d.case.region is Region.LOWER_ONLY and max(b.lx, b.ly) <= b.lz:
        return vol_hull(Side.LOWER, b.lz)
    return None


def vol_numeric(d: HullDescription, grid_n: int = 512) -> tuple[float, float]:
    """Midpoint-rule volume of a description with one Richardson step.

    Returns (value, error) where error is the extrapolation increment
    |I_n - I_{n/2}|/3; the value is the extrapolated estimate.
    """
    if not (isinstance(grid_n, (int, np.integer)) and grid_n >= 8
            and grid_n % 2 == 0):
        raise ValueError("need an even integer grid_n >= 8")
    fine = _midpoint_volume(d, grid_n)
    coarse = _midpoint_volume(d, grid_n // 2)
    return fine + (fine - coarse) / 3.0, abs(fine - coarse) / 3.0


def _midpoint_volume(d: HullDescription, n: int) -> float:
    """The midpoint sum of (zmax - zmin)+ over n x n cells, the envelopes a
    tile at a time (hull._envelope_tiles, without piece ids); the one sum
    over the whole grid of gaps keeps its bits."""
    b = d.bounds
    hx = (1.0 - b.lx) / n
    hy = (1.0 - b.ly) / n
    xs = b.lx + (np.arange(n) + 0.5) * hx
    ys = b.ly + (np.arange(n) + 0.5) * hy
    gap = np.empty((n, n))
    for rows, cols, zmin, zmax in _envelope_tiles(d, xs, ys):
        tile = np.subtract(zmax, zmin, out=gap[rows, cols])
        np.maximum(tile, 0.0, out=tile)
    return float(np.sum(gap) * hx * hy)


def vol_mc(d: HullDescription, n_samples: int, seed: int = 0,
           workers: int | None = None) -> tuple[float, float]:
    """Monte Carlo volume with a 3-sigma half width.

    The samples are drawn in chunks of 65536, chunk k from the Philox key
    [seed, k].  While the calling thread counts chunk k, a helper thread
    draws chunk k + 1 into a second buffer (numpy fills without the GIL);
    the hits are summed in chunk order, so the result does not depend on
    the overlap.  A call of one chunk starts no thread, and no thread
    outlives the call.  n_samples is an integer >= 1 and the seed an
    integer in [0, 2**64), neither a bool.  workers is accepted and has no
    effect.
    """
    if isinstance(n_samples, bool) or not (
            isinstance(n_samples, (int, np.integer)) and n_samples >= 1):
        raise ValueError("need an integer n_samples >= 1")
    if isinstance(seed, bool) or not (
            isinstance(seed, (int, np.integer)) and 0 <= seed < 2 ** 64):
        raise ValueError("need an integer seed in [0, 2**64)")
    n = int(n_samples)
    b = d.bounds
    # uniform(lo, hi, count)'s bits for x, y, then z: lo + (hi - lo) * u
    lo = np.array([[b.lx], [b.ly], [d.zlo]])
    width = np.array([[1.0], [1.0], [d.zhi]]) - lo
    n_chunks = -(-n // _MC_CHUNK)
    # chunk k fills bufs[k % 2], which the count of chunk k - 2 is done with;
    # a draw's exception is kept for the calling thread to raise, since a
    # helper's own would only reach threading.excepthook
    bufs = [np.empty(3 * min(_MC_CHUNK, n)) for _ in range(min(n_chunks, 2))]
    failed = []

    def chunk(k):
        m = min(_MC_CHUNK, n - k * _MC_CHUNK)
        return bufs[k % 2][:3 * m].reshape(3, m)

    def draw(k):
        try:
            pts = chunk(k)
            np.random.Generator(np.random.Philox(
                key=np.array([seed, k], dtype=np.uint64))).random(out=pts)
            pts *= width
            pts += lo
        except BaseException as exc:
            failed.append(exc)

    draw(0)
    hits = 0
    for k in range(n_chunks):
        if failed:
            raise failed[0]
        helper = None
        if k + 1 < n_chunks:
            helper = threading.Thread(target=draw, args=(k + 1,))
            helper.start()
        try:
            hits += int(np.count_nonzero(membership_mask(d, *chunk(k))))
        finally:
            if helper is not None:
                helper.join()
    vbox = (1.0 - b.lx) * (1.0 - b.ly) * (d.zhi - d.zlo)
    p = hits / n
    half = 3.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n) * vbox
    return p * vbox, half


class BranchReport(_Frozen):
    """Optimal single-point spatial branching on the product value.

    sum_ratio is the joint hull volume at b_star relative to 1/6; over the
    grid, upper_ratio is hull/rlt_cut for the z <= b side, lower_ratio the
    same for the z >= b side, and total_ratio (hull(U)+hull(L)) / (1/6).
    Comparing two reports compares their arrays, so unless they share the
    array objects it raises for arrays of more than one element.
    """

    __slots__ = ("b_star", "sum_ratio", "grid", "upper_ratio", "lower_ratio",
                 "total_ratio")


def _stationarity(b: float) -> float:
    # derivative of the joint hull volume vanishes where ln b = 2(b-1)
    return math.log(b) - 2.0 * (b - 1.0)


def optimal_branch(grid: np.ndarray | None = None) -> BranchReport:
    """Branch value minimizing the total child-hull volume.

    The stationarity condition g(b) = ln b - 2(b-1) = 0 has the spurious
    root b = 1.  g is concave and increasing on (0, 1/2), so Newton from
    b = 0.2, where g < 0, climbs to the interior root without passing it;
    it stops when an iterate repeats.
    """
    b_star = 0.2
    for _ in range(16):
        b = b_star - _stationarity(b_star) / (1.0 / b_star - 2.0)
        if b == b_star:
            break
        b_star = b
    total = vol_hull(Side.UPPER, b_star) + vol_hull(Side.LOWER, b_star)
    if grid is None:
        grid = np.linspace(0.01, 0.99, 99)
    grid = np.asarray(grid, dtype=float)
    upper = np.array([vol_hull(Side.UPPER, t) for t in grid])
    lower = np.array([vol_hull(Side.LOWER, t) for t in grid])
    ur = upper / np.array([vol_rlt_cut(Side.UPPER, t) for t in grid])
    lr = lower / np.array([vol_rlt_cut(Side.LOWER, t) for t in grid])
    return BranchReport(b_star=b_star, sum_ratio=total / _SIXTH, grid=grid,
                        upper_ratio=ur, lower_ratio=lr,
                        total_ratio=(upper + lower) / _SIXTH)
