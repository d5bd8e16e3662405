"""Relaxation volumes over the unit box and the optimal branching point.

Closed forms cover the two single-bound cases with a zero lower corner;
general descriptions are integrated numerically (midpoint rule with one
Richardson step) or by counter-based Monte Carlo so runs reproduce exactly
regardless of worker count.
"""

from __future__ import annotations

import math
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
    if grid_n < 8 or grid_n % 2:
        raise ValueError("need an even grid_n >= 8")
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


def _mc_chunk(d: HullDescription, seed: int, chunk: int, count: int) -> int:
    b = d.bounds
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))
    # uniform(lo, hi, count)'s bits for x, y, then z: lo + (hi - lo) * u
    lo = np.array([[b.lx], [b.ly], [d.zlo]])
    pts = rng.random((3, count))
    pts *= np.array([[1.0], [1.0], [d.zhi]]) - lo
    pts += lo
    return int(np.count_nonzero(membership_mask(d, *pts)))


def vol_mc(d: HullDescription, n_samples: int, seed: int = 0,
           workers: int | None = None) -> tuple[float, float]:
    """Monte Carlo volume with a 3-sigma half width.

    Sampling is keyed per 65536-sample chunk, so the estimate is identical
    whether chunks run serially or on a thread pool.  The seed is an
    integer in [0, 2**64).
    """
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2 ** 64):
        raise ValueError("need an integer seed in [0, 2**64)")
    b = d.bounds
    chunks = range(math.ceil(n_samples / _MC_CHUNK))

    def chunk(k: int) -> int:
        return _mc_chunk(d, seed, k, min(_MC_CHUNK, n_samples - k * _MC_CHUNK))

    if workers is not None and workers > 1:
        # imported here: concurrent.futures pulls in logging, a cost every
        # import of the package would pay
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(chunk, chunks))
    else:
        hits = sum(map(chunk, chunks))
    vbox = (1.0 - b.lx) * (1.0 - b.ly) * (d.zhi - d.zlo)
    p = hits / n_samples
    half = 3.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n_samples) * vbox
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
    """Branch value minimizing the total child-hull volume, to 1e-12.

    The stationarity condition ln b = 2(b-1) has the spurious root b = 1;
    the bracket [1e-6, 0.5] isolates the interior minimum.  Safeguarded
    Newton: steps leaving the bracket fall back to bisection.
    """
    lo, hi = 1e-6, 0.5
    b = 0.2
    for _ in range(200):
        g = _stationarity(b)
        if g < 0.0:
            lo = b
        else:
            hi = b
        dg = 1.0 / b - 2.0
        step = b - g / dg if dg != 0.0 else math.nan
        b = step if lo < step < hi else 0.5 * (lo + hi)
        if hi - lo < 1e-14:
            break
    b_star = 0.5 * (lo + hi)
    total = vol_hull(Side.UPPER, b_star) + vol_hull(Side.LOWER, b_star)
    if grid is None:
        grid = np.linspace(0.01, 0.99, 99)
    grid = np.asarray(grid, dtype=float)
    ur = np.array([vol_hull(Side.UPPER, t) / vol_rlt_cut(Side.UPPER, t)
                   for t in grid])
    lr = np.array([vol_hull(Side.LOWER, t) / vol_rlt_cut(Side.LOWER, t)
                   for t in grid])
    tr = np.array([(vol_hull(Side.UPPER, t) + vol_hull(Side.LOWER, t)) / _SIXTH
                   for t in grid])
    return BranchReport(b_star=b_star, sum_ratio=total / _SIXTH, grid=grid,
                        upper_ratio=ur, lower_ratio=lr, total_ratio=tr)
