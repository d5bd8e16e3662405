"""Volumes of hulls and cut bodies, and the optimal branching point."""

import math
import subprocess
import sys

import numpy as np
import pytest

from bilinear_hull import (
    NormalizedBounds,
    RawBounds,
    Region,
    Side,
    describe,
    envelope_grid,
    hull_from_raw,
    optimal_branch,
    vol_hull,
    vol_mc,
    vol_numeric,
    vol_removed,
    vol_rlt_cut,
)
from bilinear_hull.volume import vol_closed

B_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def test_closed_form_pins():
    assert abs(vol_hull(Side.UPPER, 0.4) - 0.113798) <= 5e-7
    assert abs(vol_hull(Side.UPPER, 0.3) - 0.094381) <= 5e-7
    assert abs(vol_hull(Side.LOWER, 0.3) - 0.021889) <= 5e-7
    total = vol_hull(Side.UPPER, 0.3) + vol_hull(Side.LOWER, 0.3)
    assert abs(total - 0.116270) <= 1e-6


def test_closed_forms_recomputed():
    for b in B_GRID:
        lg = math.log(b)
        assert abs(vol_rlt_cut(Side.UPPER, b)
                   - b * (b * b - 3 * b + 3) / 6) <= 1e-15
        assert abs(vol_rlt_cut(Side.LOWER, b) - (1 - b) ** 3 / 6) <= 1e-15
        assert abs(vol_hull(Side.UPPER, b)
                   - b * (3 - b - b * b + 2 * b * lg) / 6) <= 1e-15
        assert abs(vol_hull(Side.LOWER, b)
                   - (1 - b) * (1 - b * b + 2 * b * lg) / 6) <= 1e-15
        assert abs(vol_removed(Side.UPPER, b)
                   - b * b * (b - 1 - lg) / 3) <= 1e-15
        assert abs(vol_removed(Side.LOWER, b)
                   - b * (1 - b) * (b - 1 - lg) / 3) <= 1e-15


def test_vol_closed_covers_one_sided_zero_corner_boxes_only():
    upper, _ = hull_from_raw(RawBounds(0, 0, 0, 1, 1, 0.4))
    # untightened: tightening would lift the corner of this box to (lz, lz)
    lower = describe(NormalizedBounds(0, 0, 0.3, 1))
    assert vol_closed(upper) == vol_hull(Side.UPPER, 0.4)
    assert vol_closed(lower) == vol_hull(Side.LOWER, 0.3)
    # a one-sided box with a nonzero lower corner, and a region box
    corner, _ = hull_from_raw(RawBounds(0.5, 0.3, 0.3, 1, 1, 1))
    region, _ = hull_from_raw(RawBounds(0.14, 0.3, 0.1, 1, 1, 0.7))
    assert corner.case.region is Region.LOWER_ONLY
    assert vol_closed(corner) is None
    assert vol_closed(region) is None


def test_vol_closed_on_tightened_lower_only_zero_corner_box():
    # tightening lifts the zero corner to (lz, lz); xy >= lz already forces
    # x, y >= lz there, so the hull and its closed-form volume are unchanged
    d, _ = hull_from_raw(RawBounds(0, 0, 0.3, 1, 1, 1))
    assert (d.bounds.lx, d.bounds.ly) == (0.3, 0.3)
    assert vol_closed(d) == vol_hull(Side.LOWER, 0.3)
    assert abs(vol_numeric(d, 512)[0] - vol_closed(d)) <= 1e-8
    # the lifted corner of an upper-only box changes the hull
    upper = describe(NormalizedBounds(0.1, 0.0, 0.0, 0.4))
    assert upper.case.region is Region.UPPER_ONLY
    assert vol_closed(upper) is None


def test_import_leaves_the_thread_pool_unloaded():
    # vol_mc imports concurrent.futures (and logging with it) only when it
    # runs workers, so a plain import does not pay for them
    code = ("import sys, bilinear_hull; "
            "assert 'concurrent.futures' not in sys.modules")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr


def test_volume_identities():
    for b in B_GRID:
        for side in Side:
            cut = vol_rlt_cut(side, b)
            hull = vol_hull(side, b)
            rem = vol_removed(side, b)
            assert abs(cut - hull - rem) <= 1e-15
            assert hull > 0 and rem > 0
        # the two single-sided cut bodies tile the McCormick hull
        both = vol_rlt_cut(Side.UPPER, b) + vol_rlt_cut(Side.LOWER, b)
        assert abs(both - 1.0 / 6.0) <= 1e-15


def test_split_fraction_pin():
    removed = vol_removed(Side.UPPER, 0.3) + vol_removed(Side.LOWER, 0.3)
    pct = 100.0 * removed / (1.0 / 6.0)
    assert abs(pct - 30.24) <= 0.01


def test_domain_checks():
    with pytest.raises(ValueError):
        vol_hull(Side.UPPER, 0.0)
    with pytest.raises(ValueError):
        vol_removed(Side.LOWER, 1.0)
    with pytest.raises(ValueError):
        vol_rlt_cut(Side.UPPER, -0.2)
    d, _ = hull_from_raw(RawBounds(0, 0, 0, 1, 1, 0.3))
    with pytest.raises(ValueError, match="n_samples"):
        vol_mc(d, 0)
    # numpy would raise OverflowError for the first two and run the third
    # as seed 1
    for seed in (-1, 2 ** 64, 1.5):
        with pytest.raises(ValueError, match="seed"):
            vol_mc(d, 16, seed=seed)
    assert vol_mc(d, 16, seed=2 ** 64 - 1) == vol_mc(
        d, 16, seed=np.uint64(2 ** 64 - 1))


def test_numeric_matches_closed_forms():
    d, _ = hull_from_raw(RawBounds(0, 0, 0, 1, 1, 0.3))
    v, err = vol_numeric(d, 512)
    assert abs(v - vol_hull(Side.UPPER, 0.3)) <= 1e-6
    assert 0 <= err <= 1e-5

    d, _ = hull_from_raw(RawBounds(0, 0, 0.2, 1, 1, 1))
    v, err = vol_numeric(d, 512)
    assert abs(v - vol_hull(Side.LOWER, 0.2)) <= 1e-6


def _midpoint_over_one_grid(d, n):
    """The midpoint sum from one envelope_grid call over the whole grid."""
    b = d.bounds
    hx, hy = (1.0 - b.lx) / n, (1.0 - b.ly) / n
    xs = b.lx + (np.arange(n) + 0.5) * hx
    ys = b.ly + (np.arange(n) + 0.5) * hy
    zmin, zmax, _ = envelope_grid(d, xs, ys)
    return float(np.sum(np.maximum(zmax - zmin, 0.0)) * hx * hy)


def test_numeric_keeps_the_bits_of_one_whole_grid():
    # vol_numeric walks its grids a block of rows at a time; with n = 200
    # and 512 the fine grid spans 3 and 16 blocks, the last one short
    for raw in (RawBounds(0, 0, 0.2, 1, 1, 0.7),
                RawBounds(0.14, 0.3, 0.1, 1, 1, 0.7),
                RawBounds(0.3, 0.5, 0.3, 1, 1, 1)):
        d, _ = hull_from_raw(raw)
        for n in (200, 512):
            fine = _midpoint_over_one_grid(d, n)
            coarse = _midpoint_over_one_grid(d, n // 2)
            want = (fine + (fine - coarse) / 3.0, abs(fine - coarse) / 3.0)
            assert [v.hex() for v in vol_numeric(d, n)] == \
                [v.hex() for v in want]


def test_numeric_grid_validation():
    d, _ = hull_from_raw(RawBounds(0, 0, 0, 1, 1, 0.3))
    with pytest.raises(ValueError):
        vol_numeric(d, 511)  # odd: no half-grid for the error estimate
    with pytest.raises(ValueError):
        vol_numeric(d, 4)


def test_mc_is_deterministic_and_parallel_safe():
    d, _ = hull_from_raw(RawBounds(0, 0, 0, 1, 1, 0.4))
    v1, h1 = vol_mc(d, 200_000, seed=5)
    v2, h2 = vol_mc(d, 200_000, seed=5)
    assert v1 == v2 and h1 == h2
    v3, h3 = vol_mc(d, 200_000, seed=5, workers=3)
    assert v1 == v3 and h1 == h3
    # a different seed moves the estimate but stays inside its own band
    v4, _ = vol_mc(d, 200_000, seed=6)
    assert v4 != v1


def test_mc_brackets_the_truth():
    d, _ = hull_from_raw(RawBounds(0, 0, 0, 1, 1, 0.4))
    v, half = vol_mc(d, 400_000, seed=11)
    assert abs(v - vol_hull(Side.UPPER, 0.4)) <= half
    # band bounds: cross-check against the numeric integrator
    d, _ = hull_from_raw(RawBounds(0, 0, 0.2, 1, 1, 0.7))
    ref, _ = vol_numeric(d, 512)
    v, half = vol_mc(d, 400_000, seed=13)
    assert abs(v - ref) <= half


def test_mc_half_width_shrinks():
    d, _ = hull_from_raw(RawBounds(0, 0, 0, 1, 1, 0.4))
    _, h_small = vol_mc(d, 100_000, seed=3)
    _, h_big = vol_mc(d, 400_000, seed=3)
    assert h_big < h_small


def test_optimal_branch_point():
    rep = optimal_branch()
    # stationarity of the summed child volumes, checked by central difference
    def child_sum(b):
        return vol_hull(Side.UPPER, b) + vol_hull(Side.LOWER, b)

    h = 1e-5
    deriv = (child_sum(rep.b_star + h) - child_sum(rep.b_star - h)) / (2 * h)
    assert abs(deriv) <= 1e-6
    assert abs(rep.b_star - 0.2031878700) <= 1e-9
    assert child_sum(rep.b_star) < child_sum(rep.b_star + 0.01)
    assert child_sum(rep.b_star) < child_sum(rep.b_star - 0.01)
    assert abs(rep.sum_ratio - 6 * child_sum(rep.b_star)) <= 1e-12
    assert abs(100 * (1 - rep.sum_ratio) - 32.38) <= 0.01


def test_branch_report_curves():
    rep = optimal_branch()
    assert rep.grid.shape == (99,)
    assert rep.grid[0] == pytest.approx(0.01) and rep.grid[-1] == pytest.approx(0.99)
    for i, b in enumerate(rep.grid):
        assert abs(rep.upper_ratio[i]
                   - vol_hull(Side.UPPER, b) / vol_rlt_cut(Side.UPPER, b)) <= 1e-12
        assert abs(rep.lower_ratio[i]
                   - vol_hull(Side.LOWER, b) / vol_rlt_cut(Side.LOWER, b)) <= 1e-12
        assert abs(rep.total_ratio[i]
                   - 6 * (vol_hull(Side.UPPER, b)
                          + vol_hull(Side.LOWER, b))) <= 1e-12
    assert np.all((rep.upper_ratio > 0) & (rep.upper_ratio < 1))
    assert np.all((rep.lower_ratio > 0) & (rep.lower_ratio < 1))
    assert np.all((rep.total_ratio > 0) & (rep.total_ratio <= 1))
    # the curve's grid minimum sits at the grid point nearest b_star
    k = int(np.argmin(rep.total_ratio))
    assert abs(rep.grid[k] - rep.b_star) <= 0.005 + 1e-12


def test_optimal_branch_custom_grid():
    grid = np.linspace(0.05, 0.95, 19)
    rep = optimal_branch(grid)
    assert rep.grid.shape == (19,)
    # the reported optimum does not depend on the plotting grid
    assert abs(rep.b_star - 0.2031878700) <= 1e-9
