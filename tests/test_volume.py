"""Volumes of hulls and cut bodies, and the optimal branching point."""

import math
import subprocess
import sys
import threading
from decimal import Decimal, localcontext

import numpy as np
import pytest

import bilinear_hull.volume as volume
from bilinear_hull import (
    NormalizedBounds,
    RawBounds,
    Region,
    Side,
    describe,
    envelope_grid,
    hull_from_raw,
    membership_mask,
    optimal_branch,
    vol_hull,
    vol_mc,
    vol_numeric,
    vol_removed,
    vol_rlt_cut,
)
from bilinear_hull.volume import vol_closed
from test_hull import ALL_RAW, MIRRORED_RAW

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
    # neither the import nor vol_mc, with or without workers, loads
    # concurrent.futures (and logging with it) or leaves a thread running
    code = ("import sys, threading, bilinear_hull as bh; "
            "assert 'concurrent.futures' not in sys.modules; "
            "d, _ = bh.hull_from_raw(bh.RawBounds(0, 0, 0, 1, 1, 0.4)); "
            "bh.vol_mc(d, 2**17, seed=1, workers=2); "
            "assert 'concurrent.futures' not in sys.modules; "
            "assert threading.active_count() == 1, threading.active_count()")
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
    # a count must be an integer, even one a float holds exactly, and not
    # a bool, though Python counts one as an int
    for n in (1.5, 2.0 ** 17, np.float64(16), True, False):
        with pytest.raises(ValueError, match="n_samples"):
            vol_mc(d, n)
    for n in (8.0, 9.5):
        with pytest.raises(ValueError, match="grid_n"):
            vol_numeric(d, n)
    assert vol_numeric(d, np.int64(8)) == vol_numeric(d, 8)
    # numpy integers count as integers, and the volume is a Python float
    v, half = vol_mc(d, np.int64(1000))
    assert (v, half) == vol_mc(d, 1000)
    assert type(v) is float and type(half) is float
    # numpy would raise OverflowError for the first two, run 1.5 and True
    # as seed 1 and False as seed 0
    for seed in (-1, 2 ** 64, 1.5, True, False):
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


def _serial_vol_mc(d, n, seed):
    """vol_mc drawn and counted one chunk after another on this thread."""
    b = d.bounds
    lo = np.array([[b.lx], [b.ly], [d.zlo]])
    width = np.array([[1.0], [1.0], [d.zhi]]) - lo
    hits = 0
    for k, start in enumerate(range(0, n, 65536)):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))
        pts = rng.random((3, min(65536, n - start))) * width + lo
        hits += int(np.count_nonzero(membership_mask(d, *pts)))
    vbox = (1.0 - b.lx) * (1.0 - b.ly) * (d.zhi - d.zlo)
    p = hits / n
    return p * vbox, 3.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n) * vbox


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_mc_keeps_the_bits_of_a_serial_draw_at_chunk_boundaries(seed):
    # the look-ahead draw fills a reused buffer, the last chunk a shorter
    # view of it; each chunk keeps its key, its fill order and its sum
    for raw in ALL_RAW + MIRRORED_RAW:
        d, _ = hull_from_raw(raw)
        for n in (1, 65535, 65536, 65537, 2 * 65536, 3 * 65536 + 7):
            assert vol_mc(d, n, seed=seed) == _serial_vol_mc(d, n, seed), \
                (raw, n)


def test_mc_keeps_its_bits_when_called_from_several_threads():
    # each call owns its buffers and its helper; a short switch interval
    # interleaves three callers and their helpers at fine grain
    d, _ = hull_from_raw(RawBounds(0.14, 0.3, 0.1, 1, 1, 0.7))
    n = 3 * 65536 + 7
    want = [_serial_vol_mc(d, n, seed) for seed in range(3)]
    got = [None] * 3

    def call(seed):
        got[seed] = vol_mc(d, n, seed=seed)

    callers = [threading.Thread(target=call, args=(seed,)) for seed in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == want


def test_mc_starts_a_helper_per_chunk_after_the_first(monkeypatch):
    d, _ = hull_from_raw(RawBounds(0, 0, 0, 1, 1, 0.4))
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    vol_mc(d, 65536)  # one chunk: nothing to draw ahead
    assert started == []
    vol_mc(d, 3 * 65536 + 7)
    assert len(started) == 3
    assert not any(t.is_alive() for t in started)


def test_mc_errors_reach_the_caller_and_leave_no_thread(monkeypatch):
    d, _ = hull_from_raw(RawBounds(0, 0, 0, 1, 1, 0.4))
    before = threading.active_count()
    # a helper thread's uncaught exception would reach threading.excepthook
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    counted = []

    def mask_failing_on_the_second_chunk(*args):
        counted.append(args)
        if len(counted) == 2:
            raise RuntimeError("count failed")
        return membership_mask(*args)

    with monkeypatch.context() as m:
        m.setattr(volume, "membership_mask", mask_failing_on_the_second_chunk)
        with pytest.raises(RuntimeError, match="count failed"):
            vol_mc(d, 3 * 65536)
    assert threading.active_count() == before
    real_philox = np.random.Philox

    def philox_failing_off_the_calling_thread(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("draw failed")
        return real_philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox",
                        philox_failing_off_the_calling_thread)
    with pytest.raises(RuntimeError, match="draw failed"):
        vol_mc(d, 3 * 65536)
    assert threading.active_count() == before
    assert hooked == []


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


def test_optimal_branch_point_to_the_last_bits():
    # Newton on ln b = 2(b - 1) in 40 digits; b* is within 1e-16 of its
    # root, 0.20318786997997995383...
    with localcontext() as ctx:
        ctx.prec = 40
        b = Decimal("0.2")
        for _ in range(30):
            b -= (b.ln() - 2 * (b - 1)) / (1 / b - 2)
        assert abs(Decimal(optimal_branch().b_star) - b) <= Decimal("1e-16")


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
