"""End-to-end acceptance checks for the hull library.

Each test covers one numbered criterion and prints a single
``[PASS]``/``[FAIL]`` line with the measured numbers, so a plain pytest
run doubles as a release checklist.  Tolerances are pinned on purpose;
if one of these fails, the library is wrong, not the threshold.
"""

import contextlib
import math
import time

import numpy as np

from bilinear_hull import (
    HullDescription,
    Point3,
    RawBounds,
    Side,
    envelope_grid,
    hull_from_raw,
    lifted_tangent,
    membership,
    membership_mask,
    optimal_branch,
    oracle_envelope_many,
    sample_surface,
    vol_hull,
    vol_mc,
    vol_numeric,
    vol_removed,
    vol_rlt_cut,
)
from bilinear_hull.constraints import (
    TangentFamily,
    soc_center,
    soc_lower,
    soc_sides,
    soc_upper_general,
    soc_upper_zero,
)
from bilinear_hull.hull import dline

# One representative box per structural case: the two one-sided bands, the
# zero-cornered band, the four lettered interior cases, and a lower bound
# with a general corner.
CONFIGS = [
    ("upper-only", RawBounds(0.0, 0.0, 0.0, 1.0, 1.0, 0.4)),
    ("lower-only", RawBounds(0.0, 0.0, 0.2, 1.0, 1.0, 1.0)),
    ("band-zero-corner", RawBounds(0.0, 0.0, 0.2, 1.0, 1.0, 0.7)),
    ("region-a", RawBounds(0.32, 0.28, 0.1, 1.0, 1.0, 0.7)),
    ("region-b", RawBounds(0.14, 0.2, 0.1, 1.0, 1.0, 0.7)),
    ("region-c", RawBounds(0.14, 0.3, 0.1, 1.0, 1.0, 0.7)),
    ("region-d", RawBounds(0.14, 0.5, 0.1, 1.0, 1.0, 0.7)),
    ("lower-general", RawBounds(0.5, 0.3, 0.3, 1.0, 1.0, 1.0)),
]

B_GRID = [float(v) for v in np.linspace(0.1, 0.9, 9)]


@contextlib.contextmanager
def _report(num, label):
    """Print one checklist line per criterion, failing loudly."""
    info = {}
    try:
        yield info
    except BaseException:
        print("\n[FAIL] criterion %d: %s" % (num, label))
        raise
    detail = info.get("detail", "")
    suffix = " (%s)" % detail if detail else ""
    print("\n[PASS] criterion %d: %s%s" % (num, label, suffix))


def _surface_cloud(b, n, rng):
    # draw x first, then y conditioned on the band; for every x in the box
    # the feasible y-interval is nonempty, so no rejection loop is needed
    x = rng.uniform(b.lx, 1.0, n)
    lo = np.maximum(b.ly, np.divide(b.lz, x, out=np.zeros_like(x), where=x > 0))
    hi = np.minimum(1.0, np.divide(b.uz, x, out=np.ones_like(x), where=x > 0))
    assert np.all(lo <= hi + 1e-12)
    y = lo + rng.uniform(0.0, 1.0, n) * np.maximum(hi - lo, 0.0)
    return x, y, x * y


def test_criterion_1():
    """Analytic envelopes agree with the vertex-hull LP oracle."""
    with _report(1, "analytic envelopes match the LP oracle on 8 boxes") as info:
        t0 = time.monotonic()
        worst = 0.0
        for _, raw in CONFIGS:
            d, _ = hull_from_raw(raw)
            b = d.bounds
            surf = sample_surface(b, 201)
            gx = np.linspace(b.lx, 1.0, 21)
            gy = np.linspace(b.ly, 1.0, 21)
            zmin, zmax, _ = envelope_grid(d, gx, gy)
            xs, ys = (a.ravel() for a in np.meshgrid(gx, gy, indexing="ij"))
            got = oracle_envelope_many(surf, xs, ys)
            ref = zmax.ravel()
            lo = zmin.ravel()
            nan = np.isnan(got)
            # oracle infeasible exactly where the analytic slice is empty
            assert np.all(lo[nan] > ref[nan] - 1e-9)
            gap = np.abs(ref[~nan] - got[~nan]).max()
            # the oracle optimizes over a subset of the hull: never above
            assert np.max(got[~nan] - ref[~nan]) <= 1e-9
            assert gap <= 2e-3, (raw, gap)
            worst = max(worst, float(gap))
        elapsed = time.monotonic() - t0
        assert elapsed <= 60.0, elapsed
        info["detail"] = "max gap %.2e, %.1fs" % (worst, elapsed)


def test_criterion_2():
    """Exact product points always test as members."""
    with _report(2, "10^4 surface points per box pass membership at 1e-9") as info:
        rng = np.random.default_rng(20240811)
        total = 0
        for _, raw in CONFIGS:
            d, _ = hull_from_raw(raw)
            x, y, z = _surface_cloud(d.bounds, 10_000, rng)
            ok = membership_mask(d, x, y, z)
            assert ok.all(), (raw, int((~ok).sum()))
            total += len(x)
        info["detail"] = "%d points" % total


def _matching_cone(family, b, seg):
    if family is TangentFamily.UPPER_GENERAL:
        return soc_upper_general(seg.lower.x, seg.lower.y, b.uz)
    if family is TangentFamily.LOWER:
        return soc_lower(b.lz)
    if family is TangentFamily.CENTER:
        return soc_center(b.lz, b.uz)
    if family is TangentFamily.SIDE_X:
        return soc_sides(b.lz, b.uz)[0]
    if family is TangentFamily.SIDE_Y:
        return soc_sides(b.lz, b.uz)[1]
    assert family is TangentFamily.UPPER_ZERO
    return soc_upper_zero(b.uz)


def test_criterion_3():
    """Tangent segments lie on the cone that generated them."""
    with _report(3, "1000 tangent segments per family sit on their cones") as info:
        rng = np.random.default_rng(20240817)
        need = 1000
        buckets = {f: [] for f in TangentFamily}
        descs = [hull_from_raw(raw)[0] for _, raw in CONFIGS]
        rounds = 0
        while min(len(v) for v in buckets.values()) < need:
            rounds += 1
            assert rounds <= 400, {f.value: len(v) for f, v in buckets.items()}
            for d in descs:
                b = d.bounds
                x = rng.uniform(b.lx, 1.0, 64)
                y = rng.uniform(b.ly, 1.0, 64)
                xy = x * y
                keep = (
                    (xy > b.lz + 1e-7) & (xy < b.uz - 1e-7)
                    & (x > b.lx) & (y > b.ly) & (x < 1.0) & (y < 1.0)
                )
                for xi, yi in zip(x[keep], y[keep]):
                    _, seg = lifted_tangent(b, float(xi), float(yi))
                    if len(buckets[seg.family]) < need:
                        buckets[seg.family].append((b, seg))
        alphas = np.linspace(0.0, 1.0, 11)
        worst = 0.0
        for family, items in buckets.items():
            assert len(items) == need, (family, len(items))
            for b, seg in items:
                cone = _matching_cone(family, b, seg)
                pts = np.array([seg.point_at(float(a)).astuple() for a in alphas])
                res = np.asarray(cone.residual(pts[:, 0], pts[:, 1], pts[:, 2]))
                worst = max(worst, float(np.abs(res).max()))
        assert worst <= 1e-9, worst
        info["detail"] = "6 families, worst |residual| %.1e" % worst


def test_criterion_4():
    """Closed-form volumes against quadrature and Monte Carlo."""
    with _report(4, "volume formulas match quadrature and Monte Carlo") as info:
        worst = 0.0
        for b in B_GRID:
            for side, raw in (
                (Side.UPPER, RawBounds(0.0, 0.0, 0.0, 1.0, 1.0, b)),
                (Side.LOWER, RawBounds(0.0, 0.0, b, 1.0, 1.0, 1.0)),
            ):
                d, _ = hull_from_raw(raw)
                got, _ = vol_numeric(d, grid_n=1024)
                dev = abs(got - vol_hull(side, b))
                assert dev <= 1e-6, (side, b, dev)
                worst = max(worst, dev)
        zs = []
        for side, raw, b in (
            (Side.UPPER, RawBounds(0.0, 0.0, 0.0, 1.0, 1.0, 0.4), 0.4),
            (Side.LOWER, RawBounds(0.0, 0.0, 0.3, 1.0, 1.0, 1.0), 0.3),
        ):
            d, _ = hull_from_raw(raw)
            est, half = vol_mc(d, 1_000_000, seed=0)
            assert abs(est - vol_hull(side, b)) <= half, (side, est, half)
            zs.append(abs(est - vol_hull(side, b)) / (half / 3.0))
        removed = vol_removed(Side.UPPER, 0.3) + vol_removed(Side.LOWER, 0.3)
        pct = 100.0 * removed / (1.0 / 6.0)
        assert abs(pct - 30.24) <= 0.01, pct
        info["detail"] = "quad dev %.1e, mc |z| %.2f/%.2f, split %.3f%%" % (
            worst, zs[0], zs[1], pct)


def test_criterion_5():
    """Optimal split point of the unit-box product hull."""
    with _report(5, "optimal branch point and cut-volume identity") as info:
        rep = optimal_branch()
        assert abs(rep.b_star - 0.203187869980) <= 1e-10, rep.b_star
        reduction = 100.0 * (1.0 - rep.sum_ratio)
        assert abs(reduction - 32.4) <= 0.1, reduction
        for b in B_GRID:
            total = vol_rlt_cut(Side.UPPER, b) + vol_rlt_cut(Side.LOWER, b)
            assert abs(total - 1.0 / 6.0) <= 1e-15, (b, total)
        info["detail"] = "b* %.12f, reduction %.4f%%" % (rep.b_star, reduction)


def test_criterion_6():
    """Degenerate bound patterns collapse to the simpler descriptions."""
    with _report(6, "degenerate boxes reduce to the expected envelopes") as info:
        t = np.linspace(0.02, 1.0, 41)
        X, Y = t[:, None] + 0.0 * t[None, :], 0.0 * t[:, None] + t[None, :]
        worst = 0.0

        def track(a, b, mask=None):
            nonlocal worst
            d = np.abs(np.asarray(a) - np.asarray(b))
            if mask is not None:
                d = np.where(mask, d, 0.0)
            worst = max(worst, float(d.max()))

        for lz in (0.05, 0.2, 0.5, 0.8):
            low = soc_lower(lz)
            for cone in soc_sides(lz, 1.0):
                # with no effective upper bound both side pieces are the
                # lower-bound cone
                track(cone.envelope_z(X, Y), low.envelope_z(X, Y), X * Y >= lz)
            cen = soc_center(lz, 1.0)
            diag = np.linspace(math.sqrt(lz), 1.0, 101)
            track(cen.envelope_z(diag, diag), low.envelope_z(diag, diag))
        for uz in (0.3, 0.7, 1.0):
            upz = soc_upper_zero(uz)
            track(soc_center(0.0, uz).envelope_z(X, Y), upz.envelope_z(X, Y))
            sx, sy = soc_sides(0.0, uz)
            # at lz = 0 the side cones flatten into two planes each
            track(sx.envelope_z(X, Y), np.minimum(uz * X, Y))
            track(sy.envelope_z(X, Y), np.minimum(X, uz * Y))
            track(soc_upper_general(0.0, 0.0, uz).envelope_z(X, Y),
                  upz.envelope_z(X, Y))
        assert worst <= 1e-12, worst
        info["detail"] = "max deviation %.1e" % worst


def test_criterion_7():
    """Adjacent envelope pieces agree along their predicate lines."""
    with _report(7, "piecewise envelopes continuous across boundaries") as info:
        dl = dline(0.5, 0.1, 0.7)
        assert abs(dl.a0 - 0.3) <= 1e-12
        assert abs(dl.ax - 1.0) <= 1e-12
        rng = np.random.default_rng(20240821)
        worst = 0.0
        pairs = 0
        for name, raw in CONFIGS:
            d, _ = hull_from_raw(raw)
            if len(d.pieces) < 2:
                continue
            b = d.bounds
            for j in range(1, len(d.pieces)):
                piece = d.pieces[j]
                assert len(piece.predicate) == 1
                hp = piece.predicate[0]
                # points on the line a0 + ax*x + ay*y = 0 inside box and band
                xs, ys = [], []
                while sum(len(a) for a in xs) < 1000:
                    x = rng.uniform(b.lx, 1.0, 4000)
                    y = -(hp.a0 + hp.ax * x) / hp.ay
                    xy = x * y
                    keep = (
                        (y >= b.ly) & (y <= 1.0)
                        & (xy >= b.lz + 1e-7) & (xy <= b.uz - 1e-7)
                    )
                    xs.append(x[keep])
                    ys.append(y[keep])
                x = np.concatenate(xs)[:1000]
                y = np.concatenate(ys)[:1000]
                jump = np.abs(
                    np.asarray(piece.soc.envelope_z(x, y))
                    - np.asarray(d.pieces[0].soc.envelope_z(x, y))
                ).max()
                assert jump <= 1e-9, (name, j, jump)
                worst = max(worst, float(jump))
                pairs += 1
        assert pairs == 9, pairs
        info["detail"] = "%d boundaries, worst jump %.1e" % (pairs, worst)


def test_criterion_8():
    """Redundancy of one product plane, and a piece that is only local."""
    with _report(8, "plane redundancy and a non-global piece witness") as info:
        # with a lower bound on z only, the (1-x)(1-y) plane alone closes
        # the description: the corner product plane never binds
        d, _ = hull_from_raw(RawBounds(0.0, 0.0, 0.2, 1.0, 1.0, 1.0))
        assert d.rlt[0].label == "rlt_lower_ones"
        kept = HullDescription(d.bounds, d.case, (d.rlt[0],), d.pieces)
        corner_only = HullDescription(d.bounds, d.case, (d.rlt[1],),
                                      d.pieces)
        rng = np.random.default_rng(20240823)
        x = rng.uniform(0.2, 1.0, 100_000)
        y = rng.uniform(0.2, 1.0, 100_000)
        z = rng.uniform(0.15, 1.05, 100_000)
        full = membership_mask(d, x, y, z)
        assert np.array_equal(full, membership_mask(kept, x, y, z))
        # the converse fails, so the redundancy is not vacuous
        assert not np.array_equal(full, membership_mask(corner_only, x, y, z))

        d2, _ = hull_from_raw(RawBounds(0.0, 0.0, 0.2, 1.0, 1.0, 0.7))
        p = Point3(0.5, 0.9, 0.45)
        assert membership(d2, p)
        side_x = d2.pieces[1]
        assert side_x.soc.family is TangentFamily.SIDE_X
        assert not side_x.globally_valid
        assert not side_x.applicable(p.x, p.y)
        res = float(side_x.soc.residual(p.x, p.y, p.z))
        assert abs(res - (0.35 - math.sqrt(0.2225))) <= 1e-12
        assert res < -0.12
        info["detail"] = "%d members, witness residual %.6f" % (
            int(full.sum()), res)
