"""One sha256 pins every bit of the array kernels' outputs.

The boxes are ALL_RAW, their mirrors, the zero-corner band and boxes drawn
from a seeded generator the way test_properties.any_bounds draws them: the
four lettered regions with a coordinate on, just below or just above a
threshold, one-sided bands and zero-corner bands, mirrored or not, scaled
to an extreme raw box and brought back or not.  Each box gets:

  * membership_mask on seeded points around the hull, on the upper and
    lower envelopes and 0.5, 1 and 2 FEAS_TOL off them;
  * envelope_grid (zmin, zmax, piece_id) on a random grid and on a grid
    whose nodes lie exactly on the predicate lines of the pieces;
  * vol_numeric(d, 64);
  * vol_mc(d, 2**17, seed=3), serial and with workers=2.

Arrays are hashed by their raw bytes, floats by float.hex.  A change to the
array kernels must leave every bit of them unchanged.
"""

import hashlib
import math

import numpy as np

from bilinear_hull import (
    FEAS_TOL,
    BilinearHullError,
    NormalizedBounds,
    RawBounds,
    classify,
    describe,
    envelope_grid,
    hull_from_raw,
    membership_mask,
    vol_mc,
    vol_numeric,
)
from test_hull import ALL_RAW, MIRRORED_RAW

ARRAY_DIGEST = "998bfd09eb59b7d4d4c3a4c93989f1196584092aa19892539de5589a5fc9ecc0"

DRAWN = 40


def _drawn_bounds(rng):
    """One box drawn as any_bounds draws it: a lettered region or a band,
    half of them through a raw box scaled by 1e-6 to 1e6 per axis."""
    while True:
        try:
            b = _region(rng) if rng.random() < 0.5 else _band(rng)
            if b is None:
                continue
            if rng.random() < 0.5:
                sx, sy = 10.0 ** rng.uniform(-6.0, 6.0, 2)
                raw = RawBounds(b.lx * sx, b.ly * sy, b.lz * (sx * sy), sx, sy,
                                b.uz * (sx * sy))
                b = hull_from_raw(raw)[0].bounds
            return b
        except BilinearHullError:
            continue


def _near(rng, value, lo, hi):
    """value, value * (1 -/+ 1e-13), or a free draw, clipped to [lo, hi]."""
    k = rng.integers(4)
    v = lo + rng.random() * (hi - lo) if k == 0 else \
        value * (1.0, 1.0 - 1e-13, 1.0 + 1e-13)[k - 1]
    return min(max(v, lo), hi)


def _region(rng):
    """Tightened bounds in region A, B, C or D, maybe mirrored; None when
    the draw is rejected."""
    lz = rng.uniform(0.01, 0.4)
    uz = rng.uniform(lz * 1.5, 1.0)
    s_lo, s_hi = math.sqrt(lz * uz), math.sqrt(lz / uz)
    region = "ABCD"[rng.integers(4)]
    if region == "A":
        lx = _near(rng, s_lo, s_lo, math.sqrt(lz))
        ly = lx + rng.random() * (min(uz, lz / lx) - lx)
    elif region == "B":
        lx = lz + rng.random() * (s_lo - lz)
        ly = _near(rng, s_lo, lx, s_lo)
    elif region == "C":
        lx = lz + rng.random() * (s_lo - lz)
        ly = _near(rng, s_hi, s_lo, min(s_hi, uz, lz / lx))
    else:
        if not s_hi < uz:
            return None
        lx = lz + rng.random() * (s_lo - lz)
        ly = _near(rng, s_hi, s_hi, min(uz, lz / lx))
    if not (lz <= lx <= ly <= uz < 1.0 and lx * ly <= lz):
        return None
    b = NormalizedBounds(lx, ly, lz, uz)
    if classify(b).letter is None:
        return None
    return b.swapped() if rng.random() < 0.5 else b


def _band(rng):
    """A one-sided band through hull_from_raw, or the zero-corner band."""
    kind = rng.integers(3)
    if kind == 2:
        lz = rng.uniform(0.02, 0.6)
        return NormalizedBounds(0.0, 0.0, lz,
                                lz + rng.uniform(0.05, 0.95) * (1.0 - lz))
    lx, ly = (float(rng.choice([0.0, 0.0, 0.1, 0.3, 0.6])) for _ in range(2))
    corner = lx * ly
    t = rng.uniform(0.05, 0.9)
    if kind == 0:
        raw = RawBounds(lx, ly, 0.0, 1.0, 1.0, corner + t * (1.0 - corner))
    else:
        raw = RawBounds(lx, ly, corner + t * (1.0 - corner), 1.0, 1.0, 1.0)
    return hull_from_raw(raw)[0].bounds


def descriptions():
    out = [hull_from_raw(raw)[0] for raw in ALL_RAW + MIRRORED_RAW]
    out.append(describe(NormalizedBounds(0.0, 0.0, 0.2, 0.7)))
    rng = np.random.default_rng(26)
    out += [describe(_drawn_bounds(rng)) for _ in range(DRAWN)]
    return out


def _on_predicate_lines(d, xs):
    """ys putting (x, y) exactly on a predicate line of d for each x in xs
    whose line has a unit y coefficient, kept where they fall in the box."""
    b = d.bounds
    ys = [np.linspace(b.ly, 1.0, 5)]
    for piece in d.pieces:
        for hp in piece.predicate:
            if hp.ay in (1.0, -1.0):
                ys.append(-hp.ay * (hp.a0 + hp.ax * xs))
    ys = np.concatenate(ys)
    return np.unique(ys[(ys >= b.ly) & (ys <= 1.0)])


def _mask_points(rng, d, zmin, zmax, xs, ys):
    """Points around the hull, half of them near the surface z = xy, then
    the grid nodes on both envelopes and on the z bounds, and 0.5, 1 and 2
    FEAS_TOL above and below each of them."""
    b = d.bounds
    n = 2048
    x = rng.uniform(b.lx - 0.02, 1.02, n)
    y = rng.uniform(b.ly - 0.02, 1.02, n)
    z = rng.uniform(d.zlo - 0.02, d.zhi + 0.02, n)
    near = rng.random(n) < 0.5
    z[near] = (x * y)[near] + rng.normal(0.0, 0.01, int(near.sum()))
    gx, gy = (a.ravel() for a in np.meshgrid(xs, ys, indexing="ij"))
    faces = [zmin.ravel(), zmax.ravel(), np.full(gx.shape, d.zlo),
             np.full(gx.shape, d.zhi)]
    px, py, pz = [x], [y], [z]
    for face in faces:
        for k in (0.0, -0.5, 0.5, -1.0, 1.0, -2.0, 2.0):
            px.append(gx)
            py.append(gy)
            pz.append(face + k * FEAS_TOL)
    return np.concatenate(px), np.concatenate(py), np.concatenate(pz)


def _array_outputs():
    h = hashlib.sha256()

    def put(*arrays):
        for a in arrays:
            a = np.asarray(a)
            h.update(repr((a.dtype.str, a.shape)).encode())
            h.update(a.tobytes())

    def put_floats(*values):
        h.update(" ".join(float(v).hex() for v in values).encode())

    rng = np.random.default_rng(2026)
    for d in descriptions():
        b = d.bounds
        xs = np.sort(rng.uniform(b.lx, 1.0, 24))
        ys = np.sort(rng.uniform(b.ly, 1.0, 24))
        grid = envelope_grid(d, xs, ys)
        put(*grid)
        lx = np.linspace(b.lx, 1.0, 17)
        ly = _on_predicate_lines(d, lx)
        lines = envelope_grid(d, lx, ly)
        put(*lines)
        for (zmin, zmax, _), gx, gy in ((grid, xs, ys), (lines, lx, ly)):
            put(membership_mask(d, *_mask_points(rng, d, zmin, zmax, gx, gy)))
        put_floats(*vol_numeric(d, 64))
        put_floats(*vol_mc(d, 2**17, seed=3))
        put_floats(*vol_mc(d, 2**17, seed=3, workers=2))
    return h.hexdigest()


def test_array_kernels_keep_their_bits():
    assert _array_outputs() == ARRAY_DIGEST
