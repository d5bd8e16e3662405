"""One sha256 pins every scalar output over about 300 seeded boxes.

The boxes come in the kinds of a branch-and-cut node stream (one-sided
bands, zero-corner bands, the four lettered regions, loose boxes that
still need tightening), mirrored or not, and scaled to extreme raw boxes
or not.  Each gets eight points: interior ones, points on a face of the
description and points FEAS_TOL off its faces, its z bounds and its upper
envelope.  The digest hashes, exactly (floats by float.hex), the
description (to_dict, case, rows), membership, worst_violation, the cut of
separate, envelopes and lifted_tangent (or the type of what it raised).
A speed-up of the scalar path must leave every bit of it unchanged.

A second sha256 pins the same queries on grids whose nodes lie exactly on
the predicate lines of the pieces, where pieces tie: which piece wins a tie
shows in the family and the scale of a tangent plane, and the random points
above never land on such a line.
"""

import hashlib
import math
import random

import numpy as np

from bilinear_hull import (
    FEAS_TOL,
    BilinearHullError,
    Point3,
    RawBounds,
    describe,
    envelopes,
    hull_from_raw,
    lifted_tangent,
    membership,
    normalize,
    separate,
    worst_violation,
)

DIGEST = "7428ae56e5a02678182a9ea88f23c1feb545bf7a3e50ecc1f305d7dafdef306a"
LINES_DIGEST = "fd6373d5437cf33b2a55ff72deba32ae26fc7b94f335f664ec53463dcbb69cd7"

BOXES = 300
KINDS = ("no_z_bound", "upper_only", "lower_only", "zero_corner",
         "region_a", "region_b", "region_c", "region_d", "loose")


def _region(rng, kind):
    """A tightened corner (lx <= ly) and product bounds in one region."""
    while True:
        lz = rng.uniform(0.02, 0.6)
        uz = rng.uniform(lz + 0.1 * (1.0 - lz), lz + 0.9 * (1.0 - lz))
        s_lo, s_hi = math.sqrt(lz * uz), math.sqrt(lz / uz)
        if kind == "region_a":
            lx = rng.uniform(s_lo, min(uz, math.sqrt(lz)))
            lo, hi = lx, min(uz, lz / lx)
        elif kind == "region_b":
            lx = rng.uniform(lz, s_lo)
            lo, hi = lx, s_lo
        elif kind == "region_c":
            lx = rng.uniform(lz, s_lo)
            lo, hi = s_lo, min(s_hi, uz, lz / lx)
        else:
            lx = rng.uniform(lz, s_lo)
            lo, hi = s_hi, min(uz, lz / lx)
        if hi - lo > 1e-3:
            ly = rng.uniform(lo, hi)
            if lx * ly < lz:
                return lx, ly, lz, uz


def _box(rng, i):
    kind = KINDS[i % len(KINDS)]
    lx, ly = ((0.0 if rng.random() < 0.3 else rng.uniform(0.02, 0.9))
              for _ in range(2))
    if kind == "no_z_bound":
        lz, uz = rng.random() * lx * ly, rng.uniform(1.0, 1.5)
    elif kind == "upper_only":
        lz = rng.random() * lx * ly
        uz = lx * ly + rng.uniform(0.05, 0.95) * (1.0 - lx * ly)
    elif kind == "lower_only":
        lz = lx * ly + rng.uniform(0.05, 0.95) * (1.0 - lx * ly)
        uz = rng.uniform(1.0, 1.5)
    elif kind == "zero_corner":
        lx = ly = 0.0
        lz = rng.uniform(0.02, 0.8)
        uz = rng.uniform(lz + 0.05 * (1.0 - lz), lz + 0.95 * (1.0 - lz))
    elif kind == "loose":
        lz = rng.uniform(0.0, 0.9)
        lo = max(lz, lx * ly)
        uz = rng.uniform(lo + 0.02 * (1.0 - lo), 1.0)
    else:
        lx, ly, lz, uz = _region(rng, kind)
    if rng.random() < 0.5:  # mirrored
        lx, ly = ly, lx
    sx = sy = 1.0
    if rng.random() < 0.5:  # raw-scaled
        sx, sy = (math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
                  for _ in range(2))
    return RawBounds(lx * sx, ly * sy, lz * sx * sy, sx, sy, uz * sx * sy)


def _points(rng, d):
    b = d.bounds

    def xy():
        return (b.lx + rng.random() * (1.0 - b.lx),
                b.ly + rng.random() * (1.0 - b.ly))

    def top(x, y):
        zmin, zmax = envelopes(d, x, y)
        return zmin, zmax if zmin <= zmax else zmin

    pts = []
    for _ in range(2):  # interior
        x, y = xy()
        zmin, zmax = top(x, y)
        pts.append((x, y, zmin + rng.random() * (zmax - zmin)))
    q = d.rows[rng.randrange(len(d.rows))]
    x, y = xy()
    z = d.zlo + rng.random() * (d.zhi - d.zlo)
    if q.az:
        z = -(q.a0 + q.ax * x + q.ay * y) / q.az
    elif q.ax:
        x = -(q.a0 + q.ay * y) / q.ax
    else:
        y = -(q.a0 + q.ax * x) / q.ay
    pts.append((x, y, z))  # on a face
    for s in (1.0, -1.0):  # off that face
        if q.az:
            pts.append((x, y, z + s * FEAS_TOL))
        else:
            pts.append((x + s * FEAS_TOL, y + s * FEAS_TOL, z))
    x, y = xy()
    pts.append((x, y, rng.choice((d.zlo, d.zhi)) + rng.choice((1, -1))
                * FEAS_TOL))  # off a z bound
    x, y = xy()
    pts.append((x, y, top(x, y)[1] + rng.choice((1, -1)) * FEAS_TOL))
    pts.append((b.lx - 0.1 + rng.random() * (1.2 - b.lx),
                b.ly - 0.1 + rng.random() * (1.2 - b.ly),
                d.zlo - 0.1 + rng.random() * (d.zhi - d.zlo + 0.2)))
    return pts


def _enc(v):
    """Floats by float.hex, containers item by item, the rest by repr."""
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, (tuple, list)):
        return "(%s)" % ",".join(_enc(w) for w in v)
    if isinstance(v, dict):
        return "{%s}" % ",".join("%s:%s" % (k, _enc(w)) for k, w in v.items())
    return repr(v)


def _ineq(q):
    return None if q is None else (q.a0, q.ax, q.ay, q.az, q.label)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BilinearHullError as e:
        return type(e).__name__


def _descriptions(raw):
    """hull_from_raw's description and scaling, or what it raised; a
    zero-corner box also untightened, the one way to its BothZeroLB case."""
    yield _outcome(hull_from_raw, raw)
    if raw.lx == 0.0 and raw.ly == 0.0:
        nb, sc = normalize(raw)
        yield describe(nb), sc


def _records():
    rng = random.Random(20261018)
    for i in range(BOXES):
        raw = _box(rng, i)
        for got in _descriptions(raw):
            if isinstance(got, str):
                yield (raw, got)
                continue
            d, sc = got
            yield (raw, d.to_dict(), d.case, [_ineq(q) for q in d.rows], sc)
            yield from _queries(rng, d)


def _queries(rng, d):
    for x, y, z in _points(rng, d):
        p = Point3(x, y, z)
        res, info = worst_violation(d, p)
        tan = _outcome(lifted_tangent, d.bounds, x, y)
        if not isinstance(tan, str):
            q, seg = tan
            tan = (_ineq(q), seg.lower.astuple(), seg.upper.astuple(),
                   seg.alpha, seg.family)
        yield ((x, y, z), membership(d, p), res, info,
               _ineq(separate(d, p)), _outcome(envelopes, d, x, y), tan)


# the acceptance boxes of every case; the line grids run them and their mirrors
LINE_BOXES = [
    RawBounds(0, 0, 0, 1, 1, 1),
    RawBounds(0, 0, 0, 1, 1, 0.4),
    RawBounds(0, 0, 0.2, 1, 1, 1),
    RawBounds(0, 0, 0.2, 1, 1, 0.7),
    RawBounds(0.32, 0.28, 0.1, 1, 1, 0.7),
    RawBounds(0.14, 0.2, 0.1, 1, 1, 0.7),
    RawBounds(0.14, 0.3, 0.1, 1, 1, 0.7),
    RawBounds(0.14, 0.5, 0.1, 1, 1, 0.7),
    RawBounds(0.5, 0.3, 0.3, 1, 1, 1),
]


def _line_grid(d):
    """xs, and ys that put (x, y) exactly on a predicate line of d for some
    x in xs, plus an even spread, kept where they fall inside the box."""
    b = d.bounds
    xs = np.linspace(b.lx, 1.0, 25)
    ys = [np.linspace(b.ly, 1.0, 9)]
    for piece in d.pieces:
        for hp in piece.predicate:
            if hp.ay in (1.0, -1.0):
                # value() = (a0 + ax*x) + ay*y, exactly 0 at this y
                ys.append(-hp.ay * (hp.a0 + hp.ax * xs))
    ys = np.concatenate(ys)
    return xs.tolist(), np.unique(ys[(ys >= b.ly) & (ys <= 1.0)]).tolist()


def _line_records():
    for raw in LINE_BOXES + [RawBounds(r.ly, r.lx, r.lz, r.uy, r.ux, r.uz)
                             for r in LINE_BOXES]:
        d, _ = hull_from_raw(raw)
        xs, ys = _line_grid(d)
        heights = (d.zlo - 0.01, 0.5 * (d.zlo + d.zhi), d.zhi + 0.01)
        for x in xs:
            for y in ys:
                tan = _outcome(lifted_tangent, d.bounds, x, y)
                if not isinstance(tan, str):
                    q, seg = tan
                    tan = (seg.family, _ineq(q), seg.lower.astuple(),
                           seg.upper.astuple(), seg.alpha)
                cuts = []
                for z in heights + (x * y + 0.3,):
                    p = Point3(x, y, z)
                    cuts.append((worst_violation(d, p), _ineq(separate(d, p))))
                yield ((x, y), _outcome(envelopes, d, x, y), tan, cuts)


def _digest(records):
    h = hashlib.sha256()
    for rec in records:
        h.update(_enc(rec).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_scalar_outputs_match_their_digest():
    assert _digest(_records()) == DIGEST


def test_outputs_on_predicate_lines_match_their_digest():
    assert _digest(_line_records()) == LINES_DIGEST


def test_the_boxes_reach_every_case_and_both_answers():
    cases, members = set(), set()
    for rec in _records():
        if len(rec) == 5:
            cases.add((rec[2].region, rec[2].swapped))
        elif len(rec) == 7:
            members.add(rec[1])
    assert len(cases) == 12, cases
    assert members == {True, False}
