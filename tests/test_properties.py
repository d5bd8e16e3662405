"""Properties of tangents and cuts on random tightened boxes in every case.

Boxes are drawn per structural case (one-sided bands, zero-corner bands and
the four lettered regions, mirrored or not), with lower corners at zero and
coordinates snapped onto or next to the region thresholds, and half of them
are scaled to an extreme raw box and normalized back.
"""

import math
import sys

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bilinear_hull import (
    BOUNDARY_TOL,
    FEAS_TOL,
    CaseTag,
    HullPiece,
    InfeasibleBounds,
    LinearInequality,
    NormalizedBounds,
    Point3,
    RawBounds,
    Region,
    TangentFamily,
    classify,
    describe,
    disjunctive,
    dline,
    envelopes,
    hull_from_raw,
    lifted_tangent,
    membership,
    membership_mask,
    oracle_envelope_many,
    oracle_membership,
    sample_surface,
    separate,
    tighten_with_scaling,
    worst_violation,
)

from test_hull import ALL_RAW

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.filter_too_much])

unit = st.floats(0.0, 1.0)
inner = st.floats(0.02, 0.98)


def _near(draw, value, lo, hi):
    """value, value * (1 -/+ 1e-13), or a free draw, clipped to [lo, hi]."""
    how = draw(st.sampled_from(["free", "at", "below", "above"]))
    if how == "free":
        return lo + draw(unit) * (hi - lo)
    v = value * {"at": 1.0, "below": 1.0 - 1e-13, "above": 1.0 + 1e-13}[how]
    return min(max(v, lo), hi)


@st.composite
def region_bounds(draw):
    """Tightened bounds in region A, B, C or D (lx <= ly), maybe mirrored."""
    lz = draw(st.floats(0.01, 0.4))
    uz = draw(st.floats(lz * 1.5, 1.0)) if lz * 1.5 < 1.0 else 1.0
    assume(uz < 1.0)
    s_lo, s_hi = math.sqrt(lz * uz), math.sqrt(lz / uz)
    region = draw(st.sampled_from("ABCD"))
    if region == "A":
        lx = _near(draw, s_lo, s_lo, math.sqrt(lz))
        ly = lx + draw(unit) * (min(uz, lz / lx) - lx)
    elif region == "B":
        lx = lz + draw(unit) * (s_lo - lz)
        ly = _near(draw, s_lo, lx, s_lo)
    elif region == "C":
        lx = lz + draw(unit) * (s_lo - lz)
        ly = _near(draw, s_hi, s_lo, min(s_hi, uz, lz / lx))
    else:
        assume(s_hi < uz)
        lx = lz + draw(unit) * (s_lo - lz)
        ly = _near(draw, s_hi, s_hi, min(uz, lz / lx))
    assume(lz <= lx <= ly <= uz and lx * ly <= lz)
    b = NormalizedBounds(lx, ly, lz, uz)
    # a corner on lx*ly = lz is a lower-trivial UpperOnly band, not a region
    assume(classify(b).letter is not None)
    return b.swapped() if draw(st.booleans()) else b


@st.composite
def band_bounds(draw):
    """One-sided bands through the raw-box entry point, and the zero-corner
    band, which is described without tightening."""
    kind = draw(st.sampled_from(["upper", "lower", "zero_corner"]))
    if kind == "zero_corner":
        lz = draw(st.floats(0.02, 0.6))
        return NormalizedBounds(0.0, 0.0, lz,
                                lz + draw(st.floats(0.05, 0.95)) * (1.0 - lz))
    lx, ly = (draw(st.sampled_from([0.0, 0.0, 0.1, 0.3, 0.6]))
              for _ in range(2))
    corner = lx * ly
    t = draw(st.floats(0.05, 0.9))
    if kind == "upper":
        raw = RawBounds(lx, ly, 0.0, 1.0, 1.0, corner + t * (1.0 - corner))
    else:
        raw = RawBounds(lx, ly, corner + t * (1.0 - corner), 1.0, 1.0, 1.0)
    return hull_from_raw(raw)[0].bounds


@st.composite
def scaled(draw, bounds):
    """Bounds as drawn, or put through a raw box scaled by 1e-6 to 1e6 per
    axis and brought back by hull_from_raw (normalize and tighten)."""
    b = draw(bounds)
    exps = draw(st.one_of(st.none(), st.tuples(st.floats(-6.0, 6.0),
                                               st.floats(-6.0, 6.0))))
    if exps is None:
        return b
    sx, sy = 10.0 ** exps[0], 10.0 ** exps[1]
    raw = RawBounds(b.lx * sx, b.ly * sy, b.lz * (sx * sy), sx, sy,
                    b.uz * (sx * sy))
    return hull_from_raw(raw)[0].bounds


any_bounds = scaled(st.one_of(region_bounds(), band_bounds()))


EPS = sys.float_info.epsilon


@st.composite
def near_tie_raw(draw):
    """Raw boxes whose lower corner coordinates sit up to 8 ulps from lz,
    uz or sqrt(lz*uz), where tightening and the case split turn, or are
    free; scaled per axis by 1e-8 to 1e8."""
    lz = draw(st.floats(0.0, 0.9))
    uz = lz + draw(st.floats(0.01, 1.0)) * (1.0 - lz)
    ties = {"lz": lz, "uz": uz, "mid": math.sqrt(lz * uz)}

    def corner():
        tie = draw(st.sampled_from(["lz", "uz", "mid", "free"]))
        v = ties[tie] if tie in ties else draw(unit)
        return v * (1.0 + draw(st.integers(-8, 8)) * EPS)

    lx, ly = corner(), corner()
    assume(lx < 1.0 and ly < 1.0 and lz < uz)
    sx, sy = (10.0 ** draw(st.floats(-8.0, 8.0)) for _ in range(2))
    try:
        return RawBounds(lx * sx, ly * sy, lz * (sx * sy), sx, sy,
                         uz * (sx * sy))
    except InfeasibleBounds:
        assume(False)


def _surface_cloud(b, n=400):
    """Points of the product surface over the box inside the z band, plus
    the curve endpoints and box corners that lie on it."""
    rng = np.random.default_rng(5)
    # x >= lz keeps the band nonempty on the untightened zero-corner boxes
    x = rng.uniform(max(b.lx, b.lz), 1.0, n)
    lo = np.maximum(b.ly, np.divide(b.lz, x, out=np.zeros_like(x), where=x > 0))
    hi = np.minimum(1.0, np.divide(b.uz, x, out=np.ones_like(x), where=x > 0))
    y = lo + rng.uniform(0.0, 1.0, n) * (hi - lo)
    extra = [(1.0, b.uz), (b.uz, 1.0), (b.lx, b.ly), (1.0, 1.0), (b.lx, 1.0),
             (1.0, b.ly)]
    if b.ly > 0.0:
        extra.append((b.lz / b.ly, b.ly))
    if b.lx > 0.0:
        extra.append((b.lx, b.lz / b.lx))
    for ex, ey in extra:
        if (b.lx <= ex <= 1.0 and b.ly <= ey <= 1.0
                and b.lz <= ex * ey <= b.uz):
            x = np.append(x, ex)
            y = np.append(y, ey)
    return x, y, x * y


def _valid_on(cut, cloud):
    scale = max(1.0, abs(cut.a0), abs(cut.ax), abs(cut.ay), abs(cut.az))
    return float(np.min(cut.residual(*cloud))) >= -1e-9 * scale


@SETTINGS
@given(b=any_bounds, queries=st.lists(st.tuples(inner, inner), min_size=1,
                                      max_size=6))
def test_lifted_tangent_properties(b, queries):
    assume(not (b.lower_trivial and b.upper_trivial))
    d = describe(b)
    cloud = _surface_cloud(b)
    for u, v in queries:
        x = b.lx + u * (1.0 - b.lx)
        y = b.ly + v * (1.0 - b.ly)
        if not b.lz < x * y < b.uz:
            continue
        cut, seg = lifted_tangent(b, x, y)
        # tight at the upper envelope, which it supports
        assert abs(float(cut.residual(x, y, envelopes(d, x, y)[1]))) <= 1e-10
        for t in (0.0, 0.5, 1.0):
            assert abs(float(cut.residual(*seg.point_at(t).astuple()))) <= 1e-10
        assert _valid_on(cut, cloud)
        if cut.label == "lifted_tangent":
            p = seg.point_at(seg.alpha)
            assert abs(p.x - x) <= 1e-9 and abs(p.y - y) <= 1e-9


@SETTINGS
@given(b=any_bounds)
def test_predicate_lines_pass_through_the_fan_anchor(b):
    for pc in describe(b).pieces:
        ax, ay = pc.soc.anchor
        for hp in pc.predicate:
            assert abs(hp.residual(ax, ay, 0.0)) <= 1e-15
            assert hp.ax * hp.ay <= 0.0


def _mirrored_piece(pc):
    """The piece with x and y interchanged: each predicate row with ax and
    ay interchanged, the cone as SocConstraint.mirrored()."""
    return HullPiece(tuple(LinearInequality(hp.a0, hp.ay, hp.ax, 0.0,
                                            "predicate")
                           for hp in pc.predicate),
                     pc.soc.mirrored())


@SETTINGS
@given(b=region_bounds())
def test_the_mirrored_box_has_the_mirrored_description(b):
    # a corner within BOUNDARY_TOL of the diagonal is never mirrored
    assume(abs(b.lx - b.ly) > BOUNDARY_TOL)
    d, m = describe(b), describe(b.swapped())
    assert d.case.letter is not None
    assert m.case == CaseTag(d.case.region, not d.case.swapped)
    assert m.pieces == tuple(_mirrored_piece(pc) for pc in d.pieces)
    # and, apart from the shared permutation, the same hull mirrored
    for u, v in ((0.1, 0.7), (0.5, 0.5), (0.9, 0.2), (0.3, 0.95)):
        x, y = b.lx + u * (1.0 - b.lx), b.ly + v * (1.0 - b.ly)
        for got, want in zip(envelopes(m, y, x), envelopes(d, x, y)):
            assert abs(got - want) <= 1e-12


@SETTINGS
@given(b=any_bounds)
def test_surface_points_are_members(b):
    d = describe(b)
    x, y, z = _surface_cloud(b, n=100)
    assert membership_mask(d, x, y, z).all()
    assert all(membership(d, Point3(*p)) for p in zip(x, y, z))


edge = st.one_of(st.sampled_from([0.0, 1.0]), unit)
# None: z anywhere in a band around [zlo, zhi]; else this far above zmax
lift = st.sampled_from([None, None, 1e-10, 1e-8, 1e-6, 1e-3])
# coordinate shifts by FEAS_TOL: they put a point drawn on a box face or a
# z bound exactly at the membership threshold
FT = FEAS_TOL
shift = st.sampled_from([0.0, 0.0, FT, -FT])


@SETTINGS
@given(b=any_bounds, points=st.lists(
    st.tuples(edge, edge, st.one_of(st.sampled_from([0.0, 1.0]),
                                    st.floats(-0.1, 1.1)),
              lift, st.tuples(shift, shift, shift)),
    min_size=1, max_size=8))
def test_separate_cuts_exactly_the_non_members(b, points):
    d = describe(b)
    cloud = _surface_cloud(b)
    pts = []
    for u, v, w, above, (sx, sy, sz) in points:
        x, y = b.lx + u * (1.0 - b.lx), b.ly + v * (1.0 - b.ly)
        z = d.zlo + w * (d.zhi - d.zlo)
        if above is not None:
            z = envelopes(d, x, y)[1] + above
        p = Point3(x + sx, y + sy, z + sz)
        pts.append(p)
        cut = separate(d, p)
        member = membership(d, p)
        assert (cut is None) == member
        assert (worst_violation(d, p)[1] is None) == member
        if cut is not None:
            assert float(cut.residual(p.x, p.y, p.z)) < 0.0
            assert _valid_on(cut, cloud)
    mask = membership_mask(d, *np.array([p.astuple() for p in pts]).T)
    assert mask.tolist() == [membership(d, p) for p in pts]


@SETTINGS
@given(b=any_bounds, points=st.lists(
    st.tuples(edge, edge, st.sampled_from([1e-9, 1e-6, 1e-3, 0.05])),
    min_size=1, max_size=8))
def test_separate_cuts_a_cone_with_the_lifted_tangent(b, points):
    # where a cone is the most violated constraint, separate's cut is the
    # plane of lifted_tangent at the projection of p nudged off the box
    # edges, bit for bit, whenever that plane cuts p
    d = describe(b)
    nx = min(BOUNDARY_TOL, (1.0 - b.lx) * 0.25)
    ny = min(BOUNDARY_TOL, (1.0 - b.ly) * 0.25)
    for u, v, lift in points:
        x, y = b.lx + u * (1.0 - b.lx), b.ly + v * (1.0 - b.ly)
        p = Point3(x, y, envelopes(d, x, y)[1] + lift)
        info = worst_violation(d, p)[1]
        xq = min(max(x, b.lx + nx), 1.0 - nx)
        yq = min(max(y, b.ly + ny), 1.0 - ny)
        if info is None or info["kind"] != "soc" \
                or not b.lz < xq * yq < b.uz:
            continue
        want = lifted_tangent(b, xq, yq)[0]
        cut = separate(d, p)
        if float(want.residual(x, y, p.z)) < 0.0:
            assert repr(cut) == repr(want)
        else:
            assert cut in d.rows


@SETTINGS
@given(b=any_bounds, n=st.integers(5, 12), seed=st.integers(0, 2**32 - 1))
def test_small_sample_oracle_agrees_with_closed_forms(b, n, seed):
    # the sampled hull lies inside the hull: where the oracle's envelope LP
    # is feasible, its value sits in the closed-form slice; centroids of
    # samples are members for both; points above zmax for neither
    d = describe(b)
    s = sample_surface(b, n)
    g = np.linspace(0.0, 1.0, 4)
    xs = np.repeat(b.lx + g * (1.0 - b.lx), 4)
    ys = np.tile(b.ly + g * (1.0 - b.ly), 4)
    got = oracle_envelope_many(s, xs, ys)
    band = d.zhi - d.zlo
    for x, y, oz in zip(xs.tolist(), ys.tolist(), got.tolist()):
        if math.isnan(oz):
            continue
        zmin, zmax = envelopes(d, x, y)
        assert zmin - 1e-9 <= oz <= zmax + 1e-9
        p = Point3(x, y, zmax + 0.05 * band)
        assert not oracle_membership(s, p) and not membership(d, p)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        k = int(rng.integers(1, min(len(s), 8) + 1))
        pick = rng.choice(len(s), k, replace=False)
        p = Point3(float(s.x[pick].mean()), float(s.y[pick].mean()),
                   float(s.z[pick].mean()))
        assert oracle_membership(s, p) and membership(d, p)


@SETTINGS
@given(raw=near_tie_raw(), seed=st.integers(0, 2**32 - 1))
def test_tightening_near_ties(raw, seed):
    try:
        d, sc = hull_from_raw(raw)  # describes the tightened bounds
    except InfeasibleBounds:
        return
    b = d.bounds
    assert b.is_tightened()
    rng = np.random.default_rng(seed)
    for u, v in rng.uniform(0.0, 1.0, (50, 2)).tolist():
        # a raw surface point: x over the box, y over the band at that x
        x = raw.lx + u * (raw.ux - raw.lx)
        lo = max(raw.ly, raw.lz / x) if x > 0.0 else raw.ly
        hi = min(raw.uy, raw.uz / x) if x > 0.0 else raw.uy
        if lo <= hi:
            y = lo + v * (hi - lo)
            assert membership(d, sc.to_normalized(Point3(x, y, x * y)))
    # tightening again moves nothing but by a roundoff shrink of a few ulps
    t, s = tighten_with_scaling(b)
    for was, now in zip((b.lx, b.ly, b.lz, b.uz, 1.0, 1.0),
                        (t.lx, t.ly, t.lz, t.uz, s.sx, s.sy)):
        assert abs(now - was) <= 8 * EPS * was


@SETTINGS
@given(b=any_bounds, seed=st.integers(0, 2**32 - 1))
def test_points_feasible_in_a_branch_block_are_members(b, seed):
    # disjunctive is sound: a block at lam = 1 holds only points of the hull
    d = describe(b)
    blocks = disjunctive(d)
    rng = np.random.default_rng(seed)
    u, v, w = rng.uniform(0.0, 1.0, (3, 200))
    xs, ys = b.lx + u * (1.0 - b.lx), b.ly + v * (1.0 - b.ly)
    zs = d.zlo + w * (d.zhi - d.zlo)
    for x, y, z in zip(xs.tolist(), ys.tolist(), zs.tolist()):
        if any(blk.feasible(1.0, x, y, z) for blk in blocks):
            assert membership(d, Point3(x, y, z))


def _assert_pieces_follow_from_the_case(d):
    """A piece is valid on the whole box exactly when it has no predicate
    or is the center cone; its predicate rows are the ones disjunctive
    adds to its block; Region D's are the D line, one each way."""
    for piece, blk in zip(d.pieces, disjunctive(d)):
        assert piece.globally_valid == (
            not piece.predicate or piece.soc.family is TangentFamily.CENTER)
        extra = blk.rows[len(d.rows):]
        assert [(q.a0, q.ax, q.ay, q.az, q.label) for q in extra] == [
            (hp.a0, hp.ax, hp.ay, 0.0, "predicate") for hp in piece.predicate]
    if d.case.region is Region.D:
        b = d.bounds
        sw = d.case.swapped
        line = dline(b.lx if sw else b.ly, b.lz, b.uz)
        a0, k = line.a0, line.ax
        want = [((a0, k, -1.0),), ((-a0, -k, 1.0),)]
        if sw:
            want = [tuple((c, y, x) for c, x, y in pred) for pred in want]
        assert [tuple((hp.a0, hp.ax, hp.ay) for hp in pc.predicate)
                for pc in d.pieces] == want


def test_pieces_follow_from_the_case_on_the_pinned_boxes():
    for raw in ALL_RAW:
        for r in (raw, RawBounds(raw.ly, raw.lx, raw.lz, raw.uy, raw.ux,
                                 raw.uz)):
            _assert_pieces_follow_from_the_case(hull_from_raw(r)[0])


@SETTINGS
@given(b=any_bounds)
def test_pieces_follow_from_the_case(b):
    _assert_pieces_follow_from_the_case(describe(b))
    _assert_pieces_follow_from_the_case(describe(b.swapped()))
