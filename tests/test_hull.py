"""Hull descriptions: case analysis, pieces, membership, separation, blocks."""

import math

import numpy as np
import pytest

from bilinear_hull import (
    BOUNDARY_TOL,
    FEAS_TOL,
    CaseTag,
    DegenerateBounds,
    HullDescription,
    HullPiece,
    NegativeDiscriminant,
    NormalizedBounds,
    OutOfDomain,
    Point3,
    RawBounds,
    Region,
    TangentFamily,
    classify,
    describe,
    disjunctive,
    dline,
    envelope_grid,
    envelopes,
    hull_from_raw,
    lifted_tangent,
    membership,
    membership_mask,
    region_map_polylines,
    separate,
    soc_center,
    soc_lower,
    soc_sides,
    soc_upper_general,
    soc_upper_zero,
    tighten_with_scaling,
    vol_numeric,
    worst_violation,
)
from bilinear_hull.hull import (
    _BLOCK,
    _TILE,
    _binding,
    _cone_fails,
    _worst_piece,
    _worst_row,
)

S1 = math.sqrt(0.1 * 0.7)   # inner threshold for lz=0.1, uz=0.7
S2 = math.sqrt(0.1 / 0.7)   # outer threshold


def _case(lx, ly, lz, uz):
    return classify(NormalizedBounds(lx, ly, lz, uz))


# ------------------------------------------------------------------ classify


def test_classify_trivial_cases():
    assert _case(0, 0, 0, 1).region is Region.NO_Z_BOUND
    assert _case(0, 0, 0, 0.4).region is Region.UPPER_ONLY
    assert _case(0, 0, 0.2, 1).region is Region.LOWER_ONLY
    assert _case(0.5, 0.3, 0.3, 1).region is Region.LOWER_ONLY
    assert _case(0, 0, 0.2, 0.7).region is Region.BOTH_ZERO_LB
    assert _case(0, 0, 0, 1).letter is None


def test_classify_lettered_regions():
    tag = _case(0.32, 0.28, 0.1, 0.7)
    assert tag.region is Region.A and tag.swapped and tag.letter == "A"
    tag = _case(0.28, 0.32, 0.1, 0.7)
    assert tag.region is Region.A and not tag.swapped

    tag = _case(0.14, 0.2, 0.1, 0.7)
    assert tag.region is Region.B and not tag.swapped and tag.letter == "B"
    tag = _case(0.14, 0.3, 0.1, 0.7)
    assert tag.region is Region.C and tag.letter == "C"
    tag = _case(0.14, 0.5, 0.1, 0.7)
    assert tag.region is Region.D and tag.letter == "D"
    # mirrored copies report E and F through the swap flag
    tag = _case(0.3, 0.14, 0.1, 0.7)
    assert tag.region is Region.C and tag.swapped and tag.letter == "E"
    tag = _case(0.5, 0.14, 0.1, 0.7)
    assert tag.region is Region.D and tag.swapped and tag.letter == "F"


def test_classify_threshold_ties():
    # ly exactly at the inner threshold goes to B, not C
    assert _case(0.14, S1, 0.1, 0.7).region is Region.B
    # lx exactly at the inner threshold goes to A
    assert _case(S1, S1, 0.1, 0.7).region is Region.A
    # ly exactly at the outer threshold goes to C, not D
    assert _case(0.14, S2, 0.1, 0.7).region is Region.C


def _floats(v):
    """The numbers of a to_dict() tree, in order."""
    if isinstance(v, dict):
        v = list(v.values())
    if isinstance(v, (list, tuple)):
        return [f for w in v for f in _floats(w)]
    return [v] if isinstance(v, float) else []


def _ulps(v, k):
    """v moved k ulps (toward +inf for k > 0)."""
    for _ in range(abs(k)):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return v


@pytest.mark.parametrize("ly, lz, uz, region", [
    # a tightened Region A box whose lx - ly was one ulp
    (float.fromhex("0x1.993cf62332e03p-1"), float.fromhex("0x1.65dd2682657c1p-1"),
     float.fromhex("0x1.993cf62332e03p-1"), Region.A),
    (0.2, 0.1, 0.7, Region.B),
])
def test_a_corner_within_boundary_tol_of_the_diagonal_is_not_mirrored(
        ly, lz, uz, region):
    # one ulp of roundoff in lx - ly must not mirror the order of the pieces
    want = describe(NormalizedBounds(ly, ly, lz, uz))
    assert want.case == CaseTag(region, False)
    for k in (1, -1, 2, -2, 3, -3, 20, -20):
        d = describe(NormalizedBounds(_ulps(ly, k), ly, lz, uz))
        assert d.case == want.case
        assert ([pc.soc.family for pc in d.pieces]
                == [pc.soc.family for pc in want.pieces])
        got, ref = (_floats([pc.to_dict() for pc in e.pieces])
                    for e in (d, want))
        assert len(got) == len(ref)
        assert max(abs(u - v) for u, v in zip(got, ref)) <= 1e-9


def test_classify_requires_tight_bounds():
    with pytest.raises(OutOfDomain):
        classify(NormalizedBounds(0.1, 0.1, 0.2, 1.0))
    # zero lower corner is admitted untightened
    classify(NormalizedBounds(0.0, 0.0, 0.2, 0.7))


def test_classify_matches_tightened_zero_corner():
    b = NormalizedBounds(0.0, 0.0, 0.2, 0.7)
    assert classify(b).region is Region.BOTH_ZERO_LB
    assert classify(tighten_with_scaling(b)[0]).region is Region.B


# ------------------------------------------------------------------ describe


def test_describe_piece_layout_simple_cases():
    d = describe(NormalizedBounds(0, 0, 0, 1))
    assert d.pieces == ()
    assert len(d.rlt) == 4

    d = describe(NormalizedBounds(0, 0, 0, 0.4))
    assert [p.soc.family for p in d.pieces] == [TangentFamily.UPPER_ZERO]
    assert d.pieces[0].globally_valid and d.pieces[0].predicate == ()

    d = describe(NormalizedBounds(0.5, 0.3, 0.3, 1.0))
    assert [p.soc.family for p in d.pieces] == [TangentFamily.LOWER]
    assert d.pieces[0].globally_valid and d.pieces[0].predicate == ()
    assert d.zlo == 0.3 and d.zhi == 1.0


def test_describe_region_b_layout():
    lz, uz = 0.1, 0.7
    d = describe(NormalizedBounds(0.14, 0.2, lz, uz))
    fams = [p.soc.family for p in d.pieces]
    assert fams == [TangentFamily.CENTER, TangentFamily.SIDE_X,
                    TangentFamily.SIDE_Y]
    center, sx, sy = d.pieces
    assert center.globally_valid and not sx.globally_valid
    assert not sy.globally_valid
    # center holds between the two rays y = uz*x and x = uz*y
    assert [(hp.a0, hp.ax, hp.ay) for hp in center.predicate] == [
        (0.0, -uz, 1.0), (0.0, 1.0, -uz)]
    assert [(hp.a0, hp.ax, hp.ay) for hp in sx.predicate] == [(0.0, uz, -1.0)]
    assert [(hp.a0, hp.ax, hp.ay) for hp in sy.predicate] == [(0.0, -1.0, uz)]
    # center cone stores the expanded square and the geometric-mean offset
    assert abs(center.soc.c[0] - (lz + uz + 2 * math.sqrt(lz * uz))) <= 1e-15
    assert abs(center.soc.b[0] - 2 * math.sqrt(lz * uz)) <= 1e-15


def test_describe_region_a_layout_swapped():
    lz, uz = 0.1, 0.7
    b = NormalizedBounds(0.32, 0.28, lz, uz)
    d = describe(b)
    assert d.case.swapped
    fams = [p.soc.family for p in d.pieces]
    assert fams == [TangentFamily.CENTER, TangentFamily.UPPER_GENERAL,
                    TangentFamily.UPPER_GENERAL]
    _, ug1, ug2 = d.pieces
    # corner pieces sit on the lz hyperbola above each box corner
    assert abs(ug1.soc.params["lx"] - b.lx) <= 1e-15
    assert abs(ug1.soc.params["ly"] - lz / b.lx) <= 1e-15
    assert abs(ug2.soc.params["lx"] - lz / b.ly) <= 1e-15
    assert abs(ug2.soc.params["ly"] - b.ly) <= 1e-15
    assert not ug1.globally_valid and not ug2.globally_valid


def test_describe_region_c_layout():
    lz, uz = 0.1, 0.7
    b = NormalizedBounds(0.14, 0.3, lz, uz)
    d = describe(b)
    fams = [p.soc.family for p in d.pieces]
    assert fams == [TangentFamily.CENTER, TangentFamily.UPPER_GENERAL,
                    TangentFamily.SIDE_Y]
    ug = d.pieces[1]
    assert abs(ug.soc.params["lx"] - lz / b.ly) <= 1e-15
    assert abs(ug.soc.params["ly"] - b.ly) <= 1e-15
    ratio = b.ly * b.ly / lz
    a0, ax, ay = (ug.predicate[0].a0, ug.predicate[0].ax, ug.predicate[0].ay)
    assert abs(a0) <= 1e-15 and abs(ax - ratio) <= 1e-12 and ay == -1.0


def test_describe_region_d_layout():
    lz, uz = 0.1, 0.7
    b = NormalizedBounds(0.14, 0.5, lz, uz)
    d = describe(b)
    fams = [p.soc.family for p in d.pieces]
    assert fams == [TangentFamily.UPPER_GENERAL, TangentFamily.SIDE_Y]
    line = dline(b.ly, lz, uz)
    assert abs(line.a0 - 0.3) <= 1e-12
    assert abs(line.ax - 1.0) <= 1e-12
    ug, sy = d.pieces
    # the split line enters the predicates with opposite orientations
    hp = ug.predicate[0]
    assert abs(hp.a0 - line.a0) <= 1e-12
    assert abs(hp.ax - line.ax) <= 1e-12 and hp.ay == -1.0
    hp = sy.predicate[0]
    assert abs(hp.a0 + line.a0) <= 1e-12
    assert abs(hp.ax + line.ax) <= 1e-12 and hp.ay == 1.0


def test_dline_interpolates_its_endpoints():
    rng = np.random.default_rng(71)
    for _ in range(200):
        lz = rng.uniform(0.01, 0.5)
        uz = rng.uniform(lz + 0.05, 1.0)
        # region D needs ly above lz/uz for the denominator to stay positive
        ly = rng.uniform(lz / uz + 1e-3, 1.0)
        line = dline(ly, lz, uz)
        # runs from the corner on the lz curve to (uz, 1)
        assert abs(line.a0 + line.ax * (lz / ly) - ly) <= 1e-10
        assert abs(line.a0 + line.ax * uz - 1.0) <= 1e-10
    with pytest.raises(DegenerateBounds):
        dline(0.2, 0.2, 0.7)


def test_describe_rejects_untight_bounds():
    with pytest.raises(OutOfDomain):
        describe(NormalizedBounds(0.1, 0.1, 0.2, 1.0))


def test_hull_from_raw_composes_scaling():
    d, s = hull_from_raw(RawBounds(0.2, 0.2, 0.4, 2.0, 2.0, 4.0))
    # normalize divides by 2, 2; z by 4; then the description is tightened
    assert d.bounds.is_tightened()
    assert abs(s.sx - 2.0) <= 1e-12 and abs(s.sy - 2.0) <= 1e-12
    # normalized surface maps back onto the raw surface
    p = s.to_raw(Point3(0.5, 0.5, 0.25))
    assert abs(p.z - p.x * p.y) <= 1e-12


ALL_RAW = [
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


# ------------------------------------------------- membership and envelopes


def test_membership_examples():
    d, _ = hull_from_raw(RawBounds(0, 0, 0, 1, 1, 0.4))
    assert membership(d, Point3(0.5, 0.5, 0.3))
    assert membership(d, Point3(0.5, 0.5, math.sqrt(0.1)))
    assert not membership(d, Point3(0.5, 0.5, 0.35))
    assert not membership(d, Point3(1.1, 0.5, 0.2))
    assert not membership(d, Point3(0.5, 0.5, -0.01))


def test_membership_of_surface_points():
    rng = np.random.default_rng(73)
    for raw in ALL_RAW:
        d, _ = hull_from_raw(raw)
        b = d.bounds
        n = 0
        while n < 300:
            x = rng.uniform(b.lx, 1.0)
            y = rng.uniform(b.ly, 1.0)
            if not (b.lz <= x * y <= b.uz):
                continue
            assert membership(d, Point3(x, y, x * y))
            n += 1


def test_envelope_band_matches_membership():
    rng = np.random.default_rng(79)
    for raw in ALL_RAW:
        d, _ = hull_from_raw(raw)
        b = d.bounds
        g = np.linspace(b.lx, 1.0, 41)
        h = np.linspace(b.ly, 1.0, 41)
        # envelope_grid spans the tensor grid of the two axes
        zmin, zmax, _ = envelope_grid(d, g, h)
        xs, ys = np.meshgrid(g, h, indexing="ij")
        ok = zmin <= zmax + 1e-12
        # strictly interior z: member; above the band: not a member
        t = rng.uniform(0.0, 1.0, size=xs.shape)
        zin = zmin + t * (zmax - zmin)
        inside = membership_mask(d, xs, ys, zin)
        assert np.all(inside[ok])
        above = membership_mask(d, xs, ys, zmax + 1e-6)
        assert not np.any(above)
        below = membership_mask(d, xs, ys, zmin - 1e-6)
        assert not np.any(below)


def test_envelope_lower_side_is_linear():
    # zmin is always the max of the two lower cuts and the z floor
    for raw in ALL_RAW:
        d, _ = hull_from_raw(raw)
        b = d.bounds
        g = np.linspace(b.lx, 1.0, 31)
        h = np.linspace(b.ly, 1.0, 31)
        zmin, _, _ = envelope_grid(d, g, h)
        xs, ys = np.meshgrid(g, h, indexing="ij")
        expect = np.maximum(xs + ys - 1.0,
                            b.ly * xs + b.lx * ys - b.lx * b.ly)
        expect = np.maximum(expect, d.zlo)
        assert float(np.max(np.abs(zmin - expect))) <= 1e-12


def test_envelope_piece_ids():
    d, _ = hull_from_raw(RawBounds(0.14, 0.2, 0.1, 1, 1, 0.7))
    b = d.bounds
    g = np.linspace(b.lx, 1.0, 51)
    h = np.linspace(b.ly, 1.0, 51)
    zmin, zmax, pid = envelope_grid(d, g, h)
    xs, ys = np.meshgrid(g, h, indexing="ij")
    assert set(np.unique(pid)) <= set(range(-1, len(d.pieces)))
    # where a piece wins, its closed-form envelope is the cap
    for i, piece in enumerate(d.pieces):
        sel = pid == i
        if not np.any(sel):
            continue
        env = piece.soc.envelope_z(xs[sel], ys[sel])
        assert float(np.max(np.abs(zmax[sel] - env))) <= 1e-12
    # where no piece wins, a linear cap is binding
    sel = pid == -1
    lin = np.minimum(d.zhi, xs + b.lx * ys - b.lx)
    lin = np.minimum(lin, b.ly * xs + ys - b.ly)
    assert float(np.max(np.abs(zmax[sel] - lin[sel]))) <= 1e-12


def test_envelopes_scalar_matches_grid():
    d, _ = hull_from_raw(RawBounds(0.14, 0.3, 0.1, 1, 1, 0.7))
    rng = np.random.default_rng(83)
    xs = rng.uniform(d.bounds.lx, 1.0, size=50)
    ys = rng.uniform(d.bounds.ly, 1.0, size=50)
    zmin, zmax, _ = envelope_grid(d, xs, ys)
    for i in range(50):
        lo, hi = envelopes(d, float(xs[i]), float(ys[i]))
        # scalar values sit on the grid diagonal
        assert abs(lo - zmin[i, i]) <= 1e-14
        assert abs(hi - zmax[i, i]) <= 1e-14


def test_empty_slice_outside_projection():
    d, _ = hull_from_raw(RawBounds(0, 0, 0.2, 1, 1, 0.7))
    lo, hi = envelopes(d, 0.25, 0.3)  # x*y < lz: no hull point overhead
    assert lo > hi
    assert not membership(d, Point3(0.25, 0.3, 0.2))


def test_hulls_nest_when_bounds_tighten():
    rng = np.random.default_rng(89)
    tight, _ = hull_from_raw(RawBounds(0, 0, 0.3, 1, 1, 0.6))
    loose, _ = hull_from_raw(RawBounds(0, 0, 0.2, 1, 1, 0.7))
    b = tight.bounds
    n = 0
    while n < 500:
        x = rng.uniform(b.lx, 1.0)
        y = rng.uniform(b.ly, 1.0)
        lo, hi = envelopes(tight, x, y)
        if lo > hi:
            continue
        z = rng.uniform(lo, hi)
        assert membership(loose, Point3(x, y, z))
        n += 1


# ------------------------------------------------------------------ separate


def test_no_cut_for_members():
    d, _ = hull_from_raw(RawBounds(0, 0, 0, 1, 1, 0.4))
    assert separate(d, Point3(0.5, 0.5, 0.3)) is None
    r, info = worst_violation(d, Point3(0.5, 0.5, 0.3))
    assert r > 0 and info is None


def test_separate_rejects_non_finite_points():
    d, _ = hull_from_raw(RawBounds(0, 0, 0, 1, 1, 0.4))
    for p in (Point3(math.nan, 0.5, 0.3), Point3(0.5, 0.5, math.nan),
              Point3(0.5, math.inf, 0.3)):
        with pytest.raises(OutOfDomain):
            separate(d, p)
        with pytest.raises(OutOfDomain):
            worst_violation(d, p)


def test_membership_rejects_non_finite_points():
    d, _ = hull_from_raw(RawBounds(0, 0, 0, 1, 1, 0.4))
    for bad in (math.nan, math.inf, -math.inf):
        for p in (Point3(bad, 0.5, 0.2), Point3(0.5, bad, 0.2),
                  Point3(0.5, 0.5, bad)):
            with pytest.raises(OutOfDomain):
                membership(d, p)
            with pytest.raises(OutOfDomain):
                membership_mask(d, [p.x], [p.y], [p.z])
        with pytest.raises(OutOfDomain):
            membership_mask(d, np.array([0.5, bad]), np.array([0.5, 0.5]),
                            np.array([0.2, 0.2]))
    assert membership_mask(d, [0.5], [0.5], [0.2]).tolist() == [True]


def test_separate_example_cut():
    d, _ = hull_from_raw(RawBounds(0, 0, 0, 1, 1, 0.4))
    p = Point3(0.5, 0.5, 0.35)
    r, info = worst_violation(d, p)
    assert info == {"kind": "soc", "family": "UpperZero"}
    assert abs(r - (0.2 + 0.5 - math.hypot(2 * 0.35, 0.2 - 0.5))) <= 1e-12
    cut = separate(d, p)
    want, _ = lifted_tangent(d.bounds, 0.5, 0.5)
    assert abs(cut.a0 - want.a0) <= 1e-12
    assert abs(cut.ax - want.ax) <= 1e-12
    assert abs(cut.ay - want.ay) <= 1e-12
    assert abs(cut.az - want.az) <= 1e-12
    assert abs(cut.residual(p.x, p.y, p.z) + 0.067544468) <= 1e-9


def test_separate_below_projection_uses_product_cut():
    d, _ = hull_from_raw(RawBounds(0, 0, 0.2, 1, 1, 0.7))
    p = Point3(0.25, 0.3, 0.2)  # x*y < lz: outside the shadow
    cut = separate(d, p)
    assert cut is not None
    assert cut.az == 0.0  # cuts the (x, y) projection, z-free
    assert cut.residual(p.x, p.y, p.z) < 0


def test_cuts_separate_and_stay_valid():
    rng = np.random.default_rng(97)
    for raw in ALL_RAW:
        d, _ = hull_from_raw(raw)
        b = d.bounds
        # valid surface cloud for the validity side of the check
        xs, ys = [], []
        while len(xs) < 1500:
            x = rng.uniform(b.lx, 1.0)
            y = rng.uniform(b.ly, 1.0)
            if b.lz <= x * y <= b.uz:
                xs.append(x)
                ys.append(y)
        sx = np.array(xs)
        sy = np.array(ys)
        sz = sx * sy
        tried = 0
        while tried < 60:
            x = rng.uniform(max(0.0, b.lx - 0.1), 1.0)
            y = rng.uniform(max(0.0, b.ly - 0.1), 1.0)
            z = rng.uniform(-0.1, 1.1)
            p = Point3(x, y, z)
            if membership(d, p):
                continue
            tried += 1
            cut = separate(d, p)
            assert cut is not None
            assert cut.residual(p.x, p.y, p.z) < 1e-12
            assert float(np.min(cut.residual(sx, sy, sz))) >= -1e-9



def test_separate_on_descriptions_built_with_fewer_planes():
    # the tangent plane of a linear wedge is the box's RLT plane, which a
    # description built through the constructor need not carry
    d, _ = hull_from_raw(RawBounds(0.14, 0.3, 0.1, 1, 1, 0.7))
    kept = HullDescription(d.bounds, d.case, (d.rlt[0],), d.pieces)
    p = Point3(0.5840670096539379, 0.41285167507677434, 0.6967654475228062)
    assert separate(kept, p) == d.rlt[3]
    rng = np.random.default_rng(5)
    for raw in ALL_RAW:
        d, _ = hull_from_raw(raw)
        b = d.bounds
        x = rng.uniform(b.lx, 1.0, 4000)
        y = rng.uniform(b.ly, 1.0, 4000)
        on = (b.lz <= x * y) & (x * y <= b.uz)
        sx, sy = x[on], y[on]
        for planes in [()] + [(q,) for q in d.rlt]:
            one = HullDescription(b, d.case, planes, d.pieces)
            for k in range(40):
                q = Point3(x[k], y[k], rng.uniform(-0.1, 1.1))
                cut = separate(one, q)
                assert (cut is None) == membership(one, q)
                if cut is not None:
                    assert cut.residual(q.x, q.y, q.z) < 1e-12
                    assert float(np.min(cut.residual(sx, sy, sx * sy))) \
                        >= -1e-9

# --------------------------------------------------------------- disjunctive


def test_disjunctive_block_counts():
    for raw, nblocks in [
        (RawBounds(0, 0, 0, 1, 1, 1), 1),
        (RawBounds(0, 0, 0, 1, 1, 0.4), 1),
        (RawBounds(0.5, 0.3, 0.3, 1, 1, 1), 1),
        (RawBounds(0, 0, 0.2, 1, 1, 0.7), 3),
        (RawBounds(0.14, 0.3, 0.1, 1, 1, 0.7), 3),
        (RawBounds(0.14, 0.5, 0.1, 1, 1, 0.7), 2),
    ]:
        d, _ = hull_from_raw(raw)
        ef = disjunctive(d)
        assert len(ef.blocks) == nblocks
        assert ef.num_branch_variables == 4 * nblocks
        assert ef.num_aggregation_rows == 4
        assert len(ef.variables) == 3 + 4 * nblocks
        assert ef.variables[:3] == ("x", "y", "z")


def test_disjunctive_no_piece_block_is_linear():
    d = describe(NormalizedBounds(0, 0, 0, 1))
    ef = disjunctive(d)
    assert len(ef.blocks) == 1
    assert ef.blocks[0].soc is None


def test_block_at_unit_weight_matches_membership():
    rng = np.random.default_rng(101)
    d, _ = hull_from_raw(RawBounds(0.14, 0.2, 0.1, 1, 1, 0.7))
    ef = disjunctive(d)
    b = d.bounds
    n = 0
    while n < 400:
        x = rng.uniform(b.lx, 1.0)
        y = rng.uniform(b.ly, 1.0)
        if not (b.lz <= x * y <= b.uz):
            continue
        n += 1
        z = x * y
        # the surface point is feasible in the block whose region holds it
        feas = [blk.feasible(1.0, x, y, z) for blk in ef.blocks]
        applic = [pc.applicable(x, y) for pc in d.pieces]
        for f, a in zip(feas, applic):
            if a:
                assert f
        assert any(feas)
    # box violations kill every block
    assert not any(blk.feasible(1.0, 1.2, 0.5, 0.6) for blk in ef.blocks)


def test_block_soc_scales_homogeneously():
    rng = np.random.default_rng(103)
    d, _ = hull_from_raw(RawBounds(0, 0, 0.2, 1, 1, 0.7))
    ef = disjunctive(d)
    for _ in range(300):
        lam = rng.uniform(0.05, 1.0)
        x, y = rng.uniform(0.2, 1.0, size=2)
        z = rng.uniform(0.0, 1.0)
        for blk in ef.blocks:
            full = blk.soc_residual(1.0, x, y, z)
            scaled = blk.soc_residual(lam, lam * x, lam * y, lam * z)
            assert abs(scaled - lam * full) <= 1e-12


ROW_LABELS = ["rlt_lower_ones", "rlt_lower_corner", "rlt_upper_x",
              "rlt_upper_y", "z_lower", "z_upper", "x_lower", "x_upper",
              "y_lower", "y_upper"]


def test_disjunctive_blocks_are_the_rows_plus_predicates():
    rng = np.random.default_rng(107)
    for raw in [RawBounds(0, 0, 0, 1, 1, 1), RawBounds(0, 0, 0, 1, 1, 0.4),
                RawBounds(0, 0, 0.2, 1, 1, 0.7),
                RawBounds(0.32, 0.28, 0.1, 1, 1, 0.7),
                RawBounds(0.14, 0.3, 0.1, 1, 1, 0.7),
                RawBounds(0.5, 0.14, 0.1, 1, 1, 0.7)]:
        d, _ = hull_from_raw(raw)
        b = d.bounds
        assert [q.label for q in d.rows] == ROW_LABELS
        ef = disjunctive(d)
        for blk, piece in zip(ef.blocks, d.pieces or (None,)):
            assert blk.rows[:10] == d.rows
            preds = piece.predicate if piece is not None else ()
            assert [(q.a0, q.ax, q.ay, q.az) for q in blk.rows[10:]] == [
                (hp.a0, hp.ax, hp.ay, 0.0) for hp in preds]
        # feasibility is positively homogeneous, on random points, box
        # faces, z bounds and surface points alike
        seen = set()
        for _ in range(300):
            x = rng.choice([b.lx, 1.0, rng.uniform(b.lx - 0.05, 1.05)])
            y = rng.choice([b.ly, 1.0, rng.uniform(b.ly - 0.05, 1.05)])
            z = rng.choice([d.zlo, d.zhi, x * y,
                            rng.uniform(d.zlo - 0.05, d.zhi + 0.05)])
            lam = rng.uniform(0.05, 1.0)
            for blk in ef.blocks:
                f = blk.feasible(1.0, x, y, z)
                assert f == blk.feasible(lam, lam * x, lam * y, lam * z)
                seen.add(f)
        assert seen == {True, False}
        # at weight 0 the origin is feasible; a negative weight is not
        for blk in ef.blocks:
            assert blk.feasible(0.0, 0.0, 0.0, 0.0)
            assert not blk.feasible(-2.0 * FEAS_TOL, 0.0, 0.0, 0.0)


# ------------------------------------------------------- region map plotting


def test_region_map_polylines():
    with pytest.raises(DegenerateBounds):
        region_map_polylines(0.5, 0.5)
    lz, uz = 0.1, 0.7
    pl = region_map_polylines(lz, uz, n=33)
    assert set(pl) == {"frame_lx", "frame_ly", "hyperbola", "split_lx",
                       "split_ly", "far_ly", "far_lx"}
    for arr in pl.values():
        a = np.asarray(arr)
        assert a.ndim == 2 and a.shape[1] == 2
        assert np.all(a >= lz - 1e-12) and np.all(a <= uz + 1e-12)
    hyp = np.asarray(pl["hyperbola"])
    assert float(np.max(np.abs(hyp[:, 0] * hyp[:, 1] - lz))) <= 1e-12
    assert np.allclose(np.asarray(pl["split_lx"])[:, 0], S1, atol=1e-12)
    assert np.allclose(np.asarray(pl["split_ly"])[:, 1], S1, atol=1e-12)
    assert np.allclose(np.asarray(pl["far_lx"])[:, 0], S2, atol=1e-12)
    assert np.allclose(np.asarray(pl["far_ly"])[:, 1], S2, atol=1e-12)
    assert np.allclose(np.asarray(pl["frame_lx"])[:, 0], lz, atol=1e-15)
    assert np.allclose(np.asarray(pl["frame_ly"])[:, 1], lz, atol=1e-15)


def test_cut_next_to_a_side_fan_corner_stays_valid():
    # Region B after tightening; (1, 0.75) is the SideX anchor (1, uz).
    # separate takes the tangent 1e-12 inside the box, just outside the
    # SideX wedge y <= uz*x: the segment must run along the wedge's edge
    d, _ = hull_from_raw(RawBounds(0, 0, 0.5, 1, 1, 0.75))
    b = d.bounds
    g = np.linspace(b.lx, 1.0, 301)
    x, y = (a.ravel() for a in np.meshgrid(g, g))
    band = (b.lz <= x * y) & (x * y <= b.uz)
    x, y = x[band], y[band]
    p = Point3(1.0, 0.75, 0.75000001)
    cut = separate(d, p)
    assert cut is not None and cut.residual(p.x, p.y, p.z) < 0.0
    assert float(np.min(cut.residual(x, y, x * y))) >= -1e-12
    plane, seg = lifted_tangent(b, 1.0 - 1e-12, 0.75)
    assert seg.family is TangentFamily.SIDE_X
    lo = seg.lower
    assert abs(lo.x * lo.y - b.lz) <= 1e-14 and abs(lo.y - b.uz * lo.x) <= 1e-14
    assert float(np.min(plane.residual(x, y, x * y))) >= -1e-12


# ------------------------------------------------- piece validity boundaries


def test_side_piece_is_region_bound_only():
    """A side cone can cut hull points outside its own wedge."""
    d, _ = hull_from_raw(RawBounds(0, 0, 0.2, 1, 1, 0.7))
    sx = d.pieces[1]
    assert sx.soc.family is TangentFamily.SIDE_X
    p = Point3(0.5, 0.9, 0.45)
    assert membership(d, p)                # a true hull point (on the surface)
    assert not sx.applicable(p.x, p.y)     # outside the wedge y <= uz*x
    r = float(sx.soc.residual(p.x, p.y, p.z))
    assert abs(r - (0.35 - math.sqrt(0.2225))) <= 1e-12
    assert r < -0.1


def test_globally_valid_pieces_hold_everywhere():
    rng = np.random.default_rng(107)
    for raw in ALL_RAW:
        d, _ = hull_from_raw(raw)
        b = d.bounds
        xs, ys = [], []
        while len(xs) < 2000:
            x = rng.uniform(b.lx, 1.0)
            y = rng.uniform(b.ly, 1.0)
            if b.lz <= x * y <= b.uz:
                xs.append(x)
                ys.append(y)
        sx = np.array(xs)
        sy = np.array(ys)
        for pc in d.pieces:
            if pc.globally_valid:
                r = pc.soc.residual(sx, sy, sx * sy)
                assert float(np.min(r)) >= -1e-12


def test_predicate_lines_pass_through_the_fan_anchor():
    """Each piece's wedge has its apex at the anchor of the piece's fan and
    edges of nonnegative slope, so a tangent query just outside the wedge
    can be turned onto its edge, toward the fan's curve."""
    for raw in ALL_RAW + [RawBounds(r.ly, r.lx, r.lz, r.uy, r.ux, r.uz)
                          for r in ALL_RAW]:
        d, _ = hull_from_raw(raw)
        for pc in d.pieces:
            ax, ay = pc.soc.anchor
            for hp in pc.predicate:
                assert abs(hp.residual(ax, ay, 0.0)) <= 1e-15, (
                    raw, pc.soc.family)
                assert hp.ax * hp.ay <= 0.0, (raw, pc.soc.family)


MIRRORED_RAW = [RawBounds(r.ly, r.lx, r.lz, r.uy, r.ux, r.uz) for r in ALL_RAW]


def _predicate_lines():
    """(description, piece, line, inside, outside) for every predicate line
    of the ALL_RAW boxes and their mirrors, where inside and outside are
    points 0.5*BOUNDARY_TOL and 2*BOUNDARY_TOL outside the line."""
    for raw in ALL_RAW + MIRRORED_RAW:
        d, _ = hull_from_raw(raw)
        b = d.bounds
        for pc in d.pieces:
            ax, ay = pc.soc.anchor
            for hp in pc.predicate:
                # a point on the line, inside the box and well inside the
                # piece's other predicate lines
                others = [q for q in pc.predicate if q is not hp]
                on = [(ax - t * hp.ay, ay + t * hp.ax)
                      for t in np.linspace(-2.0, 2.0, 81).tolist()]
                on = [(x, y) for x, y in on
                      if b.lx < x < 1.0 and b.ly < y < 1.0
                      and all(q.residual(x, y, 0.0) > 1e-3 for q in others)]
                x0, y0 = on[len(on) // 2]
                n2 = hp.ax * hp.ax + hp.ay * hp.ay
                pts = []
                for k in (0.5, 2.0):
                    s = (-k * BOUNDARY_TOL - hp.residual(x0, y0, 0.0)) / n2
                    x, y = x0 + s * hp.ax, y0 + s * hp.ay
                    assert abs(hp.residual(x, y, 0.0) + k * BOUNDARY_TOL) \
                        <= 0.1 * BOUNDARY_TOL
                    pts.append((x, y))
                yield d, pc, hp, pts[0], pts[1]


def test_pieces_apply_within_the_pinned_boundary_slack():
    """applicable() allows BOUNDARY_TOL outside each predicate line and no
    more, for float, 0-d and array input."""
    checked = 0
    for _, pc, _, (xi, yi), (xo, yo) in _predicate_lines():
        assert pc.applicable(xi, yi) is True
        assert pc.applicable(xo, yo) is False
        assert pc.applicable(np.array(xi), np.array(yi))
        assert not pc.applicable(np.array(xo), np.array(yo))
        got = pc.applicable(np.array([xi, xo]), np.array([yi, yo]))
        assert got.tolist() == [True, False]
        checked += 1
    assert checked >= 20


def test_applicable_broadcasts_a_number_against_an_array():
    """With or without a predicate, a piece answers one bool for two
    numbers and else an array of the broadcast shape, pair by pair."""
    free = describe(NormalizedBounds(0.0, 0.0, 0.0, 0.4)).pieces[0]
    center = describe(NormalizedBounds(0.14, 0.2, 0.1, 0.7)).pieces[0]
    assert not free.predicate and center.predicate
    ys = np.array([0.25, 0.5, 0.9])
    for pc in (free, center):
        for x in (0.5, np.array(0.5), np.array([0.3, 0.5, 0.5])):
            got = pc.applicable(x, ys)
            assert isinstance(got, np.ndarray) and got.dtype == bool
            want = [pc.applicable(a, b) for a, b in
                    zip(np.broadcast_to(x, ys.shape).tolist(), ys.tolist())]
            assert all(type(a) is bool for a in want)
            assert got.tolist() == want
    assert center.applicable(0.5, ys).tolist() == [False, True, False]


def test_scalar_scans_agree_with_the_methods():
    """The scans write residual() and applicable() out inline.  Just inside
    and just outside the BOUNDARY_TOL slack of every predicate line:
    _worst_piece and _binding read a piece exactly where applicable() holds,
    _worst_row's residual is the least row residual() bit for bit, and
    membership is worst_violation's verdict."""
    checked = bound = 0
    for d, pc, _, inside, outside in _predicate_lines():
        b = d.bounds
        # the description with this piece alone, so a piece read is a piece
        # returned
        alone = HullDescription(b, d.case, d.rlt, (pc,))
        for (x, y), app in ((inside, True), (outside, False)):
            assert pc.applicable(x, y) is app
            lin = min(x + b.lx * y - b.lx, b.ly * x + y - b.ly, d.zhi)
            want = (lin, None)
            if app:
                env = pc.soc.envelope_z(x, y)
                if env <= lin:
                    want = (env, pc)
            assert _binding(alone, x, y) == want
            bound += want[1] is pc
            top = _binding(d, x, y)[0]
            for z in (top - 2 * FEAS_TOL, top + 0.5 * FEAS_TOL,
                      top + 2 * FEAS_TOL, d.zlo - 2 * FEAS_TOL,
                      0.5 * (d.zlo + top)):
                p = Point3(x, y, z)
                res, piece = _worst_piece(alone, p)
                assert (piece is pc) is app
                if app:
                    assert res.hex() == pc.soc.residual(x, y, z).hex()
                row_res, _ = _worst_row(d, p)
                assert row_res.hex() == min(
                    q.residual(x, y, z) for q in d.rows).hex()
                assert membership(d, p) is (worst_violation(d, p)[1] is None)
        checked += 1
    assert checked >= 20
    # the cone binds at most of the points inside, so _binding is seen
    # reading the piece there
    assert bound >= checked // 2, (bound, checked)


def _cones_of_every_family():
    """Cones of the six families over seeded bounds, the bounds' extremes
    among them, each as built and mirrored."""
    rng = np.random.default_rng(211)
    bounds = [(0.0, 1.0, 0.0, 0.5), (0.2, 1.0, 0.2, 0.9), (0.0, 0.4, 0.3, 0.0)]
    for _ in range(12):
        uz = rng.uniform(0.05, 1.0)
        lz = rng.uniform(0.0, uz)
        lx, ly = rng.uniform(0.0, 1.0, 2).tolist()
        bounds.append((lz, uz, lx, min(ly, 0.99 * uz / max(lx, 1e-3))))
    for lz, uz, lx, ly in bounds:
        for c in (soc_upper_zero(uz), soc_lower(lz), soc_center(lz, uz),
                  *soc_sides(lz, uz), soc_upper_general(lx, ly, uz)):
            yield c
            yield c.mirrored()


def _clamp_edge(c, y):
    """The floats x on the row y where c.envelope_z starts to raise, 4 ulps
    either side: their discriminants are the ones nearest DISC_CLAMP.
    Empty when the row has no such change."""
    def raises(x):
        try:
            c.envelope_z(x, y)
        except NegativeDiscriminant:
            return True
        return False
    xs = np.linspace(-2.0, 3.0, 51).tolist()
    flags = [raises(x) for x in xs]
    for i in range(len(xs) - 1):
        if flags[i] != flags[i + 1]:
            a, b = xs[i], xs[i + 1]
            while True:
                m = 0.5 * (a + b)
                if m in (a, b):
                    break
                a, b = (m, b) if raises(m) == flags[i] else (a, m)
            out = [a]
            for _ in range(4):
                out = [math.nextafter(out[0], -math.inf)] + out \
                    + [math.nextafter(out[-1], math.inf)]
            return out
    return []


def _envelope_outcome(c, x, y):
    """envelope_z's value by float.hex, a zero taken as +0.0, or the
    message it raised."""
    try:
        v = c.envelope_z(x, y)
    except NegativeDiscriminant as e:
        return "raises: %s" % e
    assert type(v) is float
    return (v + 0.0).hex()


def test_scalar_cone_forms_keep_their_bits():
    """The scalar cone arithmetic, bit for bit, for every family as built
    and mirrored: at seeded points around the box, on the predicate lines
    of the ALL_RAW boxes and their mirrors, and on both sides of the points
    where a discriminant crosses DISC_CLAMP.  The scans' inline cone
    residual is SocConstraint.residual's scalar expression, and a float
    envelope_z is the 0-d array one up to the sign of a zero, raising on the
    same inputs."""
    rng = np.random.default_rng(223)
    base = describe(NormalizedBounds(0.0, 0.0, 0.0, 1.0))

    def check(c, pts):
        alone = HullDescription(base.bounds, base.case, base.rlt,
                                (HullPiece((), c),))
        for x, y, z in pts:
            res, piece = _worst_piece(alone, Point3(x, y, z))
            assert piece is not None
            assert res.hex() == c.residual(x, y, z).hex(), (c, x, y, z)
            assert _envelope_outcome(c, x, y) == _envelope_outcome(
                c, np.array(x), np.array(y)), (c, x, y)

    families, edges = set(), set()
    for i, c in enumerate(_cones_of_every_family()):
        pts = rng.uniform(-0.2, 1.2, (40, 3)).tolist()
        pts += [(1.0, 1.0, 1.0), (0.0, 0.0, 0.0), c.anchor + (0.5,)]
        for y in (0.25, 0.5, 1.0):
            edge = _clamp_edge(c, y)
            pts += [(x, y, 0.5) for x in edge]
            if edge:
                edges.add((c.family, i % 2))
        check(c, pts)
        families.add((c.family, i % 2))
    assert families == {(f, m) for f in TangentFamily for m in (0, 1)}
    # the lower and side discriminants are sums of squares and products of
    # one sign; the others go negative, as built (0) and mirrored (1)
    assert edges == {(f, m) for m in (0, 1) for f in (
        TangentFamily.UPPER_ZERO, TangentFamily.CENTER,
        TangentFamily.UPPER_GENERAL)}
    on_lines = 0
    for d, pc, hp, inside, outside in _predicate_lines():
        ax, ay = pc.soc.anchor
        pts = [(ax - t * hp.ay, ay + t * hp.ax, z)
               for t in np.linspace(-1.0, 1.0, 21).tolist()
               for z in (d.zlo, 0.5 * (d.zlo + d.zhi), d.zhi)]
        pts += [inside + (d.zhi,), outside + (d.zhi,)]
        check(pc.soc, pts)
        on_lines += 1
    assert on_lines >= 20


# ------------------------------------------------- blocked array kernels

BLOCK_SIZES = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7)


def _points_near_hull(rng, d, n):
    """n points around the hull: box points over a z band a little wider
    than [zlo, zhi], half of them lifted to just off the upper envelope's
    surface, so that rows and cones both decide."""
    b = d.bounds
    x = rng.uniform(b.lx - 0.02, 1.02, n)
    y = rng.uniform(b.ly - 0.02, 1.02, n)
    z = rng.uniform(d.zlo - 0.02, d.zhi + 0.02, n)
    near = rng.random(n) < 0.5
    z[near] = (x * y)[near] + rng.normal(0.0, 0.01, int(near.sum()))
    return x, y, z


def _membership_each(d, x, y, z):
    return [membership(d, Point3(*p))
            for p in zip(np.ravel(x).tolist(), np.ravel(y).tolist(),
                         np.ravel(z).tolist())]


def test_membership_mask_agrees_across_block_boundaries():
    rng = np.random.default_rng(113)
    d, _ = hull_from_raw(RawBounds(0.14, 0.3, 0.1, 1, 1, 0.7))
    for n in BLOCK_SIZES:
        x, y, z = _points_near_hull(rng, d, n)
        mask = membership_mask(d, x, y, z)
        assert mask.shape == (n,) and mask.dtype == bool
        assert mask.tolist() == _membership_each(d, x, y, z)


def _beyond_the_bounds(rng, d, n):
    """4n points 1.5 FEAS_TOL beyond the faces of the box that meet every
    RLT plane (they follow the edges z = x, z = y, z = lx*y and z = ly*x of
    the RLT polytope), so that only a bound row rejects them, then 2n
    points 1.5 FEAS_TOL beyond the z bounds."""
    b = d.bounds
    t, zt = 1.5 * FEAS_TOL, 0.75 * FEAS_TOL
    u = rng.uniform(b.lx, 1.0, n)
    v = rng.uniform(b.ly, 1.0, n)
    faces = [(u, np.full(n, 1.0 + t), u + zt),
             (np.full(n, 1.0 + t), v, v + zt),
             (np.full(n, b.lx - t), v, b.lx * v - zt),
             (u, np.full(n, b.ly - t), b.ly * u - zt),
             (u, v, np.full(n, d.zhi + t)), (u, v, np.full(n, d.zlo - t))]
    return tuple(np.concatenate(c) for c in zip(*faces))


def test_membership_mask_matches_membership_on_every_box():
    """Point by point on every ALL_RAW box and its mirror, over a block
    where no point meets the RLT planes, a block where every point meets
    every row and cone (surface points), and points around the hull and
    just beyond its bounds."""
    rng = np.random.default_rng(149)
    no_pieces = 0
    for raw in ALL_RAW + MIRRORED_RAW:
        d, _ = hull_from_raw(raw)
        b = d.bounds
        no_pieces += not d.pieces
        above = (rng.uniform(b.lx, 1.0, _BLOCK), rng.uniform(b.ly, 1.0, _BLOCK),
                 np.full(_BLOCK, 1.5))
        sx = rng.uniform(b.lx, 1.0, 8 * _BLOCK)
        sy = rng.uniform(b.ly, 1.0, 8 * _BLOCK)
        band = (sx * sy >= d.zlo) & (sx * sy <= d.zhi)
        sx, sy = sx[band][:_BLOCK], sy[band][:_BLOCK]
        assert sx.size == _BLOCK
        beyond = _beyond_the_bounds(rng, d, 50)
        assert all((q.residual(*(c[:200] for c in beyond)) >= -FEAS_TOL).all()
                   for q in d.rlt)
        near = (np.concatenate(c)
                for c in zip(_points_near_hull(rng, d, 2000), beyond))
        x, y, z = (np.concatenate(c)
                   for c in zip(above, (sx, sy, sx * sy), near))
        mask = membership_mask(d, x, y, z)
        assert not mask[:_BLOCK].any()
        assert mask[_BLOCK:2 * _BLOCK].all()
        assert mask[2 * _BLOCK:].any() and not mask[2 * _BLOCK:].all()
        assert mask.tolist() == _membership_each(d, x, y, z)
    assert no_pieces == 2  # NoZBound and its mirror


def _full_residual(c, x, y, z):
    """SocConstraint.residual with all six terms of each part."""
    (a11, a12, a13), (a21, a22, a23) = c.A
    r1 = a11 * x + a12 * y + a13 * z + c.b[0]
    r2 = a21 * x + a22 * y + a23 * z + c.b[1]
    rhs = c.c[0] * x + c.c[1] * y + c.c[2] * z + c.d
    return rhs - np.hypot(r1, r2)


def test_array_residual_is_the_full_expression():
    """The array branch leaves out zero terms and unit products and adds
    in place; its values are the full expression's (== ignores the sign of
    a zero) for every family, mirrored too, on flat, broadcast, 0-d and
    integer input, and its input arrays are left as they were."""
    rng = np.random.default_rng(139)
    families = set()
    for raw in ALL_RAW + MIRRORED_RAW:
        d, _ = hull_from_raw(raw)
        x, y, z = _points_near_hull(rng, d, 600)
        kept = [a.copy() for a in (x, y, z)]
        for piece in d.pieces:
            c = piece.soc
            families.add(c.family)
            assert np.array_equal(c.residual(x, y, z),
                                  _full_residual(c, x, y, z))
            grid = (x[:20, None], y[None, :30], z.reshape(20, 30))
            assert np.array_equal(c.residual(*grid), _full_residual(c, *grid))
            one = [np.array(v[0]) for v in (x, y, z)]
            assert c.residual(*one) == _full_residual(c, *one)
            ints = np.arange(-3, 4)
            assert np.array_equal(c.residual(ints, ints[::-1], ints),
                                  _full_residual(c, ints, ints[::-1], ints))
        assert all(np.array_equal(a, k) for a, k in zip((x, y, z), kept))
    assert families == set(TangentFamily)


def _shell(rng, d, piece, n):
    """Points where piece applies, with z the floats at which its cone's
    residual crosses -FEAS_TOL, from 3 ulps below to 3 ulps above."""
    b = d.bounds
    x = rng.uniform(b.lx, 1.0, n)
    y = rng.uniform(b.ly, 1.0, n)
    app = piece.applicable(x, y)
    x, y = x[app], y[app]
    c = piece.soc
    lo = c.envelope_z(x, y)
    hi = lo + 1.0
    ok = (c.residual(x, y, lo) >= -FEAS_TOL) & (c.residual(x, y, hi) < -FEAS_TOL)
    x, y, lo, hi = x[ok], y[ok], lo[ok], hi[ok]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        met = c.residual(x, y, mid) >= -FEAS_TOL
        lo, hi = np.where(met, mid, lo), np.where(met, hi, mid)
    zs = [lo]
    for _ in range(3):
        zs = [np.nextafter(zs[0], -np.inf)] + zs + [np.nextafter(zs[-1], np.inf)]
    k = len(zs)
    return np.tile(x, k), np.tile(y, k), np.concatenate(zs)


def _mask_reference(d, x, y, z):
    """membership_mask written out in full: every row, predicate line and
    cone by its full expression, at every point."""
    ok = np.ones(x.shape, dtype=bool)
    for q in d.rows:
        ok &= q.residual(x, y, z) >= -FEAS_TOL
    for piece in d.pieces:
        app = np.ones(x.shape, dtype=bool)
        for hp in piece.predicate:
            app &= hp.a0 + hp.ax * x + hp.ay * y >= -BOUNDARY_TOL
        ok &= ~app | (_full_residual(piece.soc, x, y, z) >= -FEAS_TOL)
    return ok


def test_cone_verdicts_on_the_feasibility_shell():
    """Within ulps of residual = -FEAS_TOL the cheap sqrt bound cannot
    settle a cone, and np.hypot does: the verdicts are residual's, and
    membership_mask is the full expressions', on both sides of the
    shell."""
    rng = np.random.default_rng(151)
    for raw in ALL_RAW + MIRRORED_RAW:
        d, _ = hull_from_raw(raw)
        for piece in d.pieces:
            x, y, z = _shell(rng, d, piece, 400)
            fails = _cone_fails(piece.soc, x, y, z)
            assert fails.any() and not fails.all()
            assert np.array_equal(
                fails, piece.soc.residual(x, y, z) < -FEAS_TOL)
            nx, ny, nz = _points_near_hull(rng, d, 2000)
            x, y, z = (np.concatenate(p) for p in ((x, nx), (y, ny), (z, nz)))
            assert np.array_equal(membership_mask(d, x, y, z),
                                  _mask_reference(d, x, y, z))


def test_membership_mask_shapes():
    rng = np.random.default_rng(127)
    for raw in (RawBounds(0.14, 0.3, 0.1, 1, 1, 0.7),
                RawBounds(0, 0, 0.2, 1, 1, 1)):
        d, _ = hull_from_raw(raw)
        # 2-D, more points than one block
        x, y, z = (a.reshape(130, 131)
                   for a in _points_near_hull(rng, d, 130 * 131))
        mask = membership_mask(d, x, y, z)
        assert mask.shape == (130, 131)
        assert mask.ravel().tolist() == _membership_each(d, x, y, z)
        # broadcast (n, 1) x (1, m) against a full z
        xc, yr = x[:, :1], y[:1, :]
        mask = membership_mask(d, xc, yr, z)
        full = np.broadcast_arrays(xc, yr, z)
        assert mask.shape == (130, 131)
        assert mask.ravel().tolist() == _membership_each(d, *full)
        # 0-d
        for p in (Point3(0.5, 0.5, 0.2), Point3(0.5, 0.5, 0.9)):
            one = membership_mask(d, p.x, p.y, np.float64(p.z))
            assert np.ndim(one) == 0 and bool(one) == membership(d, p)
        # empty
        for shape in ((0,), (0, 3)):
            none = membership_mask(d, np.empty(shape), np.empty(shape),
                                   np.empty(shape))
            assert none.shape == shape and none.dtype == bool


def _on_predicate_lines(d, xs):
    """ys such that (x, y) lies exactly on a predicate line of d for every
    x in xs, kept where it falls inside the box."""
    b = d.bounds
    ys = [np.linspace(b.ly, 1.0, 9)]
    for piece in d.pieces:
        for hp in piece.predicate:
            if hp.ay in (1.0, -1.0):
                # value() = (a0 + ax*x) + ay*y, exactly 0 at this y
                ys.append(-hp.ay * (hp.a0 + hp.ax * xs))
    ys = np.concatenate(ys)
    return np.unique(ys[(ys >= b.ly) & (ys <= 1.0)])


def _assert_grid_matches_scalar(d, xs, ys):
    """envelope_grid against envelopes/_binding node by node; returns the
    grid and the number of nodes where pieces tie.  Both clip a node up to
    FEAS_TOL outside the box onto it; _binding reads the clipped node."""
    zmin, zmax, pid = envelope_grid(d, xs, ys)
    assert zmin.shape == zmax.shape == pid.shape == (len(xs), len(ys))
    b = d.bounds
    ties = 0
    for i, x in enumerate(xs.tolist()):
        for j, y in enumerate(ys.tolist()):
            lo, hi = envelopes(d, x, y)
            x, y = min(max(x, b.lx), 1.0), min(max(y, b.ly), 1.0)
            top, piece = _binding(d, x, y)
            assert abs(zmin[i, j] - lo) <= 1e-14
            assert abs(zmax[i, j] - hi) <= 1e-14
            if piece is None:
                assert pid[i, j] == -1
                continue
            # both keep the first of tied pieces: the very piece _binding
            # returns is the one the grid names
            assert pid[i, j] == next(k for k, pc in enumerate(d.pieces)
                                     if pc is piece)
            tied = [pc for pc in d.pieces if pc.applicable(x, y)
                    and float(pc.soc.envelope_z(x, y)) == top]
            assert tied[0] is piece
            ties += len(tied) > 1
    return (zmin, zmax, pid), ties


def test_envelope_grid_agrees_across_block_boundaries():
    # (rows, columns) whose tiles end short in both axes (129 x 130: tiles
    # of 128 and 1 rows, 128 and 2 columns; 200 x 257: 128 and 72 rows, 128,
    # 128 and 1 columns) or in one (3 x 9000: 5461 and 3539 columns)
    assert _TILE == 128 and _BLOCK // _TILE == 128
    shapes = ((129, 130), (200, 257), (3, 9000))
    d, _ = hull_from_raw(RawBounds(0.14, 0.2, 0.1, 1, 1, 0.7))
    b = d.bounds
    rng = np.random.default_rng(131)
    for rows, cols in shapes:
        xs = rng.uniform(b.lx, 1.0, rows)
        ys = rng.uniform(b.ly, 1.0, cols)
        _assert_grid_matches_scalar(d, xs, ys)


# region-a (mirrored), region-c and region-d: a general upper cone's
# discriminant falls below the clamp outside the cone's predicate
CLAMPED_RAW = [ALL_RAW[4], ALL_RAW[6], ALL_RAW[7]]


def test_grid_kernels_hold_the_clamp_only_where_a_piece_applies():
    for raw in CLAMPED_RAW:
        d, _ = hull_from_raw(raw)
        b = d.bounds
        xs = np.linspace(b.lx, 1.0, 150)
        ys = np.linspace(b.ly, 1.0, 140)
        raised = 0
        for piece in d.pieces:
            for x in xs[::7].tolist():
                for y in ys[::7].tolist():
                    if piece.applicable(x, y):
                        continue
                    try:
                        piece.soc.envelope_z(x, y)
                    except NegativeDiscriminant:
                        raised += 1
        assert raised > 0
        # the grid kernels read no piece where it does not apply
        _assert_grid_matches_scalar(d, xs, ys)
        value, err = vol_numeric(d, 512)
        assert math.isfinite(value) and math.isfinite(err)


def test_envelope_grid_on_predicate_lines_and_row_by_row():
    ties = 0
    step = 0.5 * FEAS_TOL
    # UpperOnly with a zero corner coordinate: just outside the box, the
    # discriminant of its upper cone goes negative
    for raw in ALL_RAW + [RawBounds(0, 0.3, 0, 1, 1, 0.5)]:
        d, _ = hull_from_raw(raw)
        b = d.bounds
        xs = np.linspace(b.lx, 1.0, 23)
        ys = _on_predicate_lines(d, xs)
        # nodes up to FEAS_TOL outside the box are clipped onto it
        xs = np.concatenate([[b.lx - step], xs, [1.0 + step]])
        ys = np.concatenate([[b.ly - step], ys, [1.0 + step]])
        grid, n = _assert_grid_matches_scalar(d, xs, ys)
        with pytest.raises(OutOfDomain):
            envelopes(d, b.lx - 2.0 * FEAS_TOL, 0.5)
        ties += n
        # a grid is the stack of its one-row grids, bit for bit
        rows = [envelope_grid(d, xs[i:i + 1], ys) for i in range(len(xs))]
        for k in range(3):
            assert np.array_equal(grid[k],
                                  np.concatenate([r[k] for r in rows]))
    assert ties > 0


def test_envelope_grid_empty_axes():
    d, _ = hull_from_raw(RawBounds(0.14, 0.3, 0.1, 1, 1, 0.7))
    for xs, ys in ((np.empty(0), np.linspace(0.3, 1, 4)),
                   (np.linspace(0.3, 1, 4), np.empty(0))):
        out = envelope_grid(d, xs, ys)
        assert [a.shape for a in out] == [(len(xs), len(ys))] * 3


def test_envelope_grid_rejects_non_finite_axes():
    # as envelopes and membership_mask do; finite values are still clipped
    d, _ = hull_from_raw(RawBounds(0.14, 0.3, 0.1, 1, 1, 0.7))
    b = d.bounds
    good = np.linspace(0.3, 1, 4)
    for bad in (np.nan, np.inf, -np.inf):
        axis = np.array([0.5, bad])
        for xs, ys in ((axis, good), (good, axis)):
            with pytest.raises(OutOfDomain):
                envelope_grid(d, xs, ys)
    far = envelope_grid(d, np.array([-1e300, 1e300]), good)
    edge = envelope_grid(d, np.array([b.lx, 1.0]), good)
    for got, want in zip(far, edge):
        assert np.array_equal(got, want)


def test_scalar_and_array_branches_agree():
    # float input goes through math, arrays and 0-d input through numpy;
    # math.hypot and np.hypot may round one ulp apart
    rng = np.random.default_rng(137)
    for raw in ALL_RAW:
        d, _ = hull_from_raw(raw)
        b = d.bounds
        x, y, z = _points_near_hull(rng, d, 200)
        inside = (x >= b.lx) & (x <= 1.0) & (y >= b.ly) & (y <= 1.0)
        for piece in d.pieces:
            c = piece.soc
            res = c.residual(x, y, z)
            norm = c.c[0] * x + c.c[1] * y + c.c[2] * z + c.d - res
            app = piece.applicable(x, y)
            env_at = app & inside
            env = c.envelope_z(x[env_at], y[env_at])
            k = 0
            for i, p in enumerate(zip(x.tolist(), y.tolist(), z.tolist())):
                r = c.residual(*p)
                assert type(r) is float
                ulps = np.spacing(abs(norm[i])) + np.spacing(abs(res[i]))
                assert abs(r - res[i]) <= ulps
                assert c.residual(*map(np.array, p)) == res[i]
                a = piece.applicable(p[0], p[1])
                assert type(a) is bool and a == app[i]
                assert piece.applicable(np.array(p[0]), np.array(p[1])) \
                    == app[i]
                if env_at[i]:
                    for e in (c.envelope_z(p[0], p[1]),
                              c.envelope_z(np.array(p[0]), np.array(p[1]))):
                        assert type(e) is float
                        assert abs(e - env[k]) <= np.spacing(abs(env[k]))
                    k += 1
            assert k == len(env)
