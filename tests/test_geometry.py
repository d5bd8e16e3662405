"""Bounds handling: validation, normalization, tightening, rescaling."""

import contextlib
import io
import math
import random
import sys
from collections import Counter

import numpy as np
import pytest

from _boxes import raw_box
from bilinear_hull import (
    BilinearHullError,
    DegenerateBounds,
    InfeasibleBounds,
    LinearInequality,
    NormalizedBounds,
    OutOfDomain,
    Point3,
    RawBounds,
    Scaling,
    describe,
    hull_from_raw,
    membership,
    normalize,
    tighten_with_scaling,
)
from test_hull import ALL_RAW, MIRRORED_RAW


def test_raw_bounds_validation():
    RawBounds(0, 0, 0, 1, 1, 1)  # fine
    with pytest.raises(InfeasibleBounds):
        RawBounds(2, 0, 0, 1, 1, 1)  # lx > ux
    with pytest.raises(InfeasibleBounds):
        RawBounds(0, 0, 0.9, 1, 1, 0.2)  # lz > uz
    with pytest.raises(InfeasibleBounds):
        RawBounds(-0.1, 0, 0, 1, 1, 1)  # negative lower corner
    # nonempty surface requires lx*ly <= uz and lz <= ux*uy
    with pytest.raises(InfeasibleBounds):
        RawBounds(0.8, 0.9, 0, 1, 1, 0.5)
    with pytest.raises(InfeasibleBounds):
        RawBounds(0, 0, 1.5, 1, 1, 2.0)


def test_normalize_examples():
    b, s = normalize(RawBounds(1.0, 0.6, 1.0, 2.0, 2.0, 3.0))
    assert s == Scaling(2.0, 2.0)
    assert s.sz == 4.0
    # lz/sz = 0.25, uz capped at min(3/4, 1)
    assert b == NormalizedBounds(0.5, 0.3, 0.25, 0.75)

    b, s = normalize(RawBounds(0, 0, 0, 1, 1, 0.4))
    assert s == Scaling(1.0, 1.0)
    assert b == NormalizedBounds(0.0, 0.0, 0.0, 0.4)


def test_normalize_caps_z_range():
    # uz above ux*uy is slack: capped to 1 after scaling
    b, _ = normalize(RawBounds(0, 0, 0, 2, 3, 100.0))
    assert b.uz == 1.0
    # lz below lx*ly is slack: floored at lx*ly
    b, _ = normalize(RawBounds(1.0, 1.0, 0.1, 2.0, 2.0, 4.0))
    assert b.lz == 0.25
    # raised to the corner value, lz meets uz: no body is left
    with pytest.raises(InfeasibleBounds, match="collapses"):
        normalize(RawBounds(0.5, 0.5, 0, 1, 1, 0.25))


def test_normalized_bounds_invariants():
    with pytest.raises(InfeasibleBounds):
        NormalizedBounds(0.5, 0.5, 0.1, 1.0)  # lz < lx*ly
    with pytest.raises(InfeasibleBounds):
        NormalizedBounds(0.0, 0.0, 0.8, 0.4)  # lz > uz
    b = NormalizedBounds(0.0, 0.0, 0.2, 0.7)
    assert not b.lower_trivial and not b.upper_trivial
    assert NormalizedBounds(0, 0, 0, 0.4).lower_trivial
    assert NormalizedBounds(0.5, 0.3, 0.3, 1.0).upper_trivial


def test_swapped_exchanges_x_and_y():
    b = NormalizedBounds(0.32, 0.28, 0.1, 0.7)
    sw = b.swapped()
    assert (sw.lx, sw.ly, sw.lz, sw.uz) == (0.28, 0.32, 0.1, 0.7)
    assert sw.swapped() == b


def test_scaling_round_trip():
    s = Scaling(2.0, 3.0)
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = Point3(*rng.uniform(0.1, 5.0, size=3))
        q = s.to_raw(s.to_normalized(p))
        assert abs(q.x - p.x) <= 1e-12 * p.x
        assert abs(q.y - p.y) <= 1e-12 * p.y
        assert abs(q.z - p.z) <= 1e-12 * p.z


def test_to_normalized_names_an_overflow_of_the_scaling():
    s = Scaling(1e-300, 1.0)
    with pytest.raises(OutOfDomain, match="overflows under the scaling"):
        s.to_normalized(Point3(1e10, 0.5, 0.5))
    # non-finite input is passed on, for the queries to reject as such
    assert math.isinf(s.to_normalized(Point3(math.inf, 0.5, 0.5)).x)


def test_inequality_to_raw_names_an_overflow_of_the_scaling():
    s = Scaling(1e-160, 1e-160)  # sz = 1e-320, a subnormal
    q = LinearInequality(-1.0, 1.0, 1.0, -1.0, "rlt_upper_x")
    with pytest.raises(OutOfDomain, match="inequality overflows"):
        s.inequality_to_raw(q)
    r = Scaling(2.0, 0.5).inequality_to_raw(q)
    assert (r.a0, r.ax, r.ay, r.az, r.label) == (-1.0, 0.5, 2.0, -1.0,
                                                 "rlt_upper_x")


def test_scaling_compose():
    outer = Scaling(2.0, 3.0)
    inner = Scaling(0.5, 0.25)
    both = outer.compose(inner)
    p = Point3(0.3, 0.4, 0.12)
    via_two = outer.to_raw(inner.to_raw(p))
    via_one = both.to_raw(p)
    assert abs(via_one.x - via_two.x) <= 1e-15
    assert abs(via_one.y - via_two.y) <= 1e-15
    assert abs(via_one.z - via_two.z) <= 1e-15


def test_normalize_preserves_surface():
    # z = x*y raw maps to z = x*y normalized because sz = sx*sy
    rng = np.random.default_rng(3)
    raw = RawBounds(0.5, 0.2, 0.0, 4.0, 2.5, 10.0)
    b, s = normalize(raw)
    for _ in range(1000):
        x = rng.uniform(raw.lx, raw.ux)
        y = rng.uniform(raw.ly, raw.uy)
        p = s.to_normalized(Point3(x, y, x * y))
        assert abs(p.z - p.x * p.y) <= 1e-14


def test_tighten_examples():
    # z >= 0.2 with y <= 1 forces x >= 0.2; same for y
    t = tighten_with_scaling(NormalizedBounds(0.1, 0.1, 0.2, 1.0))[0]
    assert t == NormalizedBounds(0.2, 0.2, 0.2, 1.0)
    # already tight: unchanged
    b = NormalizedBounds(0.5, 0.3, 0.3, 1.0)
    assert tighten_with_scaling(b)[0] == b
    b = NormalizedBounds(0.0, 0.0, 0.0, 0.4)
    assert tighten_with_scaling(b)[0] == b


def test_tighten_rescales_when_upper_bound_caps_a_side():
    # ly = 0.5 with uz = 0.3 forces x <= 0.6; rescaling restores ux = 1
    t, s = tighten_with_scaling(NormalizedBounds(0.0, 0.5, 0.2, 0.3))
    assert abs(s.sx - 0.6) <= 1e-15
    assert s.sy == 1.0
    assert abs(t.lx - (0.2 / 0.6)) <= 1e-15
    assert t.ly == 0.5
    assert abs(t.lz - (0.2 / 0.6)) <= 1e-15
    assert abs(t.uz - 0.5) <= 1e-15


def test_tighten_is_idempotent():
    rng = np.random.default_rng(11)
    count = 0
    for _ in range(500):
        lx, ly = rng.uniform(0, 0.8, size=2)
        lz = rng.uniform(lx * ly, 1.0)
        uz = rng.uniform(lz, 1.0)
        if uz - lz < 1e-3:
            continue
        try:
            b = NormalizedBounds(lx, ly, lz, uz)
        except InfeasibleBounds:
            continue
        try:
            t = tighten_with_scaling(b)[0]
        except InfeasibleBounds:
            continue
        count += 1
        assert t.is_tightened()
        assert tighten_with_scaling(t) == (t, Scaling(1.0, 1.0))
        # tightened bounds keep the lower corner inside the z band
        assert t.lx >= t.lz - 1e-12 and t.lx <= t.uz + 1e-12
        assert t.ly >= t.lz - 1e-12 and t.ly <= t.uz + 1e-12
    assert count > 200


def test_tighten_preserves_surface_points():
    """Surface points of the input box map onto the tightened box surface."""
    rng = np.random.default_rng(19)
    cases = [
        NormalizedBounds(0.1, 0.1, 0.2, 1.0),
        NormalizedBounds(0.0, 0.5, 0.2, 0.3),
        NormalizedBounds(0.0, 0.0, 0.3, 0.6),
    ]
    for b in cases:
        t, s = tighten_with_scaling(b)
        kept = 0
        for _ in range(1000):
            x = rng.uniform(b.lx, 1.0)
            y = rng.uniform(b.ly, 1.0)
            z = x * y
            if not (b.lz <= z <= b.uz):
                continue
            kept += 1
            p = s.to_normalized(Point3(x, y, z))
            assert t.lx - 1e-12 <= p.x <= 1.0 + 1e-12
            assert t.ly - 1e-12 <= p.y <= 1.0 + 1e-12
            assert t.lz - 1e-12 <= p.z <= t.uz + 1e-12
            assert abs(p.z - p.x * p.y) <= 1e-14
        assert kept > 100


def test_raw_bounds_reject_non_finite():
    for bad in (math.inf, math.nan):
        with pytest.raises(InfeasibleBounds, match="finite"):
            RawBounds(0, 0, 0, bad, 1, 1)
        with pytest.raises(InfeasibleBounds, match="finite"):
            RawBounds(0, 0, 0, 1, 1, bad)
    with pytest.raises(InfeasibleBounds, match="finite"):
        RawBounds(0, 0, -math.inf, 1, 1, 1)


# uz/ly of this box sits one ulp under 1 after the tightening pass, and a
# rescaling by that ratio would leave it there: tightening again must count
# it as roundoff, not as a shrink
ROUNDOFF_BOX = RawBounds(0.3276705387104378, 0.43411562216305305,
                         0.14234243155401288, 1.0, 1.0, 0.20572509825365426)


def test_tightening_settles_when_the_shrink_is_roundoff():
    nb, _ = normalize(ROUNDOFF_BOX)
    t, s = tighten_with_scaling(nb)
    assert t.is_tightened()
    assert tighten_with_scaling(t)[0] == t
    d, sc = hull_from_raw(ROUNDOFF_BOX)
    rng = np.random.default_rng(3)
    kept = 0
    for _ in range(2000):
        x = rng.uniform(ROUNDOFF_BOX.lx, 1.0)
        y = rng.uniform(ROUNDOFF_BOX.ly, 1.0)
        if not ROUNDOFF_BOX.lz <= x * y <= ROUNDOFF_BOX.uz:
            continue
        kept += 1
        assert membership(d, sc.to_normalized(Point3(x, y, x * y)))
    assert kept > 50


def test_normalize_snaps_roundoff_uz_to_the_trivial_bound():
    # 1e-16 / (1e-8 * 1e-8) rounds to one ulp under 1
    raw = RawBounds(0, 0, 0, 1e-8, 1e-8, 1e-16)
    nb, _ = normalize(raw)
    assert nb.uz == 1.0 and nb.upper_trivial
    d, _ = hull_from_raw(raw)
    assert d.case.region.value == "NoZBound"
    assert d.pieces == ()


@pytest.mark.parametrize("raw", [
    # ux*uy underflows to zero in normalize
    RawBounds(0, 0, 0, 1e-200, 1e-200, 1),
    # the composed scaling of normalize and tighten underflows
    RawBounds(0.0, 8.89705372918402e+68, 6.606960548818092e-267,
              1.1042977718659316e-277, 1.0935286759350145e+164,
              1.1422879022368564e-261),
])
def test_underflowing_scale_factors_raise_degenerate_bounds(raw):
    with pytest.raises(DegenerateBounds):
        hull_from_raw(raw)


# lz and uz of this box are one ulp apart; normalization keeps them apart,
# and the tightening pass, which rescales z by 1/(ax*ay), rounds them
# together
COLLAPSING_BOX = ("0.35835001880970857", "0.5077764142155341",
                  "0.35835001880970857", "1", "1", "0.3583500188097086")


def test_tightening_that_collapses_the_z_range_is_infeasible():
    from bilinear_hull import cli
    raw = RawBounds(*map(float, COLLAPSING_BOX))
    nb, _ = normalize(raw)
    assert nb.lz < nb.uz
    for call in (lambda: tighten_with_scaling(nb), lambda: hull_from_raw(raw)):
        with pytest.raises(InfeasibleBounds) as e:
            call()
        assert str(e.value) == "bound tightening collapsed the z range"
    out, err = io.StringIO(), io.StringIO()
    args = [a for k, v in zip(("lx", "ly", "lz", "ux", "uy", "uz"),
                              COLLAPSING_BOX) for a in ("--" + k, v)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["describe", *args]) == 3
    assert out.getvalue() == ""
    assert err.getvalue() == (
        "infeasible bounds: bound tightening collapsed the z range\n")


def test_a_tightened_corner_sits_at_most_two_ulps_above_uz():
    """In exact arithmetic the pass leaves lx, ly <= uz: it rescales x by
    ax = uz/ly, so the implied bound x <= uz/ly becomes x <= 1.  The pass
    rounds ax, ay, the divisions by them and their product, and a tightened
    lx or ly can sit above the tightened uz.  Pinned: on 20,000 seeded raw
    boxes (corners up to 0.9, widths up to 2) by 1 ulp or 2, both of which
    occur, and never by more.  is_tightened allows BOUNDARY_TOL there, so
    the box counts as tightened and tightening it again is the identity."""
    rng = random.Random(5)
    above = Counter()
    for _ in range(20_000):
        lx, ly = rng.uniform(0.0, 0.9), rng.uniform(0.0, 0.9)
        ux, uy = lx + rng.uniform(0.01, 2.0), ly + rng.uniform(0.01, 2.0)
        lz = rng.uniform(0.0, ux * uy)
        uz = rng.uniform(max(lz, lx * ly), ux * uy)
        try:
            t, _ = tighten_with_scaling(
                normalize(RawBounds(lx, ly, lz, ux, uy, uz))[0])
        except BilinearHullError:
            continue
        for v in (t.lx, t.ly):
            ulps, w = 0, t.uz
            while w < v:
                w, ulps = math.nextafter(w, math.inf), ulps + 1
            above[ulps] += 1
            if ulps:
                assert t.is_tightened()
                assert tighten_with_scaling(t) == (t, Scaling(1.0, 1.0))
    assert sorted(above) == [0, 1, 2], above
    assert above[0] > 0.95 * sum(above.values())


def test_point3_astuple():
    assert Point3(0.1, 0.2, 0.3).astuple() == (0.1, 0.2, 0.3)


def _chain(raw):
    """hull_from_raw written out as its public steps."""
    nb, sc1 = normalize(raw)
    tb, sc2 = tighten_with_scaling(nb)
    return describe(tb), sc2.compose(sc1)


def _outcome(build, raw):
    """("ok", the bounds and scale factors by float.hex, the description),
    or the exception class and message that build(raw) raised."""
    try:
        d, sc = build(raw)
    except BilinearHullError as e:
        return type(e), str(e)
    b = d.bounds
    return "ok", tuple(map(float.hex, (b.lx, b.ly, b.lz, b.uz, sc.sx, sc.sy))), d


# two boxes whose outcome the seeded sweep rarely draws: the final box's
# 0 <= lx < 1 check fails, and the tightening pass collapses the z range
RARE_RAW = [
    (1.0230361177009169e-10, 8.841894686886554e-244, 9.045577613592783e-254,
     9.92004514650646e+183, 8.321739090516305e-241, 9.045577613592784e-254),
    tuple(map(float, COLLAPSING_BOX)),
]

SCALES = (1.0, 3.7e-7, 6.1e5, 1e-150, 1e150, 2.0 ** -1000)


def _scaled(r, sx, sy):
    return (r.lx * sx, r.ly * sy, r.lz * sx * sy, r.ux * sx, r.uy * sy,
            r.uz * sx * sy)


def test_hull_from_raw_is_its_public_chain():
    """hull_from_raw gives, bit for bit, what normalize, then
    tighten_with_scaling, then describe give with sc2.compose(sc1) as the
    scaling, or raises the same exception with the same message, on 20,000
    seeded raw_box draws, the ALL_RAW boxes and their mirrors at raw scales
    across 10^+-300, and the two rare boxes."""
    rng = random.Random(30)
    boxes = [raw_box(rng) for _ in range(20_000)]
    boxes += [_scaled(r, sx, sy) for r in ALL_RAW + MIRRORED_RAW
              for sx in SCALES for sy in SCALES]
    seen = Counter()
    for box in boxes + RARE_RAW:
        try:
            raw = RawBounds(*box)
        except InfeasibleBounds:
            continue
        got = _outcome(hull_from_raw, raw)
        assert got == _outcome(_chain, raw), box
        seen["ok" if got[0] == "ok" else got[1]] += 1
    assert set(seen) == {
        "ok", "ux*uy underflows to zero", "ux*uy overflows the float range",
        "z range collapses to a point after normalization",
        "the composed scale factors underflow",
        "bound tightening collapsed the z range",
        "need 0 <= lx < 1 and 0 <= ly < 1"}, seen


def test_hull_from_raw_builds_one_bounds_and_one_scaling():
    """One NormalizedBounds and one Scaling per call, whether or not the
    tightening pass moves the box: the steps before them run on floats."""
    watched = {NormalizedBounds.__new__.__code__: "NormalizedBounds",
               Scaling.__new__.__code__: "Scaling"}
    shrunk = RawBounds(0.0, 0.5, 0.1, 1.0, 1.0, 0.3)  # x <= uz/ly = 0.6
    assert tighten_with_scaling(normalize(shrunk)[0])[1].sx == 0.6
    for raw in ALL_RAW + [shrunk]:
        built = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                built[watched[frame.f_code]] += 1

        sys.setprofile(profile)
        try:
            hull_from_raw(raw)
        finally:
            sys.setprofile(None)
        assert built == {"NormalizedBounds": 1, "Scaling": 1}, (raw, built)
