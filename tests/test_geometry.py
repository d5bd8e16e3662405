"""Bounds handling: validation, normalization, tightening, rescaling."""

import contextlib
import io
import math
import random
from collections import Counter

import numpy as np
import pytest

from bilinear_hull import (
    BilinearHullError,
    DegenerateBounds,
    InfeasibleBounds,
    NormalizedBounds,
    Point3,
    RawBounds,
    Scaling,
    hull_from_raw,
    membership,
    normalize,
    tighten,
    tighten_with_scaling,
)


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
    t = tighten(NormalizedBounds(0.1, 0.1, 0.2, 1.0))
    assert t == NormalizedBounds(0.2, 0.2, 0.2, 1.0)
    # already tight: unchanged
    b = NormalizedBounds(0.5, 0.3, 0.3, 1.0)
    assert tighten(b) == b
    b = NormalizedBounds(0.0, 0.0, 0.0, 0.4)
    assert tighten(b) == b


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
            t = tighten(b)
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
    assert tighten(t) == t
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
