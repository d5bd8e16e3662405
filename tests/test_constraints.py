"""Cone and cut algebra: RLT planes, cone families, envelopes, tangents."""

import math
import sys

import numpy as np
import pytest

from bilinear_hull import (
    DegenerateBounds,
    LinearInequality,
    NegativeDiscriminant,
    NormalizedBounds,
    OutOfDomain,
    Point3,
    RawBounds,
    TangentFamily,
    hull_from_raw,
    lifted_tangent,
    rlt,
    soc_center,
    soc_lower,
    soc_sides,
    soc_upper_general,
    soc_upper_zero,
    tighten_with_scaling,
)
from bilinear_hull.constraints import _side
from bilinear_hull.hull import _projection_alpha

from _reference import Psd2, lower_quadratic_form, side_quadratic_forms


def _surface_band(rng, b, n):
    """n random box points with lz <= x*y <= uz, by conditional sampling."""
    xs = np.empty(n)
    ys = np.empty(n)
    got = 0
    while got < n:
        x = rng.uniform(max(b.lx, 1e-9), 1.0)
        ylo = max(b.ly, b.lz / x)
        yhi = min(1.0, b.uz / x)
        if ylo > yhi:
            continue
        xs[got] = x
        ys[got] = rng.uniform(ylo, yhi)
        got += 1
    return xs, ys


# ---------------------------------------------------------------- RLT planes


def test_rlt_coefficients():
    b = NormalizedBounds(0.5, 0.3, 0.3, 1.0)
    planes = rlt(b)
    assert [q.label for q in planes] == [
        "rlt_lower_ones", "rlt_lower_corner", "rlt_upper_x", "rlt_upper_y"]
    got = [(q.a0, q.ax, q.ay, q.az) for q in planes]
    assert got[0] == (1.0, -1.0, -1.0, 1.0)
    assert got[1] == (0.15, -0.3, -0.5, 1.0)
    assert got[2] == (-0.5, 1.0, 0.5, -1.0)
    assert got[3] == (-0.3, 0.3, 1.0, -1.0)


def test_rlt_residuals_are_bound_products():
    # each plane is a product of two slacks expanded over z = xy
    rng = np.random.default_rng(5)
    b = NormalizedBounds(0.2, 0.1, 0.05, 0.9)
    p1, p2, p3, p4 = rlt(b)
    for _ in range(500):
        x = rng.uniform(b.lx, 1.0)
        y = rng.uniform(b.ly, 1.0)
        z = x * y
        assert abs(p1.residual(x, y, z) - (1 - x) * (1 - y)) <= 1e-12
        assert abs(p2.residual(x, y, z) - (x - b.lx) * (y - b.ly)) <= 1e-12
        assert abs(p3.residual(x, y, z) - (x - b.lx) * (1 - y)) <= 1e-12
        assert abs(p4.residual(x, y, z) - (1 - x) * (y - b.ly)) <= 1e-12


# ------------------------------------------------------------- cone algebra


def test_lower_quadratic_form():
    m = lower_quadratic_form(0.2)
    assert (m.m11, m.m12, m.m22) == (1.0, -0.6, 1.0)
    lo, hi = sorted(m.eigenvalues())
    assert abs(lo - 0.4) <= 1e-15 and abs(hi - 1.6) <= 1e-15
    assert abs(m.det - 4 * 0.2 * 0.8) <= 1e-15


def test_side_quadratic_forms():
    m1, m2 = side_quadratic_forms(0.2, 0.7)
    for got, want in zip((m1.m11, m1.m12, m1.m22), (0.49, -0.3, 1.0)):
        assert abs(got - want) <= 1e-15
    for got, want in zip((m2.m11, m2.m12, m2.m22), (1.0, -0.3, 0.49)):
        assert abs(got - want) <= 1e-15
    assert abs(m1.det - 0.4) <= 1e-15  # 4*lz*(uz - lz) = 0.4
    assert abs(m2.det - 0.4) <= 1e-15


def test_quadratic_forms_stay_psd():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        lz = rng.uniform(0.0, 1.0)
        uz = rng.uniform(lz + 1e-6, 1.0)
        assert lower_quadratic_form(lz).det >= -1e-15
        m1, m2 = side_quadratic_forms(lz, uz)
        assert m1.det >= -1e-15 and m1.m11 >= 0.0
        assert m2.det >= -1e-15 and m2.m11 >= 0.0


def test_psd2_rejects_indefinite():
    with pytest.raises(ValueError):
        Psd2(1.0, 2.0, 1.0)  # det < 0
    Psd2(1.0, 1.0, 1.0)


def test_psd2_cholesky_reconstructs():
    m = Psd2(0.49, -0.3, 1.0)
    (r11, r12), (_, r22) = m.cholesky_rows()
    assert abs(r11 * r11 - m.m11) <= 1e-15
    assert abs(r11 * r12 - m.m12) <= 1e-15
    assert abs(r12 * r12 + r22 * r22 - m.m22) <= 1e-15


# ----------------------------------------------------------- envelope values


def test_envelope_pins():
    # lower cone at (0.6, 0.6), lz = 0.2: (1.2 - sqrt(0.128))/2
    v = soc_lower(0.2).envelope_z(0.6, 0.6)
    assert abs(v - (1.2 - math.sqrt(0.128)) / 2) <= 1e-15
    assert abs(v - 0.4211145618000168) <= 1e-12

    # center cone at the (1, 1) corner
    v = soc_center(0.2, 0.7).envelope_z(1.0, 1.0)
    expect = math.sqrt(0.2) + math.sqrt(0.7) - math.sqrt(0.14)
    assert abs(v - expect) <= 1e-15
    assert abs(v - 0.9097078834) <= 1e-9

    v = soc_upper_zero(0.4).envelope_z(0.5, 0.5)
    assert abs(v - math.sqrt(0.4 * 0.25)) <= 1e-15


def test_envelope_solves_the_cone_equation():
    """envelope_z returns the z making the cone residual vanish."""
    rng = np.random.default_rng(31)
    uz = 0.7
    sx_cone, sy_cone = soc_sides(0.2, uz)
    # each cone with an (x range, y range given x) window inside its domain
    cases = [
        (soc_lower(0.2), (0.05, 1.0), lambda x: (0.05, 1.0)),
        (soc_center(0.2, uz), (0.05, 1.0), lambda x: (0.05, 1.0)),
        (soc_upper_zero(uz), (0.0, 1.0), lambda x: (0.0, 1.0)),
        (sx_cone, (0.1, 1.0), lambda x: (0.0, uz * x)),
        (sy_cone, (0.0, uz), lambda x: (x / uz, 1.0)),
        (soc_upper_general(0.25, 0.4, uz), (0.25, 1.0), lambda x: (0.4, 1.0)),
    ]
    for c, xwin, ywin in cases:
        for _ in range(300):
            x = rng.uniform(*xwin)
            ylo, yhi = ywin(x)
            y = rng.uniform(ylo, yhi)
            zs = c.envelope_z(x, y)
            assert abs(c.residual(x, y, zs)) <= 1e-12
            # all families cap z from above: slack below, violated above
            assert c.residual(x, y, zs - 1e-6) > 0
            assert c.residual(x, y, zs + 1e-6) < 0


def test_envelope_rejects_negative_discriminant():
    with pytest.raises(NegativeDiscriminant):
        soc_upper_zero(0.4).envelope_z(-0.5, 0.5)


def test_upper_general_matches_product_inequality():
    """Cone membership == the defining product-form inequality."""
    lx, ly, uz = 0.25, 0.4, 0.7
    c = soc_upper_general(lx, ly, uz)
    rng = np.random.default_rng(41)
    for _ in range(10000):
        x, y = rng.uniform(0.0, 1.0, size=2)
        z = rng.uniform(-0.2, 1.2)
        p = uz * (x - lx) + lx * (z - ly * x)
        q = uz * (y - ly) + ly * (z - lx * y)
        alg = p + q >= 0 and p * q >= uz * (z - lx * ly) ** 2
        soc = c.residual(x, y, z) >= 0
        if abs(c.residual(x, y, z)) > 1e-12:
            assert soc == alg


def _same_cone(c1, c2):
    return c1.A == c2.A and c1.b == c2.b and c1.c == c2.c and c1.d == c2.d


def test_degenerate_reductions():
    # lz = 0 collapses the center cone onto the zero-corner upper cone
    # (family tag stays CENTER; the matrices coincide)
    assert _same_cone(soc_center(0.0, 0.7), soc_upper_zero(0.7))
    # lx = ly = 0 delegates outright
    assert soc_upper_general(0.0, 0.0, 0.7) == soc_upper_zero(0.7)
    # uz = 1 turns both side cones into the lower cone
    s1, s2 = soc_sides(0.2, 1.0)
    assert _same_cone(s1, soc_lower(0.2))
    assert _same_cone(s2, soc_lower(0.2))


def test_soc_constructor_domains():
    with pytest.raises(DegenerateBounds):
        soc_upper_general(0.8, 0.9, 0.5)  # uz <= lx*ly
    with pytest.raises(DegenerateBounds):
        soc_center(0.5, 0.4)
    with pytest.raises(DegenerateBounds):
        soc_lower(1.2)
    with pytest.raises(DegenerateBounds):
        soc_upper_zero(0.0)
    with pytest.raises(DegenerateBounds):
        soc_upper_general(-0.1, 0.2, 0.5)
    with pytest.raises(DegenerateBounds):
        soc_sides(0.5, 0.5)
    with pytest.raises(DegenerateBounds):
        Psd2(0.0, 0.0, 1.0).cholesky_rows()


def test_mirrored_swaps_x_and_y():
    rng = np.random.default_rng(43)
    for c in [soc_center(0.2, 0.7), soc_sides(0.2, 0.7)[0],
              soc_upper_general(0.25, 0.4, 0.7)]:
        m = c.mirrored()
        for _ in range(200):
            x, y = rng.uniform(0.0, 1.0, size=2)
            z = rng.uniform(0.0, 1.0)
            assert abs(m.residual(x, y, z) - c.residual(y, x, z)) <= 1e-15
    sx, sy = soc_sides(0.2, 0.7)
    assert sx.mirrored().family is TangentFamily.SIDE_Y
    assert sy.mirrored().family is TangentFamily.SIDE_X


# ------------------------------------------ closed forms against the algebra


def _hex(A, b, c, d):
    """A cone's floats as float.hex strings, so that 0.0 and -0.0 differ."""
    return ([[v.hex() for v in row] for row in A], [v.hex() for v in b],
            [v.hex() for v in c], d.hex())


def _cone_hex(s):
    return _hex(s.A, s.b, s.c, s.d)


def _hat_route(m, xhat, yhat, c):
    """sqrt((xhat, yhat) M (xhat, yhat)') <= c'v with affine hats
    h = h0 + hcoef*t, written through the Cholesky rows of M."""
    (l11, l12), (_, l22) = m.cholesky_rows()
    (x0, xcoef), (y0, ycoef) = xhat, yhat
    return _hex(((l11 * xcoef, l12 * ycoef, 0.0), (0.0, l22 * ycoef, 0.0)),
                (l11 * x0 + l12 * y0, l22 * y0), c, 0.0)


def _rotated_route(w, w0, p, p0, q, q0, swapped):
    """p*q >= w^2 with p, q >= 0, as ||(2w, p - q)|| <= p + q; swapped
    interchanges the x and y columns of A and entries of c."""
    A = (tuple(2.0 * v for v in w), tuple(pv - qv for pv, qv in zip(p, q)))
    c = tuple(pv + qv for pv, qv in zip(p, q))
    if swapped:
        A = tuple((r[1], r[0], r[2]) for r in A)
        c = (c[1], c[0], c[2])
    return _hex(A, (2.0 * w0, p0 - q0), c, p0 + q0)


def _mirror_hex(h):
    A, b, c, d = h
    return [[r[1], r[0], r[2]] for r in A], b, [c[1], c[0], c[2]], d


def _closed_form_grid():
    """(lz, uz) pairs with lz = 0, uz = 1, lz one ulp below uz, tiny
    and mid-range values, plus random draws."""
    uzs = (1e-6, 0.3, 0.5, 0.7, math.nextafter(1.0, 0.0), 1.0)
    pairs = []
    for uz in uzs:
        for lz in (0.0, 1e-300, 1e-3 * uz, 0.25 * uz, 0.5 * uz, 0.9 * uz,
                   math.nextafter(uz, 0.0)):
            if 0.0 <= lz < uz:
                pairs.append((lz, uz))
    rng = np.random.default_rng(61)
    for _ in range(200):
        uz = rng.uniform(1e-3, 1.0)
        pairs.append((rng.uniform(0.0, uz), uz))
    return pairs


def test_closed_form_cones_match_the_cholesky_route():
    for lz, uz in _closed_form_grid():
        lower = _hat_route(lower_quadratic_form(lz), (1.0, -1.0),
                           (1.0, -1.0), (1.0, 1.0, -2.0))
        assert _cone_hex(soc_lower(lz)) == lower
        m1, m2 = side_quadratic_forms(lz, uz)
        sx = _hat_route(m1, (1.0, -1.0), (uz, -1.0), (uz, 1.0, -2.0))
        sy = _hat_route(m2, (uz, -1.0), (1.0, -1.0), (1.0, uz, -2.0))
        assert [_cone_hex(s) for s in soc_sides(lz, uz)] == [sx, sy]
        for family, ref in ((TangentFamily.SIDE_X, sx),
                            (TangentFamily.SIDE_Y, sy)):
            assert _cone_hex(_side({"lz": lz, "uz": uz}, family, True)) \
                == _mirror_hex(ref)
        r = math.sqrt(lz * uz)
        ss = lz + uz + 2.0 * r
        for swapped in (False, True):
            assert _cone_hex(soc_center(lz, uz, swapped)) == _rotated_route(
                (0.0, 0.0, 1.0), r, (ss, 0.0, 0.0), 0.0, (0.0, 1.0, 0.0),
                0.0, swapped)


def test_closed_form_upper_cones_match_the_rotated_route():
    for lz, uz in _closed_form_grid():
        # (lx, ly) = (lz, uz) as a corner pair, its mirror, and corners on
        # the axes; lx*ly < uz holds for each
        for lx, ly in ((0.0, 0.0), (lz, 0.0), (0.0, lz), (lz, uz),
                       (uz, lz), (lz, lz)):
            if not lx * ly < uz:
                continue
            for swapped in (False, True):
                got = _cone_hex(soc_upper_general(lx, ly, uz, swapped))
                if lx == 0.0 and ly == 0.0:
                    ref = _rotated_route((0.0, 0.0, 1.0), 0.0,
                                         (uz, 0.0, 0.0), 0.0,
                                         (0.0, 1.0, 0.0), 0.0, swapped)
                    assert _cone_hex(soc_upper_zero(uz, swapped)) == ref
                else:
                    g, ru = uz - lx * ly, math.sqrt(uz)
                    ref = _rotated_route((0.0, 0.0, ru), -ru * lx * ly,
                                         (g, 0.0, lx), -uz * lx,
                                         (0.0, g, ly), -uz * ly, swapped)
                assert got == ref, (lx, ly, uz, swapped)


def test_a_side_cone_whose_uz_squared_underflows_is_degenerate():
    # the Cholesky route stops at m11 = uz*uz = 0, before dividing by it
    with pytest.raises(DegenerateBounds, match="m11 > 0"):
        soc_sides(0.0, 1e-170)
    with pytest.raises(DegenerateBounds, match="m11 > 0"):
        side_quadratic_forms(0.0, 1e-170)[0].cholesky_rows()
    # a subnormal uz*uz is as degenerate: the SideX factor it leaves
    # would fail its discriminant clamp, so neither family builds a cone
    built = degenerate = 0
    for uz in np.logspace(-170, -150, 2001).tolist():
        for lz in (0.0, uz / 4):
            for family in (TangentFamily.SIDE_X, TangentFamily.SIDE_Y):
                for swapped in (False, True):
                    try:
                        _side({"lz": lz, "uz": uz}, family, swapped)
                        built += 1
                    except DegenerateBounds:
                        degenerate += 1
                        assert uz * uz < sys.float_info.min
    assert built and degenerate


# --------------------------------------------- validity on the surface z = xy


def test_cones_valid_on_their_surface_regions():
    lz, uz = 0.2, 0.7
    rng = np.random.default_rng(47)
    b = NormalizedBounds(0.0, 0.0, lz, uz)
    xs, ys = _surface_band(rng, b, 4000)
    zs = xs * ys

    r = soc_lower(lz).residual(xs, ys, zs)
    assert np.min(r) >= -1e-12
    r = soc_center(lz, uz).residual(xs, ys, zs)
    assert np.min(r) >= -1e-12
    r = soc_upper_zero(uz).residual(xs, ys, zs)
    assert np.min(r) >= -1e-12

    sx, sy = soc_sides(lz, uz)
    in_x = ys <= uz * xs
    assert np.min(sx.residual(xs[in_x], ys[in_x], zs[in_x])) >= -1e-12
    in_y = xs <= uz * ys
    assert np.min(sy.residual(xs[in_y], ys[in_y], zs[in_y])) >= -1e-12

    cx, cy = 0.4, 0.5  # corner on the lz curve
    ug = soc_upper_general(cx, cy, uz)
    keep = (xs >= cx) & (ys >= cy)
    assert np.min(ug.residual(xs[keep], ys[keep], zs[keep])) >= -1e-12


def test_cones_tight_on_generating_curves():
    lz, uz = 0.2, 0.7
    xlo = np.linspace(lz, 1.0, 101)
    ylo = lz / xlo
    xup = np.linspace(uz, 1.0, 101)
    yup = uz / xup

    def worst(c, xs, ys):
        return float(np.max(np.abs(c.residual(xs, ys, xs * ys))))

    assert worst(soc_lower(lz), xlo, ylo) <= 1e-12
    edge = np.linspace(lz, 1.0, 101)
    assert worst(soc_lower(lz), np.ones_like(edge), edge) <= 1e-12

    assert worst(soc_center(lz, uz), xlo, ylo) <= 1e-12
    assert worst(soc_center(lz, uz), xup, yup) <= 1e-12

    assert worst(soc_upper_zero(uz), xup, yup) <= 1e-12

    sx, _ = soc_sides(lz, uz)
    keep = ylo <= uz * xlo
    assert worst(sx, xlo[keep], ylo[keep]) <= 1e-12
    keep = yup <= uz * xup
    assert worst(sx, xup[keep], yup[keep]) <= 1e-12

    ug = soc_upper_general(0.4, 0.5, uz)
    assert abs(float(ug.residual(0.4, 0.5, 0.2))) <= 1e-12
    assert worst(ug, xup, yup) <= 1e-12


def test_residual_at_a_point():
    p = Point3(0.5, 0.5, 0.25)
    lin = LinearInequality(1.0, -1.0, -1.0, 1.0)
    assert abs(lin.residual(p.x, p.y, p.z) - 0.25) <= 1e-15
    # uz*x + y - ||(2z, uz*x - y)|| with uz = 0.4
    c = soc_upper_zero(0.4)
    r = c.residual(p.x, p.y, p.z)
    assert type(r) is float and abs(r - (0.7 - math.sqrt(0.34))) <= 1e-15


# ------------------------------------------------------------ lifted tangents


def test_tangent_zero_corner_example():
    b = NormalizedBounds(0.0, 0.0, 0.0, 0.4)
    cut, seg = lifted_tangent(b, 0.5, 0.5)
    # anchor scales the query onto x*y = uz: factor sqrt(uz/(x*y))
    f = math.sqrt(0.4 / 0.25)
    assert seg.family is TangentFamily.UPPER_ZERO
    assert abs(seg.upper.x - 0.5 * f) <= 1e-12
    assert abs(seg.upper.y - 0.5 * f) <= 1e-12
    assert abs(seg.upper.z - 0.4) <= 1e-12
    assert seg.lower.astuple() == (0.0, 0.0, 0.0)
    assert abs(seg.alpha - (1 - 0.5 / (0.5 * f))) <= 1e-9
    assert abs(cut.a0) <= 1e-15
    assert abs(cut.ax - 0.632455532) <= 1e-9
    assert abs(cut.ay - 0.632455532) <= 1e-9
    assert abs(cut.az - (-2.0)) <= 1e-15


def test_tangent_lower_only_example():
    b = NormalizedBounds(0.0, 0.0, 0.2, 1.0)
    cut, seg = lifted_tangent(b, 0.9, 0.9)
    assert seg.family is TangentFamily.LOWER
    s = math.sqrt(0.2)
    assert abs(seg.lower.x - s) <= 1e-12
    assert abs(seg.lower.y - s) <= 1e-12
    assert abs(seg.lower.z - 0.2) <= 1e-12
    assert seg.upper.astuple() == (1.0, 1.0, 1.0)
    a = -(2 * s - 2 * 0.2) / (1.0 - 0.2)
    assert abs(a + 0.618034) <= 1e-6
    assert abs(cut.az - a) <= 1e-12
    assert abs(cut.ax - s) <= 1e-12
    assert abs(cut.ay - s) <= 1e-12
    assert abs(cut.a0 - (-(2 + a) * 0.2)) <= 1e-12


def test_tangent_requires_band_interior():
    b = NormalizedBounds(0.0, 0.0, 0.2, 0.7)
    with pytest.raises(OutOfDomain):
        lifted_tangent(tighten_with_scaling(b)[0], 0.3, 0.3)  # x*y below lz
    with pytest.raises(OutOfDomain):
        lifted_tangent(tighten_with_scaling(b)[0], 0.95, 0.9)  # x*y above uz
    with pytest.raises(OutOfDomain):
        lifted_tangent(NormalizedBounds(0.1, 0.1, 0.2, 1.0), 0.5, 0.5)
    with pytest.raises(OutOfDomain):
        lifted_tangent(NormalizedBounds(0, 0, 0, 1), 0.5, 0.5)  # no z bound


def _tangent_cases():
    return [
        tighten_with_scaling(NormalizedBounds(0.0, 0.0, 0.0, 0.4))[0],
        tighten_with_scaling(NormalizedBounds(0.0, 0.0, 0.2, 1.0))[0],
        tighten_with_scaling(NormalizedBounds(0.0, 0.0, 0.2, 0.7))[0],
        tighten_with_scaling(NormalizedBounds(0.32, 0.28, 0.1, 0.7))[0],
        tighten_with_scaling(NormalizedBounds(0.14, 0.2, 0.1, 0.7))[0],
        tighten_with_scaling(NormalizedBounds(0.14, 0.3, 0.1, 0.7))[0],
        tighten_with_scaling(NormalizedBounds(0.14, 0.5, 0.1, 0.7))[0],
        tighten_with_scaling(NormalizedBounds(0.5, 0.3, 0.3, 1.0))[0],
    ]


def _interior_queries(rng, b, n):
    xs, ys = [], []
    while len(xs) < n:
        x = rng.uniform(b.lx + 1e-6, 1.0 - 1e-6)
        y = rng.uniform(b.ly + 1e-6, 1.0 - 1e-6)
        if b.lz + 1e-9 < x * y < b.uz - 1e-9:
            xs.append(x)
            ys.append(y)
    return xs, ys


def test_tangent_plane_contains_its_segment():
    rng = np.random.default_rng(53)
    for b in _tangent_cases():
        xs, ys = _interior_queries(rng, b, 100)
        for x, y in zip(xs, ys):
            cut, seg = lifted_tangent(b, x, y)
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                p = seg.point_at(t)
                assert abs(cut.residual(p.x, p.y, p.z)) <= 1e-10
            # endpoints sit on the product surface inside the box
            for p in (seg.lower, seg.upper):
                assert abs(p.z - p.x * p.y) <= 1e-10
                assert -1e-9 <= p.x <= 1 + 1e-9
                assert -1e-9 <= p.y <= 1 + 1e-9
                assert b.lz - 1e-9 <= p.z <= b.uz + 1e-9


def test_tangent_plane_valid_on_surface():
    rng = np.random.default_rng(59)
    for b in _tangent_cases():
        sx, sy = _surface_band(rng, b, 2000)
        sz = sx * sy
        xs, ys = _interior_queries(rng, b, 60)
        for x, y in zip(xs, ys):
            cut, _ = lifted_tangent(b, x, y)
            r = cut.residual(sx, sy, sz)
            assert float(np.min(r)) >= -1e-9


def test_tangent_alpha_reproduces_query():
    """Interior queries project onto the segment with the returned weight."""
    rng = np.random.default_rng(61)
    b = tighten_with_scaling(NormalizedBounds(0.14, 0.2, 0.1, 0.7))[0]
    xs, ys = _interior_queries(rng, b, 200)
    hits = 0
    for x, y in zip(xs, ys):
        _, seg = lifted_tangent(b, x, y)
        if not 0.0 < seg.alpha < 1.0:
            continue
        p = seg.point_at(seg.alpha)
        if abs(p.x - x) <= 1e-9 and abs(p.y - y) <= 1e-9:
            hits += 1
    # wedge fallbacks project instead of interpolating; most queries are exact
    assert hits >= 100
    # a segment of zero length in (x, y) projects onto its lower end
    end = Point3(0.5, 0.4, 0.1)
    assert _projection_alpha(0.6, 0.6, end, Point3(0.5, 0.4, 0.7)) == 0.0


def test_tangent_segment_lies_on_matching_cone():
    rng = np.random.default_rng(67)
    seen = set()
    for b in _tangent_cases():
        xs, ys = _interior_queries(rng, b, 150)
        for x, y in zip(xs, ys):
            _, seg = lifted_tangent(b, x, y)
            seen.add(seg.family)
            cone = _matching_cone(b, seg)
            for t in np.linspace(0.0, 1.0, 11):
                p = seg.point_at(t)
                assert abs(float(cone.residual(p.x, p.y, p.z))) <= 1e-9
    assert seen == set(TangentFamily)


# Outputs of the fan-geometry cascade that lifted_tangent used before it was
# derived from the binding hull piece, recorded on the raw boxes below: one
# row per family, both mirror orientations of regions C and D, and the flat
# wedges on both upper RLT planes.  Columns: box, query, family, label of
# the inequality, alpha, lower and upper segment ends, (a0, ax, ay, az).
_PINNED_BOXES = {
    "upper-only": RawBounds(0.0, 0.0, 0.0, 1.0, 1.0, 0.4),
    "upper-general": RawBounds(0.2, 0.3, 0.0, 1.0, 1.0, 0.5),
    "lower-only": RawBounds(0.0, 0.0, 0.2, 1.0, 1.0, 1.0),
    "lower-general": RawBounds(0.5, 0.3, 0.3, 1.0, 1.0, 1.0),
    "band-zero-corner": RawBounds(0.0, 0.0, 0.2, 1.0, 1.0, 0.7),
    "region-a": RawBounds(0.32, 0.28, 0.1, 1.0, 1.0, 0.7),
    "region-b": RawBounds(0.14, 0.2, 0.1, 1.0, 1.0, 0.7),
    "region-c": RawBounds(0.14, 0.3, 0.1, 1.0, 1.0, 0.7),
    "region-d": RawBounds(0.14, 0.5, 0.1, 1.0, 1.0, 0.7),
    "region-c-swapped": RawBounds(0.3, 0.14, 0.1, 1.0, 1.0, 0.7),
    "region-d-swapped": RawBounds(0.5, 0.14, 0.1, 1.0, 1.0, 0.7),
}

_PINNED_TANGENTS = [
    ("upper-only", 0.4, 0.85, "UPPER_ZERO", "lifted_tangent", 0.07804555427071133,
     (0.0, 0.0, 0.0),
     (0.4338609156373124, 0.9219544457292888, 0.4),
     (-0.0, 0.9219544457292888, 0.4338609156373124, -2.0)),
    ("upper-only", 0.15, 0.45, "UPPER_ZERO", "rlt_upper_x", 0.5603448275862069,
     (0.0, 0.0, 0.0),
     (0.4, 1.0, 0.4),
     (-0.0, 1.0, 0.0, -1.0)),
    ("upper-only", 0.7, 0.2, "UPPER_ZERO", "rlt_upper_y", 0.3275862068965517,
     (0.0, 0.0, 0.0),
     (1.0, 0.4, 0.4),
     (-0.0, 0.0, 1.0, -1.0)),
    ("upper-general", 0.55, 0.45, "UPPER_GENERAL", "lifted_tangent", 0.4686325370553957,
     (0.2, 0.3, 0.06),
     (0.8586778913041726, 0.5822905248446454, 0.5),
     (-0.28870621859111456, 0.5822905248446454, 0.8586778913041726, -1.4225875628177709)),
    ("upper-general", 0.3, 0.8, "UPPER_GENERAL", "rlt_upper_x", 0.3448275862068965,
     (0.2, 0.3, 0.06),
     (0.5, 1.0, 0.5),
     (-0.2, 1.0, 0.2, -1.0)),
    ("upper-general", 0.8, 0.35, "UPPER_GENERAL", "rlt_upper_y", 0.27941176470588225,
     (0.2, 0.3, 0.06),
     (1.0, 0.5, 0.5),
     (-0.3, 0.3, 1.0, -1.0)),
    ("lower-only", 0.7, 0.3, "LOWER", "lifted_tangent", 0.9829455265819088,
     (0.6947948875221814, 0.2878547375517569, 0.2),
     (1.0, 1.0, 1.0),
     (-0.2543375937315155, 0.2878547375517569, 0.6947948875221814, -0.7283120313424227)),
    ("lower-general", 0.85, 0.4, "LOWER", "lifted_tangent", 0.933732334735858,
     (0.8393543905251677, 0.357417562100671, 0.3),
     (1.0, 1.0, 1.0),
     (-0.34424059173178334, 0.357417562100671, 0.8393543905251677, -0.8525313608940553)),
    ("lower-general", 0.65, 0.85, "LOWER", "rlt_upper_x", 0.573170731707317,
     (0.5, 0.6, 0.3),
     (1.0, 1.0, 1.0),
     (-0.5, 1.0, 0.5, -1.0)),
    ("band-zero-corner", 0.65, 0.85, "CENTER", "lifted_tangent", 0.23971612455211258,
     (0.39107694443752145, 0.5114083119567588, 0.2),
     (0.7316379689758172, 0.9567573440452993, 0.7),
     (-0.26066740905808466, 0.5114083119567588, 0.39107694443752145, -0.6966629547095765)),
    ("band-zero-corner", 0.85, 0.35, "SIDE_X", "lifted_tangent", 0.7744135250736888,
     (0.8063050358195554, 0.24804508357896257, 0.2),
     (1.0, 0.7, 0.7),
     (-0.23501655653893946, 0.24804508357896257, 0.8063050358195554, -0.8249172173053027)),
    ("band-zero-corner", 0.4, 0.85, "SIDE_Y", "lifted_tangent", 0.6770753572082557,
     (0.25691785736085276, 0.7784589286804263, 0.2),
     (0.7, 1.0, 0.7),
     (-0.2392643570251395, 0.7784589286804263, 0.25691785736085276, -0.8036782148743024)),
    ("region-a", 0.7, 0.6, "CENTER", "lifted_tangent", 0.3623640788637147,
     (0.34156502553198664, 0.29277002188455997, 0.1),
     (0.9036961141150639, 0.7745966692414834, 0.7),
     (-0.14514162296451363, 0.29277002188455997, 0.34156502553198664, -0.5485837703548636)),
    ("region-a", 0.65, 0.75, "UPPER_GENERAL", "lifted_tangent", 0.26666666666666666,
     (0.32, 0.3125, 0.1),
     (0.7699999999999999, 0.909090909090909, 0.7),
     (-0.38678977272727266, 0.909090909090909, 0.7699999999999999, -1.4474431818181819)),
    ("region-a", 0.8, 0.4, "SIDE_X", "rlt_upper_y", 0.43172190381260894,
     (0.35714285714285715, 0.28, 0.1),
     (1.0, 0.7, 0.7),
     (-0.28, 0.28, 1.0, -1.0)),
    ("region-b", 0.65, 0.4, "SIDE_X", "lifted_tangent", 0.6309924597826911,
     (0.44531825289871574, 0.2245585024846135, 0.1),
     (1.0, 0.7, 0.7),
     (-0.1439531200810476, 0.2245585024846135, 0.44531825289871574, -0.5604687991895242)),
    ("region-b", 0.3, 0.85, "SIDE_Y", "rlt_upper_x", 0.675190019828156,
     (0.14, 0.7142857142857143, 0.1),
     (0.7, 1.0, 0.7),
     (-0.14, 1.0, 0.14, -1.0)),
    ("region-c", 0.75, 0.65, "UPPER_GENERAL", "lifted_tangent", 0.266057789721171,
     (0.33333333333333337, 0.3, 0.1),
     (0.901043789049421, 0.7768767828015137, 0.7),
     (-0.3841507417012193, 0.7768767828015137, 0.901043789049421, -1.4512132261411153)),
    ("region-c", 0.35, 0.65, "SIDE_Y", "lifted_tangent", 0.7,
     (0.19999999999999998, 0.5000000000000001, 0.1),
     (0.7, 1.0, 0.7),
     (-0.14166666666666666, 0.5000000000000001, 0.19999999999999998, -0.5833333333333334)),
    ("region-c-swapped", 0.65, 0.7, "CENTER", "lifted_tangent", 0.31151633108090876,
     (0.30472470011002206, 0.3281650616569468, 0.1),
     (0.8062257748298551, 0.8682431421244592, 0.7),
     (-0.14514162296451363, 0.3281650616569468, 0.30472470011002206, -0.5485837703548638)),
    ("region-c-swapped", 0.6, 0.8, "UPPER_GENERAL", "lifted_tangent", 0.27718709528806257,
     (0.3, 0.33333333333333337, 0.1),
     (0.7150451632010624, 0.9789591427572082, 0.7),
     (-0.3873754856543249, 0.9789591427572082, 0.7150451632010624, -1.4466064490652502)),
    ("region-c-swapped", 0.7, 0.25, "SIDE_X", "lifted_tangent", 0.828388218141501,
     (0.6378509575220014, 0.15677643628300217, 0.1),
     (1.0, 0.7, 0.7),
     (-0.1327879822419328, 0.15677643628300217, 0.6378509575220014, -0.6721201775806719)),
    ("region-d", 0.65, 0.8, "UPPER_GENERAL", "lifted_tangent", 0.23202262065192622,
     (0.2, 0.5, 0.1),
     (0.7859547586961472, 0.8906365057974315, 0.7),
     (-0.4329554605921533, 0.8906365057974315, 0.7859547586961472, -1.3814921991540667)),
    ("region-d", 0.35, 0.7, "SIDE_Y", "lifted_tangent", 0.6734945607665144,
     (0.18032245486636192, 0.5545621041711672, 0.1),
     (0.7, 1.0, 0.7),
     (-0.1385806787023035, 0.5545621041711672, 0.18032245486636192, -0.6141932129769649)),
    ("region-d-swapped", 0.9, 0.3, "SIDE_X", "rlt_upper_y", 0.6390449438202247,
     (0.7142857142857143, 0.14, 0.1),
     (1.0, 0.7, 0.7),
     (-0.14, 0.14, 1.0, -1.0)),
    ("region-d-swapped", 0.7, 0.9, "UPPER_GENERAL", "lifted_tangent", 0.09279871750971447,
     (0.5, 0.2, 0.1),
     (0.7204582421345305, 0.9716038474708569, 0.7),
     (-0.501542500856057, 0.9716038474708569, 0.7204582421345305, -1.2835107130627756)),

]


@pytest.mark.parametrize(
    "box, x, y, family, label, alpha, lower, upper, coeffs", _PINNED_TANGENTS,
    ids=["%s-%g-%g" % row[:3] for row in _PINNED_TANGENTS])
def test_tangent_pinned_outputs(box, x, y, family, label, alpha, lower, upper,
                                coeffs):
    b = hull_from_raw(_PINNED_BOXES[box])[0].bounds
    cut, seg = lifted_tangent(b, x, y)
    assert seg.family is TangentFamily[family]
    assert cut.label == label
    got = ((seg.alpha,) + seg.lower.astuple() + seg.upper.astuple()
           + (cut.a0, cut.ax, cut.ay, cut.az))
    want = (alpha,) + lower + upper + coeffs
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12


def test_tangent_pinned_table_covers_every_family():
    assert {TangentFamily[row[3]] for row in _PINNED_TANGENTS} == set(TangentFamily)
    assert {row[4] for row in _PINNED_TANGENTS} == {
        "lifted_tangent", "rlt_upper_x", "rlt_upper_y"}


def _matching_cone(b, seg):
    f = seg.family
    if f is TangentFamily.UPPER_ZERO:
        return soc_upper_zero(b.uz)
    if f is TangentFamily.LOWER:
        return soc_lower(b.lz)
    if f is TangentFamily.CENTER:
        return soc_center(b.lz, b.uz)
    if f is TangentFamily.SIDE_X:
        return soc_sides(b.lz, b.uz)[0]
    if f is TangentFamily.SIDE_Y:
        return soc_sides(b.lz, b.uz)[1]
    # general upper cones are anchored at the segment's lower corner
    return soc_upper_general(seg.lower.x, seg.lower.y, b.uz)
