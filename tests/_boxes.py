"""Seeded extreme raw boxes, shared by the robustness sweeps and the
hull_from_raw parity test.

raw_box(rng) draws six finite nonnegative floats (lx, ly, lz, ux, uy, uz)
with exponents across 10^+-300, subnormals and zeros, corners and z bounds
0-5 ulps apart, and lz/uz near lx*ly and ux*uy.  Not every draw is a valid
RawBounds: that is part of what the sweeps test.

threshold_box(rng) draws a raw box whose tightened lower corner sits near
one of the thresholds between regions A-D: 0-5 ulps or 1e-12 to 1e-7 to
either side of it, in either corner order, scaled across 10^+-150.  It
draws from its own rng, so raw_box's stream stays as it is.
"""

import math

TINY = 5e-324           # the smallest subnormal
MIN_NORMAL = 2.2250738585072014e-308


def _ulps(v, k):
    """v moved k ulps (toward +inf for k > 0), kept at or above 0."""
    for _ in range(abs(k)):
        v = math.nextafter(v, math.inf if k > 0 else 0.0)
    return v


def _magnitude(rng):
    """Zero, a subnormal, or a number with its exponent in [-300, 300]."""
    kind = rng.randrange(5)
    if kind == 0:
        return 0.0
    if kind == 1:
        return rng.choice((TINY, rng.randrange(1, 2 ** 20) * TINY,
                           MIN_NORMAL * rng.random()))
    return rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 299)


def _above(rng, v):
    """A finite number above v: 1-5 ulps, or a gap of any magnitude."""
    if rng.random() < 0.5:
        return _ulps(v, rng.randint(1, 5))
    w = v + _magnitude(rng)
    return w if v < w < math.inf else _ulps(v, rng.randint(1, 5))


def _near(rng, v):
    """v itself, or up to 5 ulps either side of it (not below 0); 1e308
    for a product that overflowed."""
    return _ulps(v, rng.randint(-5, 5)) if math.isfinite(v) else 1e308


def raw_box(rng):
    """Six finite nonnegative floats (lx, ly, lz, ux, uy, uz)."""
    lx, ly = _magnitude(rng), _magnitude(rng)
    ux, uy = _above(rng, lx), _above(rng, ly)
    kind = rng.randrange(4)
    if kind == 0:  # lz near the corner product, uz just above it
        lz = _near(rng, lx * ly)
        uz = _above(rng, lz)
    elif kind == 1:  # uz near the corner product
        uz = _near(rng, lx * ly)
        lz = _ulps(uz, -rng.randint(0, 5))
    elif kind == 2:  # the z range around the far corner's product
        uz = _near(rng, ux * uy)
        lz = rng.choice((0.0, _near(rng, lx * ly), _magnitude(rng)))
    else:
        lz = _magnitude(rng)
        uz = _above(rng, lz)
    return lx, ly, lz, ux, uy, uz


def _across(rng, t):
    """t moved 0-5 ulps, or by a relative 1e-12 to 1e-7, to either side."""
    if rng.random() < 0.5:
        return _ulps(t, rng.randint(-5, 5))
    return t * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12, -7))


def threshold_box(rng):
    """Six floats (lx, ly, lz, ux, uy, uz) whose normalized box puts the
    lower corner (lx <= ly in the canonical order) near one threshold, with
    s_lo = sqrt(lz*uz) and s_hi = sqrt(lz/uz): lx = s_lo (A|C), ly = s_lo
    (B|C) or ly = s_hi (C|D)."""
    uz = rng.uniform(0.05, 0.95)
    which = rng.choice(("AC", "BC", "CD"))
    # C|D needs s_hi <= uz, that is lz <= uz**3
    lz = (uz ** 3 if which == "CD" else uz) * rng.uniform(0.01, 0.99)
    s_lo, s_hi = math.sqrt(lz * uz), math.sqrt(lz / uz)
    if which == "AC":
        lx = _across(rng, s_lo)
        ly = rng.uniform(s_lo, min(s_hi, uz))
    else:
        lx = rng.uniform(lz, s_lo)
        ly = _across(rng, s_lo if which == "BC" else s_hi)
    if rng.random() < 0.5:
        lx, ly = ly, lx
    sx, sy = 10.0 ** rng.uniform(-150, 150), 10.0 ** rng.uniform(-150, 150)
    return lx * sx, ly * sy, lz * sx * sy, sx, sy, uz * sx * sy
