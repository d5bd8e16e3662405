"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the seed: the library under test only
ever sees the generated boxes, points and argument vectors.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from bilinear_hull import NormalizedBounds, RawBounds

# The eight pinned boxes of the acceptance suite (one per structural case),
# plus the zero-corner band given directly in normalized form so that the
# BothZeroLB pieces run; hull_from_raw tightens the raw band to Region B.
ACCEPTANCE_BOXES = (
    ("upper-only", RawBounds(0.0, 0.0, 0.0, 1.0, 1.0, 0.4)),
    ("lower-only", RawBounds(0.0, 0.0, 0.2, 1.0, 1.0, 1.0)),
    ("band-zero-corner", RawBounds(0.0, 0.0, 0.2, 1.0, 1.0, 0.7)),
    ("region-a", RawBounds(0.32, 0.28, 0.1, 1.0, 1.0, 0.7)),
    ("region-b", RawBounds(0.14, 0.2, 0.1, 1.0, 1.0, 0.7)),
    ("region-c", RawBounds(0.14, 0.3, 0.1, 1.0, 1.0, 0.7)),
    ("region-d", RawBounds(0.14, 0.5, 0.1, 1.0, 1.0, 0.7)),
    ("lower-general", RawBounds(0.5, 0.3, 0.3, 1.0, 1.0, 1.0)),
)
ZERO_CORNER_BAND = NormalizedBounds(0.0, 0.0, 0.2, 0.7)

# Node-stream draw kinds, drawn with equal shares: no source gives how the
# nodes of a branch-and-bound tree spread over the cases.  The targeted
# kinds place a tightened box straight into one case (mirrored half the
# time); "loose" draws general boxes whose implied bounds still have to be
# tightened, which is where the tightening loop can fail to settle.
NODE_KINDS = ("no_z_bound", "upper_only", "lower_only", "zero_corner",
              "region_a", "region_b", "region_c", "region_d", "loose")
POINTS_PER_NODE = 4
SCALE_LO, SCALE_HI = 1e-2, 1e2


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream name)."""
    key = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:8], "little")
    return np.random.Generator(np.random.Philox(
        key=np.array([seed & 0xFFFFFFFFFFFFFFFF, key], dtype=np.uint64)))


def _corner(rng, zero_p: float) -> tuple[float, float]:
    lx = 0.0 if rng.random() < zero_p else rng.uniform(0.02, 0.9)
    ly = 0.0 if rng.random() < zero_p else rng.uniform(0.02, 0.9)
    return lx, ly


def _region_box(rng, region: str) -> tuple[float, float, float, float]:
    """A tightened box (lx <= ly) inside one lettered case.

    With s_lo = sqrt(lz*uz) and s_hi = sqrt(lz/uz), tightened boxes have
    lz <= lx, ly <= uz and lx*ly < lz; the case follows from where lx and ly
    sit against the two thresholds.
    """
    while True:
        lz = rng.uniform(0.02, 0.6)
        uz = rng.uniform(lz + 0.1 * (1.0 - lz), lz + 0.9 * (1.0 - lz))
        s_lo, s_hi = math.sqrt(lz * uz), math.sqrt(lz / uz)
        if region == "region_a":
            lx = rng.uniform(s_lo, min(uz, math.sqrt(lz)))
            lo, hi = lx, min(uz, lz / lx)
        elif region == "region_b":
            lx = rng.uniform(lz, s_lo)
            lo, hi = lx, s_lo
        elif region == "region_c":
            lx = rng.uniform(lz, s_lo)
            lo, hi = s_lo, min(s_hi, uz, lz / lx)
        else:
            lx = rng.uniform(lz, s_lo)
            lo, hi = s_hi, min(uz, lz / lx)
        # keep a margin from the case thresholds and from lx*ly = lz
        pad = 0.02 * (hi - lo)
        if hi - lo > 1e-3:
            ly = rng.uniform(lo + pad, hi - pad)
            if lx * ly < lz * (1.0 - 1e-6):
                return lx, ly, lz, uz


def draw_node_box(rng) -> tuple[str, bool, RawBounds]:
    """One node's raw box: (draw kind, mirrored flag, box)."""
    kind = NODE_KINDS[int(rng.integers(len(NODE_KINDS)))]
    mirrored = False
    if kind == "no_z_bound":
        lx, ly = _corner(rng, 0.3)
        lz = rng.uniform(0.0, 1.0) * lx * ly
        uz = rng.uniform(1.0, 1.5)
    elif kind == "upper_only":
        lx, ly = _corner(rng, 0.5)
        lz = lx * ly * rng.uniform(0.0, 1.0)
        uz = lx * ly + rng.uniform(0.05, 0.95) * (1.0 - lx * ly)
    elif kind == "lower_only":
        lx, ly = _corner(rng, 0.5)
        lz = lx * ly + rng.uniform(0.05, 0.95) * (1.0 - lx * ly)
        uz = rng.uniform(1.0, 1.5)
    elif kind == "zero_corner":
        lx = ly = 0.0
        lz = rng.uniform(0.02, 0.8)
        uz = rng.uniform(lz + 0.05 * (1.0 - lz), lz + 0.95 * (1.0 - lz))
    elif kind == "loose":
        lx, ly = _corner(rng, 0.2)
        corner = lx * ly
        lz = rng.uniform(0.0, 0.9)
        lo = max(lz, corner)
        uz = rng.uniform(lo + 0.02 * (1.0 - lo), 1.0)
    else:
        lx, ly, lz, uz = _region_box(rng, kind)
        mirrored = bool(rng.random() < 0.5)
        if mirrored:
            lx, ly = ly, lx
    sx = math.exp(rng.uniform(math.log(SCALE_LO), math.log(SCALE_HI)))
    sy = math.exp(rng.uniform(math.log(SCALE_LO), math.log(SCALE_HI)))
    sz = sx * sy
    return kind, mirrored, RawBounds(lx * sx, ly * sy, lz * sz, sx, sy, uz * sz)


def surface_cloud(rng, b, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n product points (x, y, xy) of a normalized box, inside its z band.

    Drawn as x first, then y on the feasible interval for that x, plus the
    feasible box corners, so corner-tight cuts are exercised too.
    """
    x = rng.uniform(b.lx, 1.0, n)
    with np.errstate(divide="ignore"):
        lo = np.maximum(b.ly, np.where(x > 0.0, b.lz / x, 0.0))
        hi = np.minimum(1.0, np.where(x > 0.0, b.uz / x, 1.0))
    y = lo + rng.random(n) * np.maximum(hi - lo, 0.0)
    keep = lo <= hi
    cx, cy = [x[keep]], [y[keep]]
    for px in (b.lx, 1.0):
        for py in (b.ly, 1.0):
            if b.lz <= px * py <= b.uz:
                cx.append(np.array([px]))
                cy.append(np.array([py]))
    x = np.concatenate(cx)
    y = np.concatenate(cy)
    return x, y, x * y
