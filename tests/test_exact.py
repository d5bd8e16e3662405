"""Exact verdicts on every cut separate and lifted_tangent return.

A cut's least value over the product surface S is decided in rationals
(tests/_exact.py).  Rows whose coefficients are exact floats are valid in
exact arithmetic: the bound rows, rlt_lower_ones and the two upper RLT
planes.  Every other cut is valid to rounding: its least value is at least
-K * eps * max(|ax|, |ay|, |az|, 1) with K = 4.  Of the 7,903 cuts below,
the worst read 1.52 eps (lifted_tangent, at an arc point) and 1.48 eps
(product_lower_tangent); rlt_lower_corner, whose a0 = lx*ly rounds, read
0.20 eps.
"""

import sys
from collections import Counter
from fractions import Fraction

import numpy as np

from _boxes import raw_box, threshold_box
from _exact import exact_min
from bilinear_hull import (
    BilinearHullError,
    Point3,
    hull_from_raw,
    lifted_tangent,
    separate,
)
from test_hull import ALL_RAW, MIRRORED_RAW
from test_robustness import _descriptions

K = 4
EXACT_ROWS = {"z_lower", "z_upper", "x_lower", "x_upper", "y_lower",
              "y_upper", "rlt_lower_ones", "rlt_upper_x", "rlt_upper_y"}


def _cuts(d, rng, n):
    """separate's cut at n uniform points around the box and z range, and
    lifted_tangent's plane at those of them strictly inside the box with
    lz < xy < uz."""
    b = d.bounds
    wx, wy, wz = (1.0 - b.lx) / 8, (1.0 - b.ly) / 8, (d.zhi - d.zlo) / 4
    xs = rng.uniform(b.lx - wx, 1.0 + wx, n).tolist()
    ys = rng.uniform(b.ly - wy, 1.0 + wy, n).tolist()
    zs = rng.uniform(d.zlo - wz, d.zhi + wz, n).tolist()
    for x, y, z in zip(xs, ys, zs):
        cut = separate(d, Point3(x, y, z))
        if cut is not None:
            yield cut
        if b.lx < x < 1.0 and b.ly < y < 1.0 and b.lz < x * y < b.uz:
            try:
                yield lifted_tangent(b, x, y)[0]
            except BilinearHullError:
                continue


def test_every_cut_is_valid_exactly_or_to_k_ulps():
    rng = np.random.default_rng(20261024)
    boxes = [(hull_from_raw(raw)[0], 240) for raw in ALL_RAW + MIRRORED_RAW]
    boxes += [(d, 12) for d in _descriptions(raw_box, 200, 20261025)
              + _descriptions(threshold_box, 100, 20261026)]
    eps = Fraction(sys.float_info.epsilon)
    labels = Counter()
    for d, n in boxes:
        for cut in _cuts(d, rng, n):
            labels[cut.label] += 1
            least = exact_min(d.bounds, cut)
            if cut.label in EXACT_ROWS:
                assert least >= 0, (d.bounds, cut, least.decimal())
            else:
                scale = max(abs(cut.ax), abs(cut.ay), abs(cut.az), 1.0)
                assert least >= -K * eps * Fraction(scale), (
                    d.bounds, cut, least.decimal())
    assert set(labels) == EXACT_ROWS | {"rlt_lower_corner", "lifted_tangent",
                                        "product_lower_tangent"}, labels
    assert sum(labels.values()) > 7_000, labels
