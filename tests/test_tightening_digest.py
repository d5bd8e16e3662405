"""One sha256 pins the tightened bounds, scaling and case of 20,000 raw boxes.

The boxes are those of tests/test_scalar_digest.py (node-stream kinds,
mirrored or not, raw-scaled or not, zero corners among them), drawn from
their own seed.  The digest hashes, by float.hex, the bounds and scaling
that hull_from_raw returns and the case it chose, or the type of what it
raised.  On the same boxes, tightening the tightened bounds again is the
identity, with the unit scaling.
"""

import hashlib
import random

from bilinear_hull import (
    BilinearHullError,
    Scaling,
    hull_from_raw,
    tighten_with_scaling,
)

from test_scalar_digest import _box

DIGEST = "79c3b3611e6d56091684e9d5a93cc6c72b0aaa5e728b25b17df82f545e1dd199"
BOXES = 20_000


def _results():
    rng = random.Random(20261019)
    for i in range(BOXES):
        raw = _box(rng, i)
        try:
            d, sc = hull_from_raw(raw)
        except BilinearHullError as e:
            yield raw, type(e).__name__
            continue
        yield raw, (d.bounds, sc, d.case)


def _line(raw, got):
    if isinstance(got, str):
        return got
    t, sc, case = got
    return " ".join([v.hex() for v in (t.lx, t.ly, t.lz, t.uz, sc.sx, sc.sy)]
                    + [case.region.value, str(case.swapped)])


def test_tightening_matches_its_digest():
    h = hashlib.sha256()
    for raw, got in _results():
        h.update(_line(raw, got).encode())
        h.update(b"\n")
    assert h.hexdigest() == DIGEST


def test_tightened_bounds_are_a_fixed_point():
    described = 0
    for raw, got in _results():
        if isinstance(got, str):
            continue
        t = got[0]
        t2, sc2 = tighten_with_scaling(t)
        assert (t2, sc2) == (t, Scaling(1.0, 1.0)), raw
        described += 1
    assert described > 0.9 * BOXES
