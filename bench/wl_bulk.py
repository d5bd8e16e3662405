"""Workload `bulk`: the vectorized kernels on large arrays.

One client.  Jobs cycle, in a seeded order per cycle, over the acceptance
boxes plus the zero-corner band; each job is one kernel call on about 2^18
elements: envelope_grid on a 512^2 grid, vol_numeric(512), membership_mask
on 2^18 points, and vol_mc on 2^18 samples, serial and with workers=2.
The hull layer is the one `node` uses, but here per-element cost and array
temporaries dominate and scalar overhead does not matter.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

import numpy as np

from bilinear_hull import (
    Point3,
    Region,
    Side,
    describe,
    envelope_grid,
    envelopes,
    hull_from_raw,
    membership,
    membership_mask,
    vol_hull,
    vol_mc,
    vol_numeric,
)

from checks import (
    check_mc_workers,
    check_vol_mc,
    check_vol_numeric,
)
from common import Budget, Outcome, median, min_ops
from inputs import ACCEPTANCE_BOXES, ZERO_CORNER_BAND, rng_for, surface_cloud
from reference import array_kernel, timed
from spans import call

GRID = 512
MASK_POINTS = 1 << 18
MC_SAMPLES = 1 << 18
SPOT_CHECKS = 32
KINDS = ("envelope_grid", "vol_numeric", "membership_mask", "vol_mc",
         "vol_mc_w2")
TAIL_Q = 0.90
BLOCK = 9 * len(KINDS)  # one cycle: every kind on every box
BLOCK_QUANTILES = False
TAIL_MEAN = False
TAIL_REF_Q = None  # an operation spans many of the host's speed swings
MIN_OPS = min_ops(BLOCK, TAIL_Q, BLOCK_QUANTILES)
REF_EVERY = 9  # five timings per cycle

WARMUP = """
import numpy as np
d, sc = bh.hull_from_raw(bh.RawBounds(0.14, 0.3, 0.1, 1.0, 1.0, 0.7))
g = np.linspace(0.2, 1.0, 16)
bh.envelope_grid(d, g, g)
bh.membership_mask(d, g, g, g * g)
bh.vol_numeric(d, 16)
bh.vol_mc(d, 1024, seed=0, workers=2)
"""


def boxes():
    """(name, description, exact volume or None) for every bulk box.

    The exact volume is known in closed form on the one-sided boxes whose
    raw corner is zero (tightening moves the corner but keeps the hull).
    """
    out = []
    for name, raw in ACCEPTANCE_BOXES:
        d, _ = hull_from_raw(raw)
        exact = None
        if raw.lx == 0.0 and raw.ly == 0.0 and raw.ux == raw.uy == 1.0:
            if d.case.region is Region.UPPER_ONLY:
                exact = vol_hull(Side.UPPER, raw.uz)
            elif d.case.region is Region.LOWER_ONLY:
                exact = vol_hull(Side.LOWER, raw.lz)
        out.append((name, d, exact))
    out.append(("zero-corner-normalized", describe(ZERO_CORNER_BAND), None))
    return out


def _mask_points(rng, d):
    # 7/8 uniform in the box x [zlo, zhi], 1/8 exact surface points, which
    # must all be members
    b = d.bounds
    n_surf = MASK_POINTS // 8
    sx, sy, sz = surface_cloud(rng, b, n_surf)
    n_box = MASK_POINTS - sx.size
    x = np.concatenate([rng.uniform(b.lx, 1.0, n_box), sx])
    y = np.concatenate([rng.uniform(b.ly, 1.0, n_box), sy])
    z = np.concatenate([rng.uniform(d.zlo, d.zhi, n_box), sz])
    return x, y, z, n_box


def _check_mask(rng, d, x, y, z, n_box, ok) -> str | None:
    if not ok[n_box:].all():
        return "%d surface points rejected" % int((~ok[n_box:]).sum())
    for k in rng.integers(0, n_box, SPOT_CHECKS):
        if membership(d, Point3(float(x[k]), float(y[k]), float(z[k]))) != ok[k]:
            return "membership_mask disagrees with membership at one point"
    return None


def _check_grid(rng, d, xs, ys, zmin, zmax) -> str | None:
    for i, j in rng.integers(0, GRID, (SPOT_CHECKS, 2)):
        lo, hi = envelopes(d, float(xs[i]), float(ys[j]))
        if abs(lo - zmin[i, j]) > 1e-12 or abs(hi - zmax[i, j]) > 1e-12:
            return "envelope_grid disagrees with envelopes at one node"
    return None


def _job(kind: str, d, rng, mc_seed: int):
    """(span name, kernel, args, keyword args, work units, n_box) of one job;
    n_box counts the uniform mask points ahead of the surface points."""
    b = d.bounds
    if kind == "envelope_grid":
        xs = np.linspace(b.lx, 1.0, GRID)
        ys = np.linspace(b.ly, 1.0, GRID)
        return ("hull.envelope_grid", envelope_grid, (d, xs, ys), {},
                GRID * GRID, 0)
    if kind == "vol_numeric":
        return ("volume.vol_numeric", vol_numeric, (d, GRID), {},
                GRID * GRID + (GRID // 2) ** 2, 0)
    if kind == "membership_mask":
        x, y, z, n_box = _mask_points(rng, d)
        return ("hull.membership_mask", membership_mask, (d, x, y, z), {},
                x.size, n_box)
    workers = 2 if kind == "vol_mc_w2" else None
    return ("volume." + kind, vol_mc, (d, MC_SAMPLES),
            {"seed": mc_seed, "workers": workers}, MC_SAMPLES, 0)


def run(seed: int, seconds: float, tracer=None, max_ops: int | None = None
        ) -> Outcome:
    """Jobs until `seconds` pass (or `max_ops` jobs).

    A job's latency is its one kernel call; inputs are drawn and results
    checked outside it.  Work units are grid nodes (both quadrature grids
    for vol_numeric), mask points and Monte Carlo samples.
    """
    rng = rng_for(seed, "bulk")
    crng = rng_for(seed, "bulk-check")
    mc_seed = int(rng.integers(0, 2**31))
    bx = boxes()
    # references for the Monte Carlo gate, prepared before the clock starts
    mc_refs = []
    for _, d, exact in bx:
        if exact is not None:
            mc_refs.append((exact, 0.0))
        else:
            v, err = vol_numeric(d, GRID)
            mc_refs.append((v, err + 1e-6))
    mc_results: dict[int, tuple] = {}
    out = Outcome()
    per_kind, units_by_kind = Counter(), Counter()
    budget = Budget(seconds, max_ops,
                    MIN_OPS if tracer is None else 0)
    order: list = []
    i = 0
    while budget.more(i, not order):
        if i % REF_EVERY == 0:
            out.reference(i, timed(array_kernel))
        if not order:
            order = [(b, k) for b in range(len(bx)) for k in KINDS]
            order = [order[j] for j in rng.permutation(len(order))]
        bi, kind = order.pop()
        name, d, exact = bx[bi]
        span, fn, args, kw, units, n_box = _job(kind, d, rng, mc_seed)
        t0 = perf_counter()
        try:
            res = call(tracer, span, fn, *args, units=units, **kw)
        except Exception as e:  # counted, and the cycle goes on
            out.fail(i, "%s/%s" % (kind, name), "%s: %s" % (type(e).__name__, e),
                     perf_counter() - t0, wrong_result=False)
            i += 1
            continue
        dt = perf_counter() - t0
        per_kind[kind] += 1
        if kind == "envelope_grid":
            reason = _check_grid(crng, *args, res[0], res[1])
            fingerprint = (float(res[0].sum()), float(res[1].sum()))
        elif kind == "vol_numeric":
            reason = None if exact is None else check_vol_numeric(res[0], exact)
            fingerprint = res
        elif kind == "membership_mask":
            reason = _check_mask(crng, *args, n_box, res)
            fingerprint = int(res.sum())
        else:
            # one seed per run: every vol_mc call on a box, serial or not,
            # must return the bits of the first one
            reason = (check_vol_mc(res[0], res[1], *mc_refs[bi])
                      or check_mc_workers(mc_results.setdefault(bi, res), res))
            fingerprint = res
        del args, res
        if reason is not None:
            out.fail(i, "%s/%s" % (kind, name), reason, dt, wrong_result=True)
        else:
            out.ok(dt, (kind, name, fingerprint), units)
            units_by_kind[kind] += units
        i += 1

    out.reference(i, timed(array_kernel))
    out.mix = {"jobs_by_kind": dict(sorted(per_kind.items())),
               "boxes": [(name, d.case.region.value) for name, d, _ in bx],
               "units_by_kind": dict(sorted(units_by_kind.items()))}
    if tracer is not None:
        for span_name, metric, scale in (
                ("hull.envelope_grid", "hull.envelope_grid.ns_per_node", None),
                ("hull.membership_mask", "hull.membership_mask.ns_per_point",
                 None),
                ("volume.vol_numeric", "volume.vol_numeric.ms", 1e-6),
                ("volume.vol_mc", "volume.vol_mc.ns_per_sample", None),
                ("volume.vol_mc_w2", "volume.vol_mc_w2.ns_per_sample", None)):
            dur, units = tracer.durations(span_name)
            if dur.size == 0:
                out.layers[metric] = 0.0
            elif scale is None:
                out.layers[metric] = median(dur / units)
            else:
                out.layers[metric] = median(dur) * scale
    return out
