"""Workload `oracle`: the LP cross-check of the closed forms.

One client.  A cycle runs every bulk box at two sample densities, n near
151 and near 201 (roughly 10k-37k LP columns), in a seeded order.  Each job
samples the box's surface, asks oracle_envelope_many for the upper envelope on a 9x9
grid with warm starts, and asks oracle_membership about three points.
This is the only workload where the dense simplex does the work.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

import numpy as np

from bilinear_hull import (
    Point3,
    envelope_grid,
    membership,
    oracle_envelope_many,
    oracle_membership,
    sample_surface,
)

from checks import check_oracle, check_oracle_membership
from common import Budget, Outcome, median, min_ops
from inputs import rng_for
from reference import lp_kernel, timed
from spans import call
from wl_bulk import boxes

# sample densities per cycle; each job jitters its n by up to N_JITTER
# towards the middle of [151, 201]
N_SET = (151, 201)
N_JITTER = 4
GRID = 9
TAIL_Q = 0.90
BLOCK = 9 * len(N_SET)  # one cycle
BLOCK_QUANTILES = False
TAIL_MEAN = False
TAIL_REF_Q = None  # an operation spans many of the host's speed swings
MIN_OPS = min_ops(BLOCK, TAIL_Q, BLOCK_QUANTILES)
REF_EVERY = 1

WARMUP = """
d, sc = bh.hull_from_raw(bh.RawBounds(0.14, 0.3, 0.1, 1.0, 1.0, 0.7))
s = bh.sample_surface(d.bounds, 21)
bh.oracle_envelope_many(s, [0.5, 0.6], [0.5, 0.6])
bh.oracle_membership(s, bh.Point3(0.5, 0.5, 0.3))
"""


def _membership_points(rng, s, d, gx, gy, got, zmax):
    """One member (the centroid of eight surface samples, so inside the
    sampled hull too) and two non-members (above and below the closed-form
    slice at a grid node where the oracle is feasible)."""
    pick = rng.integers(0, len(s), 8)
    inside = Point3(float(s.x[pick].mean()), float(s.y[pick].mean()),
                    float(s.z[pick].mean()))
    feasible = np.flatnonzero(~np.isnan(got))
    k = int(feasible[rng.integers(0, feasible.size)])
    i, j = divmod(k, GRID)
    x, y = float(gx[i]), float(gy[j])
    band = d.zhi - d.zlo
    above = Point3(x, y, float(zmax[k]) + 0.05 * band)
    below = Point3(x, y, d.zlo - 0.05 * band)
    return [inside, above, below]


def run(seed: int, seconds: float, tracer=None, max_ops: int | None = None
        ) -> Outcome:
    """Boxes until `seconds` pass (or `max_ops` boxes).

    A box's latency is sample_surface + oracle_envelope_many +
    oracle_membership calls; the closed-form references are computed outside
    it.  Work units are LP solves (grid queries plus membership queries).
    """
    rng = rng_for(seed, "oracle")
    bx = boxes()
    out = Outcome()
    columns, queries, infeasible, worst_gap = [], 0, 0, 0.0
    by_box = Counter()
    budget = Budget(seconds, max_ops,
                    MIN_OPS if tracer is None else 0)
    order: list = []
    i = 0
    while budget.more(i, not order):
        if i % REF_EVERY == 0:
            out.reference(i, timed(lp_kernel))
        if not order:
            order = [(b, n) for b in range(len(bx)) for n in N_SET]
            order = [order[j] for j in rng.permutation(len(order))]
        bi, n = order.pop()
        n += int(rng.integers(0, N_JITTER + 1)) * (1 if n == N_SET[0] else -1)
        name, d, _ = bx[bi]
        b = d.bounds
        gx = np.linspace(b.lx, 1.0, GRID)
        gy = np.linspace(b.ly, 1.0, GRID)
        xs, ys = (a.ravel() for a in np.meshgrid(gx, gy, indexing="ij"))
        zmin, zmax, _ = envelope_grid(d, gx, gy)
        zmin, zmax = zmin.ravel(), zmax.ravel()
        span = tracer.open("box") if tracer is not None else None
        t0 = perf_counter()
        try:
            s = call(tracer, "oracle.sample_surface", sample_surface, b, n)
            got = call(tracer, "oracle.envelope_many", oracle_envelope_many,
                       s, xs, ys, units=xs.size)
            t2 = perf_counter()
            reason, gap = check_oracle(got, zmin, zmax)
            pts = _membership_points(rng, s, d, gx, gy, got, zmax) \
                if reason is None else []
            t3 = perf_counter()
            answers = [call(tracer, "oracle.membership", oracle_membership,
                            s, p) for p in pts]
            t4 = perf_counter()
        except Exception as e:  # counted, and the stream goes on
            out.fail(i, name, "%s: %s" % (type(e).__name__, e),
                     perf_counter() - t0, wrong_result=False)
            i += 1
            continue
        finally:
            if span is not None:
                tracer.close(span)
        for p, a in zip(pts, answers):
            reason = reason or check_oracle_membership(membership(d, p), a)
        latency = (t2 - t0) + (t4 - t3)
        by_box[name] += 1
        columns.append(len(s))
        queries += xs.size + len(pts)
        infeasible += int(np.isnan(got).sum())
        worst_gap = max(worst_gap, gap)
        if reason is not None:
            out.fail(i, name, reason, latency, wrong_result=True)
        else:
            out.ok(latency, (name, n, got.tolist(), answers),
                   xs.size + len(pts))
        i += 1

    out.reference(i, timed(lp_kernel))
    grid_queries = sum(by_box.values()) * GRID * GRID
    out.mix = {
        "boxes": dict(sorted(by_box.items())),
        "columns_per_lp_mean": float(np.mean(columns)) if columns else 0.0,
        "infeasible_share": infeasible / max(1, grid_queries),
        "lp_queries": queries,
        "max_gap": worst_gap,
    }
    if tracer is not None:
        ss, _ = tracer.durations("oracle.sample_surface")
        em, units = tracer.durations("oracle.envelope_many")
        om, _ = tracer.durations("oracle.membership")
        out.layers = {
            "oracle.sample_surface.ms": median(ss) / 1e6 if ss.size else 0.0,
            "oracle.envelope_many.us_per_query":
                median(em / units) / 1e3 if em.size else 0.0,
            "oracle.membership.ms": median(om) / 1e6 if om.size else 0.0,
            "oracle.columns": out.mix["columns_per_lp_mean"],
            "oracle.infeasible_frac": out.mix["infeasible_share"],
        }
    return out
