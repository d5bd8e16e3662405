"""Workload `node`: the branch-and-cut node stream.

One client, no threads.  Each node turns a seeded raw box into a
description (hull_from_raw), then sends POINTS_PER_NODE relaxation points
through membership and the non-members through separate, the way a spatial
branch-and-bound loop calls the library.  Per-call work is microseconds, so
scalar Python and numpy overhead dominates; the array kernels and the
simplex are never reached.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

import numpy as np

from bilinear_hull import (
    Point3,
    classify,
    describe,
    hull_from_raw,
    lifted_tangent,
    membership,
    normalize,
    separate,
    tighten_with_scaling,
    worst_violation,
)

from checks import check_node_point
from common import Budget, Outcome, median, min_ops
from inputs import POINTS_PER_NODE, draw_node_box, rng_for, surface_cloud
from reference import python_kernel, timed

CLOUD_POINTS = 64
TAIL_Q = 0.99
# nodes per block; each block's p99 has about 20 nodes beyond it
BLOCK = 2048
BLOCK_QUANTILES = True
TAIL_MEAN = False
# A shared 2-vCPU host at times swings between two speeds, about 1.7x
# apart, within milliseconds, and the p99 nodes are then those that ran at
# the slow one.
# The tail is therefore given in units of the 90th percentile of the
# block's reference times (the slow speed), not their mean: with the mean,
# blocks that swung read a p99 1.15-1.19x that of blocks that did not, and
# runs differed by how much their host swung; with the 90th percentile,
# 0.94-0.96x.
TAIL_REF_Q = 0.9
MIN_OPS = min_ops(BLOCK, TAIL_Q, BLOCK_QUANTILES)
REF_EVERY = 128  # 16 timings per block

WARMUP = """
d, sc = bh.hull_from_raw(bh.RawBounds(0.14, 0.3, 0.1, 1.0, 1.0, 0.7))
bh.membership(d, bh.Point3(0.5, 0.5, 0.3))
bh.separate(d, bh.Point3(0.6, 0.6, 0.6))
"""


def _points(u: np.ndarray, d) -> list[tuple[float, float, float]]:
    b = d.bounds
    x = b.lx + u[:, 0] * (1.0 - b.lx)
    y = b.ly + u[:, 1] * (1.0 - b.ly)
    z = d.zlo + u[:, 2] * (d.zhi - d.zlo)
    return list(zip(x.tolist(), y.tolist(), z.tolist()))


def _cone_projection(b, x: float, y: float):
    # the projection separate() tangents at: the query clamped strictly
    # inside the box; None when it leaves lz < xy < uz
    eps = 1e-12
    xq = min(max(x, b.lx + eps), 1.0 - eps)
    yq = min(max(y, b.ly + eps), 1.0 - eps)
    return (xq, yq) if b.lz < xq * yq < b.uz else None


def _describe(raw, tracer):
    if tracer is None:
        return hull_from_raw(raw)[0], 0.0
    nb, _ = tracer.call("geometry.normalize", normalize, raw)
    tb, _ = tracer.call("geometry.tighten_with_scaling",
                        tighten_with_scaling, nb)
    d = tracer.call("hull.describe", describe, tb)
    p0 = perf_counter()
    tracer.call("hull.classify", classify, tb)
    return d, perf_counter() - p0


# The recorded tightening defect: on boxes where the ratio uz/ly stays one
# ulp under 1, tighten_with_scaling never settles and raises this bare error.
KNOWN_DEFECT = (RuntimeError, "bound tightening failed to reach a fixed point")


def _raised_in_tightening(e: BaseException) -> bool:
    tb = e.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code is tighten_with_scaling.__code__:
            return True
        tb = tb.tb_next
    return False


def is_known_defect(e: BaseException) -> bool:
    """True only for exactly the recorded defect; any other error, also a
    RuntimeError from elsewhere, is an ordinary failure."""
    return (type(e) is KNOWN_DEFECT[0] and str(e) == KNOWN_DEFECT[1]
            and _raised_in_tightening(e))


def _query(d, pts, tracer, routes: Counter):
    """membership for every point, separate for the non-members; in a
    traced run also the probes that attribute each cut to its route."""
    results = []
    probe = 0.0
    for x, y, z in pts:
        p = Point3(x, y, z)
        if tracer is None:
            m = membership(d, p)
            results.append((m, None if m else separate(d, p)))
            continue
        m = tracer.call("hull.membership", membership, d, p)
        cut = None if m else tracer.call("hull.separate", separate, d, p)
        results.append((m, cut))
        if cut is None:
            continue
        p0 = perf_counter()
        _, viol = tracer.call("hull.worst_violation", worst_violation, d, p)
        if viol is not None and viol["kind"] == "soc":
            routes["cone"] += 1
            proj = _cone_projection(d.bounds, x, y)
            if proj is not None:
                tracer.call("constraints.lifted_tangent", lifted_tangent,
                            d.bounds, *proj)
        probe += perf_counter() - p0
    return results, probe


def _timed_node(raw, u, tracer, routes):
    """(seconds inside the library, description, points, results)."""
    t0 = perf_counter()
    d, probe = _describe(raw, tracer)
    spent = perf_counter() - t0 - probe
    pts = _points(u, d)
    t1 = perf_counter()
    results, probe = _query(d, pts, tracer, routes)
    spent += perf_counter() - t1 - probe
    return spent, d, pts, results


def run(seed: int, seconds: float, tracer=None, max_ops: int | None = None
        ) -> Outcome:
    """Nodes until `seconds` pass (or `max_ops` nodes).

    A node's latency is the time inside hull_from_raw (or its traced
    composition normalize -> tighten_with_scaling -> describe) plus the
    membership/separate calls; drawing and checking happen outside it, and
    so do the traced-only probes (classify, worst_violation, lifted_tangent).
    A traced run also times every node once untraced, alternately before
    and after the traced pass, as the baseline of the tracing overhead.
    """
    rng = rng_for(seed, "node")
    crng = rng_for(seed, "node-cloud")
    out = Outcome()
    kinds, regions, labels, errors, routes = (Counter() for _ in range(5))
    n_points = n_violated = n_swapped = n_valid = 0
    budget = Budget(seconds, max_ops,
                    MIN_OPS if tracer is None else 0)
    i = 0
    while budget.more(i):
        if i % REF_EVERY == 0:
            out.reference(i, timed(python_kernel))
        kind, _, raw = draw_node_box(rng)
        u = rng.random((POINTS_PER_NODE, 3))
        kinds[kind] += 1
        t0 = perf_counter()
        try:
            if tracer is None:
                spent, d, pts, results = _timed_node(raw, u, None, routes)
            else:
                tracer.req = i
                if i % 2:
                    base = _timed_node(raw, u, None, routes)[0]
                span = tracer.open("node")
                try:
                    spent, d, pts, results = _timed_node(raw, u, tracer, routes)
                finally:
                    tracer.close(span)
                if not i % 2:
                    base = _timed_node(raw, u, None, routes)[0]
                out.baseline.append(base)
                out.traced.append(spent)
        except Exception as e:  # the stream goes on; the node counts as failed
            # in a traced run an odd node's untraced pass raises first, so
            # the tightening failures are counted here for every node
            errors[type(e).__name__] += 1
            if tracer is not None and _raised_in_tightening(e):
                tracer.count("geometry.tighten_with_scaling.failed")
            out.fail(i, kind, "%s: %s" % (type(e).__name__, e),
                     perf_counter() - t0, wrong_result=False,
                     known_defect=is_known_defect(e))
            i += 1
            continue

        regions[(d.case.region.value, d.case.swapped)] += 1
        n_swapped += d.case.swapped
        cloud = None
        reason = None
        for (x, y, z), (m, cut) in zip(pts, results):
            n_points += 1
            n_violated += not m
            if cut is not None:
                labels[cut.label] += 1
                if cloud is None:
                    cloud = surface_cloud(crng, d.bounds, CLOUD_POINTS)
            r = check_node_point(m, cut, (x, y, z), cloud)
            n_valid += r is None and cut is not None
            reason = reason or r
        if reason is not None:
            out.fail(i, kind, reason, spent, wrong_result=True)
        else:
            out.ok(spent, (d.case.region.value, d.case.swapped,
                           [(m, None if c is None else
                             (c.label, c.a0, c.ax, c.ay, c.az))
                            for m, c in results]))
        i += 1

    out.reference(i, timed(python_kernel))
    n_cuts = sum(labels.values())
    out.mix = {
        "draw_kinds": dict(sorted(kinds.items())),
        "regions": {"%s%s" % (r, "/swapped" if s else ""): n
                    for (r, s), n in sorted(regions.items())},
        "swapped_share": n_swapped / max(1, sum(regions.values())),
        "points": n_points,
        "violated_share": n_violated / max(1, n_points),
        "cuts_by_label": dict(sorted(labels.items())),
        "errors": dict(errors),
    }
    if tracer is not None:
        out.layers = {
            "hull.separate.cone_route_frac": routes["cone"] / max(1, n_cuts),
            "hull.separate.cut_valid_frac": n_valid / max(1, n_cuts),
            "geometry.tighten_with_scaling.failed":
                tracer.counts.get("geometry.tighten_with_scaling.failed", 0.0),
        }
        for name in ("geometry.normalize", "geometry.tighten_with_scaling",
                     "hull.classify", "hull.describe", "hull.membership",
                     "hull.separate", "constraints.lifted_tangent"):
            dur, _ = tracer.durations(name)
            out.layers[name + ".us"] = median(dur) / 1e3 if dur.size else 0.0
    return out
