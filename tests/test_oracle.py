"""Sampled-hull LP oracle: surface clouds, envelope and membership queries."""

import gc
import hashlib
import pickle

import numpy as np
import pytest

from bilinear_hull import (
    BilinearHullError,
    Infeasible,
    NormalizedBounds,
    Point3,
    RawBounds,
    SolverError,
    describe,
    envelope_grid,
    envelopes,
    hull_from_raw,
    oracle_envelope,
    oracle_envelope_many,
    oracle_membership,
    sample_surface,
)
from bilinear_hull import oracle
from test_acceptance import CONFIGS

EPS = np.finfo(float).eps


def test_two_point_grid_is_the_corners():
    s = sample_surface(NormalizedBounds(0, 0, 0, 1), 2)
    assert len(s) == 4
    pts = sorted(zip(s.x, s.y, s.z))
    assert pts == [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)]


def test_samples_live_on_the_surface():
    cases = [
        NormalizedBounds(0, 0, 0, 0.4),
        NormalizedBounds(0.2, 0.2, 0.2, 0.7),
        NormalizedBounds(0.32, 0.28, 0.1, 0.7),
        NormalizedBounds(0.5, 0.3, 0.3, 1.0),
    ]
    for b in cases:
        s = sample_surface(b, 41)
        assert len(s) > 100
        assert np.all(np.abs(s.z - s.x * s.y) <= 1e-15)
        assert np.all((s.x >= b.lx) & (s.x <= 1.0))
        assert np.all((s.y >= b.ly) & (s.y <= 1.0))
        assert np.all(s.z >= b.lz - 1e-12)
        assert np.all(s.z <= b.uz + 1e-12)
        # duplicate-free
        assert len(np.unique(np.column_stack([s.x, s.y]), axis=0)) == len(s)


def test_samples_stay_in_the_box_on_random_bounds():
    # the xy = uz trace ran past y = ly where uz < ly, which tightening
    # rules out but NormalizedBounds allows
    s = sample_surface(NormalizedBounds(0, 0.5, 0, 0.4), 11)
    assert s.y.min() == 0.5
    rng = np.random.default_rng(31)
    boxes = _random_bounds(150, 31)
    while len(boxes) < 300:
        lx, ly = rng.uniform(0.0, 0.95, 2) * (rng.random(2) < 0.7)
        lz, uz = np.sort(rng.uniform(lx * ly, 1.0, 2))
        if rng.random() < 0.3:
            lz = lx * ly
        try:
            boxes.append(NormalizedBounds(lx, ly, lz, uz))
        except BilinearHullError:
            pass
    for b in boxes:
        s = sample_surface(b, int(rng.integers(2, 40)))
        assert np.all((s.x >= b.lx) & (s.x <= 1.0)), b
        assert np.all((s.y >= b.ly) & (s.y <= 1.0)), b
        assert np.all((s.z >= b.lz - 1e-12) & (s.z <= b.uz + 1e-12)), b


def test_sampler_is_deterministic():
    b = NormalizedBounds(0.2, 0.2, 0.2, 0.7)
    s1 = sample_surface(b, 31)
    s2 = sample_surface(b, 31)
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.y, s2.y)
    assert np.array_equal(s1.z, s2.z)


def test_sampler_rejects_tiny_n():
    b = NormalizedBounds(0, 0, 0, 1)
    # a count must be an integer, even one a float holds exactly
    for n in (1, 2.5, 3.0):
        with pytest.raises(ValueError, match="n >= 2"):
            sample_surface(b, n)
    assert len(sample_surface(b, np.int64(3))) == len(sample_surface(b, 3))


def test_oracle_envelope_example():
    d, _ = hull_from_raw(RawBounds(0, 0, 0, 1, 1, 0.4))
    s = sample_surface(d.bounds, 101)
    analytic = envelopes(d, 0.5, 0.5)[1]
    got = oracle_envelope(s, 0.5, 0.5)
    # inner approximation: never above the analytic cap
    assert got <= analytic + 1e-9
    # and within the discretization error of a 101-point grid
    assert analytic - got <= 8e-3


def test_oracle_envelope_raises_outside_projection():
    d, _ = hull_from_raw(RawBounds(0, 0, 0.2, 1, 1, 0.7))
    s = sample_surface(d.bounds, 41)
    with pytest.raises(Infeasible):
        oracle_envelope(s, 0.25, 0.3)  # x*y < lz
    # the analytic description agrees the slice is empty
    lo, hi = envelopes(d, 0.25, 0.3)
    assert lo > hi


def test_oracle_envelope_many_marks_infeasible_nan():
    d, _ = hull_from_raw(RawBounds(0, 0, 0.2, 1, 1, 0.7))
    s = sample_surface(d.bounds, 41)
    xs = np.array([0.25, 0.5, 0.9])
    ys = np.array([0.3, 0.6, 0.8])
    out = oracle_envelope_many(s, xs, ys)
    assert np.isnan(out[0])
    assert not np.isnan(out[1]) and not np.isnan(out[2])


def test_oracle_envelope_many_is_deterministic():
    d, _ = hull_from_raw(RawBounds(0.14, 0.3, 0.1, 1, 1, 0.7))
    s = sample_surface(d.bounds, 51)
    g = np.linspace(d.bounds.lx, 1.0, 9)
    h = np.linspace(d.bounds.ly, 1.0, 9)
    xs, ys = [a.ravel() for a in np.meshgrid(g, h, indexing="ij")]
    o1 = oracle_envelope_many(s, xs, ys)
    o2 = oracle_envelope_many(s, xs, ys)
    assert np.array_equal(o1, o2, equal_nan=True)


def test_oracle_envelope_many_checks_its_query_shapes():
    s = sample_surface(NormalizedBounds(0, 0, 0, 0.4), 21)
    # lists work, as arrays do
    got = oracle_envelope_many(s, [0.5, 0.6], [0.5, 0.6])
    want = oracle_envelope_many(s, np.array([0.5, 0.6]), np.array([0.5, 0.6]))
    assert np.array_equal(got, want)
    for xs, ys in (([0.5, 0.6], [0.5]),
                   ([0.5], [0.5, 0.6]),
                   (np.full((2, 2), 0.5), np.full((2, 2), 0.5)),
                   (0.5, 0.5)):
        with pytest.raises(ValueError, match="1-D and of the same length"):
            oracle_envelope_many(s, xs, ys)


def test_oracle_agrees_with_analytic_envelopes():
    for raw in [RawBounds(0, 0, 0, 1, 1, 0.4),
                RawBounds(0.14, 0.2, 0.1, 1, 1, 0.7)]:
        d, _ = hull_from_raw(raw)
        b = d.bounds
        s = sample_surface(b, 101)
        g = np.linspace(b.lx, 1.0, 11)
        h = np.linspace(b.ly, 1.0, 11)
        _, zmax, _ = envelope_grid(d, g, h)
        xs, ys = [a.ravel() for a in np.meshgrid(g, h, indexing="ij")]
        got = oracle_envelope_many(s, xs, ys)
        ref = zmax.ravel()
        feas = ~np.isnan(got)
        assert np.all(got[feas] <= ref[feas] + 1e-9)
        assert np.all(ref[feas] - got[feas] <= 8e-3)


def test_oracle_membership_examples():
    d, _ = hull_from_raw(RawBounds(0, 0, 0, 1, 1, 0.4))
    s = sample_surface(d.bounds, 61)
    assert oracle_membership(s, Point3(0.5, 0.5, 0.25))
    assert oracle_membership(s, Point3(0.5, 0.5, 0.3))
    assert not oracle_membership(s, Point3(0.5, 0.5, 0.35))
    assert not oracle_membership(s, Point3(0.5, 0.5, -0.05))
    assert oracle_membership(s, Point3(1.0, 0.4, 0.4))  # surface corner


def test_oracle_membership_tracks_analytic():
    rng = np.random.default_rng(109)
    d, _ = hull_from_raw(RawBounds(0, 0, 0.2, 1, 1, 0.7))
    s = sample_surface(d.bounds, 81)
    from bilinear_hull import membership

    checked = 0
    while checked < 120:
        x = rng.uniform(d.bounds.lx, 1.0)
        y = rng.uniform(d.bounds.ly, 1.0)
        lo, hi = envelopes(d, x, y)
        if lo > hi:
            continue
        checked += 1
        # clearly interior and clearly exterior points; skip the thin shell
        mid = Point3(x, y, 0.5 * (lo + hi))
        if hi - lo > 2e-2:
            assert membership(d, mid)
            assert oracle_membership(s, mid)
        off = Point3(x, y, hi + 0.05)
        assert not membership(d, off)
        assert not oracle_membership(s, off)


def test_sampler_dedupe_matches_unique_rows():
    for _, raw in CONFIGS:
        d, _ = hull_from_raw(raw)
        for n in (2, 17, 61):
            s = sample_surface(d.bounds, n)
            ref = np.unique(np.vstack(_raw_samples(d.bounds, n)), axis=0)
            assert np.array_equal(s.x, ref[:, 0])
            assert np.array_equal(s.y, ref[:, 1])
            assert np.array_equal(s.z, ref[:, 0] * ref[:, 1])


def _raw_samples(b, n):
    """(k, 2) blocks of (x, y) samples, duplicates included: the grid, the
    traces of xy = lz and xy = uz, and the feasible box corners."""
    xs = np.linspace(b.lx, 1.0, n)
    ys = np.linspace(b.ly, 1.0, n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    gx = gx.ravel()
    gy = gy.ravel()
    keep = (gx * gy >= b.lz - 1e-12) & (gx * gy <= b.uz + 1e-12)
    parts = [np.column_stack([gx[keep], gy[keep]])]
    for c, traced in ((b.lz, b.lz > 0.0), (b.uz, b.uz < 1.0)):
        xlo = max(b.lx, c)
        xhi = min(1.0, c / b.ly) if b.ly > 0.0 else 1.0
        if traced and xhi >= xlo:
            cx = np.linspace(xlo, xhi, n)
            parts.append(np.column_stack([cx, np.maximum(c / cx, b.ly)]))
    corners = [(px, py) for px in (b.lx, 1.0) for py in (b.ly, 1.0)
               if b.lz - 1e-12 <= px * py <= b.uz + 1e-12]
    if corners:
        parts.append(np.array(corners))
    return parts


def _sorted_reference(b, n):
    """The samples and the frame by a sort of every raw sample, grid first,
    and a sort of the samples by y and then x."""
    pts = np.vstack(_raw_samples(b, n))
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    x = pts[order, 0]
    y = pts[order, 1]
    keep = np.ones(x.shape, dtype=bool)
    keep[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    x = x[keep]
    y = y[keep]
    ends = oracle._run_ends(x)
    order = np.lexsort((x, y))
    ends[order] &= oracle._run_ends(y[order])
    return x, y, x * y, np.flatnonzero(ends)


def _sampler_boxes(count, seed):
    """Edge boxes, then seeded random ones: zero corners, lz = 0, uz = 1,
    lx = lz (the lz trace starts on a grid row) and uz below ly (the uz
    trace clamped to y = ly)."""
    out = [NormalizedBounds(-0.0, -0.0, 0.0, 0.5),  # signed zero corner
           NormalizedBounds(1.0 - EPS / 2, 0.0, 0.0, 1.0),  # tied grid x
           NormalizedBounds(0.0, 1.0 - EPS / 2, 0.0, 0.7),  # tied grid y
           NormalizedBounds(0.0, 0.5, 0.0, 0.4)]
    rng = np.random.default_rng(seed)
    while len(out) < count:
        lx, ly = rng.uniform(0.0, 0.95, 2) * (rng.random(2) < 0.7)
        lz, uz = np.sort(rng.uniform(lx * ly, 1.0, 2))
        kind = rng.integers(5)
        if kind == 0:
            lz = 0.0
        elif kind == 1:
            uz = 1.0
        elif kind == 2:
            lz = lx
        elif kind == 3:
            uz = ly * rng.uniform(0.3, 1.0)
        try:
            out.append(NormalizedBounds(lx, ly, lz, uz))
        except BilinearHullError:
            pass
    return out


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def test_sampler_matches_a_sort_of_every_sample():
    # the kept grid is merged with the sorted traces and corners, in place
    # of one sort of everything; the samples and the frame keep every bit
    bulk = [hull_from_raw(raw)[0].bounds for _, raw in CONFIGS]
    bulk.append(describe(NormalizedBounds(0.0, 0.0, 0.2, 0.7)).bounds)
    rng = np.random.default_rng(24)
    cases = [(b, n) for b in bulk[:-1] for n in (2, 17, 61, 201)]
    cases += [(b, n) for b in bulk for n in range(2, 260)]
    cases += [(b, int(rng.integers(2, 90))) for b in _sampler_boxes(600, 24)]
    for b, n in cases:
        s = sample_surface(b, n)
        got = [_bits(a) for a in (s.x, s.y, s.z, s.frame)]
        assert got == [_bits(a) for a in _sorted_reference(b, n)], (b, n)


def test_frame_from_the_merge_matches_its_definition():
    # sample_surface fills the frame from its merge; a sample built by hand
    # or unpickled computes it by the stable argsort on y, its definition
    bulk = [hull_from_raw(raw)[0].bounds for _, raw in CONFIGS]
    bulk.append(describe(NormalizedBounds(0.0, 0.0, 0.2, 0.7)).bounds)
    rng = np.random.default_rng(25)
    cases = [(b, n) for b in bulk for n in (2, 17, 61, 151, 201)]
    cases += [(b, int(rng.integers(2, 90))) for b in _sampler_boxes(600, 25)]
    for b, n in cases:
        s = sample_surface(b, n)
        merged = s._frame
        by_hand = oracle.SurfaceSample(s.x, s.y, s.z, s.bounds, s.n)
        unpickled = pickle.loads(pickle.dumps(s))
        assert merged is not None
        assert by_hand._frame is None and unpickled._frame is None
        assert _bits(by_hand.frame) == _bits(merged), (b, n)
        assert _bits(unpickled.frame) == _bits(merged), (b, n)


def test_sampler_boxes_reach_every_edge():
    # the random boxes of the test above reach the cases they are drawn for
    boxes = _sampler_boxes(600, 24)
    assert any(b.lx == 0.0 and b.ly == 0.0 for b in boxes)
    assert sum(b.lz == 0.0 for b in boxes) > 50
    assert sum(b.uz == 1.0 for b in boxes) > 50
    assert sum(b.lz == b.lx > 0.0 for b in boxes) > 50
    assert sum(b.uz < b.ly for b in boxes) > 50  # the uz trace at y = ly


def _cold(s, x, y):
    try:
        return oracle_envelope(s, x, y)
    except Infeasible:
        return np.nan


def _grid(raw, n):
    """The sample of `raw`'s box at density n and its 9x9 query grid."""
    d, _ = hull_from_raw(raw)
    b = d.bounds
    g = np.linspace(b.lx, 1.0, 9)
    h = np.linspace(b.ly, 1.0, 9)
    xs, ys = [a.ravel() for a in np.meshgrid(g, h, indexing="ij")]
    return sample_surface(b, n), xs, ys


def test_working_set_queries_match_cold_queries():
    # one shared certificate store against a fresh solver per query
    for _, raw in CONFIGS:
        s, xs, ys = _grid(raw, 61)
        shared = oracle_envelope_many(s, xs, ys)
        cold = np.array([_cold(s, x, y) for x, y in zip(xs, ys)])
        assert np.array_equal(np.isnan(shared), np.isnan(cold)), raw
        feas = ~np.isnan(cold)
        assert feas.any()
        assert np.max(np.abs(shared[feas] - cold[feas])) <= 1e-12, raw


@pytest.mark.parametrize("n", [61, 201])
def test_query_order_does_not_change_results(n):
    # the certificates an order stores first answer the later queries, so
    # each order reuses different ones
    rng = np.random.default_rng(20)
    for _, raw in CONFIGS:
        s, xs, ys = _grid(raw, n)
        cold = np.array([_cold(s, x, y) for x, y in zip(xs, ys)])
        feas = ~np.isnan(cold)
        for order in (np.arange(xs.size)[::-1], rng.permutation(xs.size)):
            got = np.empty_like(cold)
            got[order] = oracle_envelope_many(s, xs[order], ys[order])
            assert np.array_equal(np.isnan(got), ~feas), raw
            assert np.max(np.abs(got[feas] - cold[feas])) <= 1e-12, raw


def _count_iterate(monkeypatch):
    calls = []
    iterate = oracle._Simplex._iterate

    def counted(*args, **kwargs):
        calls.append(1)
        return iterate(*args, **kwargs)

    monkeypatch.setattr(oracle._Simplex, "_iterate", counted)
    return calls


def test_warm_starts_replace_phase1(monkeypatch):
    # a query that no certified basis covers starts phase 2 from the
    # visited basis that is primal feasible for it with the least
    # objective; phase 1 runs only where no visited basis is feasible
    phase1, iterate = oracle._Simplex.phase1, oracle._Simplex._iterate
    events = []

    def counted_phase1(self, rhs):
        events.append("phase1")
        return phase1(self, rhs)

    def checked_iterate(self, rhs, cols, c, basis, *args, **kwargs):
        if cols is self.a and "phase1" not in events:
            xb = np.linalg.solve(self.a[:, basis], rhs)
            assert xb.min() >= -1e-12
            ok = [k for k in range(len(self.visited))
                  if np.all(self.vbinvs[k] @ rhs >= 0.0)]
            assert list(basis) in [self.visited[k] for k in ok]
            least = min(self.vys[k] @ rhs for k in ok)
            assert self.cost[basis] @ xb <= least + 1e-12
            events.append("warm")
        return iterate(self, rhs, cols, c, basis, *args, **kwargs)

    monkeypatch.setattr(oracle._Simplex, "phase1", counted_phase1)
    monkeypatch.setattr(oracle._Simplex, "_iterate", checked_iterate)
    for _, raw in CONFIGS:
        s, xs, ys = _grid(raw, 61)
        f = s.frame
        a = np.vstack([s.x[f], s.y[f], np.ones(f.size)])
        lp = oracle._Simplex(a, -s.z[f])
        got = np.full(xs.size, np.nan)
        misses = phase1_runs = warm = 0
        for k, (x, y) in enumerate(zip(xs, ys)):
            del events[:]
            try:
                v = lp.solve(np.array([x, y, 1.0]))
                got[k] = s.z[f][v.basis] @ v.xb
            except Infeasible:
                pass
            misses += bool(events)
            phase1_runs += "phase1" in events
            warm += "warm" in events
        assert 0 < warm and phase1_runs < misses, raw
        assert misses == phase1_runs + warm, raw
        cold = np.array([_cold(s, x, y) for x, y in zip(xs, ys)])
        assert np.array_equal(np.isnan(got), np.isnan(cold)), raw
        feas = ~np.isnan(cold)
        assert np.max(np.abs(got[feas] - cold[feas])) <= 1e-12, raw
        assert len(lp.visited) == len(lp.vbinvs) == len(lp.vys), raw
        for basis, binv, y in zip(lp.visited, lp.vbinvs, lp.vys):
            assert np.allclose(binv @ a[:, basis], np.eye(3), atol=1e-12)
            assert np.array_equal(y, lp.cost[basis] @ binv), raw


def test_stored_certificates_hold_over_every_column():
    for _, raw in CONFIGS:
        s, xs, ys = _grid(raw, 61)
        a = np.vstack([s.x, s.y, np.ones_like(s.x)])
        cost = -s.z
        lp = oracle._Simplex(a, cost)
        for x, y in zip(xs, ys):
            try:
                lp.solve(np.array([x, y, 1.0]))
            except Infeasible:
                pass
        assert lp.bases and len(lp.binvs) == len(lp.bases)
        for (basis, binv), stacked in zip(lp.bases, lp.binvs):
            assert np.array_equal(binv, stacked)
            assert np.allclose(binv @ a[:, basis], np.eye(3), atol=1e-12)
            rc = cost - (cost[basis] @ binv) @ a
            assert rc.min() >= -oracle._RC_TOL, raw
        for ray in lp.rays:
            assert (ray @ a).max() <= oracle._RC_TOL, raw
        # a solver over the frame columns, checked over every sample
        f = s.frame
        lp = oracle._Simplex(a[:, f], cost[f])
        for x, y in zip(xs, ys):
            try:
                lp.solve(np.array([x, y, 1.0]))
            except Infeasible:
                pass
        assert lp.bases and lp.rays.size, raw
        for basis, binv in lp.bases:
            rc = cost - (cost[f][basis] @ binv) @ a
            assert rc.min() >= -oracle._RC_TOL, raw
        assert (lp.rays @ a).max() <= oracle._RC_TOL, raw
    # the rays of the membership solver kept on a sample
    s, xs, ys = _grid(CONFIGS[2][1], 41)
    for x, y in zip(xs, ys):
        oracle_membership(s, Point3(x, y, x * y + 0.2))
    lp = s._lp
    assert len(lp.rays)
    assert (lp.rays @ lp.a).max() <= oracle._RC_TOL
    every = np.vstack([s.x, s.y, s.z, np.ones(len(s))])
    assert (lp.rays @ every).max() <= oracle._RC_TOL


def test_a_ray_answers_only_past_its_bound(monkeypatch):
    d, _ = hull_from_raw(RawBounds(0, 0, 0.2, 1, 1, 0.7))
    s = sample_surface(d.bounds, 41)
    a = np.vstack([s.x, s.y, np.ones_like(s.x)])
    lp = oracle._Simplex(a, -s.z)
    outside = np.array([0.25, 0.3, 1.0])  # x*y < lz
    with pytest.raises(Infeasible):
        lp.solve(outside)
    assert lp.rays.shape == (1, 3)
    ray = lp.rays[0]

    def margin(rhs):
        return (ray @ rhs - oracle._RC_TOL) / (1.0 + oracle._RC_TOL)

    # walk from a sample, where the margin is <= 0, towards the query
    inside = a[:, 0]
    lo, hi = margin(inside), margin(outside)
    assert lo <= 0.0 < oracle._FEAS_TOL < hi
    calls = _count_iterate(monkeypatch)
    for rel, solved in ((1e-3, False), (-1e-3, True)):
        t = (oracle._FEAS_TOL * (1.0 + rel) - lo) / (hi - lo)
        rhs = inside + t * (outside - inside)
        assert (margin(rhs) > oracle._FEAS_TOL) is not solved
        del calls[:]
        try:
            lp.phase1(rhs)
        except Infeasible:
            pass
        assert len(calls) == int(solved), rel


def test_repeated_queries_come_from_the_store(monkeypatch):
    calls = _count_iterate(monkeypatch)
    for _, raw in CONFIGS:
        s, xs, ys = _grid(raw, 61)
        once = oracle_envelope_many(s, xs, ys)
        first = len(calls)
        twice = oracle_envelope_many(s, np.concatenate([xs, xs]),
                                     np.concatenate([ys, ys]))
        # the second copy of the grid runs no simplex iteration
        assert len(calls) - first == first, raw
        assert np.array_equal(twice[:xs.size], once, equal_nan=True), raw
        assert np.array_equal(twice[xs.size:], once, equal_nan=True), raw
        del calls[:]


def test_queries_leave_no_reference_cycles():
    # a certificate held by an exception, which holds the raising frame,
    # would keep a solver's columns alive until the cyclic collector ran
    s, xs, ys = _grid(CONFIGS[2][1], 41)
    outside = Point3(0.5, 0.5, 0.6)

    def queries():
        assert np.isnan(oracle_envelope_many(s, xs, ys)).any()
        assert not oracle_membership(s, outside)

    queries()  # first calls of lazily set-up library code
    gc.collect()
    gc.disable()
    try:
        queries()
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_degenerate_artificial_is_driven_out():
    # the corner (1, uz) is a single sample, so phase 1 ends with zero-level
    # artificials still basic
    d, _ = hull_from_raw(RawBounds(0, 0, 0, 1, 1, 0.4))
    s = sample_surface(d.bounds, 61)
    a = np.vstack([s.x, s.y, np.ones_like(s.x)])
    rhs = np.array([1.0, 0.4, 1.0])
    lp = oracle._Simplex(a, -s.z)
    v = lp.phase1(rhs)
    stuck = [i for i, j in enumerate(v.basis) if j >= lp.n]
    assert stuck
    # the column a search over every non-basic column would pick
    bmat = np.hstack([a, np.eye(3)])[:, v.basis]
    i = stuck[0]
    want = next(j for j in range(lp.n) if j not in v.basis
                and abs(np.linalg.solve(bmat, a[:, j])[i]) > oracle._PIVOT_TOL)
    out = lp._drive_out(v, rhs)
    assert out.basis[i] == want
    assert all(j < lp.n for j in out.basis)
    assert np.allclose(a[:, out.basis] @ out.xb, rhs, atol=1e-12)
    assert oracle_envelope(s, 1.0, 0.4) == pytest.approx(0.4, abs=1e-12)


def test_solver_breakdown_is_not_a_non_member(monkeypatch):
    s = sample_surface(NormalizedBounds(0, 0, 0, 0.4), 21)

    def broken(*args, **kwargs):
        raise SolverError("simplex iteration limit hit")

    monkeypatch.setattr(oracle._Simplex, "_iterate", broken)
    with pytest.raises(SolverError):
        oracle_membership(s, Point3(0.5, 0.5, 0.2))


def test_breakdown_paths_raise_solver_error():
    # the smallest inputs that reach each breakdown: a column that lowers
    # the cost with no row to stop it, a row that no real column reaches
    # from the artificial's, and a basis whose two columns are equal
    lp = oracle._Simplex(np.array([[1.0, -1.0]]), np.array([-1.0, 0.0]))
    with pytest.raises(SolverError, match="^unbounded LP direction$"):
        lp.solve(np.array([0.0]))
    lp = oracle._Simplex(np.ones((2, 2)), np.array([0.0, -1.0]))
    with pytest.raises(SolverError,
                       match="^artificial variable stuck in basis$"):
        lp.solve(np.ones(2))
    with pytest.raises(SolverError, match="^singular simplex basis$"):
        oracle._vertex(np.array([[1.0, 1.0], [2.0, 2.0]]), [0, 1], np.ones(2))


def test_check_solution_raises_solver_error():
    a = np.array([[0.0, 1.0], [1.0, 1.0]])
    v = oracle._Vertex([0, 1], np.eye(2), np.array([0.5, 0.5]))
    oracle._check_solution(a, np.array([0.5, 1.0]), v)
    with pytest.raises(SolverError):
        oracle._check_solution(a, np.array([0.5, 1.5]), v)


@pytest.mark.parametrize("n", [61, 201])
def test_frame_drops_only_samples_on_a_chord(n):
    # a sample strictly inside its run of equal x or of equal y lies on the
    # chord between the run's ends, as z = xy is linear along the run, so it
    # is never a vertex of the sampled hull; the frame, the samples that end
    # both their runs, holds every vertex and spans the hull
    for _, raw in CONFIGS:
        d, _ = hull_from_raw(raw)
        s = sample_surface(d.bounds, n)
        before = repr(s), pickle.dumps(s)
        frame = s.frame
        assert (repr(s), pickle.dumps(s)) == before
        assert s.frame is frame
        ends_both = np.ones(len(s), dtype=bool)
        inside = np.zeros(len(s), dtype=bool)
        for along, other in ((s.x, s.y), (s.y, s.x)):
            ends = np.zeros(len(s), dtype=bool)
            for u in np.unique(along):
                run = np.flatnonzero(along == u)
                lo = run[np.argmin(other[run])]
                hi = run[np.argmax(other[run])]
                ends[[lo, hi]] = True
                mid = run[(run != lo) & (run != hi)]
                assert np.all(other[lo] < other[mid]), raw
                assert np.all(other[mid] < other[hi]), raw
                t = (other[mid] - other[lo]) / (other[hi] - other[lo])
                chord = s.z[lo] + t * (s.z[hi] - s.z[lo])
                assert np.all(np.abs(s.z[mid] - chord) <= 4 * EPS), raw
                inside[mid] = True
            ends_both &= ends
        assert frame.tolist() == np.flatnonzero(ends_both).tolist(), raw
        dropped = np.ones(len(s), dtype=bool)
        dropped[frame] = False
        assert dropped.any() and np.all(inside[dropped]), raw


@pytest.mark.parametrize("n", [61, 201])
def test_frame_has_at_most_6n_plus_4_columns(n):
    for _, raw in CONFIGS:
        d, _ = hull_from_raw(raw)
        s = sample_surface(d.bounds, n)
        assert len(s.frame) <= 6 * n + 4, raw


def _random_bounds(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        lx, ly = rng.uniform(0.0, 0.6, 2) * (rng.random(2) < 0.7)
        lz, uz = np.sort(rng.uniform(lx * ly, 1.0, 2))
        try:
            out.append(hull_from_raw(RawBounds(lx, ly, lz, 1.0, 1.0, uz))
                       [0].bounds)
        except BilinearHullError:
            pass
    return out


def _envelopes(lp, z, xs, ys):
    """The envelope values of an LP over columns (x, y, 1) at cost -z,
    NaN where infeasible."""
    out = np.full(xs.size, np.nan)
    for k, (x, y) in enumerate(zip(xs, ys)):
        try:
            v = lp.solve(np.array([x, y, 1.0]))
        except Infeasible:
            continue
        out[k] = z[v.basis] @ v.xb
    return out


def _every_sample_answers(s, xs, ys, points):
    """Envelope and membership answers of solvers over every sample."""
    ones = np.ones(len(s))
    env = _envelopes(oracle._Simplex(np.vstack([s.x, s.y, ones]), -s.z),
                     s.z, xs, ys)
    lp = oracle._Simplex(np.vstack([s.x, s.y, s.z, ones]), np.zeros(len(s)))
    member = []
    for p in points:
        try:
            lp.phase1(np.array([p.x, p.y, p.z, 1.0]))
        except Infeasible:
            member.append(False)
        else:
            member.append(True)
    return env, member


def _probe_points(s, env, xs, ys, rng):
    """Points 1e-6 above and below the sampled envelope, and centroids of
    a few samples."""
    pts = []
    for k in np.flatnonzero(~np.isnan(env))[::4]:
        for dz in (-1e-6, 1e-6):
            pts.append(Point3(xs[k], ys[k], env[k] + dz))
    for _ in range(5):
        pick = rng.choice(len(s), 3, replace=False)
        pts.append(Point3(*(float(c[pick].mean()) for c in (s.x, s.y, s.z))))
    return pts


@pytest.mark.parametrize("boxes", ["configs", "random"])
def test_frame_solver_matches_every_sample_solver(boxes):
    rng = np.random.default_rng(21)
    if boxes == "configs":
        cases = [(hull_from_raw(raw)[0].bounds, 61) for _, raw in CONFIGS]
    else:
        cases = [(b, int(rng.integers(5, 42)))
                 for b in _random_bounds(24, 21)]
    for b, n in cases:
        s = sample_surface(b, n)
        xs, ys = [a.ravel() for a in np.meshgrid(
            np.linspace(b.lx, 1.0, 9), np.linspace(b.ly, 1.0, 9),
            indexing="ij")]
        got = oracle_envelope_many(s, xs, ys)
        pts = _probe_points(s, got, xs, ys, rng)
        ref, member = _every_sample_answers(s, xs, ys, pts)
        assert np.array_equal(np.isnan(got), np.isnan(ref)), b
        feas = ~np.isnan(ref)
        assert feas.any(), b
        assert np.max(np.abs(got[feas] - ref[feas])) <= 1e-12, b
        assert [oracle_membership(s, p) for p in pts] == member, b


def test_zero_envelope_is_positive_zero():
    s = sample_surface(NormalizedBounds(0, 0, 0, 1), 11)
    got = oracle_envelope_many(s, np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    assert got.tolist() == [0.0, 0.0]
    assert not np.signbit(got).any()


@pytest.mark.parametrize("n", [61, 201])
def test_blands_rule_gives_the_default_answers(monkeypatch, n):
    # with no stall allowed, Bland's rule picks every entering column.  It
    # ends at other optimal bases of these degenerate LPs, some of them
    # ill-conditioned, so the values agree to the optimality tolerance.
    # Every box at n = 61; at n = 201, where Bland's rule takes seconds a
    # box, the two whose grids reach a rounding-sized pivot element, which
    # would make the basis singular without a fresh inverse
    boxes = [raw for _, raw in CONFIGS] if n == 61 else [
        RawBounds(0, 0, 0.2, 1, 1, 1), RawBounds(0, 0, 0.2, 1, 1, 0.7)]
    for raw in boxes:
        s, xs, ys = _grid(raw, n)
        f = s.frame
        a = np.vstack([s.x[f], s.y[f], np.ones(f.size)])
        default = oracle._Simplex(a, -s.z[f])
        want = _envelopes(default, s.z[f], xs, ys)
        assert np.array_equal(want, oracle_envelope_many(s, xs, ys),
                              equal_nan=True), raw
        with monkeypatch.context() as m:
            m.setattr(oracle, "_STALL_LIMIT", 0)
            bland = oracle._Simplex(a, -s.z[f])
            got = _envelopes(bland, s.z[f], xs, ys)
        assert [b for b, _ in bland.bases] != [b for b, _ in default.bases]
        assert np.array_equal(np.isnan(got), np.isnan(want)), raw
        feas = ~np.isnan(want)
        assert np.max(np.abs(got[feas] - want[feas])) <= oracle._RC_TOL, raw


def test_iteration_limit_raises_solver_error(monkeypatch):
    s, xs, ys = _grid(CONFIGS[2][1], 41)
    monkeypatch.setattr(oracle, "_MAX_ITER", 2)
    with pytest.raises(SolverError, match="iteration limit"):
        oracle_envelope_many(s, xs, ys)


def _counted_vertex(monkeypatch):
    """The (columns, basis) of every _vertex call from here on."""
    calls = []
    vertex = oracle._vertex

    def counted(cols, basis, rhs):
        calls.append((cols, tuple(basis)))
        return vertex(cols, basis, rhs)

    monkeypatch.setattr(oracle, "_vertex", counted)
    return calls


def _frame_lp(s):
    f = s.frame
    return oracle._Simplex(np.vstack([s.x[f], s.y[f], np.ones(f.size)]),
                           -s.z[f])


def test_each_visited_basis_is_inverted_once(monkeypatch):
    # a phase-2 pass on a basis in the visited store takes the stored
    # inverse and dual, so every inversion over A stores a new basis and
    # the store holds each basis once
    calls = _counted_vertex(monkeypatch)
    for _, raw in CONFIGS:
        s, xs, ys = _grid(raw, 61)
        lp = _frame_lp(s)
        inverted = 0
        for x, y in zip(xs, ys):
            stored = set(map(tuple, lp.visited))
            del calls[:]
            try:
                lp.solve(np.array([x, y, 1.0]))
            except Infeasible:
                pass
            over_a = [basis for cols, basis in calls if cols is lp.a]
            assert not stored.intersection(over_a), raw
            inverted += len(over_a)
        visited = [tuple(basis) for basis in lp.visited]
        assert len(set(visited)) == len(visited) == inverted, raw
        # a pass on a stored basis: no inversion with the store, one
        # without.  The basis is certified, so that pass ends the run, at
        # any rhs the basis keeps feasible
        basis = lp.bases[0][0]
        weights = np.zeros(lp.n)
        weights[basis] = 1.0 / 3.0
        for visit, want in ((True, 0), (False, 1)):
            del calls[:]
            v = lp._iterate(lp.a @ weights, lp.a, lp.cost, basis,
                            visit=visit)
            assert v.basis == basis and len(calls) == want, raw
        assert len(lp.visited) == len(visited), raw


def test_store_buffers_hold_their_lists_row_for_row():
    # the stacked inverses and duals grow in place; each is, row for row,
    # the stack of what its list stores, and a row never moves once filled
    s, _, _ = _grid(CONFIGS[5][1], 201)
    g = np.linspace(s.bounds.lx, 1.0, 17)
    h = np.linspace(s.bounds.ly, 1.0, 17)
    xs, ys = [a.ravel() for a in np.meshgrid(g, h, indexing="ij")]
    lp = _frame_lp(s)
    snapshots = []
    for k in np.random.default_rng(3).permutation(xs.size):
        try:
            lp.solve(np.array([xs[k], ys[k], 1.0]))
        except Infeasible:
            pass
        snapshots.append((lp.binvs.copy(), lp.vbinvs.copy(), lp.vys.copy()))
    assert len(lp.bases) > 16 and len(lp.visited) > 64
    assert np.array_equal(lp.binvs, np.stack([b for _, b in lp.bases]))
    assert len(lp.vbinvs) == len(lp.vys) == len(lp.visited)
    for basis, binv, y in zip(lp.visited, lp.vbinvs, lp.vys):
        fresh = oracle._vertex(lp.a, basis, np.ones(3))[0]
        assert _bits(binv) == _bits(fresh)
        assert _bits(y) == _bits(lp.cost[basis] @ fresh)
    for binvs, vbinvs, vys in snapshots:
        assert np.array_equal(binvs, lp.binvs[:len(binvs)])
        assert np.array_equal(vbinvs, lp.vbinvs[:len(vbinvs)])
        assert np.array_equal(vys, lp.vys[:len(vys)])


def test_store_scans_keep_the_bits_of_each_inverse():
    # a scan's stacked product gives B^-1 rhs the bits of each inverse's
    # own product, and the duals' y.rhs those of their (k, m) stack, from
    # the first stored basis on
    s, xs, ys = _grid(CONFIGS[5][1], 201)
    lp = _frame_lp(s)
    rng = np.random.default_rng(4)
    probes = np.column_stack([rng.uniform(s.bounds.lx, 1.0, 20),
                              rng.uniform(s.bounds.ly, 1.0, 20), np.ones(20)])
    sizes = set()
    for x, y in zip(xs, ys):
        for rhs in probes:
            got = oracle._scan(lp._binvs, len(lp.bases), rhs)
            want = [binv @ rhs for _, binv in lp.bases]
            assert _bits(got.T) == _bits(np.array(want).reshape(-1, 3))
            got = oracle._scan(lp._vstore, len(lp.visited), rhs)
            want = [np.array(binv) @ rhs for binv in lp.vbinvs]
            assert _bits(got[:-1].T) == _bits(np.array(want).reshape(-1, 3))
            if len(lp.visited) > 1:
                assert _bits(got[-1]) == _bits(np.array(lp.vys) @ rhs)
        sizes.add(len(lp.bases))
        try:
            lp.solve(np.array([x, y, 1.0]))
        except Infeasible:
            pass
    assert {0, 1, 2} <= sizes


def test_blands_rule_ends_beales_cycle(monkeypatch):
    # Beale's (1955) example in equality form.  From the basis of its first
    # three columns the most negative reduced cost pivots round six bases
    # at objective 0; Bland's rule, after _STALL_LIMIT stalls, leaves the
    # cycle for the optimum, -1.25
    a = np.array([[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                  [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
    cost = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
    rhs = np.array([0.0, 0.0, 1.0])
    lp = oracle._Simplex(a, cost)
    calls = _counted_vertex(monkeypatch)
    v = lp._iterate(rhs, lp.a, lp.cost, [0, 1, 2])
    passes = [basis for _, basis in calls]
    cycle = passes[:6]
    assert len(set(cycle)) == 6 and cycle[0] == (0, 1, 2)
    assert passes[:oracle._STALL_LIMIT + 1] == [
        cycle[k % 6] for k in range(oracle._STALL_LIMIT + 1)]
    assert passes[-1] not in cycle and len(passes) == 109
    assert v.y is not None and float(cost[v.basis] @ v.xb) == -1.25
    # with the stall limit out of reach the run cycles to the pass limit
    monkeypatch.setattr(oracle, "_STALL_LIMIT", oracle._MAX_ITER)
    with pytest.raises(SolverError, match="^simplex iteration limit hit$"):
        lp._iterate(rhs, lp.a, lp.cost, [0, 1, 2])


# sha256 of the oracle's outputs on CONFIGS x n in {151, 201}: the samples,
# the frame, the envelope values on a 9x9 grid (NaN where infeasible) and
# the answers for three membership points per box
OUTPUTS_DIGEST = "f2485335aad35a39ad32b7047f664216f6f830c658b0756b27a2dd005d0bfc95"


def _oracle_outputs():
    h = hashlib.sha256()
    for _, raw in CONFIGS:
        for n in (151, 201):
            s, xs, ys = _grid(raw, n)
            env = oracle_envelope_many(s, xs, ys)
            k = np.flatnonzero(~np.isnan(env))[1::2]
            k = k[k.size // 2]
            pick = [0, len(s) // 2, len(s) - 1]
            centroid = (float(c[pick].mean()) for c in (s.x, s.y, s.z))
            points = [Point3(*centroid),
                      Point3(xs[k], ys[k], env[k] + 1e-6),
                      Point3(xs[k], ys[k], env[k] - 1e-6)]
            for a in (s.x, s.y, s.z, s.frame, env):
                h.update(repr(_bits(a)).encode())
            h.update(bytes(oracle_membership(s, p) for p in points))
    return h.hexdigest()


def test_oracle_outputs_keep_their_bits():
    assert _oracle_outputs() == OUTPUTS_DIGEST
