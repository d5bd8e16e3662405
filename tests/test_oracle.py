"""Sampled-hull LP oracle: surface clouds, envelope and membership queries."""

import gc

import numpy as np
import pytest

from bilinear_hull import (
    Infeasible,
    NormalizedBounds,
    Point3,
    RawBounds,
    SolverError,
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


def test_sampler_is_deterministic():
    b = NormalizedBounds(0.2, 0.2, 0.2, 0.7)
    s1 = sample_surface(b, 31)
    s2 = sample_surface(b, 31)
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.y, s2.y)
    assert np.array_equal(s1.z, s2.z)


def test_sampler_rejects_tiny_n():
    with pytest.raises(ValueError):
        sample_surface(NormalizedBounds(0, 0, 0, 1), 1)


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
            ref = np.unique(np.vstack(oracle._surface_parts(d.bounds, n)),
                            axis=0)
            assert np.array_equal(s.x, ref[:, 0])
            assert np.array_equal(s.y, ref[:, 1])
            assert np.array_equal(s.z, ref[:, 0] * ref[:, 1])


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
    # one shared working set and certificate store against a fresh solver
    # per query
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
    # the rays of the membership solver kept on a sample
    s, xs, ys = _grid(CONFIGS[2][1], 41)
    for x, y in zip(xs, ys):
        oracle_membership(s, Point3(x, y, x * y + 0.2))
    lp = s._lp
    assert len(lp.rays)
    assert (lp.rays @ lp.a).max() <= oracle._RC_TOL


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
    bmat = lp._basis_matrix(v.basis, np.ones(3))
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


def test_check_solution_raises_solver_error():
    a = np.array([[0.0, 1.0], [1.0, 1.0]])
    v = oracle._Vertex([0, 1], np.eye(2), np.array([0.5, 0.5]))
    oracle._check_solution(a, np.array([0.5, 1.0]), v)
    with pytest.raises(SolverError):
        oracle._check_solution(a, np.array([0.5, 1.5]), v)
