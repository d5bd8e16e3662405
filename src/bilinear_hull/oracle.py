"""Sampling oracle: LP cross-checks of the closed-form hull description.

The surface is sampled on a grid plus traces along the two product-bound
curves; the convex hull of the samples is then interrogated with a small
revised simplex (3 or 4 equality rows, one column per sample).  The solver
keeps an explicit inverse of the small basis and iterates over a working
set of columns, pricing every sample only to certify a result.  Everything
here is deliberately independent of the constraint formulas so the two
sides can be compared in tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import Infeasible, SolverError
from .geometry import NormalizedBounds, Point3, _Frozen, _set

_RC_TOL = 1e-11
_PIVOT_TOL = 1e-11
# the same value as geometry.FEAS_TOL, kept apart so the oracle shares
# nothing with the closed forms it checks
_FEAS_TOL = 1e-9
_MAX_ITER = 20000
_REFACTOR_EVERY = 16  # eta updates between two fresh basis inverses
_PRICE_ADD = 16  # columns one full pricing pass adds to the working set


class SurfaceSample(_Frozen):
    """Deduplicated surface points (x, y, x*y) respecting the bounds.

    Comparing two samples compares their arrays, so unless they share the
    array objects it raises for arrays of more than one element.
    """

    __slots__ = ("x", "y", "z", "bounds", "n", "_lp")
    _names = __slots__[:-1]  # not _lp, a cache

    def __new__(cls, x: np.ndarray, y: np.ndarray, z: np.ndarray,
               bounds: NormalizedBounds, n: int) -> SurfaceSample:
        self = object.__new__(cls._twin)
        self.x = x
        self.y = y
        self.z = z
        self.bounds = bounds
        self.n = n
        self._lp = None
        self.__class__ = cls
        return self

    def __len__(self) -> int:
        return self.x.shape[0]

    def _membership_lp(self) -> _Simplex:
        """The solver of every oracle_membership query on this sample,
        built on the first: its columns (x, y, z, 1) are built once, and
        its working set carries over from one query to the next."""
        if self._lp is None:
            _set(self, "_lp", _Simplex(np.vstack([self.x, self.y, self.z,
                                                  np.ones_like(self.x)])))
        return self._lp


def _surface_parts(b: NormalizedBounds, n: int) -> list[np.ndarray]:
    """(k, 2) blocks of (x, y) samples, duplicates included: the grid, the
    traces of xy = lz and xy = uz, and the feasible box corners."""
    xs = np.linspace(b.lx, 1.0, n)
    ys = np.linspace(b.ly, 1.0, n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    gx = gx.ravel()
    gy = gy.ravel()
    keep = (gx * gy >= b.lz - 1e-12) & (gx * gy <= b.uz + 1e-12)
    parts = [np.column_stack([gx[keep], gy[keep]])]
    if b.lz > 0.0:
        xlo = max(b.lx, b.lz)
        xhi = min(1.0, b.lz / b.ly) if b.ly > 0.0 else 1.0
        if xhi >= xlo:
            cx = np.linspace(xlo, xhi, n)
            parts.append(np.column_stack([cx, b.lz / cx]))
    if b.uz < 1.0:
        xlo = max(b.lx, b.uz)
        cx = np.linspace(xlo, 1.0, n)
        parts.append(np.column_stack([cx, b.uz / cx]))
    corners = []
    for px in (b.lx, 1.0):
        for py in (b.ly, 1.0):
            if b.lz - 1e-12 <= px * py <= b.uz + 1e-12:
                corners.append((px, py))
    if corners:
        parts.append(np.array(corners))
    return parts


def sample_surface(b: NormalizedBounds, n: int) -> SurfaceSample:
    """Grid plus curve traces plus feasible box corners, exact duplicates
    removed, sorted by x and then y.  Every retained point satisfies the
    product bounds to 1e-12.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    pts = np.vstack(_surface_parts(b, n))
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    x = pts[order, 0]
    y = pts[order, 1]
    keep = np.ones(x.shape, dtype=bool)
    keep[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    x = x[keep]
    y = y[keep]
    return SurfaceSample(x=x, y=y, z=x * y, bounds=b, n=n)


class _Vertex(NamedTuple):
    """A basis (column indices; n + i is row i's artificial), the inverse
    of its matrix, and the basic solution."""

    basis: list[int]
    binv: np.ndarray
    xb: np.ndarray


class _Simplex:
    """Revised simplex on  min c'w  s.t.  A w = rhs, w >= 0  over a working
    set of columns.

    One instance serves every query against one column matrix A (3 or 4
    rows, one column per sample), which it never copies; the right-hand
    side and the cost come with each query.  Phase 1 gives a row whose
    right-hand side is negative a negated artificial column, which is the
    same LP as flipping the row.

    Working set (sifting): the iterations run over a sorted subset of the
    columns that persists across the queries of one instance and only
    grows.  When no working column prices out below -_RC_TOL, every column
    is priced once; the _PRICE_ADD most negative join the set and the
    iterations go on.  Optimality, and the phase-1 optimum that certifies
    infeasibility, are declared only after a full pricing pass finds no
    column below -_RC_TOL, so both certificates are those of a simplex
    over every column.  A phase-1 run whose working set already brings the
    total artificial within tolerance stops there: a feasible point needs
    no certificate.

    Deterministic pivoting: the entering column has the most negative
    reduced cost (first index on ties); the leaving row breaks ratio ties
    by the smallest basic variable index.  The sample grids make these LPs
    heavily degenerate, so after a run of non-improving pivots the entering
    rule drops to Bland's first-negative-index rule, which cannot cycle.

    The inverse of the basis matrix is kept explicitly: each pivot applies
    an eta (rank-one) update, every _REFACTOR_EVERY pivots it is inverted
    afresh, and a returned vertex always carries a fresh inverse and a
    basic solution solved from the basis matrix itself.
    """

    def __init__(self, a: np.ndarray):
        self.a = a
        self.m, self.n = a.shape
        self.work = np.empty(0, dtype=np.intp)
        self._rc = np.empty(self.n)
        self._zero = np.zeros(self.n)

    def _basis_matrix(self, basis: list[int], signs: np.ndarray | None
                      ) -> np.ndarray:
        bmat = np.zeros((self.m, self.m))
        for i, j in enumerate(basis):
            if j < self.n:
                bmat[:, i] = self.a[:, j]
            else:
                bmat[j - self.n, i] = signs[j - self.n]
        return bmat

    def _vertex(self, basis: list[int], rhs: np.ndarray,
                signs: np.ndarray | None = None) -> _Vertex:
        bmat = self._basis_matrix(basis, signs)
        try:
            return _Vertex(basis, np.linalg.inv(bmat),
                           np.linalg.solve(bmat, rhs))
        except np.linalg.LinAlgError:
            raise SolverError("singular simplex basis") from None

    def _price(self, cost: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Reduced costs of every real column, zero on the working set,
        which was priced already.  The result lives in a buffer that the
        next call overwrites."""
        rc = self._rc
        np.matmul(y, self.a, out=rc)
        np.subtract(cost, rc, out=rc)
        rc[self.work] = 0.0
        return rc

    def _candidates(self, cost: np.ndarray, signs: np.ndarray | None):
        """Global indices, columns and costs of the working set, followed
        in phase 1 by the artificial columns at cost 1."""
        idx = self.work
        cols = self.a[:, idx]
        c = cost[idx]
        if signs is not None:
            m, n = self.m, self.n
            idx = np.concatenate([idx, np.arange(n, n + m)])
            cols = np.hstack([cols, np.diag(signs)])
            c = np.concatenate([c, np.ones(m)])
        return idx, cols, c

    def _iterate(self, rhs: np.ndarray, cost: np.ndarray, v: _Vertex,
                 signs: np.ndarray | None = None,
                 good_enough: float = -np.inf) -> _Vertex:
        """Optimal vertex for the real columns at `cost` plus, when `signs`
        is given (phase 1), the artificial columns.  A phase-1 run stops
        without the full pricing pass once the working set is optimal at
        an objective of at most `good_enough`.
        """
        m = self.m
        basis, binv, xb = list(v.basis), v.binv, v.xb
        idx, cols, c = self._candidates(cost, signs)
        pos = np.searchsorted(idx, basis)
        bland = False
        stall = 0
        best_obj = np.inf
        fresh = 0
        for _ in range(_MAX_ITER):
            cb = c[pos]
            y = cb @ binv
            rc = c - y @ cols
            rc[pos] = 0.0
            if bland:
                neg = np.flatnonzero(rc < -_RC_TOL)
                j = int(neg[0]) if neg.size else -1
            else:
                j = int(np.argmin(rc))
                if rc[j] >= -_RC_TOL:
                    j = -1
            if j < 0:
                if float(cb @ xb) <= good_enough:
                    done = self._vertex(basis, rhs, signs)
                    if float(c[pos] @ done.xb) <= good_enough:
                        return done
                # the working set is optimal: price every column once
                rc_all = self._price(cost, y)
                if rc_all[np.argmin(rc_all)] >= -_RC_TOL:
                    break
                neg = np.flatnonzero(rc_all < -_RC_TOL)
                if neg.size > _PRICE_ADD:
                    part = np.argpartition(rc_all[neg], _PRICE_ADD)
                    neg = neg[part[:_PRICE_ADD]]
                self.work = np.union1d(self.work, neg)
                idx, cols, c = self._candidates(cost, signs)
                pos = np.searchsorted(idx, basis)
                continue
            d = binv @ cols[:, j]
            dl = d.tolist()
            xl = xb.tolist()
            ratios = [xl[i] / dl[i] if dl[i] > _PIVOT_TOL else math.inf
                      for i in range(m)]
            best = min(ratios)
            if best == math.inf:
                raise SolverError("unbounded LP direction")
            leave = min((i for i in range(m) if ratios[i] <= best + 1e-12),
                        key=basis.__getitem__)
            obj = float(cb @ xb)
            if obj < best_obj - 1e-12:
                best_obj = obj
                stall = 0
            else:
                stall += 1
                if stall > 100:
                    bland = True
            basis[leave] = int(idx[j])
            pos[leave] = j
            fresh += 1
            if fresh == _REFACTOR_EVERY:
                binv = np.linalg.inv(self._basis_matrix(basis, signs))
                fresh = 0
            else:
                row = binv[leave] / dl[leave]
                binv = binv - np.outer(d, row)
                binv[leave] = row
            xb = binv @ rhs
        else:
            raise SolverError("simplex iteration limit hit")
        return self._vertex(basis, rhs, signs)

    def phase1(self, rhs: np.ndarray) -> _Vertex:
        """A basis whose solution meets A w = rhs within _FEAS_TOL; it may
        still hold artificials at (near) zero.  Raises Infeasible when the
        phase-1 optimum, the least total artificial, exceeds _FEAS_TOL.
        """
        m, n = self.m, self.n
        signs = np.where(rhs < 0.0, -1.0, 1.0)
        start = _Vertex(list(range(n, n + m)), np.diag(signs), np.abs(rhs))
        v = self._iterate(rhs, self._zero, start, signs, good_enough=_FEAS_TOL)
        if sum(x for j, x in zip(v.basis, v.xb.tolist()) if j >= n) > _FEAS_TOL:
            raise Infeasible("point outside the sampled hull")
        return v

    def _drive_out(self, v: _Vertex, rhs: np.ndarray) -> _Vertex:
        """Swap every (degenerate) basic artificial for the first real
        column with a nonzero entry in its row of B^-1 A."""
        n = self.n
        basis, binv = list(v.basis), v.binv.copy()
        if all(j < n for j in basis):
            return v
        for i in range(self.m):
            if basis[i] < n:
                continue
            row = binv[i] @ self.a
            row[[j for j in basis if j < n]] = 0.0
            hits = np.flatnonzero(np.abs(row) > _PIVOT_TOL)
            if hits.size == 0:
                raise SolverError("artificial variable stuck in basis")
            j = int(hits[0])
            d = binv @ self.a[:, j]
            pivot = binv[i] / d[i]
            binv -= np.outer(d, pivot)
            binv[i] = pivot
            basis[i] = j
            self.work = np.union1d(self.work, [j])
        return self._vertex(basis, rhs)

    def solve(self, rhs: np.ndarray, cost: np.ndarray,
              warm: _Vertex | None = None) -> _Vertex:
        """Optimal vertex of  min cost'w  s.t.  A w = rhs, w >= 0.

        Starts from `warm` (a vertex this instance returned) when its basis
        is primal feasible for `rhs`, otherwise from phase 1; raises
        Infeasible when phase 1 cannot zero out the artificial variables.
        """
        if warm is not None:
            xb = warm.binv @ rhs
            if np.all(xb >= -_PIVOT_TOL):
                return self._iterate(rhs, cost, warm._replace(xb=xb))
        v = self._drive_out(self.phase1(rhs), rhs)
        return self._iterate(rhs, cost, v)


def _check_solution(a: np.ndarray, rhs: np.ndarray, v: _Vertex) -> None:
    err = float(np.abs(a[:, v.basis] @ v.xb - rhs).max())
    if not err <= 1e-10:
        raise SolverError("simplex solution misses the constraints by %.3g"
                          % err)


def oracle_envelope(s: SurfaceSample, x: float, y: float) -> float:
    """Max of z over the sampled hull at fixed (x, y).

    Raises Infeasible when (x, y) lies outside the projection of the
    sampled hull.
    """
    v = float(oracle_envelope_many(s, np.array([x]), np.array([y]))[0])
    if math.isnan(v):
        raise Infeasible("query point outside the sampled projection")
    return v


def oracle_envelope_many(s: SurfaceSample, xs: np.ndarray, ys: np.ndarray
                         ) -> np.ndarray:
    """Vectorized envelope queries with warm-started bases and one working
    set shared by all of them.

    Entries where the LP is infeasible come back as NaN.
    """
    a = np.vstack([s.x, s.y, np.ones_like(s.x)])
    cost = -s.z  # maximize total z
    lp = _Simplex(a)
    out = np.full(len(xs), np.nan)
    warm: _Vertex | None = None
    for k in range(len(xs)):
        rhs = np.array([xs[k], ys[k], 1.0])
        try:
            v = lp.solve(rhs, cost, warm)
        except Infeasible:
            continue
        _check_solution(a, rhs, v)
        warm = v
        out[k] = -float(cost[v.basis] @ v.xb)
    return out


def oracle_membership(s: SurfaceSample, p: Point3) -> bool:
    """Whether p is a convex combination of the surface samples.

    False only when phase 1 certifies, with a pricing pass over every
    sample, that no combination comes within _FEAS_TOL (total artificial)
    of p; a solver breakdown raises SolverError.  The queries on one
    sample share one solver, so each starts from the working set that the
    earlier ones grew, and two threads must not query one sample at once.
    """
    rhs = np.array([p.x, p.y, p.z, 1.0])
    try:
        s._membership_lp().phase1(rhs)
    except Infeasible:
        return False
    return True
