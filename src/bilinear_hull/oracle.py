"""Sampling oracle: LP cross-checks of the closed-form hull description.

The surface is sampled on a grid plus traces along the two product-bound
curves, the traces merged into the grid's own sorted order with no sort of
the whole sample; the convex hull of the samples is then interrogated with
a small revised simplex (3 or 4 equality rows) over the sample's frame
columns.  z = xy is linear along every line of constant x or constant y,
so a sample strictly between the two end samples of its run of equal x (or
equal y) is a convex combination of them and never a vertex of the sampled
hull: the frame, the samples that end both their run of equal x and their
run of equal y, holds every vertex and so spans the same hull to rounding
with at most 6n + 4 columns, and the sampler's merge gives it too.
Between the queries of one solver only the right-hand side changes, so it
keeps the certificates it has proved, optimal bases and phase-1 Farkas
rays, and answers a later query from them when they cover it; a query they
miss starts phase 2 from a basis the solver has already priced, where one
is feasible for it.  Each basis that phase 2 prices is inverted and stored
once, however often it is priced.  Everything here is deliberately
independent of the constraint formulas so the two sides can be compared in
tests.
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
_STALL_LIMIT = 100  # non-improving pivots before Bland's rule takes over


def _run_ends(v: np.ndarray) -> np.ndarray:
    """Mask of the first and the last entry of every run of equal values."""
    step = np.ones(v.size + 1, dtype=bool)
    step[1:-1] = v[1:] != v[:-1]
    return step[:-1] | step[1:]


class SurfaceSample(_Frozen):
    """Deduplicated surface points (x, y, x*y) respecting the bounds.

    Comparing two samples compares their arrays, so unless they share the
    array objects it raises for arrays of more than one element.
    """

    __slots__ = ("x", "y", "z", "bounds", "n", "_lp", "_frame")
    _names = __slots__[:-2]  # not _lp or _frame, caches

    def __new__(cls, x: np.ndarray, y: np.ndarray, z: np.ndarray,
               bounds: NormalizedBounds, n: int) -> SurfaceSample:
        self = object.__new__(cls._twin)
        self.x = x
        self.y = y
        self.z = z
        self.bounds = bounds
        self.n = n
        self._lp = None
        self._frame = None
        self.__class__ = cls
        return self

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def frame(self) -> np.ndarray:
        """Sorted indices of the samples that end both their run of equal
        x and their run of equal y.  A vertex of the sampled hull lies
        strictly inside no such run, so these span it.  sample_surface
        fills it from its merge; a sample built by hand or unpickled
        computes it on first use from the definition, which the merge is
        held to: the samples are unique and sorted by x and then y, so the
        equal-x runs are contiguous, and one stable argsort on y groups the
        equal-y runs in order of x."""
        if self._frame is None:
            ends = _run_ends(self.x)
            order = np.argsort(self.y, kind="stable")
            ends[order] &= _run_ends(self.y[order])
            _set(self, "_frame", np.flatnonzero(ends))
        return self._frame

    def _membership_lp(self) -> _Simplex:
        """The solver of every oracle_membership query on this sample,
        built on the first: its frame columns (x, y, z, 1) are built once,
        and its Farkas rays carry over from one query to the next."""
        if self._lp is None:
            f = self.frame
            a = np.vstack([self.x[f], self.y[f], self.z[f], np.ones(f.size)])
            _set(self, "_lp", _Simplex(a, np.zeros(f.size)))
        return self._lp


def _traces(b: NormalizedBounds, n: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the samples off the grid, duplicates included: the traces
    of xy = lz and xy = uz, then the feasible box corners."""
    parts = []
    for c, traced in ((b.lz, b.lz > 0.0), (b.uz, b.uz < 1.0)):
        xlo = max(b.lx, c)
        xhi = min(1.0, c / b.ly) if b.ly > 0.0 else 1.0
        if traced and xhi >= xlo:
            cx = np.linspace(xlo, xhi, n)
            parts.append(np.column_stack([cx, np.maximum(c / cx, b.ly)]))
    corners = [(px, py) for px in (b.lx, 1.0) for py in (b.ly, 1.0)
               if b.lz - 1e-12 <= px * py <= b.uz + 1e-12]
    parts.append(np.array(corners).reshape(-1, 2))
    pts = np.vstack(parts)
    return pts[:, 0], pts[:, 1]


def sample_surface(b: NormalizedBounds, n: int) -> SurfaceSample:
    """Grid plus curve traces plus feasible box corners, exact duplicates
    removed, sorted by x and then y.  Every retained point satisfies the
    product bounds to 1e-12.

    For x >= 0 the products x*y do not decrease along y, so every grid row
    of equal x keeps one contiguous run of y and the kept grid, read row by
    row, is already sorted.  Only the at most 2n + 4 trace and corner
    samples are sorted; each is inserted after the grid samples that are
    not above it, found by a binary search on the grid's x and then on its
    row's y, and the first of each run of equal samples is kept: the
    order and the bits a sort of every sample, grid first, would give.

    The merge also gives the frame (SurfaceSample.frame).  Along a column
    of equal y the products do not decrease either, so each grid column
    keeps one contiguous run of rows, and a sample that ends its run of
    equal y is the first or the last kept row of its column, or a trace or
    corner sample.  The stable argsort on y runs over these at most 4n + 4
    samples only, with the bits it gives over all of them.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError("need an integer n >= 2")
    xs = np.linspace(b.lx, 1.0, n)
    # an lx within a few ulps of 1 repeats grid x, whose rows would interleave
    xs = xs[np.append(True, xs[1:] != xs[:-1])]
    ys = np.linspace(b.ly, 1.0, n)
    p = np.multiply.outer(xs, ys)
    grid = (p >= b.lz - 1e-12) & (p <= b.uz + 1e-12)
    count = grid.sum(axis=1)
    # the kept grid samples that end their column's run of rows
    ends = grid.copy()
    ends[1:-1] &= ~(grid[:-2] & grid[2:])
    tx, ty = _traces(b, n)
    order = np.lexsort((ty, tx))
    tx = tx[order]
    ty = ty[order]
    i = np.searchsorted(xs, tx)  # i rows have x below tx
    r = np.minimum(i, xs.size - 1)
    within = np.clip(np.searchsorted(ys, ty, side="right")
                     - grid.argmax(axis=1)[r], 0, count[r])
    at = np.append(0, np.cumsum(count))[i] + np.where(xs[r] == tx, within, 0)
    x = np.insert(np.repeat(xs, count), at, tx)
    y = np.insert(np.broadcast_to(ys, grid.shape)[grid], at, ty)
    keep = np.ones(x.shape, dtype=bool)
    keep[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    x = x[keep]
    y = y[keep]
    s = SurfaceSample(x=x, y=y, z=x * y, bounds=b, n=n)
    c = np.flatnonzero(np.insert(ends[grid], at, True)[keep])
    c = c[np.argsort(y[c], kind="stable")]
    _set(s, "_frame", np.sort(c[_run_ends(y[c]) & _run_ends(x)[c]]))
    return s


class _Vertex(NamedTuple):
    """A basis (column indices; n + i is row i's artificial), the inverse
    of its matrix, the basic solution and, when a pricing pass certified
    the basis, the dual that pass accepted."""

    basis: list[int]
    binv: np.ndarray
    xb: np.ndarray
    y: np.ndarray | None = None


def _vertex(cols: np.ndarray, basis: list[int], rhs: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of `basis`'s matrix over the columns `cols`, inverted
    afresh, and the basic solution it gives for `rhs`."""
    try:
        binv = np.linalg.inv(cols.take(basis, axis=1))
    except np.linalg.LinAlgError:
        raise SolverError("singular simplex basis") from None
    return binv, binv @ rhs


def _room(buf: np.ndarray, k: int) -> np.ndarray:
    """`buf`, whose columns (axis 1) from k on are zero, or when it has no
    column k + 1 a copy with twice as many columns: a store's scan reads
    one zero column past its k + 1 filled ones (see _Simplex)."""
    if k + 1 < buf.shape[1]:
        return buf
    return np.concatenate([buf, np.zeros_like(buf)], axis=1)


def _scan(buf: np.ndarray, k: int, rhs: np.ndarray) -> np.ndarray:
    """Row i of the first k stored inverses times `rhs` at [i, j], by one
    stacked product with the bits of each inverse's own product (see
    _Simplex)."""
    return (buf[:, :k + 1] @ rhs)[:, :k]


class _Simplex:
    """Revised simplex on  min c'w  s.t.  A w = rhs, w >= 0.

    One instance serves every query against one column matrix A (3 or 4
    rows, one column per frame sample, the last row all ones) and one
    cost, and copies neither; only the right-hand side, whose last entry is
    1, comes with each query.  Phase 1 gives a row whose right-hand side is
    negative a negated artificial column, which is the same LP as flipping
    the row.  Every pivot prices every column, so the loop ends only when
    no column prices out below -_RC_TOL, at a certificate over every
    column; only a phase-1 run that already brings the total artificial
    within tolerance stops before: a feasible point needs no certificate.

    Certificate store: since only the right-hand side changes, what one
    query proved carries over to the next.
    - Optimal bases.  A basis that a pricing pass certified optimal for
      the cost keeps its reduced costs, which depend on the basis and the
      cost but not on the right-hand side.  It is therefore optimal, with
      no further pricing, for every rhs with B^-1 rhs >= -_PIVOT_TOL.
    - Farkas rays.  When phase 1 proves a query infeasible, the dual y of
      its final pricing pass has y.a_j <= _RC_TOL for every column and
      y_i sign_i <= 1 + _RC_TOL for every artificial.  Because A's last
      row is all ones and rhs ends in 1, (y - _RC_TOL e_last) /
      (1 + _RC_TOL) is then feasible for the dual of the phase-1 LP of any
      rhs whose signs also give y_i sign_i <= 1 + _RC_TOL, so by weak
      duality that phase-1 optimum is at least (y.rhs - _RC_TOL) /
      (1 + _RC_TOL).  Where this exceeds _FEAS_TOL the query is
      infeasible: the decision a full phase 1 reaches, except within
      rounding of the threshold.
    - Visited bases.  The first phase-2 pricing pass on a basis stores the
      basis, its inverse and its dual y = c_B B^-1, once per basis; a later
      pass on it, in this solve or another, reads them back with no
      inversion.  A basis with B^-1 rhs >= 0 is a basic feasible solution
      for rhs, whose objective is c_B B^-1 rhs = y.rhs, so any primal
      simplex run may start there; a query that no optimal basis covers
      starts phase 2 from the feasible one with the least y.rhs, with no
      phase 1.  The run still ends only at a full pricing pass, so the
      answer carries the same certificate as after phase 1, which runs only
      where no visited basis is feasible.
    The stores only grow, and a query scans each in the order it grew, by
    one stacked product: the certified inverses are kept as (m, k, m), row
    i of the j-th at [i, j], and the visited ones with their duals as
    (m + 1, k, m), the dual at [m, j]; `binvs`, `vbinvs` and `vys` view
    them in the shapes (k, m, m) and (k, m).  That product gives each entry
    the bits of the inverse-by-inverse B^-1 rhs, as a matrix-matrix product
    or a stack of one row would not, so a scan reads one zero column past
    the filled ones.  The rays, a few per solver, stay a (k, m) stack,
    whose row products an (m, k) layout would not keep.

    Deterministic pivoting: the entering column has the most negative
    reduced cost (first index on ties); the leaving row breaks ratio ties
    by the smallest basic variable index, and reads a basic value that
    rounding left below zero as zero, so no step goes backwards.  The
    sample grids make these LPs heavily degenerate, so after _STALL_LIMIT
    non-improving pivots the entering rule drops to Bland's
    first-negative-index rule, which cannot cycle.

    Every pricing pass inverts the basis matrix afresh, or reads the
    inverse that the first pass on the basis stored, which has the same
    bits, and takes the basic solution B^-1 rhs from that inverse.  No
    oracle LP reaches "unbounded LP direction": over the rows whose basic
    column ends in 1, the entries of B^-1 a_j sum to the last entry of a_j,
    which is 1 for every real column, and an artificial enters only in
    phase 1, whose objective cannot fall below zero.
    """

    def __init__(self, a: np.ndarray, cost: np.ndarray):
        self.a = a
        self.cost = cost
        self.m, self.n = a.shape
        self._phase1_cost = np.concatenate([np.zeros(self.n), np.ones(self.m)])
        # certified optimal (basis, inverse) pairs and their inverses, and
        # the phase-1 Farkas rays, one per row
        self.bases: list[tuple[list[int], np.ndarray]] = []
        self._binvs = np.zeros((self.m, 8, self.m))
        self.rays = np.empty((0, self.m))
        # every basis a phase-2 pricing pass priced, its column in the store,
        # and its inverse and dual
        self.visited: list[list[int]] = []
        self._row: dict[tuple[int, ...], int] = {}
        self._vstore = np.zeros((self.m + 1, 8, self.m))
        # the phase-1 columns of each sign pattern met so far
        self._phase1_cols: dict[bytes, np.ndarray] = {}

    @property
    def binvs(self) -> np.ndarray:
        return self._binvs[:, :len(self.bases)].transpose(1, 0, 2)

    @property
    def vbinvs(self) -> np.ndarray:
        return self._vstore[:-1, :len(self.visited)].transpose(1, 0, 2)

    @property
    def vys(self) -> np.ndarray:
        return self._vstore[-1, :len(self.visited)]

    def _columns(self, signs: np.ndarray) -> np.ndarray:
        """The phase-1 columns: the real ones, then column n + i, row i's
        artificial, whose one nonzero entry is signs[i].  Built once per
        sign pattern."""
        key = signs.tobytes()
        cols = self._phase1_cols.get(key)
        if cols is None:
            cols = np.hstack([self.a, np.diag(signs)])
            self._phase1_cols[key] = cols
        return cols

    def _iterate(self, rhs: np.ndarray, cols: np.ndarray, c: np.ndarray,
                 basis: list[int], good_enough: float = -np.inf,
                 visit: bool = False) -> _Vertex:
        """Optimal vertex of  min c'w  s.t.  cols w = rhs, w >= 0  from the
        feasible `basis`, carrying the dual that certified it.  A phase-1
        run stops at the first vertex whose objective is at most
        `good_enough`, with no dual.  With `visit` (phase 2, whose columns
        are A), a pass on a basis in the visited store takes its stored
        inverse and dual, which are the bits a fresh inversion would give,
        and every other pass stores its basis, inverse and dual there.
        """
        basis = list(basis)
        bland = False
        stall = 0
        best_obj = np.inf
        for _ in range(_MAX_ITER):
            k = -1
            if visit:
                key = tuple(basis)
                k = self._row.get(key, -1)
            if k < 0:
                binv, xb = _vertex(cols, basis, rhs)
            else:
                binv, y = self._vstore[:-1, k], self._vstore[-1, k]
                xb = binv @ rhs
            cb = c.take(basis)
            obj = float(cb @ xb)
            if obj <= good_enough:
                return _Vertex(basis, binv, xb)
            if k < 0:
                y = cb @ binv
                if visit:
                    k = len(self.visited)
                    self._row[key] = k
                    self.visited.append(basis[:])
                    self._vstore = store = _room(self._vstore, k)
                    store[:-1, k] = binv
                    store[-1, k] = y
            rc = c - y @ cols
            rc.put(basis, 0.0)
            bland = bland or stall >= _STALL_LIMIT
            if bland:
                neg = np.flatnonzero(rc < -_RC_TOL)
                j = int(neg[0]) if neg.size else -1
            else:
                j = int(rc.argmin())
                if rc[j] >= -_RC_TOL:
                    j = -1
            if j < 0:
                return _Vertex(basis, binv, xb, y)
            # least ratio, ties within 1e-12 to the least basic index
            leave, best = -1, math.inf
            for i, (x, d) in enumerate(zip(xb.tolist(),
                                           (binv @ cols[:, j]).tolist())):
                if d > _PIVOT_TOL:
                    r = max(x, 0.0) / d
                    if r < best - 1e-12 or (r <= best + 1e-12
                                            and basis[i] < basis[leave]):
                        leave = i
                    best = min(best, r)
            if leave < 0:
                raise SolverError("unbounded LP direction")
            if obj < best_obj - 1e-12:
                best_obj = obj
                stall = 0
            else:
                stall += 1
            basis[leave] = j
        raise SolverError("simplex iteration limit hit")

    def phase1(self, rhs: np.ndarray) -> _Vertex:
        """A basis whose solution meets A w = rhs within _FEAS_TOL; it may
        still hold artificials at (near) zero.  Raises Infeasible when the
        phase-1 optimum, the least total artificial, exceeds _FEAS_TOL:
        at once when a stored Farkas ray bounds it above _FEAS_TOL (see the
        class docstring), otherwise after the simplex has proved it, in
        which case the ray of its last pricing pass is stored.
        """
        m, n = self.m, self.n
        signs = np.where(rhs < 0.0, -1.0, 1.0)
        rays = self.rays
        fits = (rays * signs).max(axis=1) <= 1.0 + _RC_TOL
        bound = (rays @ rhs - _RC_TOL) / (1.0 + _RC_TOL)
        if np.any(fits & (bound > _FEAS_TOL)):
            raise Infeasible("point outside the sampled hull")
        v = self._iterate(rhs, self._columns(signs), self._phase1_cost,
                          list(range(n, n + m)), good_enough=_FEAS_TOL)
        if sum(x for j, x in zip(v.basis, v.xb.tolist()) if j >= n) > _FEAS_TOL:
            if v.y is not None:
                self.rays = np.vstack([rays, v.y])
            raise Infeasible("point outside the sampled hull")
        return v

    def _drive_out(self, v: _Vertex, rhs: np.ndarray) -> _Vertex:
        """Swap every (degenerate) basic artificial for the first real
        column with a nonzero entry in its row of B^-1 A."""
        n = self.n
        if all(j < n for j in v.basis):
            return v
        cols = self._columns(np.where(rhs < 0.0, -1.0, 1.0))
        for i in range(self.m):
            if v.basis[i] < n:
                continue
            row = v.binv[i] @ self.a
            row[[j for j in v.basis if j < n]] = 0.0
            hits = np.flatnonzero(np.abs(row) > _PIVOT_TOL)
            if hits.size == 0:
                raise SolverError("artificial variable stuck in basis")
            basis = list(v.basis)
            basis[i] = int(hits[0])
            v = _Vertex(basis, *_vertex(cols, basis, rhs))
        return v

    def solve(self, rhs: np.ndarray) -> _Vertex:
        """Optimal vertex of  min cost'w  s.t.  A w = rhs, w >= 0.

        Returns the first stored optimal basis with B^-1 rhs >= -_PIVOT_TOL,
        with no pivot and no pricing pass: its reduced costs do not depend
        on rhs (see the class docstring).  Otherwise runs phase 2 from the
        visited basis with B^-1 rhs >= 0 and the least objective y.rhs, or
        from phase 1 when no visited basis is feasible, and stores the
        certified basis and every basis it priced; raises Infeasible when
        phase 1 cannot zero out the artificial variables.  Either way the
        basic solution is B^-1 rhs from the stored inverse, so a query
        asked twice gets the same bits.
        """
        ok = np.flatnonzero(_scan(self._binvs, len(self.bases), rhs)
                            .min(axis=0) >= -_PIVOT_TOL)
        if ok.size:
            basis, binv = self.bases[ok[0]]
            return _Vertex(basis, binv, binv @ rhs)
        # B^-1 rhs of each visited basis, over its y.rhs
        xbs = _scan(self._vstore, len(self.visited), rhs)
        feasible = np.flatnonzero(xbs[:-1].min(axis=0) >= 0.0)
        if feasible.size:
            start = self.visited[feasible[np.argmin(xbs[-1, feasible])]]
        else:
            start = self._drive_out(self.phase1(rhs), rhs).basis
        v = self._iterate(rhs, self.a, self.cost, start, visit=True)
        k = len(self.bases)
        self._binvs = _room(self._binvs, k)
        self._binvs[:, k] = v.binv
        self.bases.append((v.basis, v.binv))
        return v


def _check_solution(a: np.ndarray, rhs: np.ndarray, v: _Vertex) -> None:
    err = float(np.abs(a.take(v.basis, axis=1) @ v.xb - rhs).max())
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
    """Vectorized envelope queries on one solver over the frame of `s`,
    whose certificate store all of them share: a query that a basis
    certified optimal for an earlier one keeps primal feasible is answered
    with no pivot and no pricing pass, and one that an earlier phase-1
    Farkas ray proves infeasible with no phase 1 (see _Simplex).

    Entries where the LP is infeasible come back as NaN.  Raises
    ValueError unless xs and ys are 1-D and of the same length.
    """
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError("xs and ys must be 1-D and of the same length, "
                         "got shapes %s and %s" % (xs.shape, ys.shape))
    f = s.frame
    a = np.vstack([s.x[f], s.y[f], np.ones(f.size)])
    z = s.z[f]
    lp = _Simplex(a, -z)  # maximize total z
    out = np.full(len(xs), np.nan)
    for k, rhs in enumerate(np.column_stack([xs, ys, np.ones(len(xs))])):
        try:
            v = lp.solve(rhs)
        except Infeasible:
            continue
        _check_solution(a, rhs, v)
        out[k] = float(z.take(v.basis) @ v.xb)
    return out


def oracle_membership(s: SurfaceSample, p: Point3) -> bool:
    """Whether p is a convex combination of the surface samples.

    False only when phase 1 certifies, with a pricing pass over every
    frame column, that no combination comes within _FEAS_TOL (total
    artificial) of p; a solver breakdown raises SolverError.  The queries
    on one sample share one solver and its Farkas rays, so two threads
    must not query one sample at once.
    """
    rhs = np.array([p.x, p.y, p.z, 1.0])
    try:
        s._membership_lp().phase1(rhs)
    except Infeasible:
        return False
    return True
