"""Piecewise hull descriptions: case analysis, membership, separation.

A description is the conjunction of the four RLT planes, the product bounds
on z, the box, and a short list of pieces.  The linear part is one table of
ten rows (HullDescription.rows) that membership, worst_violation, separate
and the disjunctive blocks read; the envelopes and the tangent planes use
the box's own RLT planes, from its bounds.  A piece is a cone and its
predicate, rows a0 + ax*x + ay*y >= 0 (az = 0, label "predicate") that
carve out the part of the box where the cone is the binding upper
boundary; outside its predicate a piece imposes nothing.  Only the center
cone and the pieces without one hold on the whole box, so the predicates
are part of the description, not an optimization.  A box with lx - ly >
BOUNDARY_TOL is the x<->y mirror of a canonical case (CaseTag.swapped);
its pieces are built in its own frame: each predicate row with ax and ay
interchanged, each cone as SocConstraint.mirrored().

Two pinned tolerances from geometry are the only slack: a constraint
residual down to -FEAS_TOL (1e-9) counts as met, and a point within
BOUNDARY_TOL (1e-12) of a case threshold or a predicate line counts as on
it, so a piece applies on both sides of its boundary.  Every tie has one
rule: the first of tied pieces; a piece over a linear row for zmax; a
linear row over a cone for the most violated constraint; no mirror within
BOUNDARY_TOL of the diagonal.

The scalar queries compute in floats through math.  Only the array kernels
(membership_mask, envelope_grid, region_map_polylines) and array input to
the shared ones import numpy, so scalar use never loads it.  The scalar
scans (_worst_row, _worst_piece, _binding, membership) and separate's test
of its cut write LinearInequality.residual, HullPiece.applicable and the
scalar branch of SocConstraint.residual out inline: the same expressions in
the same order, so the same floats, without a method call per row or cone.
_binding reads SocConstraint.envelope_z, which tests for a pair of floats
first.  The array forms of the rows, predicates and cones leave out
zero terms and unit products (constraints._affine), which changes at most
the sign of a zero, and membership_mask reads the bound rows, predicates
and cones only at the points that meet the RLT planes: its answers are
membership's.
"""

from __future__ import annotations

import math
from enum import Enum
from types import MethodType
from typing import TYPE_CHECKING

from .constraints import (
    LinearInequality,
    SocConstraint,
    TangentFamily,
    TangentSegment,
    _affine,
    _center,
    _row,
    _side,
    rlt,
    soc_lower,
    soc_upper_general,
)
from .errors import DegenerateBounds, OutOfDomain
from .geometry import (
    BOUNDARY_TOL,
    FEAS_TOL,
    NormalizedBounds,
    Point3,
    RawBounds,
    Scaling,
    _check_normalized,
    _composed,
    _Frozen,
    _normalized,
    _tightened,
)

if TYPE_CHECKING:
    import numpy as np


class Region(Enum):
    NO_Z_BOUND = "NoZBound"
    UPPER_ONLY = "UpperOnly"
    LOWER_ONLY = "LowerOnly"
    BOTH_ZERO_LB = "BothZeroLB"
    A = "RegionA"
    B = "RegionB"
    C = "RegionC"
    D = "RegionD"

    # as TangentFamily's: the identity hash, in C
    __hash__ = object.__hash__


# elements per block of the array kernels (membership_mask, envelope_grid):
# a few block-sized temporaries fit in a core's L2 cache
_BLOCK = 1 << 14

# map letters of the lettered regions, unswapped and swapped
_LETTERS = {Region.A: "AA", Region.B: "BB", Region.C: "CE", Region.D: "DF"}


class CaseTag(_Frozen):
    """A region plus the x<->y mirror flag; the mirrors of C and D have no
    region of their own and get the map letters E and F."""

    __slots__ = ("region", "swapped")

    @property
    def letter(self) -> str | None:
        """Map letter for the region cases; mirrored regions get E/F."""
        pair = _LETTERS.get(self.region)
        return None if pair is None else pair[bool(self.swapped)]

    def to_dict(self) -> dict:
        return {"region": self.region.value, "swapped": self.swapped,
                "letter": self.letter}


# every case tag there is, so classifying a box builds none
_CASES = {(r, s): CaseTag(r, s) for r in Region for s in (False, True)}


def _predicate(a0: float, ax: float, ay: float) -> LinearInequality:
    """The predicate row a0 + ax*x + ay*y >= 0."""
    return _row(a0, ax, ay, 0.0, "predicate")


def _yx(a0: float, ax: float, ay: float) -> LinearInequality:
    """_predicate(a0, ax, ay) with x and y interchanged."""
    return _row(a0, ay, ax, 0.0, "predicate")


def dline(ly: float, lz: float, uz: float) -> LinearInequality:
    """The predicate row a0 + ax*x - y >= 0 of the piece below the line
    y = a0 + ax*x, the piece boundary of the far-corner case, which joins
    the curve endpoint (lz/ly, ly) to the box corner point (uz, 1)."""
    den = uz * ly - lz
    if den <= 0.0:
        raise DegenerateBounds("boundary line needs uz*ly > lz")
    return _predicate((uz * ly * ly - lz) / den, ly * (1.0 - ly) / den, -1.0)


class HullPiece(_Frozen):
    """A cone and its predicate rows, the (x, y) part of the box where the
    cone is the binding upper boundary; no rows for the whole box."""

    __slots__ = ("predicate", "soc")

    @property
    def globally_valid(self) -> bool:
        """Whether the cone holds on the whole box: no predicate, or CENTER."""
        return not self.predicate or self.soc.family is TangentFamily.CENTER

    def applicable(self, x, y):
        """Whether (x, y) lies where the piece binds, allowing BOUNDARY_TOL
        outside each predicate row: a bool for two numbers, else a boolean
        array of the broadcast shape."""
        bt = -BOUNDARY_TOL
        if isinstance(x, (int, float)) and isinstance(y, (int, float)):
            for hp in self.predicate:
                if not hp.a0 + hp.ax * x + hp.ay * y >= bt:
                    return False
            return True
        if not self.predicate:
            import numpy as np
            return np.ones(np.broadcast(x, y).shape, dtype=bool)
        out = _row_values(self.predicate[0], x, y, 0.0) >= bt
        for hp in self.predicate[1:]:
            out = out & (_row_values(hp, x, y, 0.0) >= bt)
        return out

    def to_dict(self) -> dict:
        return {"predicate": [{"a0": hp.a0, "ax": hp.ax, "ay": hp.ay}
                              for hp in self.predicate],
                "soc": self.soc.to_dict(), "global": self.globally_valid}


_piece = MethodType(HullPiece.__new__, HullPiece)  # as constraints._row

# the box's upper bounds are 1 in every normalized frame, so all
# descriptions share these two rows
_X_UPPER = LinearInequality(1.0, -1.0, 0.0, 0.0, "x_upper")
_Y_UPPER = LinearInequality(1.0, 0.0, -1.0, 0.0, "y_upper")


class HullDescription(_Frozen):
    """The hull as linear rows plus pieces.

    Derived from the fields: the z range zlo, zhi (bounds.lz, bounds.uz)
    and `rows`, the RLT planes, then z >= zlo, z <= zhi, x >= lx, x <= 1,
    y >= ly, y <= 1.  Membership, worst_violation, separate and the
    disjunctive blocks read rows, so a description built through this
    constructor with other planes is checked against exactly those planes.
    envelopes, envelope_grid and the tangent planes (lifted_tangent, and
    separate's cut for a violated cone) use the box's own RLT planes, from
    bounds.  Equality, hashing, repr and pickling read the four fields.
    """

    __slots__ = ("bounds", "case", "rlt", "pieces", "zlo", "zhi", "rows")
    _names = __slots__[:4]  # not zlo, zhi and rows, which are derived

    def __new__(cls, bounds: NormalizedBounds, case: CaseTag,
               rlt: tuple[LinearInequality, ...],
               pieces: tuple[HullPiece, ...]) -> HullDescription:
        self = object.__new__(cls._twin)
        self.bounds = bounds
        self.case = case
        self.rlt = rlt
        self.pieces = pieces
        self.zlo = zlo = bounds.lz
        self.zhi = zhi = bounds.uz
        self.rows = tuple(rlt) + (
            _row(-zlo, 0.0, 0.0, 1.0, "z_lower"),
            _row(zhi, 0.0, 0.0, -1.0, "z_upper"),
            _row(-bounds.lx, 1.0, 0.0, 0.0, "x_lower"),
            _X_UPPER,
            _row(-bounds.ly, 0.0, 1.0, 0.0, "y_lower"),
            _Y_UPPER,
        )
        self.__class__ = cls
        return self

    def to_dict(self) -> dict:
        return {
            "bounds": {"lx": self.bounds.lx, "ly": self.bounds.ly,
                       "lz": self.bounds.lz, "uz": self.bounds.uz},
            "case": self.case.to_dict(),
            "rlt": [q.to_dict() for q in self.rlt],
            "zlo": self.zlo,
            "zhi": self.zhi,
            "pieces": [p.to_dict() for p in self.pieces],
        }


def classify(b: NormalizedBounds) -> CaseTag:
    """Which of the structural cases the bounds fall into.

    Mirrored configurations report the canonical region with swapped=True.
    A corner within BOUNDARY_TOL of the diagonal is not mirrored: only A and
    B reach it, and both are symmetric there.  Threshold ties resolve toward
    the region listed first in the scan order (A, then B, then C, then D).
    """
    return _classify(b)[0]


def _classify(b: NormalizedBounds) -> tuple[CaseTag, float, float]:
    """classify(b) and the box's lower corner (lx, ly) in the case's
    canonical frame: (b.ly, b.lx) when the case is swapped."""
    lx, ly, swapped = b.lx, b.ly, False
    # the zero-lower-corner family is exact without tightening; everything
    # else relies on the tightened-bound assumptions
    if not (lx == 0.0 and ly == 0.0 or b.is_tightened()):
        raise OutOfDomain("bounds must be tightened (or have lx = ly = 0)")
    if b.lower_trivial:
        region = Region.NO_Z_BOUND if b.upper_trivial else Region.UPPER_ONLY
    elif b.upper_trivial:
        region = Region.LOWER_ONLY
    elif lx == 0.0 and ly == 0.0:
        region = Region.BOTH_ZERO_LB
    else:
        swapped = lx - ly > BOUNDARY_TOL
        if swapped:
            lx, ly = ly, lx
        bt = BOUNDARY_TOL
        s_lo = math.sqrt(b.lz * b.uz)
        if lx >= s_lo - bt:
            region = Region.A
        elif ly <= s_lo + bt:
            region = Region.B
        elif ly <= math.sqrt(b.lz / b.uz) + bt:
            region = Region.C
        else:
            region = Region.D
    return _CASES[region, swapped], lx, ly


def _pieces(region: Region, lx: float, ly: float, lz: float, uz: float,
            sw: bool) -> tuple[HullPiece, ...]:
    """The pieces of a case in its own frame, from the lower corner (lx, ly)
    of the canonical frame; sw interchanges x and y."""
    if region is Region.NO_Z_BOUND:
        return ()
    if region is Region.UPPER_ONLY:
        return (_piece((), soc_upper_general(lx, ly, uz)),)
    if region is Region.LOWER_ONLY:
        return (_piece((), soc_lower(lz)),)
    hp = _yx if sw else _predicate
    p = {"lz": lz, "uz": uz}  # the one params record of the description
    if region is Region.B or region is Region.BOTH_ZERO_LB:
        # center cone between the fans into (1, uz) and (uz, 1), side
        # cones beyond the lines y = uz*x and x = uz*y
        return (
            _piece((hp(0.0, -uz, 1.0), hp(0.0, 1.0, -uz)), _center(p, sw)),
            _piece((hp(0.0, uz, -1.0),), _side(p, TangentFamily.SIDE_X, sw)),
            _piece((hp(0.0, -1.0, uz),), _side(p, TangentFamily.SIDE_Y, sw)),
        )
    ug_y = soc_upper_general(lz / ly, ly, uz, sw)
    if region is Region.D:
        line = dline(ly, lz, uz)
        return (
            _piece((hp(line.a0, line.ax, -1.0),), ug_y),
            _piece((hp(-line.a0, -line.ax, 1.0),),
                   _side(p, TangentFamily.SIDE_Y, sw)),
        )
    center_lo = hp(0.0, -ly * ly / lz, 1.0)
    ug_y_piece = _piece((hp(0.0, ly * ly / lz, -1.0),), ug_y)
    if region is Region.A:
        return (
            _piece((center_lo, hp(0.0, lz / (lx * lx), -1.0)),
                   _center(p, sw)),
            ug_y_piece,
            _piece((hp(0.0, -lz / (lx * lx), 1.0),),
                   soc_upper_general(lx, lz / lx, uz, sw)),
        )
    return (  # Region.C
        _piece((center_lo, hp(0.0, 1.0, -uz)), _center(p, sw)),
        ug_y_piece,
        _piece((hp(0.0, -1.0, uz),), _side(p, TangentFamily.SIDE_Y, sw)),
    )


def describe(b: NormalizedBounds) -> HullDescription:
    """The exact hull description for tightened bounds.

    RLT planes are always emitted, even when some are redundant for the
    case at hand.  Pieces come in a fixed order per case so downstream
    piece indices are stable.  They are built once, in the case's own
    frame: a swapped case's predicate rows with ax and ay interchanged and
    its cones as SocConstraint.mirrored() give them.
    """
    case, lx, ly = _classify(b)
    return HullDescription.__new__(
        HullDescription, b, case, tuple(rlt(b)),
        _pieces(case.region, lx, ly, b.lz, b.uz, case.swapped))


def hull_from_raw(raw: RawBounds) -> tuple[HullDescription, Scaling]:
    """normalize + tighten_with_scaling + describe, with sc2.compose(sc1),
    from raw to final frame, as the scaling.  The steps run on floats, each
    check in its place, so one NormalizedBounds and one Scaling are built."""
    nb = _normalized(raw.lx, raw.ly, raw.lz, raw.ux, raw.uy, raw.uz)
    _check_normalized(*nb)
    lx, ly, lz, uz, ax, ay = _tightened(*nb)
    tb = NormalizedBounds.__new__(NormalizedBounds, lx, ly, lz, uz)
    sx, sy = _composed(ax, ay, raw.ux, raw.uy)
    return describe(tb), Scaling.__new__(Scaling, sx, sy)


def _worst_row(d: HullDescription, p: Point3) -> tuple[float, LinearInequality]:
    """The smallest row residual at p and its row, the earlier row (RLT
    planes, then bounds) on a tie.  A point with a non-finite coordinate
    raises OutOfDomain."""
    x, y, z = p.x, p.y, p.z
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise OutOfDomain("query point must have finite coordinates")
    res, row = math.inf, d.rows[0]
    for q in d.rows:
        # the expression of q.residual(x, y, z), so the same float
        r = q.a0 + q.ax * x + q.ay * y + q.az * z
        if r < res:
            res, row = r, q
    return float(res), row


def _worst_piece(d: HullDescription, p: Point3
                 ) -> tuple[float, HullPiece | None]:
    """The smallest cone residual at p over the pieces that apply there and
    its piece, the first on a tie; (inf, None) when none applies."""
    x, y, z = p.x, p.y, p.z
    bt = -BOUNDARY_TOL
    res, worst = math.inf, None
    for piece in d.pieces:
        # the test of piece.applicable(x, y), so the same answer
        for hp in piece.predicate:
            if not hp.a0 + hp.ax * x + hp.ay * y >= bt:
                break
        else:
            # the expressions of soc.residual(x, y, z), so the same float
            soc = piece.soc
            (a11, a12, a13), (a21, a22, a23) = soc.A
            c1, c2, c3 = soc.c
            r = c1 * x + c2 * y + c3 * z + soc.d - math.hypot(
                a11 * x + a12 * y + a13 * z + soc.b[0],
                a21 * x + a22 * y + a23 * z + soc.b[1])
            if r < res:
                res, worst = r, piece
    return res, worst


def membership(d: HullDescription, p: Point3) -> bool:
    """Whether p lies in the described hull, within FEAS_TOL.

    The answer is that of worst_violation(d, p)[1] is None, found with
    less work: the first row below -FEAS_TOL decides it, and the pieces
    are read only when every row is met.  Points within BOUNDARY_TOL of a
    predicate boundary are checked against the pieces on both sides.  A
    point with a non-finite coordinate raises OutOfDomain.
    """
    x, y, z = p.x, p.y, p.z
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise OutOfDomain("query point must have finite coordinates")
    ft = -FEAS_TOL
    for q in d.rows:
        if q.a0 + q.ax * x + q.ay * y + q.az * z < ft:
            return False
    return _worst_piece(d, p)[0] >= ft


def _row_values(q: LinearInequality, x, y, z):
    """q.residual(x, y, z) over arrays without its zero terms and unit
    products: the same values (up to the sign of a zero) in fewer passes."""
    return _affine(((q.a0, None), (q.ax, x), (q.ay, y), (q.az, z)))


def _cone_fails(soc: SocConstraint, x, y, z) -> np.ndarray:
    """soc.residual(x, y, z) < -FEAS_TOL over arrays, bit for bit, with
    np.hypot, several times the cost of a square root, only where a
    cheaper value cannot settle it.

    s = sqrt(r1*r1 + r2*r2) is within 5 ulps of hypot(r1, r2), plus 2^-537
    where a square underflows.  So e = rhs - s + FEAS_TOL is within 8 ulps
    of |rhs| + s of the residual plus FEAS_TOL, and where |e| exceeds
    2^-44 (|rhs| + s), at least 32 times that, e has the residual's side of
    -FEAS_TOL.  (The underflow term counts only where |rhs| + s is far
    below FEAS_TOL, and there e is about FEAS_TOL.)  The other points, and
    any non-finite e, go through residual.
    """
    import numpy as np
    rhs, r1, r2 = soc._parts(x, y, z)
    s = np.sqrt(r1 * r1 + r2 * r2)
    e = rhs - s
    e += FEAS_TOL
    margin = np.abs(rhs)
    margin += s
    margin *= 2.0 ** -44
    fails = e < 0.0
    near = np.flatnonzero(~(np.abs(e) > margin))
    if near.size:
        fails[near] = soc.residual(x[near], y[near], z[near]) < -FEAS_TOL
    return fails


def membership_mask(d: HullDescription, x, y, z) -> np.ndarray:
    """Vectorized membership over coordinate arrays of one broadcast shape.

    It reads the same rows and pieces as membership(), with the same
    arithmetic up to the sign of a zero (_affine), so the two agree point by
    point.  The points are walked in blocks of _BLOCK, so temporaries stay
    block-sized whatever the input size.  In each block the RLT planes are
    read at every point; the points that meet them are gathered once, and
    only those are read against the bound rows, the predicates and the
    cones, a cone only where its piece applies.  Any non-finite coordinate
    raises OutOfDomain.
    """
    import numpy as np
    ops = tuple(np.asarray(v, dtype=float) for v in (x, y, z))
    out = np.empty(np.broadcast(*ops).shape, dtype=bool)
    ft = -FEAS_TOL
    planes, bounds = d.rows[:len(d.rlt)], d.rows[len(d.rlt):]
    with np.nditer(ops + (out,),
                   flags=("external_loop", "buffered", "zerosize_ok"),
                   op_flags=[["readonly"]] * 3 + [["writeonly"]],
                   buffersize=_BLOCK) as blocks:
        for xb, yb, zb, ok in blocks:
            if not (np.isfinite(xb).all() and np.isfinite(yb).all()
                    and np.isfinite(zb).all()):
                raise OutOfDomain("query points must have finite coordinates")
            ok[...] = True
            for q in planes:
                ok &= _row_values(q, xb, yb, zb) >= ft
            live = np.flatnonzero(ok)
            if not live.size:
                continue
            xs, ys, zs = xb[live], yb[live], zb[live]
            met = np.ones(live.size, dtype=bool)
            for q in bounds:
                met &= _row_values(q, xs, ys, zs) >= ft
            for piece in d.pieces:
                idx = np.flatnonzero(met & piece.applicable(xs, ys)
                                     if piece.predicate else met)
                if idx.size:
                    met[idx[_cone_fails(piece.soc, xs[idx], ys[idx],
                                        zs[idx])]] = False
            ok[live] = met
    return out


def envelopes(d: HullDescription, x: float, y: float) -> tuple[float, float]:
    """(zmin, zmax) of the described set over the fixed (x, y).

    zmin can exceed zmax when (x, y) is outside the projection of the hull
    (the slice is then empty).  A point up to FEAS_TOL outside the box is
    clipped onto it, as envelope_grid clips its nodes; points farther
    outside raise OutOfDomain.
    """
    b = d.bounds
    ft = FEAS_TOL
    if not (b.lx - ft <= x <= 1.0 + ft and b.ly - ft <= y <= 1.0 + ft):
        raise OutOfDomain("point outside the box")
    x = min(max(x, b.lx), 1.0)
    y = min(max(y, b.ly), 1.0)
    zmin = max(x + y - 1.0, b.ly * x + b.lx * y - b.lx * b.ly, d.zlo)
    return zmin, _binding(d, x, y)[0]


def _binding(d: HullDescription, x: float, y: float
             ) -> tuple[float, HullPiece | None]:
    """zmax at (x, y) and the piece attaining it; None when only a linear
    row (an upper RLT plane or z <= uz) attains it.  The rule is
    envelope_grid's: the first of tied pieces, and a piece over a linear
    row on a tie."""
    b = d.bounds
    lin = min(x + b.lx * y - b.lx, b.ly * x + y - b.ly, d.zhi)
    bt = -BOUNDARY_TOL
    best, binding = math.inf, None
    for piece in d.pieces:
        # the test of piece.applicable(x, y), so the same answer
        for hp in piece.predicate:
            if not hp.a0 + hp.ax * x + hp.ay * y >= bt:
                break
        else:
            z = piece.soc.envelope_z(x, y)
            if z < best:
                best, binding = z, piece
    return (best, binding) if best <= lin else (lin, None)


def envelope_grid(d: HullDescription, xs: np.ndarray, ys: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (zmin, zmax, piece_id) over the tensor grid xs x ys.

    piece_id holds the index of the piece whose envelope attains zmax (the
    lowest index on a tie), or -1 where a linear constraint (RLT plane or z
    bound) is the binding one.  Grid values are clipped to the box before
    evaluation; a non-finite grid value raises OutOfDomain.  The grid is
    walked in blocks of about _BLOCK nodes, so temporaries stay
    block-sized, and a piece's envelope is evaluated only at the nodes
    where the piece applies: outside its predicate the discriminant can go
    negative (general upper cones).
    """
    import numpy as np
    b = d.bounds
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise OutOfDomain("grid values must be finite")
    x = np.clip(x, b.lx, 1.0)[:, None]
    y = np.clip(y, b.ly, 1.0)[None, :]
    shape = np.broadcast(x, y).shape
    zmin, zmax = np.empty(shape), np.empty(shape)
    piece_id = np.empty(shape, dtype=int)
    step = max(1, _BLOCK // max(1, shape[1]))
    for lo in range(0, shape[0], step):
        rows = slice(lo, lo + step)
        xb = x[rows]
        lower = np.maximum(xb + y - 1.0, b.ly * xb + b.lx * y - b.lx * b.ly)
        np.maximum(lower, d.zlo, out=zmin[rows])
        lin = np.minimum(xb + b.lx * y - b.lx, b.ly * xb + y - b.ly)
        lin = np.minimum(lin, d.zhi)
        # running minimum over the pieces; the strict < keeps the lowest
        # piece index on a tie
        best = np.full(lin.shape, np.inf)
        pid = piece_id[rows]
        flat_best, flat_pid = best.reshape(-1), pid.reshape(-1)
        for i, piece in enumerate(d.pieces):
            if not piece.predicate:
                env = piece.soc.envelope_z(xb, y)
                win = env < best
                best[win] = env[win]
                pid[win] = i
                continue
            app = piece.applicable(xb, y)
            idx = np.flatnonzero(app)
            if idx.size:
                env = piece.soc.envelope_z(np.broadcast_to(xb, app.shape)[app],
                                           np.broadcast_to(y, app.shape)[app])
                win = env < flat_best[idx]
                flat_best[idx[win]] = env[win]
                flat_pid[idx[win]] = i
        np.minimum(lin, best, out=zmax[rows])
        pid[~(best <= lin)] = -1
    return zmin, zmax, piece_id


_UPPER_FORM = (TangentFamily.UPPER_ZERO, TangentFamily.UPPER_GENERAL)


def _fan(d: HullDescription, piece: HullPiece, x: float, y: float
         ) -> tuple[LinearInequality, tuple, tuple, TangentFamily]:
    """The binding piece's tangent plane above (x, y), the (x, y, z) ends
    lower and upper of its fan segment through (x, y), and the cone's
    family.  The segment runs from the anchor at z = uz down to xy = lz
    (lower and side fans), from the anchor at z = lz up to xy = uz (upper
    fans), or along the origin's ray between the curves (center fan).  A
    point just outside the predicate, whose lines pass through the anchor,
    takes the segment along the line."""
    lz, uz = d.bounds.lz, d.bounds.uz
    fam = piece.soc.family
    ax, ay = piece.soc.anchor
    dx, dy = x - ax, y - ay
    # toward the fan's curve along a predicate line (none has negative slope)
    s = 1.0 if fam in _UPPER_FORM or fam is TangentFamily.CENTER else -1.0
    for hp in piece.predicate:
        if hp.ax * dx + hp.ay * dy < 0.0:
            dx, dy = s * abs(hp.ay), s * abs(hp.ax)
    # the plane through the segment and through the tangent ys*x + xs*y
    # = 2*c of the curve xy = c at its end touch = (xs, ys, c)
    if fam in _UPPER_FORM:
        lower, upper = (ax, ay, lz), _ray_end(ax, ay, dx, dy, uz)
        touch = upper
        a = (lower[1] * upper[0] + lower[0] * upper[1] - 2.0 * uz) / (uz - lz)
    else:
        lower = touch = _ray_end(ax, ay, dx, dy, lz)
        upper = (_ray_end(ax, ay, dx, dy, uz) if fam is TangentFamily.CENTER
                 else (ax, ay, uz))
        a = -(lower[1] * upper[0] + lower[0] * upper[1] - 2.0 * lz) / (uz - lz)
    return _row(-(2.0 + a) * touch[2], touch[1], touch[0], a,
                "lifted_tangent"), lower, upper, fam


def _ray_end(ax: float, ay: float, dx: float, dy: float, c: float) -> tuple:
    """Where the ray from (ax, ay) along (dx, dy) first meets xy = c, as
    (x, y, c): the root of dx*dy*t^2 + m*t + k, in the form that does not
    cancel."""
    m, k = ax * dy + ay * dx, ax * ay - c
    t = 2.0 * abs(k) / (abs(m) + math.sqrt(m * m - 4.0 * dx * dy * k))
    return ax + t * dx, ay + t * dy, c


def _wedge(d: HullDescription, x: float, y: float
           ) -> tuple[LinearInequality, tuple, tuple, TangentFamily]:
    """Supporting plane where a linear row binds, in _fan's shape: the
    lower of the box's two upper RLT planes (rlt_upper_y on a tie), the
    ends of the extreme fan segment lying in it, and the segment's family:
    the side fan ending in the plane's far corner (SideX for (1, uz), SideY
    for (uz, 1)), or in the one-sided cases the single piece's."""
    b = d.bounds
    lx, ly, lz, uz = b.lx, b.ly, b.lz, b.uz
    curve = not b.lower_trivial
    # rlt(b)'s plane, built alone
    if ly * x + y - ly <= x + lx * y - lx:
        plane = _row(-ly, ly, 1.0, -1.0, "rlt_upper_y")
        family, upper = TangentFamily.SIDE_X, (1.0, uz, uz)
        lower = (lz / ly if curve and ly > 0.0 else lx, ly, lz)
    else:
        plane = _row(-lx, 1.0, lx, -1.0, "rlt_upper_x")
        family, upper = TangentFamily.SIDE_Y, (uz, 1.0, uz)
        lower = (lx, lz / lx if curve and lx > 0.0 else ly, lz)
    if d.case.region in (Region.UPPER_ONLY, Region.LOWER_ONLY):
        family = d.pieces[0].soc.family
    return plane, lower, upper, family


def _projection_alpha(x, y, lower: Point3, upper: Point3) -> float:
    """Weight on lower of the point of the segment nearest to (x, y)."""
    dx = upper.x - lower.x
    dy = upper.y - lower.y
    denom = dx * dx + dy * dy
    if denom <= 0.0:
        return 0.0
    a = ((upper.x - x) * dx + (upper.y - y) * dy) / denom
    return min(max(a, 0.0), 1.0)


def lifted_tangent(b: NormalizedBounds, x: float, y: float
                   ) -> tuple[LinearInequality, TangentSegment]:
    """Supporting plane of the hull above the interior point (x, y).

    The bounds must be in tightened form.  The query must be strictly inside
    the box with lz < x*y < uz; otherwise OutOfDomain is raised, as it is
    when neither product bound is active (no curved boundary exists).

    Returns the inequality together with the tangent segment certifying it.
    In the flat wedges adjacent to the box edges the hull's upper boundary
    is an RLT plane; that plane is returned with the extreme fan segment it
    contains and alpha replaced by the clamped projection parameter.  Where
    pieces tie the first one's plane is returned, and a piece's over a row's.
    """
    if not (b.lx < x < 1.0 and b.ly < y < 1.0):
        raise OutOfDomain("point is not strictly inside the box")
    if not b.lz < x * y < b.uz:
        raise OutOfDomain("need lz < x*y < uz")
    if b.lower_trivial and b.upper_trivial:
        raise OutOfDomain("both product bounds are trivial: hull is polyhedral")
    d = describe(b)
    _, piece = _binding(d, x, y)
    plane, lower, upper, family = (_wedge(d, x, y) if piece is None
                                   else _fan(d, piece, x, y))
    lower, upper = Point3(*lower), Point3(*upper)
    return plane, TangentSegment(lower, upper,
                                 _projection_alpha(x, y, lower, upper), family)


def worst_violation(d: HullDescription, p: Point3
                    ) -> tuple[float, dict | None]:
    """Smallest constraint residual at p and, when negative beyond
    FEAS_TOL, a short identification of the violated constraint: on a tie
    a linear row before a cone, the earlier row, the first piece.  A point
    with a non-finite coordinate raises OutOfDomain.
    """
    row_res, row = _worst_row(d, p)
    cone_res, piece = _worst_piece(d, p)
    res = min(row_res, cone_res)
    if res >= -FEAS_TOL:
        return res, None
    if row_res <= cone_res:
        return res, {"kind": "linear", "label": row.label}
    return res, {"kind": "soc", "family": piece.soc.family.value}


def separate(d: HullDescription, p: Point3) -> LinearInequality | None:
    """A valid inequality violated by p, or None when p is a member.

    Picks the most violated constraint, a linear row (the earlier one) on
    a tie with a cone.  A violated cone is converted into the hull's
    tangent plane above the projection of p, lifted_tangent's with its tie
    rule (below the curve xy = lz, the tangent of that curve); when p does
    not violate it, the most violated linear row is returned.  A point with
    a non-finite coordinate raises OutOfDomain.
    """
    b = d.bounds
    x, y, z = p.x, p.y, p.z
    row_res, row = _worst_row(d, p)
    cone_res, _ = _worst_piece(d, p)
    if min(row_res, cone_res) >= -FEAS_TOL:
        return None
    if row_res <= cone_res:
        return row

    # a cone is the most violated constraint: cut with its tangent plane
    # at a point nudged off the box edges, as the cut below divides by xq*yq
    nudge_x = min(BOUNDARY_TOL, (1.0 - b.lx) * 0.25)
    nudge_y = min(BOUNDARY_TOL, (1.0 - b.ly) * 0.25)
    xq = min(max(x, b.lx + nudge_x), 1.0 - nudge_x)
    yq = min(max(y, b.ly + nudge_y), 1.0 - nudge_y)
    cut: LinearInequality | None = None
    if xq * yq <= d.zlo:
        # outside the hull's (x, y) projection: tangent to the curve xy = lz
        s = math.sqrt(d.zlo / (xq * yq))
        cut = _row(-2.0 * d.zlo, yq * s, xq * s, 0.0, "product_lower_tangent")
    elif xq * yq < d.zhi:
        # the supporting plane of zmax: the binding piece's, or where a
        # linear row binds, the lower of the two upper RLT planes
        _, piece = _binding(d, xq, yq)
        cut = (_wedge(d, xq, yq) if piece is None
               else _fan(d, piece, xq, yq))[0]
    # the expression of cut.residual(x, y, z), so the same float
    if cut is not None and cut.a0 + cut.ax * x + cut.ay * y + cut.az * z < 0.0:
        return cut
    return row


class BranchBlock(_Frozen):
    """One disjunct: the piece's constraints homogenized by its weight.

    Rows and cone are interpreted with their constant parts multiplied by
    lam: a0*lam_i + a'v_i >= 0 and ||A v_i + b*lam_i|| <= c'v_i + d*lam_i.
    """

    __slots__ = ("index", "rows", "soc")

    def soc_residual(self, lam, x, y, z) -> float:
        if self.soc is None:
            return 0.0
        c = self.soc
        (a11, a12, a13), (a21, a22, a23) = c.A
        r1 = a11 * x + a12 * y + a13 * z + c.b[0] * lam
        r2 = a21 * x + a22 * y + a23 * z + c.b[1] * lam
        rhs = c.c[0] * x + c.c[1] * y + c.c[2] * z + c.d * lam
        return float(rhs - math.hypot(r1, r2))

    def feasible(self, lam, x, y, z) -> bool:
        """Whether (lam, x, y, z) meets the block to within FEAS_TOL."""
        if lam < -FEAS_TOL:
            return False
        for q in self.rows:
            if q.a0 * lam + q.ax * x + q.ay * y + q.az * z < -FEAS_TOL:
                return False
        return self.soc_residual(lam, x, y, z) >= -FEAS_TOL


class ExtendedFormulation(_Frozen):
    """Disjunctive description: one block per piece plus aggregation rows
    x = sum x_i, y = sum y_i, z = sum z_i, sum lam_i = 1, lam >= 0.
    """

    __slots__ = ("blocks",)

    @property
    def num_branch_variables(self) -> int:
        return 4 * len(self.blocks)

    @property
    def num_aggregation_rows(self) -> int:
        return 4

    @property
    def variables(self) -> tuple[str, ...]:
        names = ["x", "y", "z"]
        for blk in self.blocks:
            i = blk.index + 1
            names += [f"lam{i}", f"x{i}", f"y{i}", f"z{i}"]
        return tuple(names)


def disjunctive(d: HullDescription) -> ExtendedFormulation:
    """The branch-block formulation of a description.

    Each block holds the description's rows plus its piece's predicate
    rows.  With no curved pieces the hull is already polyhedral; a
    single block carrying just the rows is returned so the aggregation
    shape is uniform.
    """
    if not d.pieces:
        return ExtendedFormulation((BranchBlock(0, d.rows, None),))
    return ExtendedFormulation(tuple(
        BranchBlock(i, d.rows + piece.predicate, piece.soc)
        for i, piece in enumerate(d.pieces)))


def region_map_polylines(lz: float, uz: float, n: int = 65) -> dict[str, np.ndarray]:
    """Polylines of the (lx, ly) region map for fixed product bounds.

    Keys: the square frame edges, the hyperbola lx*ly = lz bounding the
    admissible corner set, and the four threshold segments at sqrt(lz*uz)
    and sqrt(lz/uz), all clipped to [lz, uz]^2.  Arrays have shape (k, 2).
    """
    if not 0.0 < lz < uz <= 1.0:
        raise DegenerateBounds("need 0 < lz < uz <= 1")
    import numpy as np
    s_lo = math.sqrt(lz * uz)
    s_hi = math.sqrt(lz / uz)
    out: dict[str, np.ndarray] = {}
    out["frame_lx"] = np.array([[lz, lz], [lz, uz]])
    out["frame_ly"] = np.array([[lz, lz], [uz, lz]])
    lo = max(lz, lz / uz)
    if lo < uz:
        xs = np.linspace(lo, uz, n)
        out["hyperbola"] = np.column_stack([xs, lz / xs])
    top = min(s_hi, uz)
    if s_lo <= top:
        out["split_lx"] = np.array([[s_lo, s_lo], [s_lo, top]])
        out["split_ly"] = np.array([[s_lo, s_lo], [top, s_lo]])
    if s_hi <= uz:
        hi = min(s_lo, uz)
        if lz <= hi:
            out["far_ly"] = np.array([[lz, s_hi], [hi, s_hi]])
            out["far_lx"] = np.array([[s_hi, lz], [s_hi, hi]])
    return out
