"""Bound boxes, canonical rescaling, and bound tightening.

Everything downstream works on the canonical form in which the variable upper
bounds are (1, 1): a raw box [lx,ux] x [ly,uy] with product bounds lz <= xy <= uz
is mapped through (x, y, z) -> (x/ux, y/uy, z/(ux*uy)).  Tightening then folds in
the bounds implied by the product range (x >= lz, x <= uz/ly and their mirrors),
so the tightened form satisfies

    lz <= lx <= uz   and   lz <= ly <= uz   whenever lz > 0.
"""

from __future__ import annotations

import math
import sys

from .errors import DegenerateBounds, InfeasibleBounds

_MAX_TIGHTEN_PASSES = 10
# a ratio this close to 1 is roundoff, not a bound: a shrink factor uz/ly
# there is no reduction (rescaling by it leaves the ratio where it was, so
# tightening never settles), and a normalized uz there is the trivial ux*uy
_NEAR_ONE = 1.0 - 4.0 * sys.float_info.epsilon


# the hull is exact, so these are the only two numerical slacks: a
# constraint residual down to -FEAS_TOL counts as met, and a point within
# BOUNDARY_TOL of a threshold or a piece predicate counts as on it
FEAS_TOL = 1e-9
BOUNDARY_TOL = 1e-12

_set = object.__setattr__


class _Frozen:
    """Base of the immutable value types.  A subclass names its fields in
    __slots__, in order, and sets them in its own __init__ through _set;
    equality (same class only), hashing, repr and pickling read the fields
    in that order, as those of a frozen dataclass do.  Slots derived from
    the fields come last, and the subclass's _fields leaves them out."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self.__slots__, self._fields())))

    def __setattr__(self, name, *value):
        raise AttributeError("cannot assign to or delete field %r" % name)

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()


class Point3(_Frozen):
    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)

    def astuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


class RawBounds(_Frozen):
    """User-facing bounds l <= (x, y, z) <= u with z standing for the product xy.

    Feasibility of the surface requires the product range [lx*ly, ux*uy] of the
    box to meet [lz, uz]; violations raise InfeasibleBounds.
    """

    __slots__ = ("lx", "ly", "lz", "ux", "uy", "uz")

    def __init__(self, lx: float, ly: float, lz: float,
                 ux: float, uy: float, uz: float) -> None:
        if not all(map(math.isfinite, (lx, ly, lz, ux, uy, uz))):
            raise InfeasibleBounds("bounds must be finite numbers")
        if not (0.0 <= lx < ux and 0.0 <= ly < uy):
            raise InfeasibleBounds("need 0 <= lx < ux and 0 <= ly < uy")
        if not (0.0 <= lz < uz):
            raise InfeasibleBounds("need 0 <= lz < uz")
        if lx * ly > uz or lz > ux * uy:
            raise InfeasibleBounds(
                "no surface point: product range [%g, %g] of the box misses [%g, %g]"
                % (lx * ly, ux * uy, lz, uz)
            )
        _set(self, "lx", lx)
        _set(self, "ly", ly)
        _set(self, "lz", lz)
        _set(self, "ux", ux)
        _set(self, "uy", uy)
        _set(self, "uz", uz)


class Scaling(_Frozen):
    """Diagonal change of variables (x, y, z) -> (x/sx, y/sy, z/(sx*sy))."""

    __slots__ = ("sx", "sy")

    def __init__(self, sx: float, sy: float) -> None:
        if not (sx > 0.0 and sy > 0.0):
            raise ValueError("scale factors must be positive")
        _set(self, "sx", sx)
        _set(self, "sy", sy)

    @property
    def sz(self) -> float:
        return self.sx * self.sy

    def to_normalized(self, p: Point3) -> Point3:
        return Point3(p.x / self.sx, p.y / self.sy, p.z / self.sz)

    def to_raw(self, p: Point3) -> Point3:
        return Point3(p.x * self.sx, p.y * self.sy, p.z * self.sz)

    def inequality_to_raw(self, q):
        """The inequality a0 + ax*x + ay*y + az*z >= 0 (a LinearInequality)
        over normalized points, restated over raw points."""
        return type(q)(q.a0, q.ax / self.sx, q.ay / self.sy, q.az / self.sz,
                       q.label)

    def compose(self, inner: "Scaling") -> "Scaling":
        """Scaling equivalent to applying self first, then `inner`."""
        return Scaling(self.sx * inner.sx, self.sy * inner.sy)


class NormalizedBounds(_Frozen):
    """Bounds in canonical form: ux = uy = 1, 0 <= lz < uz <= 1, lx*ly <= lz."""

    __slots__ = ("lx", "ly", "lz", "uz")

    def __init__(self, lx: float, ly: float, lz: float, uz: float) -> None:
        if not (0.0 <= lx < 1.0 and 0.0 <= ly < 1.0):
            raise InfeasibleBounds("need 0 <= lx < 1 and 0 <= ly < 1")
        if not (0.0 <= lz < uz <= 1.0):
            raise InfeasibleBounds("need 0 <= lz < uz <= 1")
        if lx * ly > lz + 1e-12:
            raise InfeasibleBounds("need lx*ly <= lz (raise lz to the corner value)")
        _set(self, "lx", lx)
        _set(self, "ly", ly)
        _set(self, "lz", lz)
        _set(self, "uz", uz)

    @property
    def lower_trivial(self) -> bool:
        """True when the product lower bound adds nothing beyond the box corner."""
        return self.lz <= self.lx * self.ly + 1e-15

    @property
    def upper_trivial(self) -> bool:
        return self.uz >= 1.0

    def swapped(self) -> "NormalizedBounds":
        return NormalizedBounds(self.ly, self.lx, self.lz, self.uz)

    def is_tightened(self) -> bool:
        """Whether the implied-bound conditions already hold, to BOUNDARY_TOL."""
        if self.lz <= 0.0:
            return True
        bt = BOUNDARY_TOL
        return (self.lx >= self.lz - bt and self.ly >= self.lz - bt
                and self.lx <= self.uz + bt and self.ly <= self.uz + bt)


def normalize(b: RawBounds) -> tuple[NormalizedBounds, Scaling]:
    """Rescale to unit variable upper bounds and drop slack in the z range.

    The product lower bound is raised to the box corner value lx*ly when the
    corner already enforces more, and uz is clipped at the trivial bound ux*uy
    (a normalized uz within a few ulps of 1 counts as that bound).
    A z range that collapses to a single value after these adjustments leaves
    no three-dimensional body to describe and raises InfeasibleBounds.
    """
    s = Scaling(b.ux, b.uy)
    lx = b.lx / b.ux
    ly = b.ly / b.uy
    lz = b.lz / s.sz
    uz = min(b.uz / s.sz, 1.0)
    if uz >= _NEAR_ONE:
        uz = 1.0
    lz = max(lz, lx * ly)
    if not lz < uz:
        raise InfeasibleBounds("z range collapses to a point after normalization")
    return NormalizedBounds(lx, ly, lz, uz), s


def tighten_with_scaling(b: NormalizedBounds) -> tuple[NormalizedBounds, Scaling]:
    """Tightened bounds plus the extra rescaling applied, if any.

    Reductions:  x >= lz (from xy >= lz, y <= 1) raises lx, mirror for ly;
    x <= uz/ly (from xy <= uz, y >= ly) shrinks the box, after which the box is
    rescaled back to unit upper bounds.  The two interact, so they run to a
    fixed point; convergence is geometric and ten passes are plenty.  A
    shrink factor within a few ulps of 1 counts as none.  Raises
    DegenerateBounds if the passes still do not settle.
    """
    lx, ly, lz, uz = b.lx, b.ly, b.lz, b.uz
    sx = sy = 1.0
    for _ in range(_MAX_TIGHTEN_PASSES):
        nlx = max(lx, lz)
        nly = max(ly, lz)
        ax = min(1.0, uz / nly) if nly > 0.0 else 1.0
        ay = min(1.0, uz / nlx) if nlx > 0.0 else 1.0
        if ax >= _NEAR_ONE:
            ax = 1.0
        if ay >= _NEAR_ONE:
            ay = 1.0
        changed = nlx != lx or nly != ly or ax < 1.0 or ay < 1.0
        lx, ly = nlx, nly
        if ax < 1.0 or ay < 1.0:
            lx /= ax
            ly /= ay
            lz /= ax * ay
            uz /= ax * ay
            sx *= ax
            sy *= ay
        if not changed:
            break
    else:
        raise DegenerateBounds("bound tightening failed to reach a fixed point")
    uz = min(uz, 1.0)
    lz = min(max(lz, lx * ly), uz)
    if not lz < uz:
        raise InfeasibleBounds("bound tightening collapsed the z range")
    return NormalizedBounds(lx, ly, lz, uz), Scaling(sx, sy)


def tighten(b: NormalizedBounds) -> NormalizedBounds:
    """Fixed point of the implied-bound reductions; feasible set unchanged.

    When the upper reductions bite, coordinates are rescaled; use
    tighten_with_scaling to map points between the two frames.
    """
    tb, _ = tighten_with_scaling(b)
    return tb
