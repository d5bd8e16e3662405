"""Bound boxes, canonical rescaling, and bound tightening.

Everything downstream works on the canonical form in which the variable upper
bounds are (1, 1): a raw box [lx,ux] x [ly,uy] with product bounds lz <= xy <= uz
is mapped through (x, y, z) -> (x/ux, y/uy, z/(ux*uy)).  Tightening then folds in
the bounds implied by the product range (x >= lz, x <= uz/ly and their mirrors)
in one closed-form pass and rescales once more, so the tightened form satisfies

    lz <= lx <= uz   and   lz <= ly <= uz   whenever lz > 0.
"""

from __future__ import annotations

import math
import sys

from .errors import DegenerateBounds, InfeasibleBounds

# a ratio this close to 1 is roundoff, not a bound: a shrink factor uz/ly
# there is no reduction (rescaling by it would leave the ratio where it
# was), and a normalized uz there is the trivial ux*uy
_NEAR_ONE = 1.0 - 4.0 * sys.float_info.epsilon


# the hull is exact, so these are the only two numerical slacks: a
# constraint residual down to -FEAS_TOL counts as met, and a point within
# BOUNDARY_TOL of a threshold or a piece predicate counts as on it
FEAS_TOL = 1e-9
BOUNDARY_TOL = 1e-12

# writes a field on an instance that is already built; only a lazily
# filled cache slot (oracle.SurfaceSample._lp, ._frame) needs it
_set = object.__setattr__


class _Frozen:
    """Base of the immutable value types.  A subclass names its fields in
    __slots__, in order, or in _names when its last slots are no fields
    (one derived from the fields, or a cache); a subclass of a value type
    that declares no slot keeps its base's fields.  Equality (same class
    only), hashing, repr, pickling and construction read the fields in
    that order, as those of a frozen dataclass do.

    A value type is built in its __new__, its one construction path (it
    defines no __init__): that takes an instance of the class's assignable
    twin, sets each field by plain assignment, a slot store, and sets
    __class__ back to the class itself.  The twin, made here for every
    subclass, adds no slot and only restores object's __setattr__ and
    __delattr__.  The contract does not depend on it: the caller gets an
    instance of the class itself, frozen (assigning or deleting any
    attribute, __class__ included, raises AttributeError), and copies and
    pickles are rebuilt through __new__.

    A class that neither defines nor inherits a __new__ gets one, compiled
    here as namedtuple compiles its own, that only stores the fields: such
    a value type declares __slots__ and nothing else.  RawBounds, Scaling,
    NormalizedBounds and LinearInequality write their own to check their
    arguments, HullDescription to derive rows and SurfaceSample to start
    its caches empty.
    """

    __slots__ = ()
    _names = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__dict__.get("__setattr__") is object.__setattr__:
            return  # a twin
        if "_names" not in cls.__dict__:
            cls._names = cls.__dict__.get("__slots__") or cls._names
        cls._twin = type(cls.__name__, (cls,), {
            "__slots__": (), "__setattr__": object.__setattr__,
            "__delattr__": object.__delattr__})
        if cls.__new__ is object.__new__:
            src = "\n    ".join(
                ["def __new__(cls%s):" % "".join(", " + n for n in cls._names),
                 "self = object.__new__(cls._twin)"]
                + ["self.%s = %s" % (n, n) for n in cls._names]
                + ["self.__class__ = cls", "return self"])
            namespace = {}
            exec(src, {}, namespace)
            new = namespace["__new__"]
            new.__module__ = cls.__module__
            new.__qualname__ = cls.__qualname__ + ".__new__"
            cls.__new__ = staticmethod(new)

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self._names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self._names, self._fields())))

    def __setattr__(self, name, *value):
        raise AttributeError("cannot assign to or delete field %r" % name)

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()


class Point3(_Frozen):
    __slots__ = ("x", "y", "z")

    def astuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


class RawBounds(_Frozen):
    """User-facing bounds l <= (x, y, z) <= u with z standing for the product xy.

    Feasibility of the surface requires the product range [lx*ly, ux*uy] of the
    box to meet [lz, uz]; violations raise InfeasibleBounds.
    """

    __slots__ = ("lx", "ly", "lz", "ux", "uy", "uz")

    def __new__(cls, lx: float, ly: float, lz: float,
               ux: float, uy: float, uz: float) -> RawBounds:
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
        self = object.__new__(cls._twin)
        self.lx = lx
        self.ly = ly
        self.lz = lz
        self.ux = ux
        self.uy = uy
        self.uz = uz
        self.__class__ = cls
        return self


class Scaling(_Frozen):
    """Diagonal change of variables (x, y, z) -> (x/sx, y/sy, z/(sx*sy))."""

    __slots__ = ("sx", "sy")

    def __new__(cls, sx: float, sy: float) -> Scaling:
        if not (sx > 0.0 and sy > 0.0):
            raise ValueError("scale factors must be positive")
        self = object.__new__(cls._twin)
        self.sx = sx
        self.sy = sy
        self.__class__ = cls
        return self

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
        """Scaling equivalent to applying self first, then `inner`; a
        factor or their product that underflows raises DegenerateBounds."""
        sx, sy = self.sx * inner.sx, self.sy * inner.sy
        if sx * sy == 0.0:
            raise DegenerateBounds("the composed scale factors underflow")
        return Scaling(sx, sy)


class NormalizedBounds(_Frozen):
    """Bounds in canonical form: ux = uy = 1, 0 <= lz < uz <= 1, lx*ly <= lz."""

    __slots__ = ("lx", "ly", "lz", "uz")

    def __new__(cls, lx: float, ly: float, lz: float,
                uz: float) -> NormalizedBounds:
        if not (0.0 <= lx < 1.0 and 0.0 <= ly < 1.0):
            raise InfeasibleBounds("need 0 <= lx < 1 and 0 <= ly < 1")
        if not (0.0 <= lz < uz <= 1.0):
            raise InfeasibleBounds("need 0 <= lz < uz <= 1")
        if lx * ly > lz + 1e-12:
            raise InfeasibleBounds("need lx*ly <= lz (raise lz to the corner value)")
        self = object.__new__(cls._twin)
        self.lx = lx
        self.ly = ly
        self.lz = lz
        self.uz = uz
        self.__class__ = cls
        return self

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
    no three-dimensional body to describe and raises InfeasibleBounds, and
    a product ux*uy that underflows to zero raises DegenerateBounds.
    """
    s = Scaling(b.ux, b.uy)
    if s.sz == 0.0:
        raise DegenerateBounds("ux*uy underflows to zero")
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

    One pass of the implied-bound reductions:  x >= lz (from xy >= lz,
    y <= 1) raises lx, mirror for ly; then x <= uz/ly (from xy <= uz,
    y >= ly) shrinks the box, which is rescaled back to unit upper bounds.
    The pass is already the fixed point: a second one could raise lx only
    to lz*lx/uz <= lx, and in the rescaled frame uz/ly is 1.  A shrink
    factor within a few ulps of 1 counts as none; where the rounding of
    the pass leaves the ratio just past that snap (lx or ly a few ulps from
    lz or uz), tightening again shrinks by about 5 ulps more.
    """
    lz, uz = b.lz, b.uz
    lx, ly = max(b.lx, lz), max(b.ly, lz)
    ax = min(1.0, uz / ly) if ly > 0.0 else 1.0
    ay = min(1.0, uz / lx) if lx > 0.0 else 1.0
    if ax >= _NEAR_ONE:
        ax = 1.0
    if ay >= _NEAR_ONE:
        ay = 1.0
    # division by 1.0 is exact, so an unshrunk side needs no branch
    lx /= ax
    ly /= ay
    lz /= ax * ay
    uz = min(uz / (ax * ay), 1.0)
    lz = min(max(lz, lx * ly), uz)
    if not lz < uz:
        raise InfeasibleBounds("bound tightening collapsed the z range")
    return NormalizedBounds(lx, ly, lz, uz), Scaling(ax, ay)
