"""Bound boxes, canonical rescaling, and bound tightening.

Everything downstream works on the canonical form in which the variable upper
bounds are (1, 1): a raw box [lx,ux] x [ly,uy] with product bounds lz <= xy <= uz
is mapped through (x, y, z) -> (x/ux, y/uy, z/(ux*uy)).  Tightening then folds in
the bounds implied by the product range (x >= lz, x <= uz/ly and their mirrors),
so the tightened form satisfies

    lz <= lx <= uz   and   lz <= ly <= uz   whenever lz > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import sys

from .errors import DegenerateBounds, InfeasibleBounds

_MAX_TIGHTEN_PASSES = 10
# a ratio this close to 1 is roundoff, not a bound: a shrink factor uz/ly
# there is no reduction (rescaling by it leaves the ratio where it was, so
# tightening never settles), and a normalized uz there is the trivial ux*uy
_NEAR_ONE = 1.0 - 4.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class Tolerance:
    """Numeric tolerances used by feasibility checks and region tests."""

    feas_tol: float = 1e-9
    boundary_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.feas_tol > 0.0 and self.boundary_tol > 0.0):
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class Point3:
    x: float
    y: float
    z: float

    def astuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class RawBounds:
    """User-facing bounds l <= (x, y, z) <= u with z standing for the product xy.

    Feasibility of the surface requires the product range [lx*ly, ux*uy] of the
    box to meet [lz, uz]; violations raise InfeasibleBounds.
    """

    lx: float
    ly: float
    lz: float
    ux: float
    uy: float
    uz: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.lx, self.ly, self.lz,
                                       self.ux, self.uy, self.uz))):
            raise InfeasibleBounds("bounds must be finite numbers")
        if not (0.0 <= self.lx < self.ux and 0.0 <= self.ly < self.uy):
            raise InfeasibleBounds("need 0 <= lx < ux and 0 <= ly < uy")
        if not (0.0 <= self.lz < self.uz):
            raise InfeasibleBounds("need 0 <= lz < uz")
        if self.lx * self.ly > self.uz or self.lz > self.ux * self.uy:
            raise InfeasibleBounds(
                "no surface point: product range [%g, %g] of the box misses [%g, %g]"
                % (self.lx * self.ly, self.ux * self.uy, self.lz, self.uz)
            )


@dataclass(frozen=True)
class Scaling:
    """Diagonal change of variables (x, y, z) -> (x/sx, y/sy, z/(sx*sy))."""

    sx: float
    sy: float

    def __post_init__(self) -> None:
        if not (self.sx > 0.0 and self.sy > 0.0):
            raise ValueError("scale factors must be positive")

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


@dataclass(frozen=True)
class NormalizedBounds:
    """Bounds in canonical form: ux = uy = 1, 0 <= lz < uz <= 1, lx*ly <= lz."""

    lx: float
    ly: float
    lz: float
    uz: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lx < 1.0 and 0.0 <= self.ly < 1.0):
            raise InfeasibleBounds("need 0 <= lx < 1 and 0 <= ly < 1")
        if not (0.0 <= self.lz < self.uz <= 1.0):
            raise InfeasibleBounds("need 0 <= lz < uz <= 1")
        if self.lx * self.ly > self.lz + 1e-12:
            raise InfeasibleBounds("need lx*ly <= lz (raise lz to the corner value)")

    @property
    def lower_trivial(self) -> bool:
        """True when the product lower bound adds nothing beyond the box corner."""
        return self.lz <= self.lx * self.ly + 1e-15

    @property
    def upper_trivial(self) -> bool:
        return self.uz >= 1.0

    def swapped(self) -> "NormalizedBounds":
        return NormalizedBounds(self.ly, self.lx, self.lz, self.uz)

    def is_tightened(self, slack: float = 1e-12) -> bool:
        """Whether the implied-bound conditions already hold."""
        if self.lz <= 0.0:
            return True
        return (self.lx >= self.lz - slack and self.ly >= self.lz - slack
                and self.lx <= self.uz + slack and self.ly <= self.uz + slack)


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
