"""Linear and second-order-cone building blocks of the hull description.

The hull of the bilinear surface over the canonical box is polyhedral from
below (two of the four RLT planes plus the bound z >= lz) and curved from
above.  Every curved patch belongs to one of six constraint families, and
the cone of each is tight along a fan of line segments on rays from one
point, the fan's anchor (SocConstraint.anchor): the box corner (1, 1), a
side corner (1, uz) or (uz, 1), the cone's lower corner (lx, ly), or the
origin.  A segment runs from the anchor to the curve xy = lz or xy = uz (a
center-fan segment from one curve to the other).  Each cone carries:

  * its inequality  ||A v + b|| <= c'v + d  over v = (x, y, z),
  * a closed-form upper envelope z <= g(x, y); for the lower, side and
    general upper cones it is one root, the height of the fan segment
    through (x, y),
  * its fan's anchor, from which hull.lifted_tangent() runs the binding
    piece's segment through the query point to the curve, and takes the
    plane through the segment that is tangent to that curve.

With swapped=True a builder gives its cone with x and y interchanged, the
floats of SocConstraint.mirrored(), without building the canonical cone.

The cones are written in closed form.  The center and upper cones are
rotated cones p*q >= w^2 with p, q >= 0, that is ||(2w, p - q)|| <= p + q;
the lower and side cones are sqrt(h'Mh) <= c'v over hats h affine in
(x, y), with M a PSD 2x2 matrix, that is ||R h|| <= c'v with R the rows of
M's Cholesky factor.  Each builder writes the floats of its general form
directly, by the same expressions in the same order, leaving out only the
products by 0 and +-1, which are exact; the tests hold them to that general
form.  The center and side cones of one description share one params
record.

LinearInequality, SocConstraint and TangentSegment are value types, whose
contract geometry._Frozen states.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from types import MethodType

from .errors import DegenerateBounds, NegativeDiscriminant
from .geometry import NormalizedBounds, Point3, _Frozen

DISC_CLAMP = -1e-12


def _clamped_sqrt(d):
    """sqrt with the documented negative-roundoff clamp at DISC_CLAMP.

    A Python number gives a float, through math, and a float at or above
    the clamp takes no further test; anything else is evaluated as an
    array, and only then is numpy imported.
    """
    if type(d) is float and d >= DISC_CLAMP:
        return math.sqrt(max(d, 0.0))
    scalar = isinstance(d, (int, float))
    if scalar:
        low = d
    else:
        import numpy as np
        low = np.min(d, initial=np.inf)
    if low < DISC_CLAMP:
        raise NegativeDiscriminant(
            "discriminant %g below clamp threshold %g" % (float(low), DISC_CLAMP)
        )
    if scalar:
        return math.sqrt(max(d, 0.0))
    return np.sqrt(np.maximum(d, 0.0))


def _affine(terms):
    """The sum of c*v over the (c, v) of terms, added in their order, for
    array v; v None stands for the constant 1.

    Zero terms are left out and unit products taken as v or -v; a leading
    -v is subtracted from the next term (-a + b is b - a).  Once the sum is
    a float64 array of its own it is built up in place.  For finite input
    these are the values of the full expression up to the sign of a zero,
    in fewer array passes and temporaries.
    """
    import numpy as np
    parts = []  # (negated, value)
    for c, v in terms:
        if c == 0.0:
            continue
        if v is None or c == 1.0:
            parts.append((False, c if v is None else v))
        elif c == -1.0:
            parts.append((True, v))
        else:
            parts.append((False, c * v))
    if not parts:
        return 0.0
    if parts[0][0] and len(parts) > 1:
        parts[0], parts[1] = parts[1], parts[0]
    neg, out = parts[0]
    if neg:
        out = -out
    own = False
    for neg, t in parts[1:]:
        if own and getattr(t, "shape", ()) in ((), out.shape):
            if neg:
                out -= t
            else:
                out += t
        else:
            out = out - t if neg else out + t
            own = isinstance(out, np.ndarray) and out.dtype == np.float64
    return out


class TangentFamily(Enum):
    UPPER_ZERO = "UpperZero"
    LOWER = "Lower"
    CENTER = "Center"
    SIDE_X = "SideX"
    SIDE_Y = "SideY"
    UPPER_GENERAL = "UpperGeneral"

    # members are singletons compared by identity, so the identity hash
    # serves, in C, where Enum's own hashes the name in Python
    __hash__ = object.__hash__


_MIRROR_FAMILY = {
    TangentFamily.SIDE_X: TangentFamily.SIDE_Y,
    TangentFamily.SIDE_Y: TangentFamily.SIDE_X,
}


class LinearInequality(_Frozen):
    """a0 + ax*x + ay*y + az*z >= 0."""

    __slots__ = ("a0", "ax", "ay", "az", "label")

    def __new__(cls, a0: float, ax: float, ay: float, az: float,
               label: str = "") -> LinearInequality:
        if ax == 0.0 and ay == 0.0 and az == 0.0:
            raise ValueError("inequality has no variable coefficients")
        self = object.__new__(cls._twin)
        self.a0 = a0
        self.ax = ax
        self.ay = ay
        self.az = az
        self.label = label
        self.__class__ = cls
        return self

    def residual(self, x, y, z):
        return self.a0 + self.ax * x + self.ay * y + self.az * z

    def to_dict(self) -> dict:
        return {"type": "linear", "a0": self.a0, "ax": self.ax,
                "ay": self.ay, "az": self.az}


class SocConstraint(_Frozen):
    """||A v + b||_2 <= c'v + d over v = (x, y, z), tagged with its family.

    A is stored as two row tuples.  params keeps the bound values the
    constraint was built from, in a fixed key order for serialization.
    """

    __slots__ = ("A", "b", "c", "d", "family", "params")

    def residual(self, x, y, z):
        """(c'v + d) - ||A v + b||; >= 0 iff the constraint holds.

        Three Python numbers give a float, through math.  Anything else is
        evaluated as an array, each affine part without its zero terms and
        unit products (_affine): for finite input the values of the full
        expression, up to the sign of a zero, in fewer passes.
        """
        (a11, a12, a13), (a21, a22, a23) = self.A
        if (isinstance(x, (int, float)) and isinstance(y, (int, float))
                and isinstance(z, (int, float))):
            r1 = a11 * x + a12 * y + a13 * z + self.b[0]
            r2 = a21 * x + a22 * y + a23 * z + self.b[1]
            rhs = self.c[0] * x + self.c[1] * y + self.c[2] * z + self.d
            return rhs - math.hypot(r1, r2)
        import numpy as np
        rhs, r1, r2 = self._parts(x, y, z)
        return rhs - np.hypot(r1, r2)

    def _parts(self, x, y, z):
        """(c'v + d, A[0]v + b[0], A[1]v + b[1]) over arrays, each through
        _affine."""
        (a11, a12, a13), (a21, a22, a23) = self.A
        c = self.c
        return (_affine(((c[0], x), (c[1], y), (c[2], z), (self.d, None))),
                _affine(((a11, x), (a12, y), (a13, z), (self.b[0], None))),
                _affine(((a21, x), (a22, y), (a23, z), (self.b[1], None))))

    @property
    def anchor(self) -> tuple[float, float]:
        """The (x, y) end that every segment of the cone's fan shares: the
        box corner (1, 1) for the lower cone, (1, uz) or (uz, 1) for the
        side cones, the lower corner (lx, ly) for the upper cones, and the
        origin for the center cone."""
        f, p = self.family, self.params
        if f is TangentFamily.LOWER:
            return 1.0, 1.0
        if f is TangentFamily.SIDE_X:
            return 1.0, p["uz"]
        if f is TangentFamily.SIDE_Y:
            return p["uz"], 1.0
        return p.get("lx", 0.0), p.get("ly", 0.0)

    def envelope_z(self, x, y):
        """Largest z satisfying the constraint at (x, y), in closed form.

        For the lower, side and general upper cones it is the height of
        the fan segment through (x, y): with (kx, ky) the anchor and c the
        bound of the curve the fan reaches (uz for the upper cone, lz for
        the others), a root of
        (ky*x - z)(kx*y - z) = c*(kx - x)*(ky - y), the larger one for the
        upper cone.  Raises NegativeDiscriminant when evaluated far outside
        the region on which the formula is real (beyond the -1e-12 clamp).

        Python numbers are evaluated through math and give a float; a pair
        of floats is tested for first.  Anything else is evaluated as an
        array, by the same expressions in numpy, which give the same floats
        up to the sign of a zero.
        """
        scalar = (type(x) is float and type(y) is float
                  or isinstance(x, (int, float)) and isinstance(y, (int, float)))
        if not scalar:
            import numpy as np
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
        f = self.family
        p = self.params
        if f is TangentFamily.UPPER_ZERO:
            out = _clamped_sqrt(p["uz"] * x * y)
        elif f is TangentFamily.CENTER:
            lz, uz = p["lz"], p["uz"]
            out = (math.sqrt(lz) + math.sqrt(uz)) * _clamped_sqrt(x * y) \
                - math.sqrt(lz * uz)
        else:
            kx, ky = self.anchor
            upper = f is TangentFamily.UPPER_GENERAL
            c = p["uz"] if upper else p["lz"]
            # ky*x with ky = 1 is x, and kx*y likewise
            u = x if ky == 1.0 else ky * x
            v = y if kx == 1.0 else kx * y
            r = _clamped_sqrt((u - v) ** 2 + 4.0 * c * (kx - x) * (ky - y))
            out = (u + v + r) / 2.0 if upper else (u + v - r) / 2.0
        if scalar or np.ndim(out) == 0:
            return float(out)
        return out

    def mirrored(self) -> "SocConstraint":
        """The same constraint with the roles of x and y interchanged, the
        lx and ly params too."""
        p = self.params
        p = (dict(p, lx=p["ly"], ly=p["lx"]) if "lx" in p and "ly" in p
             else dict(p))
        return _oriented(self.A, self.b, self.c, self.d, self.family, p, True)

    def to_dict(self) -> dict:
        return {
            "type": "soc",
            "A": [list(self.A[0]), list(self.A[1])],
            "b": list(self.b),
            "c": list(self.c),
            "d": self.d,
            "family": self.family.value,
            "params": dict(self.params),
        }


def _oriented(A, b, c, d, family, params, swapped) -> SocConstraint:
    """The cone, or with swapped its mirror: the x and y columns of A and
    entries of c, and SideX and SideY, interchanged.  params is taken as
    given, in the frame of the cone returned."""
    if swapped:
        (a11, a12, a13), (a21, a22, a23) = A
        A = ((a12, a11, a13), (a22, a21, a23))
        c = (c[1], c[0], c[2])
        family = _MIRROR_FAMILY.get(family, family)
    return SocConstraint.__new__(SocConstraint, A, b, c, d, family, params)


# the RLT plane anchored at (1, 1) does not depend on the bounds
_RLT_LOWER_ONES = LinearInequality(1.0, -1.0, -1.0, 1.0, "rlt_lower_ones")
# LinearInequality.__new__ bound to its class: a row without type.__call__
_row = MethodType(LinearInequality.__new__, LinearInequality)


def rlt(b: NormalizedBounds) -> list[LinearInequality]:
    """The four McCormick planes for the canonical box, in fixed order.

    Order: the two lower planes (anchored at (1,1) and at (lx,ly)), then the
    two upper planes z <= x + lx*y - lx and z <= ly*x + y - ly.
    """
    return [
        _RLT_LOWER_ONES,
        _row(b.lx * b.ly, -b.ly, -b.lx, 1.0, "rlt_lower_corner"),
        _row(-b.lx, 1.0, b.lx, -1.0, "rlt_upper_x"),
        _row(-b.ly, b.ly, 1.0, -1.0, "rlt_upper_y"),
    ]


def soc_upper_zero(uz: float, swapped: bool = False) -> SocConstraint:
    """z^2 <= uz*x*y, the single curved patch when only z <= uz binds:
    the rotated cone with w = z, p = uz*x, q = y."""
    if not 0.0 < uz <= 1.0:
        raise DegenerateBounds("need 0 < uz <= 1")
    return _oriented(((0.0, 0.0, 2.0), (uz, -1.0, 0.0)), (0.0, 0.0),
                     (uz, 1.0, 0.0), 0.0, TangentFamily.UPPER_ZERO,
                     {"uz": uz}, swapped)


def soc_lower(lz: float) -> SocConstraint:
    """sqrt((1-x,1-y) M (1-x,1-y)') <= x+y-2z for the lower product bound,
    M = [[1, l12], [l12, 1]] with l12 = 2lz - 1, whose factor rows are
    (1, l12), (0, l22)."""
    if not 0.0 <= lz < 1.0:
        raise DegenerateBounds("need 0 <= lz < 1")
    l12 = 2.0 * lz - 1.0
    l22 = _clamped_sqrt(1.0 - l12 * l12)
    return SocConstraint.__new__(
        SocConstraint, ((-1.0, -l12, 0.0), (0.0, -l22, 0.0)), (1.0 + l12, l22),
        (1.0, 1.0, -2.0), 0.0, TangentFamily.LOWER, {"lz": lz})


def soc_center(lz: float, uz: float, swapped: bool = False) -> SocConstraint:
    """(z + sqrt(lz*uz))^2 <= (sqrt(lz)+sqrt(uz))^2 * x*y; globally valid:
    the rotated cone with w = z + sqrt(lz*uz), p = (sqrt(lz)+sqrt(uz))^2 x,
    q = y.  At lz = 0 this is exactly soc_upper_zero(uz), matrices
    included.
    """
    return _center({"lz": lz, "uz": uz}, swapped)


def _center(p: dict, swapped: bool) -> SocConstraint:
    """soc_center from its params record p = {"lz": lz, "uz": uz}, which
    the cone keeps: the center and side cones of a description share one."""
    lz, uz = p["lz"], p["uz"]
    if not 0.0 <= lz < uz <= 1.0:
        raise DegenerateBounds("need 0 <= lz < uz <= 1")
    r = math.sqrt(lz * uz)
    # (sqrt(lz)+sqrt(uz))^2 expanded; the sum form is exact at lz = 0
    ss = lz + uz + 2.0 * r
    return _oriented(((0.0, 0.0, 2.0), (ss, -1.0, 0.0)), (2.0 * r, 0.0),
                     (ss, 1.0, 0.0), 0.0, TangentFamily.CENTER, p, swapped)


def soc_sides(lz: float, uz: float) -> tuple[SocConstraint, SocConstraint]:
    """The two side cones for both product bounds, tight on the fans into
    (1, uz) and (uz, 1).  At uz = 1 both reduce to soc_lower(lz); at lz = 0
    they flatten to the RLT planes z <= y and z <= x.
    """
    p = {"lz": lz, "uz": uz}
    return (_side(p, TangentFamily.SIDE_X, False),
            _side(p, TangentFamily.SIDE_Y, False))


def _side(p: dict, family: TangentFamily, swapped: bool) -> SocConstraint:
    """One of the soc_sides cones, or with swapped its mirror, from its
    params record p, as _center: sqrt(h' M h) <= c'v with M PSD and h the
    hats, M = [[uz^2, m12], [m12, 1]] for SideX and [[1, m12], [m12, uz^2]]
    for SideY, m12 = 2lz - uz."""
    lz, uz = p["lz"], p["uz"]
    if not 0.0 <= lz < uz <= 1.0:
        raise DegenerateBounds("need 0 <= lz < uz <= 1")
    # a subnormal uz^2 is as degenerate as 0: SideX's l12 would pass 1
    uu = uz * uz
    if uu < sys.float_info.min:
        raise DegenerateBounds("cholesky factor needs m11 > 0")
    m12 = 2.0 * lz - uz
    if family is TangentFamily.SIDE_X:
        # h = (1 - x, uz - y), M = [[uz^2, m12], [m12, 1]]
        l11 = math.sqrt(uu)
        l12 = m12 / l11
        l22 = _clamped_sqrt(1.0 - l12 * l12)
        return _oriented(((-l11, -l12, 0.0), (0.0, -l22, 0.0)),
                         (l11 + l12 * uz, l22 * uz), (uz, 1.0, -2.0), 0.0,
                         family, p, swapped)
    # h = (uz - x, 1 - y), M = [[1, m12], [m12, uz^2]]: l11 = 1, l12 = m12
    l22 = _clamped_sqrt(uu - m12 * m12)
    return _oriented(((-1.0, -m12, 0.0), (0.0, -l22, 0.0)), (uz + m12, l22),
                     (1.0, uz, -2.0), 0.0, family, p, swapped)


def soc_upper_general(lx: float, ly: float, uz: float,
                      swapped: bool = False) -> SocConstraint:
    """uz(z - lx*ly)^2 <= (uz(x-lx) + lx(z-ly*x)) * (uz(y-ly) + ly(z-lx*y)).

    The curved patch for an upper product bound with general lower corner
    (lx, ly): the rotated cone with w = sqrt(uz)(z - lx*ly) and the two
    factors p = (uz - lx*ly)x + lx*z - uz*lx and its mirror q.  Collapses
    to soc_upper_zero when lx = ly = 0 (the returned constraint then
    carries that family tag).
    """
    if lx < 0.0 or ly < 0.0:
        raise DegenerateBounds("need lx, ly >= 0")
    if not lx * ly < uz <= 1.0:
        raise DegenerateBounds("need lx*ly < uz <= 1")
    if lx == 0.0 and ly == 0.0:
        return soc_upper_zero(uz, swapped)
    w = uz - lx * ly
    r = math.sqrt(uz)
    p0, q0 = -uz * lx, -uz * ly
    return _oriented(((0.0, 0.0, 2.0 * r), (w, -w, lx - ly)),
                     (2.0 * (-r * lx * ly), p0 - q0), (w, w, lx + ly),
                     p0 + q0, TangentFamily.UPPER_GENERAL,
                     {"lx": ly, "ly": lx, "uz": uz} if swapped
                     else {"lx": lx, "ly": ly, "uz": uz}, swapped)


class TangentSegment(_Frozen):
    """Extreme segment certifying tightness of a lifted tangent inequality.

    lower sits on the curve xy = lz (or is the lower box corner), upper on
    xy = uz (or a curve endpoint such as (1, uz)).  alpha is the weight on
    the lower endpoint reproducing the query point:
        (x, y) = alpha*(lower.x, lower.y) + (1-alpha)*(upper.x, upper.y).
    """

    __slots__ = ("lower", "upper", "alpha", "family")

    def point_at(self, alpha: float) -> Point3:
        t = 1.0 - alpha
        return Point3(alpha * self.lower.x + t * self.upper.x,
                      alpha * self.lower.y + t * self.upper.y,
                      alpha * self.lower.z + t * self.upper.z)
