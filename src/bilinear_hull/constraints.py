"""Linear and second-order-cone building blocks of the hull description.

The hull of the bilinear surface over the canonical box is polyhedral from
below (two of the four RLT planes plus the bound z >= lz) and curved from
above.  Every curved patch belongs to one of six constraint families; each
family here carries three interchangeable views:

  * a canonical cone inequality  ||A v + b|| <= c'v + d  over v = (x, y, z),
  * a closed-form upper envelope z <= g(x, y) (the larger quadratic root),
  * a fan of tangent line segments joining a point on the curve xy = lz (or
    the lower box corner) to a point on xy = uz (or a curve endpoint), along
    which the cone is tight.

The helpers at the end turn a tangent segment into its lifted inequality;
hull.lifted_tangent() runs the binding piece's segment from its fan's
anchor through the query point to the curve, and lifts it with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateBounds, NegativeDiscriminant
from .geometry import NormalizedBounds, Point3

DISC_CLAMP = -1e-12


def _clamped_sqrt(d):
    """sqrt with the documented negative-roundoff clamp at DISC_CLAMP.

    A float stays a float, through math; anything else is evaluated as an
    array, and only then is numpy imported.
    """
    if isinstance(d, float):
        low = d
    else:
        import numpy as np
        low = np.min(d, initial=np.inf)
    if low < DISC_CLAMP:
        raise NegativeDiscriminant(
            "discriminant %g below clamp threshold %g" % (float(low), DISC_CLAMP)
        )
    if isinstance(d, float):
        return math.sqrt(max(d, 0.0))
    return np.sqrt(np.maximum(d, 0.0))


class TangentFamily(Enum):
    UPPER_ZERO = "UpperZero"
    LOWER = "Lower"
    CENTER = "Center"
    SIDE_X = "SideX"
    SIDE_Y = "SideY"
    UPPER_GENERAL = "UpperGeneral"


_MIRROR_FAMILY = {
    TangentFamily.SIDE_X: TangentFamily.SIDE_Y,
    TangentFamily.SIDE_Y: TangentFamily.SIDE_X,
}


@dataclass(frozen=True)
class LinearInequality:
    """a0 + ax*x + ay*y + az*z >= 0."""

    a0: float
    ax: float
    ay: float
    az: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.ax == 0.0 and self.ay == 0.0 and self.az == 0.0:
            raise ValueError("inequality has no variable coefficients")

    def residual(self, x, y, z):
        return self.a0 + self.ax * x + self.ay * y + self.az * z

    def to_dict(self) -> dict:
        return {"type": "linear", "a0": self.a0, "ax": self.ax,
                "ay": self.ay, "az": self.az}


@dataclass(frozen=True)
class Psd2:
    """Symmetric 2x2 matrix constrained to be positive semidefinite."""

    m11: float
    m12: float
    m22: float

    def __post_init__(self) -> None:
        if self.m11 < 0.0 or self.m22 < 0.0 or self.det < -1e-12:
            raise ValueError("matrix is not positive semidefinite")

    @property
    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m12

    def eigenvalues(self) -> tuple[float, float]:
        tr = self.m11 + self.m22
        gap = math.hypot(self.m11 - self.m22, 2.0 * self.m12)
        return ((tr - gap) / 2.0, (tr + gap) / 2.0)

    def cholesky_rows(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Upper-triangular factor rows (r1, r2) with M = r1 r1' + r2 r2'.

        Requires m11 > 0; the inner square root is clamped the same way as
        envelope discriminants so exactly-singular matrices factor cleanly.
        """
        if self.m11 <= 0.0:
            raise DegenerateBounds("cholesky factor needs m11 > 0")
        l11 = math.sqrt(self.m11)
        l12 = self.m12 / l11
        inner = self.m22 - l12 * l12
        l22 = float(_clamped_sqrt(inner))
        return ((l11, l12), (0.0, l22))


@dataclass(frozen=True)
class SocConstraint:
    """||A v + b||_2 <= c'v + d over v = (x, y, z), tagged with its family.

    A is stored as two row tuples.  params keeps the bound values the
    constraint was built from, in a fixed key order for serialization.
    """

    A: tuple[tuple[float, float, float], tuple[float, float, float]]
    b: tuple[float, float]
    c: tuple[float, float, float]
    d: float
    family: TangentFamily
    params: dict

    def residual(self, x, y, z):
        """(c'v + d) - ||A v + b||; >= 0 iff the constraint holds.

        Three floats give a float, through math; anything else is
        evaluated as an array.
        """
        (a11, a12, a13), (a21, a22, a23) = self.A
        r1 = a11 * x + a12 * y + a13 * z + self.b[0]
        r2 = a21 * x + a22 * y + a23 * z + self.b[1]
        rhs = self.c[0] * x + self.c[1] * y + self.c[2] * z + self.d
        if isinstance(x, float) and isinstance(y, float) and isinstance(z, float):
            return rhs - math.hypot(r1, r2)
        import numpy as np
        return rhs - np.hypot(r1, r2)

    def envelope_z(self, x, y):
        """Largest z satisfying the constraint at (x, y), in closed form.

        Raises NegativeDiscriminant when evaluated far outside the region
        on which the family's formula is real (beyond the -1e-12 clamp).
        """
        scalar = isinstance(x, float) and isinstance(y, float)
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
        elif f is TangentFamily.LOWER:
            lz = p["lz"]
            disc = (x - y) ** 2 + 4.0 * lz * (1.0 - x) * (1.0 - y)
            out = (x + y - _clamped_sqrt(disc)) / 2.0
        elif f is TangentFamily.SIDE_X:
            lz, uz = p["lz"], p["uz"]
            disc = (uz * x - y) ** 2 + 4.0 * lz * (1.0 - x) * (uz - y)
            out = (uz * x + y - _clamped_sqrt(disc)) / 2.0
        elif f is TangentFamily.SIDE_Y:
            lz, uz = p["lz"], p["uz"]
            disc = (x - uz * y) ** 2 + 4.0 * lz * (uz - x) * (1.0 - y)
            out = (x + uz * y - _clamped_sqrt(disc)) / 2.0
        elif f is TangentFamily.UPPER_GENERAL:
            lx, ly, uz = p["lx"], p["ly"], p["uz"]
            disc = (ly * x - lx * y) ** 2 + 4.0 * uz * (x - lx) * (y - ly)
            out = (ly * x + lx * y + _clamped_sqrt(disc)) / 2.0
        else:  # pragma: no cover - enum is closed
            raise AssertionError(f)
        if scalar or np.ndim(out) == 0:
            return float(out)
        return out

    def mirrored(self) -> "SocConstraint":
        """The same constraint with the roles of x and y interchanged."""
        (a11, a12, a13), (a21, a22, a23) = self.A
        params = dict(self.params)
        if "lx" in params and "ly" in params:
            params["lx"], params["ly"] = params["ly"], params["lx"]
        return SocConstraint(
            A=((a12, a11, a13), (a22, a21, a23)),
            b=self.b,
            c=(self.c[1], self.c[0], self.c[2]),
            d=self.d,
            family=_MIRROR_FAMILY.get(self.family, self.family),
            params=params,
        )

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


def evaluate(c, p) -> float:
    """Residual of a linear or SOC constraint at a point; >= 0 iff satisfied."""
    if isinstance(p, Point3):
        x, y, z = p.x, p.y, p.z
    else:
        x, y, z = p
    return float(c.residual(x, y, z))


# the RLT plane anchored at (1, 1) does not depend on the bounds
_RLT_LOWER_ONES = LinearInequality(1.0, -1.0, -1.0, 1.0,
                                   label="rlt_lower_ones")


def rlt(b: NormalizedBounds) -> list[LinearInequality]:
    """The four McCormick planes for the canonical box, in fixed order.

    Order: the two lower planes (anchored at (1,1) and at (lx,ly)), then the
    two upper planes z <= x + lx*y - lx and z <= ly*x + y - ly.
    """
    return [
        _RLT_LOWER_ONES,
        LinearInequality(b.lx * b.ly, -b.ly, -b.lx, 1.0, label="rlt_lower_corner"),
        LinearInequality(-b.lx, 1.0, b.lx, -1.0, label="rlt_upper_x"),
        LinearInequality(-b.ly, b.ly, 1.0, -1.0, label="rlt_upper_y"),
    ]


def _rotated_cone(w_coeffs, w0, p_coeffs, p0, q_coeffs, q0, family, params):
    """p*q >= w^2 with p, q >= 0, rewritten as ||(2w, p-q)|| <= p+q."""
    a_row1 = tuple(2.0 * t for t in w_coeffs)
    b1 = 2.0 * w0
    a_row2 = tuple(pc - qc for pc, qc in zip(p_coeffs, q_coeffs))
    b2 = p0 - q0
    c = tuple(pc + qc for pc, qc in zip(p_coeffs, q_coeffs))
    return SocConstraint(A=(a_row1, a_row2), b=(b1, b2), c=c, d=p0 + q0,
                         family=family, params=params)


def soc_upper_zero(uz: float) -> SocConstraint:
    """z^2 <= uz*x*y, the single curved patch when only z <= uz binds."""
    if not 0.0 < uz <= 1.0:
        raise DegenerateBounds("need 0 < uz <= 1")
    return _rotated_cone((0.0, 0.0, 1.0), 0.0,
                         (uz, 0.0, 0.0), 0.0,
                         (0.0, 1.0, 0.0), 0.0,
                         TangentFamily.UPPER_ZERO, {"uz": uz})


def lower_quadratic_form(lz: float) -> Psd2:
    return Psd2(1.0, 2.0 * lz - 1.0, 1.0)


def side_quadratic_forms(lz: float, uz: float) -> tuple[Psd2, Psd2]:
    return (Psd2(uz * uz, 2.0 * lz - uz, 1.0),
            Psd2(1.0, 2.0 * lz - uz, uz * uz))


def _hat_cone(m: Psd2, xhat, yhat, c, family, params) -> SocConstraint:
    """sqrt((xhat,yhat) M (xhat,yhat)') <= c'v, hats affine: (h0 + hx*t)."""
    (l11, l12), (_, l22) = m.cholesky_rows()
    (x0, xcoef), (y0, ycoef) = xhat, yhat
    row1 = (l11 * xcoef, l12 * ycoef, 0.0)
    b1 = l11 * x0 + l12 * y0
    row2 = (0.0, l22 * ycoef, 0.0)
    b2 = l22 * y0
    return SocConstraint(A=(row1, row2), b=(b1, b2), c=c, d=0.0,
                         family=family, params=params)


def soc_lower(lz: float) -> SocConstraint:
    """sqrt((1-x,1-y) M (1-x,1-y)') <= x+y-2z for the lower product bound."""
    if not 0.0 <= lz < 1.0:
        raise DegenerateBounds("need 0 <= lz < 1")
    return _hat_cone(lower_quadratic_form(lz), (1.0, -1.0), (1.0, -1.0),
                     (1.0, 1.0, -2.0), TangentFamily.LOWER, {"lz": lz})


def soc_center(lz: float, uz: float) -> SocConstraint:
    """(z + sqrt(lz*uz))^2 <= (sqrt(lz)+sqrt(uz))^2 * x*y; globally valid.

    At lz = 0 this is exactly soc_upper_zero(uz), matrices included.
    """
    if not 0.0 <= lz < uz <= 1.0:
        raise DegenerateBounds("need 0 <= lz < uz <= 1")
    # (sqrt(lz)+sqrt(uz))^2 expanded; the sum form is exact at lz = 0
    ss = lz + uz + 2.0 * math.sqrt(lz * uz)
    return _rotated_cone((0.0, 0.0, 1.0), math.sqrt(lz * uz),
                         (ss, 0.0, 0.0), 0.0,
                         (0.0, 1.0, 0.0), 0.0,
                         TangentFamily.CENTER, {"lz": lz, "uz": uz})


def soc_sides(lz: float, uz: float) -> tuple[SocConstraint, SocConstraint]:
    """The two side cones for both product bounds, tight on the fans into
    (1, uz) and (uz, 1).  At uz = 1 both reduce to soc_lower(lz); at lz = 0
    they flatten to the RLT planes z <= y and z <= x.
    """
    return (_side_cone(lz, uz, TangentFamily.SIDE_X),
            _side_cone(lz, uz, TangentFamily.SIDE_Y))


def _side_cone(lz: float, uz: float, family: TangentFamily) -> SocConstraint:
    """One of the soc_sides cones, built alone."""
    if not 0.0 <= lz < uz <= 1.0:
        raise DegenerateBounds("need 0 <= lz < uz <= 1")
    m1, m2 = side_quadratic_forms(lz, uz)
    if family is TangentFamily.SIDE_X:
        return _hat_cone(m1, (1.0, -1.0), (uz, -1.0), (uz, 1.0, -2.0),
                         family, {"lz": lz, "uz": uz})
    return _hat_cone(m2, (uz, -1.0), (1.0, -1.0), (1.0, uz, -2.0),
                     family, {"lz": lz, "uz": uz})


def soc_upper_general(lx: float, ly: float, uz: float) -> SocConstraint:
    """uz(z - lx*ly)^2 <= (uz(x-lx) + lx(z-ly*x)) * (uz(y-ly) + ly(z-lx*y)).

    The curved patch for an upper product bound with general lower corner
    (lx, ly).  Collapses to soc_upper_zero when lx = ly = 0 (the returned
    constraint then carries that family tag).
    """
    if lx < 0.0 or ly < 0.0:
        raise DegenerateBounds("need lx, ly >= 0")
    if not lx * ly < uz <= 1.0:
        raise DegenerateBounds("need lx*ly < uz <= 1")
    if lx == 0.0 and ly == 0.0:
        return soc_upper_zero(uz)
    w = uz - lx * ly
    r = math.sqrt(uz)
    # p = (uz - lx*ly)x + lx*z - uz*lx, q mirrored; w-term sqrt(uz)(z - lx*ly)
    return _rotated_cone((0.0, 0.0, r), -r * lx * ly,
                         (w, 0.0, lx), -uz * lx,
                         (0.0, w, ly), -uz * ly,
                         TangentFamily.UPPER_GENERAL,
                         {"lx": lx, "ly": ly, "uz": uz})


@dataclass(frozen=True)
class TangentSegment:
    """Extreme segment certifying tightness of a lifted tangent inequality.

    lower sits on the curve xy = lz (or is the lower box corner), upper on
    xy = uz (or a curve endpoint such as (1, uz)).  alpha is the weight on
    the lower endpoint reproducing the query point:
        (x, y) = alpha*(lower.x, lower.y) + (1-alpha)*(upper.x, upper.y).
    """

    lower: Point3
    upper: Point3
    alpha: float
    family: TangentFamily

    def point_at(self, alpha: float) -> Point3:
        t = 1.0 - alpha
        return Point3(alpha * self.lower.x + t * self.upper.x,
                      alpha * self.lower.y + t * self.upper.y,
                      alpha * self.lower.z + t * self.upper.z)


_UPPER_FORM = (TangentFamily.UPPER_ZERO, TangentFamily.UPPER_GENERAL)


def _segment_inequality(seg: TangentSegment, lz: float, uz: float) -> LinearInequality:
    """The plane containing seg that is tangent to the curve at one end: the
    upper end for the upper families (their lower end is a corner), the
    lower end otherwise."""
    xs, ys = seg.lower.x, seg.lower.y
    xb, yb = seg.upper.x, seg.upper.y
    cross = ys * xb + xs * yb
    if seg.family in _UPPER_FORM:
        a = (cross - 2.0 * uz) / (uz - lz)
        return LinearInequality(-(2.0 + a) * uz, yb, xb, a, label="lifted_tangent")
    a = -(cross - 2.0 * lz) / (uz - lz)
    return LinearInequality(-(2.0 + a) * lz, ys, xs, a, label="lifted_tangent")


def _projection_alpha(x, y, lower: Point3, upper: Point3) -> float:
    """Weight on lower of the point of the segment nearest to (x, y)."""
    dx = upper.x - lower.x
    dy = upper.y - lower.y
    denom = dx * dx + dy * dy
    if denom <= 0.0:
        return 0.0
    a = ((upper.x - x) * dx + (upper.y - y) * dy) / denom
    return min(max(a, 0.0), 1.0)
