"""The PSD route to the lower and side cones, the reference that the
closed-form cone builders are held to.

Each of those cones is sqrt(h' M h) <= c'v over hats h affine in (x, y),
with M a PSD 2x2 matrix; written through the rows of M's Cholesky factor
it is ||R h|| <= c'v.  The builders in bilinear_hull.constraints write the
floats of that general form directly.
"""

from __future__ import annotations

import math

from bilinear_hull import DegenerateBounds
from bilinear_hull.constraints import _clamped_sqrt
from bilinear_hull.geometry import _Frozen


class Psd2(_Frozen):
    """Symmetric 2x2 matrix constrained to be positive semidefinite."""

    __slots__ = ("m11", "m12", "m22")

    def __new__(cls, m11: float, m12: float, m22: float) -> Psd2:
        self = object.__new__(cls._twin)
        self.m11 = m11
        self.m12 = m12
        self.m22 = m22
        if m11 < 0.0 or m22 < 0.0 or self.det < -1e-12:
            raise ValueError("matrix is not positive semidefinite")
        self.__class__ = cls
        return self

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


def lower_quadratic_form(lz: float) -> Psd2:
    """M of soc_lower(lz), over the hats (1 - x, 1 - y)."""
    return Psd2(1.0, 2.0 * lz - 1.0, 1.0)


def side_quadratic_forms(lz: float, uz: float) -> tuple[Psd2, Psd2]:
    """M of the SideX and SideY cones of soc_sides(lz, uz), over the hats
    (1 - x, uz - y) and (uz - x, 1 - y)."""
    return (Psd2(uz * uz, 2.0 * lz - uz, 1.0),
            Psd2(1.0, 2.0 * lz - uz, uz * uz))
