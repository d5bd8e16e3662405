"""Exact verdicts on a cut: its least value over the product surface, in
rationals.

For normalized bounds, S = {(x, y, xy) : lx <= x <= 1, ly <= y <= 1,
lz <= xy <= uz}.  A row a0 + ax*x + ay*y + az*z >= 0 holds on conv S
exactly when its least value over S is >= 0.  On S the row reads
f = a0 + ax*x + ay*y + az*xy, which is bilinear, so it has no interior
minimum and is linear along each box edge.  Its minimum over S is at one of

  * the 4 box corners;
  * the 8 points where a box edge meets xy = lz or xy = uz;
  * where ax, ay > 0, the stationary point of f along an arc xy = c, at
    x = sqrt(ay*c/ax), where f = A + sqrt(B) with A = a0 + az*c and
    B = 4*ax*ay*c;

those of them that lie on S.  Every float is a rational, so each candidate
is exact: a Surd a + sqrt(b) of two Fractions, with b = 0 at the first two
kinds.  Surds compare exactly; Surd.decimal() gives a value to report.
"""

from decimal import Decimal, localcontext
from fractions import Fraction


def _sign(p, q, b):
    """The sign of p + q*sqrt(b), for b >= 0, exactly."""
    sp = (p > 0) - (p < 0)
    sq = (q > 0) - (q < 0) if b else 0
    if sq == 0 or sp == sq:
        return sp
    if sp == 0:
        return sq
    # opposite signs: p wins when p^2 > q^2*b
    d = p * p - q * q * b
    return sp * ((d > 0) - (d < 0))


class Surd:
    """a + sqrt(b) for Fractions a and b >= 0, ordered exactly."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def _cmp(self, other):
        """The sign of self - other."""
        if not isinstance(other, Surd):
            other = Surd(other)
        d = self.a - other.a
        u = _sign(d, 1, self.b)  # of d + sqrt(self.b)
        if not other.b:
            return u
        if u <= 0:
            return -1
        # both sides positive: compare (d + sqrt(self.b))^2 with other.b
        return _sign(d * d + self.b - other.b, 2 * d, self.b)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def decimal(self, digits=50):
        with localcontext() as ctx:
            ctx.prec = digits
            a = Decimal(self.a.numerator) / self.a.denominator
            b = Decimal(self.b.numerator) / self.b.denominator
            return a + b.sqrt()


def exact_min(bounds, row):
    """The least value of the row (a0, ax, ay, az) over S for bounds (lx,
    ly, lz, uz), as a Surd."""
    lx, ly, lz, uz = map(Fraction, (bounds.lx, bounds.ly, bounds.lz,
                                    bounds.uz))
    a0, ax, ay, az = map(Fraction, (row.a0, row.ax, row.ay, row.az))
    points = [(x, y) for x in (lx, 1) for y in (ly, 1)]
    for c in (lz, uz):
        points += [(1, c), (c, 1)]
        if lx:
            points.append((lx, c / lx))
        if ly:
            points.append((c / ly, ly))
    values = [Surd(a0 + ax * x + ay * y + az * x * y) for x, y in points
              if lx <= x <= 1 and ly <= y <= 1 and lz <= x * y <= uz]
    if ax > 0 and ay > 0:
        for c in (lz, uz):
            # x^2 = ay*c/ax and y^2 = (c/x)^2 = ax*c/ay
            if lx * lx <= ay * c / ax <= 1 and ly * ly <= ax * c / ay <= 1:
                values.append(Surd(a0 + az * c, 4 * ax * ay * c))
    return min(values)
