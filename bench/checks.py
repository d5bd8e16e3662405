"""Correctness gates applied to every result the benchmark times.

Each gate returns None when the result is right and a short reason string
when it is not.  The gates use only public library calls and the generated
inputs; none of them re-implements the hull formulas.
"""

from __future__ import annotations

import math

import numpy as np

# Relative slack for a cut evaluated on exact surface points: the cuts are
# affine with O(1) coefficients in the normalized frame.
CUT_VALID_TOL = 1e-9
# Criterion 1 of the acceptance suite.
ORACLE_ABOVE_TOL = 1e-9
ORACLE_GAP_TOL = 2e-3
# The closed-form and quadrature volumes agree to this on the one-sided
# zero-corner boxes (the volume tests pin the same value).
VOL_NUMERIC_TOL = 1e-6
# vol_mc reports a 3-sigma half width, which an honest estimate misses with
# probability 0.27%; over thousands of runs that would flag correct code, so
# the gate allows 5 sigma (miss probability below 1e-6 per estimate).
MC_SIGMA_FACTOR = 5.0 / 3.0


def cut_coeff_scale(cut) -> float:
    return max(1.0, abs(cut.a0), abs(cut.ax), abs(cut.ay), abs(cut.az))


def check_node_point(member: bool, cut, point, cloud) -> str | None:
    """membership is False exactly when separate returns a cut; the cut is
    violated by its point and holds on the surface cloud of the box."""
    if member:
        return None if cut is None else "member point got a cut"
    if cut is None:
        return "non-member point got no cut"
    x, y, z = point
    if not cut.residual(x, y, z) < 0.0:
        return "cut %s does not cut off its point" % cut.label
    cx, cy, cz = cloud
    worst = float(np.min(cut.residual(cx, cy, cz)))
    if worst < -CUT_VALID_TOL * cut_coeff_scale(cut):
        return "cut %s removes a surface point (residual %.3g)" % (cut.label, worst)
    return None


def check_oracle(got: np.ndarray, zmin: np.ndarray, zmax: np.ndarray
                 ) -> tuple[str | None, float]:
    """The criterion-1 rule for one box; returns (reason, max gap)."""
    nan = np.isnan(got)
    if np.any(zmin[nan] <= zmax[nan] - 1e-9):
        return "oracle infeasible where the analytic slice is not empty", math.inf
    if nan.all():
        return "oracle infeasible everywhere", math.inf
    above = float(np.max(got[~nan] - zmax[~nan]))
    gap = float(np.max(np.abs(zmax[~nan] - got[~nan])))
    if above > ORACLE_ABOVE_TOL:
        return "oracle above the closed form by %.3g" % above, gap
    if gap > ORACLE_GAP_TOL:
        return "oracle gap %.3g above %.0e" % (gap, ORACLE_GAP_TOL), gap
    return None, gap


def check_oracle_membership(expected: bool, got: bool) -> str | None:
    if expected != got:
        return "oracle membership %s, closed form %s" % (got, expected)
    return None


def check_vol_numeric(value: float, exact: float) -> str | None:
    if abs(value - exact) > VOL_NUMERIC_TOL:
        return "vol_numeric %.9g vs closed form %.9g" % (value, exact)
    return None


def check_vol_mc(est: float, half: float, ref: float, ref_err: float
                 ) -> str | None:
    if abs(est - ref) > MC_SIGMA_FACTOR * half + ref_err:
        return "vol_mc %.6g outside %.3g of reference %.6g" % (est, half, ref)
    return None


def check_mc_workers(serial: tuple[float, float], parallel: tuple[float, float]
                     ) -> str | None:
    if serial != parallel:
        return "vol_mc serial %r differs from workers=2 %r" % (serial, parallel)
    return None


def check_cli(code: int, out: bytes, expected: str) -> str | None:
    if code != 0:
        return "exit code %d" % code
    if out.decode("utf-8", "replace") != expected:
        return "stdout differs from in-process cli.main"
    return None
