"""Exact convex hulls of a bounded bilinear product term.

The working frame is the normalized box [lx, 1] x [ly, 1] with product
bounds lz <= z <= uz; geometry maps raw boxes into it and back.

Importing the package loads none of its submodules: each public name loads
the one that defines it on first access (PEP 562).  Only the oracle and
volume modules import numpy, so scalar use of the package never does.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_MODULE_OF = {
    **dict.fromkeys((
        "LinearInequality", "SocConstraint", "TangentFamily",
        "TangentSegment", "rlt", "soc_center", "soc_lower", "soc_sides",
        "soc_upper_general", "soc_upper_zero"), "constraints"),
    **dict.fromkeys((
        "BilinearHullError", "DegenerateBounds", "Infeasible",
        "InfeasibleBounds", "NegativeDiscriminant", "OutOfDomain",
        "SolverError"), "errors"),
    **dict.fromkeys((
        "BOUNDARY_TOL", "FEAS_TOL", "NormalizedBounds", "Point3", "RawBounds",
        "Scaling", "normalize", "tighten_with_scaling"), "geometry"),
    **dict.fromkeys((
        "BoundaryLine", "BranchBlock", "CaseTag", "ExtendedFormulation",
        "HalfPlane", "HullDescription", "HullPiece", "Region", "classify",
        "describe", "disjunctive", "dline", "envelope_grid", "envelopes",
        "hull_from_raw", "lifted_tangent", "membership", "membership_mask",
        "region_map_polylines", "separate", "worst_violation"), "hull"),
    **dict.fromkeys((
        "SurfaceSample", "oracle_envelope", "oracle_envelope_many",
        "oracle_membership", "sample_surface"), "oracle"),
    **dict.fromkeys((
        "BranchReport", "Side", "optimal_branch", "vol_hull", "vol_mc",
        "vol_numeric", "vol_removed", "vol_rlt_cut"), "volume"),
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _MODULE_OF[name], __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
