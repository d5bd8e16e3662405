"""Exact convex hulls of a bounded bilinear product term.

The working frame is the normalized box [lx, 1] x [ly, 1] with product
bounds lz <= z <= uz; geometry maps raw boxes into it and back.

The oracle and volume names load their modules, and with them numpy, on
first access (PEP 562), so scalar use of the package never imports numpy.
"""

import importlib

from .constraints import (
    LinearInequality,
    Psd2,
    SocConstraint,
    TangentFamily,
    TangentSegment,
    evaluate,
    rlt,
    soc_center,
    soc_lower,
    soc_sides,
    soc_upper_general,
    soc_upper_zero,
)
from .errors import (
    BilinearHullError,
    DegenerateBounds,
    Infeasible,
    InfeasibleBounds,
    NegativeDiscriminant,
    OutOfDomain,
    SolverError,
)
from .geometry import (
    BOUNDARY_TOL,
    FEAS_TOL,
    NormalizedBounds,
    Point3,
    RawBounds,
    Scaling,
    normalize,
    tighten,
    tighten_with_scaling,
)
from .hull import (
    BoundaryLine,
    BranchBlock,
    CaseTag,
    ExtendedFormulation,
    HalfPlane,
    HullDescription,
    HullPiece,
    Region,
    classify,
    describe,
    disjunctive,
    dline,
    envelope_grid,
    envelopes,
    hull_from_raw,
    lifted_tangent,
    membership,
    membership_mask,
    region_map_polylines,
    separate,
    worst_violation,
)

__version__ = "0.1.0"

# name -> submodule that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("SurfaceSample", "oracle_envelope", "oracle_envelope_many",
                     "oracle_membership", "sample_surface"), "oracle"),
    **dict.fromkeys(("BranchReport", "Side", "optimal_branch", "vol_hull",
                     "vol_mc", "vol_numeric", "vol_removed", "vol_rlt_cut"),
                    "volume"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _LAZY[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "BOUNDARY_TOL",
    "BilinearHullError",
    "BoundaryLine",
    "BranchBlock",
    "BranchReport",
    "CaseTag",
    "DegenerateBounds",
    "ExtendedFormulation",
    "FEAS_TOL",
    "HalfPlane",
    "HullDescription",
    "HullPiece",
    "Infeasible",
    "InfeasibleBounds",
    "LinearInequality",
    "NegativeDiscriminant",
    "NormalizedBounds",
    "OutOfDomain",
    "Point3",
    "Psd2",
    "RawBounds",
    "Region",
    "Scaling",
    "Side",
    "SocConstraint",
    "SolverError",
    "SurfaceSample",
    "TangentFamily",
    "TangentSegment",
    "classify",
    "describe",
    "disjunctive",
    "dline",
    "envelope_grid",
    "envelopes",
    "evaluate",
    "hull_from_raw",
    "lifted_tangent",
    "membership",
    "membership_mask",
    "normalize",
    "optimal_branch",
    "oracle_envelope",
    "oracle_envelope_many",
    "oracle_membership",
    "region_map_polylines",
    "rlt",
    "sample_surface",
    "separate",
    "soc_center",
    "soc_lower",
    "soc_sides",
    "soc_upper_general",
    "soc_upper_zero",
    "tighten",
    "tighten_with_scaling",
    "vol_hull",
    "vol_mc",
    "vol_numeric",
    "vol_removed",
    "vol_rlt_cut",
    "worst_violation",
]
