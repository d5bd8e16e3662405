"""The contract of the immutable value types: field order, construction
by position and by keyword, equality, hashing, immutability, repr,
copying, pickling and validation, and the one construction path."""

import copy
import importlib
import inspect
import pickle
import pkgutil

import numpy as np
import pytest

import bilinear_hull
from bilinear_hull import (
    BranchBlock,
    BranchReport,
    CaseTag,
    ExtendedFormulation,
    HullDescription,
    HullPiece,
    InfeasibleBounds,
    LinearInequality,
    NormalizedBounds,
    Point3,
    RawBounds,
    Region,
    Scaling,
    SocConstraint,
    SurfaceSample,
    TangentFamily,
    TangentSegment,
    describe,
    optimal_branch,
    oracle_membership,
    sample_surface,
)
from bilinear_hull.geometry import _Frozen

from _reference import Psd2

P = Point3(0.25, 0.5, 0.125)
Q = LinearInequality(-0.5, 1.0, 0.5, -1.0, "rlt_upper_x")
SOC = SocConstraint(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), (0.0, 0.5),
                    (0.0, 0.0, 1.0), 0.25, TangentFamily.CENTER,
                    {"lz": 0.0, "uz": 0.5})
HP = LinearInequality(0.5, -1.0, 0.25, 0.0, "predicate")
BLK = BranchBlock(0, (Q,), SOC)

SOC_REPR = ("SocConstraint(A=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), b=(0.0, 0.5), "
            "c=(0.0, 0.0, 1.0), d=0.25, family=<TangentFamily.CENTER: "
            "'Center'>, params={'lz': 0.0, 'uz': 0.5})")
Q_REPR = ("LinearInequality(a0=-0.5, ax=1.0, ay=0.5, az=-1.0, "
          "label='rlt_upper_x')")
BLK_REPR = "BranchBlock(index=0, rows=(%s,), soc=%s)" % (Q_REPR, SOC_REPR)
NB = NormalizedBounds(0.25, 0.5, 0.25, 0.75)
PIECE = HullPiece((HP,), SOC)
PIECE_REPR = ("HullPiece(predicate=(LinearInequality(a0=0.5, ax=-1.0, "
              "ay=0.25, az=0.0, label='predicate'),), soc=%s)" % SOC_REPR)
# one-element arrays, so that reports holding equal copies compare equal
ARRAYS = tuple(np.array([v]) for v in (0.5, 0.25, 0.75, 1.0))

# (type, field names in order, field values, values of an unequal
# instance, hashable, exact repr)
CASES = [
    (Point3, ("x", "y", "z"), (0.25, 0.5, 0.125), (0.25, 0.5, 0.0), True,
     "Point3(x=0.25, y=0.5, z=0.125)"),
    (RawBounds, ("lx", "ly", "lz", "ux", "uy", "uz"),
     (0.0, 0.5, 0.25, 2.0, 1.0, 1.5), (0.0, 0.5, 0.25, 2.0, 1.0, 1.25), True,
     "RawBounds(lx=0.0, ly=0.5, lz=0.25, ux=2.0, uy=1.0, uz=1.5)"),
    (Scaling, ("sx", "sy"), (2.0, 0.5), (0.5, 2.0), True,
     "Scaling(sx=2.0, sy=0.5)"),
    (NormalizedBounds, ("lx", "ly", "lz", "uz"), (0.25, 0.5, 0.25, 0.75),
     (0.5, 0.25, 0.25, 0.75), True,
     "NormalizedBounds(lx=0.25, ly=0.5, lz=0.25, uz=0.75)"),
    (LinearInequality, ("a0", "ax", "ay", "az", "label"),
     (-0.5, 1.0, 0.5, -1.0, "rlt_upper_x"), (-0.5, 1.0, 0.5, -1.0, ""), True,
     Q_REPR),
    (Psd2, ("m11", "m12", "m22"), (1.0, -0.5, 1.0), (1.0, 0.5, 1.0), True,
     "Psd2(m11=1.0, m12=-0.5, m22=1.0)"),
    (SocConstraint, ("A", "b", "c", "d", "family", "params"),
     (SOC.A, SOC.b, SOC.c, SOC.d, SOC.family, SOC.params),
     (SOC.A, SOC.b, SOC.c, SOC.d, SOC.family, {"lz": 0.0, "uz": 0.25}),
     False, SOC_REPR),
    (TangentSegment, ("lower", "upper", "alpha", "family"),
     (P, Point3(1.0, 0.75, 0.75), 0.5, TangentFamily.LOWER),
     (P, Point3(1.0, 0.75, 0.75), 0.5, TangentFamily.CENTER), True,
     "TangentSegment(lower=Point3(x=0.25, y=0.5, z=0.125), "
     "upper=Point3(x=1.0, y=0.75, z=0.75), alpha=0.5, "
     "family=<TangentFamily.LOWER: 'Lower'>)"),
    (CaseTag, ("region", "swapped"), (Region.C, True), (Region.C, False), True,
     "CaseTag(region=<Region.C: 'RegionC'>, swapped=True)"),
    (HullPiece, ("predicate", "soc"), ((HP,), SOC), ((), SOC), False,
     PIECE_REPR),
    (BranchBlock, ("index", "rows", "soc"), (0, (Q,), SOC), (1, (Q,), SOC),
     False, BLK_REPR),
    (ExtendedFormulation, ("blocks",), ((BLK,),), ((BLK, BLK),), False,
     "ExtendedFormulation(blocks=(%s,))" % BLK_REPR),
    (HullDescription, ("bounds", "case", "rlt", "pieces"),
     (NB, CaseTag(Region.B, False), (Q,), (PIECE,)),
     (NB, CaseTag(Region.B, False), (Q,), ()), False,
     "HullDescription(bounds=NormalizedBounds(lx=0.25, ly=0.5, lz=0.25, "
     "uz=0.75), case=CaseTag(region=<Region.B: 'RegionB'>, swapped=False), "
     "rlt=(%s,), pieces=(%s,))" % (Q_REPR, PIECE_REPR)),
    (BranchReport, ("b_star", "sum_ratio", "grid", "upper_ratio",
                    "lower_ratio", "total_ratio"),
     (0.25, 0.5) + ARRAYS, (0.25, 0.75) + ARRAYS, False,
     "BranchReport(b_star=0.25, sum_ratio=0.5, grid=array([0.5]), "
     "upper_ratio=array([0.25]), lower_ratio=array([0.75]), "
     "total_ratio=array([1.]))"),
    # equal only while they share their arrays (or hold one element each)
    (SurfaceSample, ("x", "y", "z", "bounds", "n"), ARRAYS[:3] + (NB, 3),
     ARRAYS[:3] + (NB, 4), False,
     "SurfaceSample(x=array([0.5]), y=array([0.25]), z=array([0.75]), "
     "bounds=NormalizedBounds(lx=0.25, ly=0.5, lz=0.25, uz=0.75), n=3)"),
]

IDS = [case[0].__name__ for case in CASES]


@pytest.fixture(params=CASES, ids=IDS)
def case(request):
    return request.param


def test_fields_in_order_by_position_and_keyword(case):
    cls, names, values = case[:3]
    v = cls(*values)
    assert tuple(getattr(v, n) for n in names) == values
    assert cls(**dict(zip(names, values))) == v


def test_defaults():
    q = LinearInequality(0.0, 1.0, 0.0, 0.0)
    assert q.label == "" and q == LinearInequality(0.0, 1.0, 0.0, 0.0, "")


def test_equality(case):
    cls, _, values, other = case[:4]
    v = cls(*values)
    assert v == cls(*values) and not v != cls(*values)
    assert v != cls(*other) and not v == cls(*other)
    # never equal to a plain tuple, nor to another type with the same values
    assert v != values and values != v
    twin = BranchBlock(0.25, 0.5, 0.125) if cls is Point3 else P
    assert v != twin and not v == twin


def test_hash(case):
    cls, _, values, _, hashable = case[:5]
    v = cls(*values)
    if hashable:
        assert hash(v) == hash(cls(*values))
        assert {v: 1}[cls(*values)] == 1
    else:  # a dict among the fields
        with pytest.raises(TypeError):
            hash(v)


def test_fields_cannot_be_assigned_or_deleted(case):
    cls, names, values = case[:3]
    v = cls(*values)
    for n in names:
        with pytest.raises(AttributeError):
            setattr(v, n, 0.0)
        with pytest.raises(AttributeError):
            delattr(v, n)
    with pytest.raises(AttributeError):
        v.extra = 1
    assert tuple(getattr(v, n) for n in names) == values


def test_repr(case):
    cls, values, text = case[0], case[2], case[5]
    assert repr(cls(*values)) == text


def test_copy_and_pickle(case):
    cls, values = case[0], case[2]
    v = cls(*values)
    for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(w) is cls and w == v


def test_construction_gives_the_class_itself(case):
    cls, names, values = case[:3]
    for v in (cls(*values), cls(**dict(zip(names, values)))):
        assert type(v) is cls
        for w in (copy.copy(v), copy.deepcopy(v),
                  pickle.loads(pickle.dumps(v))):
            assert type(w) is cls
        # the assignable twin it was built as cannot be put back
        with pytest.raises(AttributeError):
            v.__class__ = cls._twin
        assert type(v) is cls


class _Labelled(Point3):
    """A value type's subclass that declares no slot of its own."""

    __slots__ = ()


class _Checked(NormalizedBounds):
    __slots__ = ()


def test_a_subclass_without_slots_builds_as_itself():
    v = _Labelled(0.25, 0.5, 0.125)
    assert type(v) is _Labelled and v.astuple() == (0.25, 0.5, 0.125)
    assert repr(v) == "_Labelled(x=0.25, y=0.5, z=0.125)"
    assert v == _Labelled(x=0.25, y=0.5, z=0.125) and v != P
    assert hash(v) == hash(_Labelled(0.25, 0.5, 0.125))
    with pytest.raises(AttributeError):
        v.x = 0.0
    with pytest.raises(AttributeError):
        del v.x
    with pytest.raises(AttributeError):
        v.extra = 1
    for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(w) is _Labelled and w == v
    # the base's checks still run
    with pytest.raises(InfeasibleBounds, match="lx\\*ly <= lz"):
        _Checked(0.5, 0.5, 0.0, 1.0)
    assert type(_Checked(*NB._fields())) is _Checked


class _Pair(_Frozen):
    """A value type that declares its slots and nothing more."""

    __slots__ = ("a", "b")


def test_a_type_that_only_declares_slots_gets_a_constructor():
    v = _Pair(0.25, (1, 2))
    assert type(v) is _Pair and (v.a, v.b) == (0.25, (1, 2))
    assert v == _Pair(b=(1, 2), a=0.25) and v != _Pair(0.25, (1, 3))
    assert repr(v) == "_Pair(a=0.25, b=(1, 2))"
    for args in ((), (0.25,), (0.25, (1, 2), 0.5)):
        with pytest.raises(TypeError, match="_Pair.__new__"):
            _Pair(*args)
    with pytest.raises(TypeError):
        _Pair(0.25, c=1)
    for name in ("a", "b", "__class__"):
        with pytest.raises(AttributeError):
            setattr(v, name, 0.0)
    with pytest.raises(AttributeError):
        del v.a
    with pytest.raises(AttributeError):
        v.extra = 1
    for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(w) is _Pair and w == v


def test_every_value_type_builds_in_its_own_new():
    """No value type in the package defines __init__, so a second
    construction path (through object.__setattr__ after __new__) cannot
    come back; each has a __new__ that takes exactly its fields, and a
    twin that adds no slot."""
    for info in pkgutil.iter_modules(bilinear_hull.__path__):
        importlib.import_module("bilinear_hull." + info.name)
    found, todo = [], [_Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            twin = sub.__dict__.get("__setattr__") is object.__setattr__
            if sub.__module__.startswith("bilinear_hull.") and not twin:
                found.append(sub)
    # the Psd2 of the tests' reference is held to the contract above, but
    # is no type of the package
    assert sorted(c.__name__ for c in found) == sorted(
        case[0].__name__ for case in CASES
        if case[0].__module__.startswith("bilinear_hull."))
    for cls in found:
        assert "__init__" not in cls.__dict__, cls
        assert "__new__" in cls.__dict__, cls
        # construction takes the fields that equality, repr and pickling
        # read, in their order, and nothing else
        assert tuple(inspect.signature(cls).parameters) == cls._names, cls
        assert cls._twin.__bases__ == (cls,)
        assert cls._twin.__dict__["__slots__"] == ()


def test_validation():
    with pytest.raises(InfeasibleBounds):
        RawBounds(0.0, 0.0, 0.0, 1.0, 1.0, float("nan"))
    with pytest.raises(InfeasibleBounds):
        RawBounds(1.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(InfeasibleBounds):
        RawBounds(0.0, 0.0, 0.5, 1.0, 1.0, 0.5)
    with pytest.raises(InfeasibleBounds, match="no surface point"):
        RawBounds(0.0, 0.0, 2.0, 1.0, 1.0, 3.0)
    with pytest.raises(InfeasibleBounds):
        NormalizedBounds(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(InfeasibleBounds):
        NormalizedBounds(0.0, 0.0, 0.5, 1.5)
    with pytest.raises(InfeasibleBounds, match="lx\\*ly <= lz"):
        NormalizedBounds(0.5, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        Scaling(0.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        Scaling(1.0, -1.0)
    with pytest.raises(ValueError, match="no variable coefficients"):
        LinearInequality(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="semidefinite"):
        Psd2(1.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="semidefinite"):
        Psd2(-1.0, 0.0, 1.0)


def test_hull_description_derives_its_rows():
    d = describe(NormalizedBounds(0.14, 0.3, 0.1, 0.7))
    assert d.rows[:4] == d.rlt
    assert [(q.a0, q.ax, q.ay, q.az, q.label) for q in d.rows[4:]] == [
        (-0.1, 0.0, 0.0, 1.0, "z_lower"), (0.7, 0.0, 0.0, -1.0, "z_upper"),
        (-0.14, 1.0, 0.0, 0.0, "x_lower"), (1.0, -1.0, 0.0, 0.0, "x_upper"),
        (-0.3, 0.0, 1.0, 0.0, "y_lower"), (1.0, 0.0, -1.0, 0.0, "y_upper")]
    # the z range is the bounds'
    assert (d.zlo, d.zhi) == (d.bounds.lz, d.bounds.uz) == (0.1, 0.7)
    # rows, zlo and zhi are neither shown, nor compared, nor pickled, nor
    # assignable
    assert "rows" not in repr(d) and "zlo" not in repr(d)
    assert "zhi" not in repr(d)
    assert len(d.__reduce__()[1]) == 4
    w = pickle.loads(pickle.dumps(d))
    assert w == d and (w.rows, w.zlo, w.zhi) == (d.rows, d.zlo, d.zhi)
    for name in ("rows", "zlo", "zhi"):
        with pytest.raises(AttributeError):
            setattr(d, name, ())
    # a description built with other planes is queried with those planes
    one = HullDescription(d.bounds, d.case, (d.rlt[0],), d.pieces)
    assert one != d and one.rows == (d.rlt[0],) + d.rows[4:]


def test_hull_piece_derives_its_flag():
    # the center cone and a piece with no predicate hold on the whole box
    center, side_x, _ = describe(NormalizedBounds(0.14, 0.2, 0.1, 0.7)).pieces
    assert center.globally_valid and not side_x.globally_valid
    assert HullPiece((), side_x.soc).globally_valid
    with pytest.raises(AttributeError):
        side_x.globally_valid = True
    assert "globally_valid" not in repr(side_x)


def test_branch_reports_compare_their_arrays():
    r = optimal_branch()
    assert r == r and r == copy.copy(r)
    # the arrays hold many elements, so equal copies compare as arrays do
    with pytest.raises(ValueError):
        r == copy.deepcopy(r)


def test_surface_samples_keep_their_solver_to_themselves():
    s = sample_surface(NB, 5)
    assert len(s) == len(s.x) == len(s.y) == len(s.z) > 4
    before = repr(s), pickle.dumps(s)
    assert oracle_membership(s, Point3(0.6, 0.6, 0.36))
    # the membership solver, built by that query, is not a field: it is
    # neither shown, nor compared, nor pickled
    assert (repr(s), pickle.dumps(s)) == before
    w = pickle.loads(pickle.dumps(s))
    assert type(w) is SurfaceSample and len(w) == len(s)
    assert all(np.array_equal(a, b) for a, b in
               zip((w.x, w.y, w.z), (s.x, s.y, s.z)))
    assert (w.bounds, w.n) == (s.bounds, s.n)
    assert oracle_membership(w, Point3(0.6, 0.6, 0.36))
    # the arrays hold many elements, so equal copies compare as arrays do
    assert s == copy.copy(s)
    with pytest.raises(ValueError):
        s == w
