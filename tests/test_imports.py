"""What importing the package loads: nothing by itself, the scalar API
and the scalar CLI commands run without numpy, no CLI command loads
dataclasses, the scalar ones not inspect either, every public name
resolves on first access, and the public names take no tolerance
argument."""

import dataclasses
import functools
import importlib
import inspect
import pkgutil
import subprocess
import sys

import pytest

import bilinear_hull

# each check runs in a fresh interpreter, the way one CLI call does, and
# ends by writing whether a module (numpy, dataclasses, which brings
# inspect, ast, dis and tokenize, or inspect alone) was loaded to stderr
_CLI = """
import runpy, sys
sys.argv = ["bilinear-hull"] + %r
try:
    runpy.run_module("bilinear_hull", run_name="__main__")
except SystemExit as e:
    assert not e.code, e.code
print(%r in sys.modules, file=sys.stderr)
"""

_SCALAR_API = """
import sys
import bilinear_hull as bh
d, sc = bh.hull_from_raw(bh.RawBounds(0.14, 0.3, 0.1, 1.0, 1.0, 0.7))
assert bh.membership(d, bh.Point3(0.5, 0.5, 0.3))
assert bh.separate(d, bh.Point3(0.6, 0.6, 0.6)) is not None
bh.lifted_tangent(d.bounds, 0.5, 0.5)
# integer arguments stay on the math path too
d, sc = bh.hull_from_raw(bh.RawBounds(0, 0, 0.2, 1, 1, 0.7))
bh.envelopes(d, 1, 1)
bh.worst_violation(d, bh.Point3(1, 1, 0))
print("numpy" in sys.modules, file=sys.stderr)
"""

_BARE = """
import sys
import bilinear_hull
print(any(m.startswith("bilinear_hull.") for m in sys.modules),
      file=sys.stderr)
"""

# before any other access: dir() lists every public name, and a star
# import resolves them (which loads numpy, through volume and oracle)
_NAMES = """
import sys
import bilinear_hull as bh
assert set(bh.__all__) <= set(dir(bh)), sorted(set(bh.__all__) - set(dir(bh)))
ns = {}
exec("from bilinear_hull import *", ns)
assert set(ns) - {"__builtins__"} == set(bh.__all__)
print("numpy" in sys.modules, file=sys.stderr)
"""

BOX = ["--lx", "0.14", "--ly", "0.3", "--lz", "0.1", "--uz", "0.7"]

SCALAR_COMMANDS = pytest.mark.parametrize("argv", [
    ["describe", *BOX],
    ["describe", *BOX, "--format", "csv"],
    ["check", *BOX, "--point", "0.6,0.6,0.5"],
    ["separate", *BOX, "--point", "0.6,0.6,0.6"],
    ["tangent", *BOX, "--at", "0.5,0.5"],
    ["envelope", *BOX, "--at", "0.5,0.5"],
], ids=["describe", "describe-csv", "check", "separate", "tangent",
        "envelope-at"])


def _loaded(code: str) -> bool:
    """What the check in code wrote last: whether its module was loaded."""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    return r.stderr.splitlines()[-1] == "True"


@SCALAR_COMMANDS
def test_scalar_commands_do_not_import_numpy(argv):
    assert not _loaded(_CLI % (argv, "numpy"))


@SCALAR_COMMANDS
def test_scalar_commands_do_not_import_dataclasses(argv):
    assert not _loaded(_CLI % (argv, "dataclasses"))


@SCALAR_COMMANDS
def test_scalar_commands_do_not_import_inspect(argv):
    # the value types' generated constructors are compiled by a plain exec
    assert not _loaded(_CLI % (argv, "inspect"))


def test_oracle_command_does_not_import_dataclasses():
    argv = ["oracle", *BOX, "--at", "0.5,0.5", "--samples", "11"]
    assert not _loaded(_CLI % (argv, "dataclasses"))


def test_package_import_loads_no_submodule():
    assert not _loaded(_BARE)


def test_grid_command_still_imports_numpy():
    # the check above can fail: a command that uses arrays reports numpy
    assert _loaded(_CLI % (["mesh", *BOX, "--grid", "3"], "numpy"))


def test_scalar_api_does_not_import_numpy():
    assert not _loaded(_SCALAR_API)


def test_every_public_name_resolves():
    assert _loaded(_NAMES)
    from bilinear_hull import oracle, volume
    assert bilinear_hull.vol_mc is volume.vol_mc
    assert bilinear_hull.sample_surface is oracle.sample_surface
    with pytest.raises(AttributeError):
        bilinear_hull.no_such_name


def test_tolerances_are_pinned_constants():
    # the hull is exact: two fixed slacks, and no call takes another
    assert bilinear_hull.FEAS_TOL == 1e-9
    assert bilinear_hull.BOUNDARY_TOL == 1e-12
    found = []
    for name in bilinear_hull.__all__:
        obj = getattr(bilinear_hull, name)
        if not callable(obj):
            continue
        calls = [(name, obj)]
        if inspect.isclass(obj):
            calls += [("%s.%s" % (name, attr), fn)
                      for attr, fn in vars(obj).items()
                      if not attr.startswith("_") and callable(fn)]
        for label, fn in calls:
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):  # builtins without a signature
                continue
            found += [(label, p) for p in params if p in ("tol", "slack")]
    assert not found, found


_BANNED = (dataclasses, dataclasses.dataclass, functools.cached_property)


def _dataclass_like(namespace: dict) -> list[str]:
    """The names in namespace bound to dataclasses, its decorator or
    functools.cached_property, or to a class that is a dataclass or holds
    a cached_property."""
    return sorted(name for name, obj in namespace.items()
                  if any(obj is b for b in _BANNED)
                  or isinstance(obj, type) and (
                      dataclasses.is_dataclass(obj)
                      or any(isinstance(v, functools.cached_property)
                             for v in vars(obj).values())))


def test_no_scalar_class_is_a_dataclass():
    # the value types, HullDescription and SurfaceSample among them, are
    # __slots__ classes, whose creation costs far less at import
    found = []
    for info in pkgutil.iter_modules(bilinear_hull.__path__):
        m = importlib.import_module("bilinear_hull." + info.name)
        found += ["%s.%s" % (info.name, name)
                  for name in _dataclass_like(vars(m))]
    assert not found, found

    # the check above can fail
    @dataclasses.dataclass(frozen=True)
    class Frozen:
        x: float

    class Cached:
        @functools.cached_property
        def x(self):
            return 0.0

    assert _dataclass_like({"Frozen": Frozen, "Cached": Cached,
                            "cached_property": functools.cached_property,
                            "Point3": bilinear_hull.Point3}) == [
        "Cached", "Frozen", "cached_property"]
