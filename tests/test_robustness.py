"""Sweeps over extreme raw boxes (tests/_boxes.py): exponents across
10^+-300, subnormals and zeros, corners and z bounds 0-5 ulps apart, and
lz/uz near lx*ly.

The CLI sweep runs every box command in process through cli.main on seeded
finite boxes.  The contract checked on each call: the exit code is 0 (ok),
1 (package error), 2 (bad arguments) or 3 (infeasible bounds); a nonzero
exit writes nothing to stdout; and its stderr is one line, apart from
argparse's own usage text.

The library sweeps call the scalar queries, and on a seeded subset the
array kernels, on the descriptions that hull_from_raw builds from such
boxes: each call returns finite values or raises a BilinearHullError
subclass.
"""

import contextlib
import io
import math
import random
from collections import Counter

import numpy as np
import pytest

from _boxes import raw_box
from bilinear_hull import (
    BilinearHullError,
    LinearInequality,
    Point3,
    RawBounds,
    cli,
    envelope_grid,
    envelopes,
    hull_from_raw,
    membership,
    membership_mask,
    separate,
    vol_mc,
    vol_numeric,
    worst_violation,
)


def _mid(lo, hi):
    return 0.5 * lo + 0.5 * hi


def _pair(x, y):
    return "%r,%r" % (x, y)


def command_lines(rng, box):
    """Every box command on one box, at points built from it."""
    lx, ly, lz, ux, uy, uz = box
    flags = []
    for name, v in zip(("lx", "ly", "lz", "ux", "uy", "uz"), box):
        flags += ["--" + name, repr(v)]
    x, y = _mid(lx, ux), _mid(ly, uy)
    z = rng.choice((lz, uz, _mid(lz, uz), x * y))
    if not math.isfinite(z):
        z = uz
    at, point = _pair(x, y), "%r,%r,%r" % (x, y, z)
    # on the surface band where it can: x*y halfway between lz and uz
    yt = _mid(lz, uz) / x if x > 0.0 else y
    tangent_at = _pair(x, yt if ly < yt < uy else y)
    seed = rng.choice(("0", "1", "-1", str(2 ** 64 - 1), str(2 ** 64)))
    return [
        ("describe", ["describe", *flags]),
        ("describe", ["describe", *flags, "--format", "csv"]),
        ("check", ["check", *flags, "--point", point]),
        ("separate", ["separate", *flags, "--point", point]),
        ("envelope", ["envelope", *flags, "--at", at]),
        ("envelope", ["envelope", *flags, "--grid", "5", "--format", "csv"]),
        ("tangent", ["tangent", *flags, "--at", at]),
        ("tangent", ["tangent", *flags, "--at", tangent_at]),
        ("volume", ["volume", *flags, "--method", "closed"]),
        ("volume", ["volume", *flags, "--method", "numeric", "--grid", "8"]),
        ("volume", ["volume", *flags, "--method", "mc", "--samples", "64",
                    "--seed", seed]),
        ("regions", ["regions", *flags, "--grid", "5"]),
        ("mesh", ["mesh", *flags, "--grid", "4"]),
        ("oracle", ["oracle", *flags, "--samples", "5", "--at", at]),
        ("oracle", ["oracle", *flags, "--samples", "5", "--point", point]),
    ]


def _sweep(n_boxes=100, seed=20261020):
    """(command, argv) for n_boxes seeded boxes, plus the --seed edges on
    a plain box."""
    rng = random.Random(seed)
    lines = []
    for _ in range(n_boxes):
        lines += command_lines(rng, raw_box(rng))
    for s in ("0", str(2 ** 64 - 1), "-1", str(2 ** 64), "1.5", "-0"):
        lines.append(("volume", ["volume", "--lz", "0.1", "--uz", "0.7",
                                 "--method", "mc", "--samples", "16",
                                 "--seed", s]))
    return lines


SWEEP = _sweep()
COMMANDS = sorted({name for name, _ in SWEEP})


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_the_sweep_covers_every_box_command_and_exit_code():
    box_commands = {name for name, p in cli.build_parser()._subparsers
                    ._group_actions[0].choices.items()
                    if any(a.dest == "lx" for a in p._actions)}
    assert set(COMMANDS) == box_commands
    codes = {run_main(argv)[0] for name, argv in SWEEP
             if name in ("describe", "volume")}
    assert codes == {0, 1, 2, 3}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_call_ends_in_an_exit_code(command):
    for name, argv in SWEEP:
        if name != command:
            continue
        code, out, err = run_main(argv)
        assert code in (0, 1, 2, 3), argv
        if code == 0:
            assert out, argv
            continue
        assert out == "", argv
        # argparse's own usage text is the only stderr of several lines
        if not (code == 2 and err.startswith("usage:")):
            assert len(err.splitlines()) == 1, (argv, err)
        assert "Traceback" not in err, argv


def _descriptions(n_draws, seed):
    """The descriptions hull_from_raw builds from n_draws seeded raw_box
    draws; the draws it rejects are left out, as RawBounds' are."""
    rng = random.Random(seed)
    for _ in range(n_draws):
        try:
            yield hull_from_raw(RawBounds(*raw_box(rng)))[0]
        except BilinearHullError:
            continue


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def _query(outcomes, name, call, check):
    """call(), counted under name as "ok" when check(result) holds or as
    "error" when it raises a package error; anything else fails the test."""
    try:
        result = call()
    except BilinearHullError:
        outcomes[name, "error"] += 1
        return
    assert check(result), (name, result)
    outcomes[name, "ok"] += 1


def _cut_is_finite(cut):
    return cut is None or (type(cut) is LinearInequality
                           and _finite(cut.a0, cut.ax, cut.ay, cut.az))


def test_scalar_queries_return_finite_values_or_package_errors():
    """On each accepted box: the box corners, the edge midpoints and the
    centre, each at zlo, the mid z, zhi and 1 beyond either bound (45
    points), through membership, worst_violation and separate, and
    envelopes at the 9 (x, y)."""
    outcomes = Counter()
    n_boxes = 0
    for d in _descriptions(24_000, 20261021):
        n_boxes += 1
        b = d.bounds
        zs = (d.zlo - 1.0, d.zlo, 0.5 * d.zlo + 0.5 * d.zhi, d.zhi,
              d.zhi + 1.0)
        for x in (b.lx, 0.5 * b.lx + 0.5, 1.0):
            for y in (b.ly, 0.5 * b.ly + 0.5, 1.0):
                _query(outcomes, "envelopes", lambda: envelopes(d, x, y),
                       lambda r: _finite(*r))
                for z in zs:
                    p = Point3(x, y, z)
                    _query(outcomes, "membership", lambda: membership(d, p),
                           lambda r: type(r) is bool)
                    _query(outcomes, "worst_violation",
                           lambda: worst_violation(d, p),
                           lambda r: _finite(r[0]))
                    _query(outcomes, "separate", lambda: separate(d, p),
                           _cut_is_finite)
    assert n_boxes > 7_000
    for name in ("envelopes", "membership", "worst_violation", "separate"):
        assert outcomes[name, "ok"] > 0, outcomes


def _grid_is_finite(grid):
    zmin, zmax, pid = grid
    return (np.isfinite(zmin).all() and np.isfinite(zmax).all()
            and pid.dtype.kind == "i")


def test_array_kernels_return_finite_values_or_package_errors():
    """On the scalar sweep's boxes whose pieces have predicates and on
    every 16th of the others: envelope_grid on a 130 x 131 grid (two
    tiles in each axis, the last one short) reaching 1e-3 of a side
    outside the box, membership_mask on 64 points around it,
    vol_numeric(d, 8) and vol_mc(d, 64)."""
    outcomes = Counter()
    rng = np.random.default_rng(20261022)
    descriptions = [d for k, d in enumerate(_descriptions(24_000, 20261021))
                    if k % 16 == 0 or any(p.predicate for p in d.pieces)]
    for d in descriptions:
        b = d.bounds
        wx, wy = 1e-3 * (1.0 - b.lx), 1e-3 * (1.0 - b.ly)
        xs = rng.uniform(b.lx - wx, 1.0 + wx, 130)
        ys = rng.uniform(b.ly - wy, 1.0 + wy, 131)
        _query(outcomes, "envelope_grid", lambda: envelope_grid(d, xs, ys),
               _grid_is_finite)
        x = rng.uniform(b.lx - wx, 1.0 + wx, 64)
        y = rng.uniform(b.ly - wy, 1.0 + wy, 64)
        z = rng.uniform(d.zlo - 1.0, d.zhi + 1.0, 64)
        _query(outcomes, "membership_mask",
               lambda: membership_mask(d, x, y, z),
               lambda r: r.dtype == bool and r.shape == (64,))
        _query(outcomes, "vol_numeric", lambda: vol_numeric(d, 8),
               lambda r: _finite(*r))
        _query(outcomes, "vol_mc", lambda: vol_mc(d, 64, seed=1),
               lambda r: _finite(*r))
    assert len(descriptions) > 500
    for name in ("envelope_grid", "membership_mask", "vol_numeric",
                 "vol_mc"):
        assert outcomes[name, "ok"] > 0, outcomes
