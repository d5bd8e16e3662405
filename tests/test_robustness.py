"""A CLI sweep over extreme raw boxes: every box command runs in process
through cli.main on seeded finite boxes and must end with an exit code,
never an exception.

The boxes take exponents across 10^+-300, subnormals and zeros, corners and
z bounds 0-5 ulps apart, and lz/uz near lx*ly.  The contract checked on
each call: the exit code is 0 (ok), 1 (package error), 2 (bad arguments)
or 3 (infeasible bounds); a nonzero exit writes nothing to stdout; and its
stderr is one line, apart from argparse's own usage text.
"""

import contextlib
import io
import math
import random

import pytest

from bilinear_hull import cli

TINY = 5e-324           # the smallest subnormal
MIN_NORMAL = 2.2250738585072014e-308


def _ulps(v, k):
    """v moved k ulps (toward +inf for k > 0), kept at or above 0."""
    for _ in range(abs(k)):
        v = math.nextafter(v, math.inf if k > 0 else 0.0)
    return v


def _magnitude(rng):
    """Zero, a subnormal, or a number with its exponent in [-300, 300]."""
    kind = rng.randrange(5)
    if kind == 0:
        return 0.0
    if kind == 1:
        return rng.choice((TINY, rng.randrange(1, 2 ** 20) * TINY,
                           MIN_NORMAL * rng.random()))
    return rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 299)


def _above(rng, v):
    """A finite number above v: 1-5 ulps, or a gap of any magnitude."""
    if rng.random() < 0.5:
        return _ulps(v, rng.randint(1, 5))
    w = v + _magnitude(rng)
    return w if v < w < math.inf else _ulps(v, rng.randint(1, 5))


def _near(rng, v):
    """v itself, or up to 5 ulps either side of it (not below 0); 1e308
    for a product that overflowed."""
    return _ulps(v, rng.randint(-5, 5)) if math.isfinite(v) else 1e308


def raw_box(rng):
    """Six finite nonnegative floats (lx, ly, lz, ux, uy, uz)."""
    lx, ly = _magnitude(rng), _magnitude(rng)
    ux, uy = _above(rng, lx), _above(rng, ly)
    kind = rng.randrange(4)
    if kind == 0:  # lz near the corner product, uz just above it
        lz = _near(rng, lx * ly)
        uz = _above(rng, lz)
    elif kind == 1:  # uz near the corner product
        uz = _near(rng, lx * ly)
        lz = _ulps(uz, -rng.randint(0, 5))
    elif kind == 2:  # the z range around the far corner's product
        uz = _near(rng, ux * uy)
        lz = rng.choice((0.0, _near(rng, lx * ly), _magnitude(rng)))
    else:
        lz = _magnitude(rng)
        uz = _above(rng, lz)
    return lx, ly, lz, ux, uy, uz


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
