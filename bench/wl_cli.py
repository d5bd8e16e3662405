"""Workload `cli`: one fresh `python -m bilinear_hull` process per call.

One client, one subprocess at a time.  A cycle calls every command of the
mix twice, in seeded order: separate, check, describe and tangent, which
are start-up bound, volume --method mc, and mesh --grid 201 --format csv,
which renders about 2 MB.  No source gives the shares of a real user, so
every command gets the same share.  Interpreter start, `import
bilinear_hull` and JSON/CSV rendering only show here.  The p50 falls on the
start-up-bound calls (five sixths of all calls: volume's 50,000 samples
take about 15 ms), and the calls beyond the p85 are the mesh calls (the
slowest sixth); the tail is their mean, so it moves with the CSV rendering.
A call takes about a third of a second, and a run holds at least six
cycles, so at least ten calls lie beyond the p85.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from collections import Counter
from time import perf_counter

import numpy as np

from bilinear_hull import cli, hull_from_raw

from checks import check_cli
from common import Budget, Outcome, median, min_ops
from inputs import ACCEPTANCE_BOXES, rng_for
from reference import run_child, spawn_kernel, timed

COMMANDS = ("separate", "check", "tangent", "describe", "volume", "mesh")
PER_CYCLE = 2
MESH_GRID = 201
MC_SAMPLES = 50000
# volume and mesh calls take these acceptance boxes (regions A, C, D) in
# turn, with seeded scaling, so every run spawns the same largest child
POOL = (3, 5, 6)
PROBES = 3
TAIL_Q = 0.85
BLOCK = PER_CYCLE * len(COMMANDS)
BLOCK_QUANTILES = False
# the calls beyond the p85 are the mesh calls; their p85 itself is the
# second fastest of a dozen, an order statistic that moved by 0.2 of its
# median between seeds, so the tail is their mean
TAIL_MEAN = True
TAIL_REF_Q = None  # an operation spans many of the host's speed swings
MIN_OPS = min_ops(BLOCK, TAIL_Q, BLOCK_QUANTILES)
# one spawn before every other call: a shared host's speed drifts within a
# few calls, and on a 2-vCPU one three spawns every twelve calls left
# seed-to-seed spreads of 0.09-0.13 of the median where one every other
# call gave 0.02-0.05
REF_EVERY = 2
REF_REPS = 1

WARMUP = """
import contextlib, io
from bilinear_hull import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["separate", "--uz", "0.4", "--point", "0.5,0.5,0.35"])
"""


def _box_args(rng, box: int | None = None):
    """A scaled acceptance box (seeded unless `box` is given): its flags
    plus (description, scaling)."""
    if box is None:
        box = int(rng.integers(0, len(ACCEPTANCE_BOXES)))
    _, raw = ACCEPTANCE_BOXES[box]
    sx, sy = (float(v) for v in np.exp(rng.uniform(np.log(0.5), np.log(2.0), 2)))
    vals = (raw.lx * sx, raw.ly * sy, raw.lz * sx * sy, raw.ux * sx,
            raw.uy * sy, raw.uz * sx * sy)
    flags = []
    for key, v in zip(("--lx", "--ly", "--lz", "--ux", "--uy", "--uz"), vals):
        flags += [key, repr(v)]
    d, sc = hull_from_raw(type(raw)(*vals))
    return flags, d, sc


def _raw_point(rng, d, sc) -> str:
    b = d.bounds
    x = rng.uniform(b.lx, 1.0) * sc.sx
    y = rng.uniform(b.ly, 1.0) * sc.sy
    z = rng.uniform(d.zlo, d.zhi) * sc.sz
    return "%r,%r,%r" % (x, y, z)


def _tangent_at(rng, d, sc) -> str:
    # strictly inside the box with lz < xy < uz, as lifted_tangent requires
    b = d.bounds
    c = b.lz + rng.uniform(0.1, 0.9) * (b.uz - b.lz)
    lo, hi = max(b.lx, c), min(1.0, c / b.ly) if b.ly > 0.0 else 1.0
    x = lo + rng.uniform(0.05, 0.95) * (hi - lo)
    return "%r,%r" % (x * sc.sx, c / x * sc.sy)


def argv_for(rng, command: str, pool: dict) -> list[str]:
    if command in ("volume", "mesh"):
        key = (command, POOL[sum(k[0] == command for k in pool) % len(POOL)])
        if key not in pool:
            flags, _, _ = _box_args(rng, key[1])
            if command == "volume":
                pool[key] = ["volume", *flags, "--method", "mc", "--samples",
                             str(MC_SAMPLES), "--seed",
                             str(int(rng.integers(0, 1000)))]
            else:
                pool[key] = ["mesh", *flags, "--grid", str(MESH_GRID),
                             "--format", "csv"]
        return pool[key]
    flags, d, sc = _box_args(rng)
    if command in ("separate", "check"):
        return [command, *flags, "--point", _raw_point(rng, d, sc)]
    if command == "tangent":
        return [command, *flags, "--at", _tangent_at(rng, d, sc)]
    return [command, *flags]


def in_process(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def _probe(cmd: list[str], env: dict) -> float:
    t0 = perf_counter()
    code, _ = run_child(cmd, env)
    if code:
        raise subprocess.CalledProcessError(code, cmd)
    return perf_counter() - t0


_IMPORT_TIMER = ("import time; t = time.perf_counter(); import bilinear_hull; "
                 "print(time.perf_counter() - t)")


def run(seed: int, seconds: float, tracer=None, max_ops: int | None = None,
        src: str = "src") -> Outcome:
    """Calls until `seconds` pass (or `max_ops` calls).

    A call's latency is the wall time of the subprocess, from spawn to exit
    with its whole stdout read.  Each call's stdout and exit code are then
    compared with cli.main(argv) run in this process; expected outputs of
    the pooled volume/mesh calls are computed once per run.
    """
    rng = rng_for(seed, "cli")
    env = child_env(src)
    out = Outcome()
    by_cmd = Counter()
    out_bytes = 0
    expected: dict[tuple, tuple[int, str]] = {}
    main_times: dict[str, list] = {c: [] for c in COMMANDS}
    pool: dict = {}
    budget = Budget(seconds, max_ops,
                    MIN_OPS if tracer is None else 0)
    order: list = []
    i = 0
    while budget.more(i, not order):
        if i % REF_EVERY == 0:
            out.reference(i, timed(spawn_kernel, env, reps=REF_REPS))
        if not order:
            order = [c for c in COMMANDS for _ in range(PER_CYCLE)]
            order = [order[j] for j in rng.permutation(len(order))]
        command = order.pop()
        argv = argv_for(rng, command, pool)
        span = tracer.open("cli.call") if tracer is not None else None
        t0 = perf_counter()
        try:
            returncode, stdout = run_child(
                [sys.executable, "-m", "bilinear_hull", *argv], env)
        except subprocess.SubprocessError as e:
            out.fail(i, command, "%s: %s" % (type(e).__name__, e),
                     perf_counter() - t0, wrong_result=False)
            i += 1
            continue
        finally:
            if span is not None:
                tracer.close(span)
        dt = perf_counter() - t0
        key = tuple(argv)
        if tracer is not None or key not in expected:
            m0 = perf_counter()
            expected[key] = in_process(argv)
            main_times[command].append(perf_counter() - m0)
        code, want = expected[key]
        reason = "in-process exit code %d" % code if code else None
        reason = reason or check_cli(returncode, stdout, want)
        by_cmd[command] += 1
        out_bytes += len(stdout)
        if reason is not None:
            out.fail(i, command, reason, dt, wrong_result=returncode == 0)
        else:
            out.ok(dt, (command, stdout))
        i += 1

    out.reference(i, timed(spawn_kernel, env, reps=REF_REPS))
    out.mix = {"calls_by_command": dict(sorted(by_cmd.items())),
               "output_bytes_mean": out_bytes / max(1, sum(by_cmd.values()))}
    if tracer is not None:
        py = [sys.executable]
        interp = [_probe(py + ["-c", "pass"], env) for _ in range(PROBES)]
        imports = []
        for _ in range(PROBES):
            r = subprocess.run(py + ["-c", _IMPORT_TIMER], env=env, check=True,
                               capture_output=True, text=True, timeout=60)
            imports.append(float(r.stdout))
        out.layers = {"cli.interp_start_ms": median(interp) * 1e3,
                      "cli.import_ms": median(imports) * 1e3,
                      "cli.output_bytes": out.mix["output_bytes_mean"]}
        for c in COMMANDS:
            out.layers["cli.main.%s.ms" % c] = \
                median(main_times[c]) * 1e3 if main_times[c] else 0.0
    return out
