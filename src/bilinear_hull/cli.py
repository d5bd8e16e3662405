"""Command line front end.

Every command but `branch` takes raw box bounds.  `main` builds the hull
description from them once, starts the output record with a header that
reports both the raw and the working (normalized) frames, and hands the
record to the command, which adds its own fields.  The record is then
rendered once, in one of three forms:

- JSON (the default);
- with --format csv, a tabular command (the `envelope` grid, `mesh`,
  `regions`, `branch`) prints its table under two `#` lines that carry
  the header;
- with --format csv, any other command prints the record as flat
  `key,value` lines.

Every float is printed as %.9g, with -0 printed as 0, so repeated runs
are byte-identical.  Scalars go through `_g`.  A table adds 0.0 to its
numpy columns, which turns -0.0 into 0.0, and formats each row with one
%-format; the grid tables format each x and y axis value once, not once
per node, and render their JSON rows from the same lines.

Exit codes: 0 ok, 1 package error, 2 bad arguments (a NaN or inf number
among them) or an --out file that cannot be written, 3 infeasible bounds.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import repeat

from .errors import (
    BilinearHullError,
    DegenerateBounds,
    Infeasible,
    InfeasibleBounds,
)
from .geometry import Point3, RawBounds
from .hull import (
    envelope_grid,
    envelopes,
    hull_from_raw,
    lifted_tangent,
    membership,
    region_map_polylines,
    separate,
    worst_violation,
)

# numpy, and the volume and oracle modules that need it, are imported only
# by the commands that use them: the scalar commands are bound by start-up


def _g(v) -> str:
    v = float(v)
    if v == 0.0:
        v = 0.0  # canonicalize -0.0
    return "%.9g" % v


class _Rendered(str):
    """JSON text that _json inserts as it is."""


def _json(obj) -> str:
    """Deterministic JSON: insertion order kept, floats through %.9g."""
    if isinstance(obj, _Rendered):
        return obj
    if isinstance(obj, dict):
        inner = ", ".join('"%s": %s' % (k, _json(v)) for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return "null" if obj != obj else _g(obj)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _flat_csv(obj, prefix="", rows=None) -> list[str]:
    if rows is None:
        rows = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flat_csv(v, prefix + str(k) + ".", rows)
        return rows
    if isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flat_csv(v, prefix + str(i) + ".", rows)
        return rows
    # None is an empty field, a string its plain text
    rows.append("%s,%s" % (prefix[:-1], "" if obj is None
                           else obj if isinstance(obj, str)
                           else _g(obj) if isinstance(obj, float)
                           else _json(obj)))
    return rows


def _text(fmt: str, out: dict, table) -> str:
    """The record `out` as JSON, or as CSV: the command's table lines under
    the header's two `#` lines (a command without a box has none), or else
    the flat key,value lines."""
    if fmt == "json":
        return _json(out) + "\n"
    if table is None:
        return "\n".join(_flat_csv(out)) + "\n"
    head = []
    if "raw_bounds" in out:
        def fields(name):
            return name + "".join(" %s=%s" % (k, _g(v))
                                  for k, v in out[name].items())
        head = ["# " + fields("raw_bounds"),
                "# %s %s" % (fields("bounds"), fields("scaling"))]
    return "\n".join([*head, *table]) + "\n"


def _finite(text: str) -> float:
    """An argparse type for one float; NaN and inf are bad arguments."""
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid float value: %r" % text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError("not a finite number: %r" % text)
    return v


def _floats(n: int, name: str):
    """An argparse type for n comma-separated finite floats, spelled
    `name`."""
    def parse(text: str) -> tuple[float, ...]:
        parts = text.split(",")
        if len(parts) != n:
            raise argparse.ArgumentTypeError("expected " + name)
        return tuple(map(_finite, parts))
    return parse


def _header(raw: RawBounds, d, sc) -> dict:
    return {
        "raw_bounds": {"lx": raw.lx, "ly": raw.ly, "lz": raw.lz,
                       "ux": raw.ux, "uy": raw.uy, "uz": raw.uz},
        "bounds": {"lx": d.bounds.lx, "ly": d.bounds.ly,
                   "lz": d.bounds.lz, "uz": d.bounds.uz},
        "scaling": {"sx": sc.sx, "sy": sc.sy},
    }


def _cmd_describe(args, d, sc, out):
    body = d.to_dict()
    del body["bounds"]  # already in the header
    out.update(body)


def _cmd_check(args, d, sc, out):
    p = sc.to_normalized(Point3(*args.point))
    res, violated = worst_violation(d, p)
    out.update({
        "point": dict(zip("xyz", args.point)),
        "member": violated is None,
        "worst_residual": res,
        "violated": violated,
    })


def _cmd_separate(args, d, sc, out):
    p = sc.to_normalized(Point3(*args.point))
    cut = separate(d, p)
    out["point"] = dict(zip("xyz", args.point))
    out["inside"] = cut is None
    out["cut"] = None
    if cut is not None:
        out["cut"] = cut.to_dict()
        out["cut_raw"] = sc.inequality_to_raw(cut).to_dict()
        out["violation"] = -float(cut.residual(p.x, p.y, p.z))


def _cmd_envelope(args, d, sc, out):
    if args.at is None:
        return _grid_table(args, d, sc, out)
    xn, yn = args.at[0] / sc.sx, args.at[1] / sc.sy
    zmin, zmax = envelopes(d, xn, yn)
    out.update({
        "at": dict(zip("xy", args.at)),
        "normalized": {"x": xn, "y": yn, "zmin": zmin, "zmax": zmax},
        "zmin": zmin * sc.sz,
        "zmax": zmax * sc.sz,
    })


def _grid_table(args, d, sc, out):
    """The envelopes on an args.grid x args.grid tensor grid over the box,
    in the raw frame; `mesh` adds the id of the binding piece.  The JSON
    rows are the CSV lines with ", " between values, NaN written as null,
    in brackets."""
    import numpy as np
    n = args.grid
    xs = np.linspace(d.bounds.lx, 1.0, n)
    ys = np.linspace(d.bounds.ly, 1.0, n)
    zmin, zmax, pid = envelope_grid(d, xs, ys)
    # elementwise products round as the node-by-node ones do; + 0.0 turns
    # -0.0 into 0.0, as _g does, so the lines below can format floats as is
    rx, ry = (xs * sc.sx + 0.0).tolist(), (ys * sc.sy + 0.0).tolist()
    per_x = [(zmin * sc.sz + 0.0).tolist(), (zmax * sc.sz + 0.0).tolist()]
    out["columns"] = ["x", "y", "zmin", "zmax"]
    fmt = "%s,%s,%.9g,%.9g"
    if args.command == "mesh":
        out["columns"].append("piece_id")
        per_x.append(pid.tolist())
        fmt += ",%d"

    def lines():
        sy = ["%.9g" % y for y in ry]
        for i, x in enumerate(rx):
            for row in zip(repeat("%.9g" % x, n), sy, *(c[i] for c in per_x)):
                yield fmt % row
    if args.format == "csv":
        return [",".join(out["columns"]), *lines()]
    # "%.9g" writes a NaN as nan, and no other value holds those letters
    body = "],[".join(lines())
    out["rows"] = _Rendered(("[[%s]]" % body if body else "[]")
                            .replace(",", ", ").replace("nan", "null"))


def _cmd_tangent(args, d, sc, out):
    xn, yn = args.at[0] / sc.sx, args.at[1] / sc.sy
    ineq, seg = lifted_tangent(d.bounds, xn, yn)
    out.update({
        "at": dict(zip("xy", args.at)),
        "family": seg.family.value,
        "alpha": seg.alpha,
        "inequality": ineq.to_dict(),
        "inequality_raw": sc.inequality_to_raw(ineq).to_dict(),
        "segment": {"lower": seg.lower.astuple(),
                    "upper": seg.upper.astuple()},
        "segment_raw": {"lower": sc.to_raw(seg.lower).astuple(),
                        "upper": sc.to_raw(seg.upper).astuple()},
    })


def _cmd_volume(args, d, sc, out):
    from .volume import vol_closed, vol_mc, vol_numeric
    try:
        scale = (sc.sx * sc.sy) ** 2  # dx dy dz picks up sx*sy*sz
    except OverflowError:
        raise DegenerateBounds("the raw volume factor (sx*sy)**2 overflows "
                               "the float range") from None
    out["method"] = args.method
    if args.method == "closed":
        v = vol_closed(d)
        out["volume"] = v
        out["volume_raw"] = None if v is None else v * scale
    elif args.method == "numeric":
        v, err = vol_numeric(d, args.grid)
        out.update({"volume": v, "error": err, "volume_raw": v * scale,
                    "grid_n": args.grid})
    else:
        v, half = vol_mc(d, args.samples, seed=args.seed)
        out.update({"volume": v, "halfwidth_3sigma": half,
                    "volume_raw": v * scale, "samples": args.samples,
                    "seed": args.seed})


def _cmd_branch(args, d, sc, out):
    import numpy as np
    from .volume import optimal_branch
    rep = optimal_branch(np.linspace(0.01, 0.99, args.grid))
    out.update({
        "b_star": rep.b_star,
        "sum_ratio": rep.sum_ratio,
        "reduction_percent": 100.0 * (1.0 - rep.sum_ratio),
        "columns": ["b", "upper_ratio", "lower_ratio", "total_ratio"],
        "rows": (np.column_stack((rep.grid, rep.upper_ratio, rep.lower_ratio,
                                  rep.total_ratio)) + 0.0).tolist(),
    })
    return [",".join(out["columns"])] + ["%.9g,%.9g,%.9g,%.9g" % tuple(row)
                                         for row in out["rows"]]


def _cmd_regions(args, d, sc, out) -> list[str]:
    b = d.bounds
    out["case"] = d.case.to_dict()
    polys = {}
    if not (b.lower_trivial or b.upper_trivial):
        polys = {name: (arr + 0.0).tolist() for name, arr
                 in region_map_polylines(b.lz, b.uz, args.grid).items()}
    out["letter"] = d.case.letter
    out["thresholds"] = {
        "s_lo": math.sqrt(b.lz * b.uz) if b.lz > 0 else None,
        "s_hi": math.sqrt(b.lz / b.uz) if b.lz > 0 else None,
    }
    out["polylines"] = polys
    return ["polyline,x,y"] + ["%s,%.9g,%.9g" % (name, x, y)
                               for name, pts in polys.items()
                               for x, y in pts]


def _cmd_oracle(args, d, sc, out):
    from .oracle import oracle_envelope, oracle_membership, sample_surface
    s = sample_surface(d.bounds, args.samples)
    out["samples"] = len(s)
    if args.at is not None:
        xn, yn = args.at[0] / sc.sx, args.at[1] / sc.sy
        zmin, zmax = envelopes(d, xn, yn)
        try:
            oz = oracle_envelope(s, xn, yn)
        except Infeasible:
            oz = None
        out.update({
            "at": dict(zip("xy", args.at)),
            "analytic_zmax": zmax,
            "oracle_zmax": oz,
            "gap": None if oz is None else zmax - oz,
        })
    else:
        p = sc.to_normalized(Point3(*args.point))
        out.update({
            "point": dict(zip("xyz", args.point)),
            "analytic_member": membership(d, p),
            "oracle_member": oracle_membership(s, p),
        })


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilinear-hull",
        description="Convex hull of a bounded bilinear product term.")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, box=True):
        """A subcommand with the box flags (unless `box` is false) and the
        output flags."""
        p = subs.add_parser(name, help=help)
        if box:
            for flag, default in (("--lx", 0.0), ("--ly", 0.0), ("--lz", 0.0),
                                  ("--ux", 1.0), ("--uy", 1.0), ("--uz", 1.0)):
                p.add_argument(flag, type=_finite, default=default)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output to a file")
        p.set_defaults(func=func)
        return p

    point, pair = _floats(3, "x,y,z"), _floats(2, "x,y")

    command("describe", _cmd_describe, "piecewise hull description")

    p = command("check", _cmd_check, "membership test for a point")
    p.add_argument("--point", type=point, required=True)

    p = command("separate", _cmd_separate,
                "violated valid inequality, if any")
    p.add_argument("--point", type=point, required=True)

    p = command("envelope", _cmd_envelope, "zmin/zmax at a point or on a grid")
    p.add_argument("--at", type=pair, default=None)
    p.add_argument("--grid", type=int, default=41)

    p = command("tangent", _cmd_tangent, "lifted tangent plane at (x, y)")
    p.add_argument("--at", type=pair, required=True)

    p = command("volume", _cmd_volume, "hull volume by several methods")
    p.add_argument("--method", choices=("closed", "numeric", "mc"),
                   default="numeric")
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)

    # the branching point is computed on the unit box: no box flags
    p = command("branch", _cmd_branch, "optimal product branching point",
                box=False)
    p.add_argument("--grid", type=int, default=99)

    p = command("regions", _cmd_regions, "case letter and region map data")
    p.add_argument("--grid", type=int, default=65)

    p = command("mesh", _grid_table, "envelope mesh with active piece ids")
    p.add_argument("--grid", type=int, default=41)

    p = command("oracle", _cmd_oracle, "LP cross-checks of the description")
    query = p.add_mutually_exclusive_group(required=True)
    query.add_argument("--at", type=pair)
    query.add_argument("--point", type=point)
    p.add_argument("--samples", type=int, default=101)

    return parser


def _usage_error(args) -> str | None:
    """What makes parsed arguments unusable, beyond what argparse checks
    flag by flag (counts the command cannot use), or None."""
    if args.command == "oracle":
        if args.samples < 2:
            return "--samples must be at least 2"
    elif args.command == "volume":
        if args.method == "numeric" and (args.grid < 8 or args.grid % 2):
            return "--grid must be even and at least 8 for --method numeric"
        if args.method == "mc" and args.samples < 1:
            return "--samples must be at least 1 for --method mc"
        if args.method == "mc" and not 0 <= args.seed < 2 ** 64:
            return "--seed must be in [0, 2**64) for --method mc"
    elif getattr(args, "grid", 0) < 0:
        return "--grid must not be negative"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    problem = _usage_error(args)
    if problem is not None:
        print("error: %s" % problem, file=sys.stderr)
        return 2
    d = sc = None
    out = {}
    try:
        if hasattr(args, "lx"):  # every command but branch takes a box
            raw = RawBounds(args.lx, args.ly, args.lz,
                            args.ux, args.uy, args.uz)
            d, sc = hull_from_raw(raw)
            out = _header(raw, d, sc)
        table = args.func(args, d, sc, out)
    except InfeasibleBounds as e:
        print("infeasible bounds: %s" % e, file=sys.stderr)
        return 3
    except BilinearHullError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    text = _text(args.format, out, table)
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as e:
        print("error: cannot write %s: %s" % (args.out, e.strerror or e),
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
