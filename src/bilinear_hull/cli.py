"""Command line front end.

Every command accepts raw box bounds, normalizes and tightens them, and
reports both the raw and the working (normalized) frames in its output
header.  Floats are printed through one %.9g formatter so repeated runs
are byte-identical; tabular commands switch to CSV with --format csv.

Exit codes: 0 ok, 1 package error, 2 bad arguments, 3 infeasible bounds.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import BilinearHullError, Infeasible, InfeasibleBounds
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
from .oracle import oracle_envelope, oracle_membership, sample_surface
from .volume import optimal_branch, vol_closed, vol_mc, vol_numeric


def _g(v) -> str:
    v = float(v)
    if v == 0.0:
        v = 0.0  # canonicalize -0.0
    return "%.9g" % v


def _json(obj) -> str:
    """Deterministic JSON: insertion order kept, floats through %.9g."""
    if isinstance(obj, dict):
        inner = ", ".join('"%s": %s' % (k, _json(v)) for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if f != f:
            return "null"
        return _g(f)
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
    key = prefix[:-1]
    if isinstance(obj, bool):
        rows.append("%s,%s" % (key, "true" if obj else "false"))
    elif obj is None:
        rows.append("%s," % key)
    elif isinstance(obj, (int, np.integer)):
        rows.append("%s,%d" % (key, int(obj)))
    elif isinstance(obj, (float, np.floating)):
        rows.append("%s,%s" % (key, _g(obj)))
    else:
        rows.append("%s,%s" % (key, obj))
    return rows


def _point(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected x,y,z")
    try:
        return tuple(float(t) for t in parts)  # type: ignore[return-value]
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected x,y")
    try:
        return tuple(float(t) for t in parts)  # type: ignore[return-value]
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _raw_bounds(args) -> RawBounds:
    return RawBounds(args.lx, args.ly, args.lz, args.ux, args.uy, args.uz)


def _header(raw: RawBounds, d, sc) -> dict:
    return {
        "raw_bounds": {"lx": raw.lx, "ly": raw.ly, "lz": raw.lz,
                       "ux": raw.ux, "uy": raw.uy, "uz": raw.uz},
        "bounds": {"lx": d.bounds.lx, "ly": d.bounds.ly,
                   "lz": d.bounds.lz, "uz": d.bounds.uz},
        "scaling": {"sx": sc.sx, "sy": sc.sy},
    }


def _header_csv_lines(raw: RawBounds, d, sc) -> list[str]:
    return [
        "# raw_bounds lx=%s ly=%s lz=%s ux=%s uy=%s uz=%s"
        % tuple(_g(v) for v in (raw.lx, raw.ly, raw.lz, raw.ux, raw.uy, raw.uz)),
        "# bounds lx=%s ly=%s lz=%s uz=%s scaling sx=%s sy=%s"
        % tuple(_g(v) for v in (d.bounds.lx, d.bounds.ly, d.bounds.lz,
                                d.bounds.uz, sc.sx, sc.sy)),
    ]


def _render(args, obj, csv_lines=None) -> str:
    if args.format == "csv":
        if csv_lines is not None:
            return "\n".join(csv_lines) + "\n"
        return "\n".join(_flat_csv(obj)) + "\n"
    return _json(obj) + "\n"


def _cmd_describe(args) -> str:
    raw = _raw_bounds(args)
    d, sc = hull_from_raw(raw)
    out = _header(raw, d, sc)
    body = d.to_dict()
    del body["bounds"]  # already in the header
    out.update(body)
    return _render(args, out)


def _cmd_check(args) -> str:
    raw = _raw_bounds(args)
    d, sc = hull_from_raw(raw)
    p = sc.to_normalized(Point3(*args.point))
    res, violated = worst_violation(d, p)
    out = _header(raw, d, sc)
    out.update({
        "point": {"x": args.point[0], "y": args.point[1], "z": args.point[2]},
        "member": membership(d, p),
        "worst_residual": res,
        "violated": violated,
    })
    return _render(args, out)


def _cmd_separate(args) -> str:
    raw = _raw_bounds(args)
    d, sc = hull_from_raw(raw)
    p = sc.to_normalized(Point3(*args.point))
    cut = separate(d, p)
    out = _header(raw, d, sc)
    out["point"] = {"x": args.point[0], "y": args.point[1], "z": args.point[2]}
    if cut is None:
        out["inside"] = True
        out["cut"] = None
    else:
        out["inside"] = False
        out["cut"] = cut.to_dict()
        out["cut_raw"] = sc.inequality_to_raw(cut).to_dict()
        out["violation"] = -float(cut.residual(p.x, p.y, p.z))
    return _render(args, out)


def _cmd_envelope(args) -> str:
    raw = _raw_bounds(args)
    d, sc = hull_from_raw(raw)
    if args.at is not None:
        sz = sc.sz
        xn, yn = args.at[0] / sc.sx, args.at[1] / sc.sy
        zmin, zmax = envelopes(d, xn, yn)
        out = _header(raw, d, sc)
        out.update({
            "at": {"x": args.at[0], "y": args.at[1]},
            "normalized": {"x": xn, "y": yn, "zmin": zmin, "zmax": zmax},
            "zmin": zmin * sz,
            "zmax": zmax * sz,
        })
        return _render(args, out)
    return _grid_table(args, raw, d, sc, with_piece_id=False)


def _grid_table(args, raw: RawBounds, d, sc, with_piece_id: bool) -> str:
    """The envelopes on an args.grid x args.grid tensor grid over the box,
    in the raw frame, with the id of the binding piece if asked for."""
    sz = sc.sz
    n = args.grid
    xs = np.linspace(d.bounds.lx, 1.0, n)
    ys = np.linspace(d.bounds.ly, 1.0, n)
    zmin, zmax, pid = envelope_grid(d, xs, ys)
    columns = ["x", "y", "zmin", "zmax"]
    if with_piece_id:
        columns.append("piece_id")
    lines = _header_csv_lines(raw, d, sc) + [",".join(columns)]
    rows = []
    for i in range(n):
        for j in range(n):
            vals = (xs[i] * sc.sx, ys[j] * sc.sy,
                    zmin[i, j] * sz, zmax[i, j] * sz)
            row = [float(v) for v in vals]
            line = ",".join(_g(v) for v in vals)
            if with_piece_id:
                row.append(int(pid[i, j]))
                line += ",%d" % pid[i, j]
            rows.append(row)
            lines.append(line)
    out = _header(raw, d, sc)
    out["columns"] = columns
    out["rows"] = rows
    return _render(args, out, csv_lines=lines)


def _cmd_tangent(args) -> str:
    raw = _raw_bounds(args)
    d, sc = hull_from_raw(raw)
    xn, yn = args.at[0] / sc.sx, args.at[1] / sc.sy
    ineq, seg = lifted_tangent(d.bounds, xn, yn)
    sz = sc.sz
    out = _header(raw, d, sc)
    out.update({
        "at": {"x": args.at[0], "y": args.at[1]},
        "family": seg.family.value,
        "alpha": seg.alpha,
        "inequality": ineq.to_dict(),
        "inequality_raw": sc.inequality_to_raw(ineq).to_dict(),
        "segment": {
            "lower": [seg.lower.x, seg.lower.y, seg.lower.z],
            "upper": [seg.upper.x, seg.upper.y, seg.upper.z],
        },
        "segment_raw": {
            "lower": [seg.lower.x * sc.sx, seg.lower.y * sc.sy,
                      seg.lower.z * sz],
            "upper": [seg.upper.x * sc.sx, seg.upper.y * sc.sy,
                      seg.upper.z * sz],
        },
    })
    return _render(args, out)


def _cmd_volume(args) -> str:
    raw = _raw_bounds(args)
    d, sc = hull_from_raw(raw)
    scale = (sc.sx * sc.sy) ** 2  # dx dy dz picks up sx*sy*sz
    out = _header(raw, d, sc)
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
    return _render(args, out)


def _cmd_branch(args) -> str:
    rep = optimal_branch(np.linspace(0.01, 0.99, args.grid))
    header = ["b,upper_ratio,lower_ratio,total_ratio"]
    lines = header + [
        ",".join(_g(v) for v in row)
        for row in zip(rep.grid, rep.upper_ratio, rep.lower_ratio,
                       rep.total_ratio)
    ]
    out = {
        "b_star": rep.b_star,
        "sum_ratio": rep.sum_ratio,
        "reduction_percent": 100.0 * (1.0 - rep.sum_ratio),
        "columns": ["b", "upper_ratio", "lower_ratio", "total_ratio"],
        "rows": [[float(a), float(b), float(c), float(t)]
                 for a, b, c, t in zip(rep.grid, rep.upper_ratio,
                                       rep.lower_ratio, rep.total_ratio)],
    }
    return _render(args, out, csv_lines=lines)


def _cmd_regions(args) -> str:
    raw = _raw_bounds(args)
    d, sc = hull_from_raw(raw)
    b = d.bounds
    letter = d.case.letter
    out = _header(raw, d, sc)
    out["case"] = d.case.to_dict()
    polys = {}
    csv_lines = _header_csv_lines(raw, d, sc) + ["polyline,x,y"]
    if not (b.lower_trivial or b.upper_trivial):
        for name, arr in region_map_polylines(b.lz, b.uz, args.grid).items():
            polys[name] = [[float(v) for v in row] for row in arr]
            for row in arr:
                csv_lines.append("%s,%s,%s" % (name, _g(row[0]), _g(row[1])))
    out["letter"] = letter
    out["thresholds"] = {
        "s_lo": float(np.sqrt(b.lz * b.uz)) if b.lz > 0 else None,
        "s_hi": float(np.sqrt(b.lz / b.uz)) if b.lz > 0 else None,
    }
    out["polylines"] = polys
    return _render(args, out, csv_lines=csv_lines)


def _cmd_mesh(args) -> str:
    raw = _raw_bounds(args)
    d, sc = hull_from_raw(raw)
    return _grid_table(args, raw, d, sc, with_piece_id=True)


def _cmd_oracle(args) -> str:
    raw = _raw_bounds(args)
    d, sc = hull_from_raw(raw)
    s = sample_surface(d.bounds, args.samples)
    out = _header(raw, d, sc)
    out["samples"] = len(s)
    if args.at is not None:
        xn, yn = args.at[0] / sc.sx, args.at[1] / sc.sy
        zmin, zmax = envelopes(d, xn, yn)
        try:
            oz = oracle_envelope(s, xn, yn)
        except Infeasible:
            oz = None
        out.update({
            "at": {"x": args.at[0], "y": args.at[1]},
            "analytic_zmax": zmax,
            "oracle_zmax": oz,
            "gap": None if oz is None else zmax - oz,
        })
    else:
        p = sc.to_normalized(Point3(*args.point))
        out.update({
            "point": {"x": args.point[0], "y": args.point[1],
                      "z": args.point[2]},
            "analytic_member": membership(d, p),
            "oracle_member": oracle_membership(s, p),
        })
    return _render(args, out)


def _add_common(sub) -> None:
    sub.add_argument("--lx", type=float, default=0.0)
    sub.add_argument("--ly", type=float, default=0.0)
    sub.add_argument("--lz", type=float, default=0.0)
    sub.add_argument("--ux", type=float, default=1.0)
    sub.add_argument("--uy", type=float, default=1.0)
    sub.add_argument("--uz", type=float, default=1.0)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilinear-hull",
        description="Convex hull of a bounded bilinear product term.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("describe", help="piecewise hull description")
    _add_common(p)
    p.set_defaults(func=_cmd_describe)

    p = subs.add_parser("check", help="membership test for a point")
    _add_common(p)
    p.add_argument("--point", type=_point, required=True)
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("separate", help="violated valid inequality, if any")
    _add_common(p)
    p.add_argument("--point", type=_point, required=True)
    p.set_defaults(func=_cmd_separate)

    p = subs.add_parser("envelope", help="zmin/zmax at a point or on a grid")
    _add_common(p)
    p.add_argument("--at", type=_pair, default=None)
    p.add_argument("--grid", type=int, default=41)
    p.set_defaults(func=_cmd_envelope)

    p = subs.add_parser("tangent", help="lifted tangent plane at (x, y)")
    _add_common(p)
    p.add_argument("--at", type=_pair, required=True)
    p.set_defaults(func=_cmd_tangent)

    p = subs.add_parser("volume", help="hull volume by several methods")
    _add_common(p)
    p.add_argument("--method", choices=("closed", "numeric", "mc"),
                   default="numeric")
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_volume)

    p = subs.add_parser("branch", help="optimal product branching point")
    _add_common(p)
    p.add_argument("--grid", type=int, default=99)
    p.set_defaults(func=_cmd_branch)

    p = subs.add_parser("regions", help="case letter and region map data")
    _add_common(p)
    p.add_argument("--grid", type=int, default=65)
    p.set_defaults(func=_cmd_regions)

    p = subs.add_parser("mesh", help="envelope mesh with active piece ids")
    _add_common(p)
    p.add_argument("--grid", type=int, default=41)
    p.set_defaults(func=_cmd_mesh)

    p = subs.add_parser("oracle", help="LP cross-checks of the description")
    _add_common(p)
    p.add_argument("--at", type=_pair, default=None)
    p.add_argument("--point", type=_point, default=None)
    p.add_argument("--samples", type=int, default=101)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.command == "oracle" and args.at is None and args.point is None:
        print("oracle needs --at or --point", file=sys.stderr)
        return 2
    try:
        text = args.func(args)
    except InfeasibleBounds as e:
        print("infeasible bounds: %s" % e, file=sys.stderr)
        return 3
    except BilinearHullError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
