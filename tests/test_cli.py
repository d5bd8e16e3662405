"""Command-line interface: output shapes, pinned values, exit codes."""

import contextlib
import io
import json
import math
import subprocess
import sys

import pytest


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "bilinear_hull", *args],
                          capture_output=True, text=True)


def run_json(*args):
    r = run_cli(*args)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


def test_describe_reports_case_and_pieces():
    out = run_json("describe", "--lx", "0.14", "--ly", "0.5",
                   "--lz", "0.1", "--uz", "0.7")
    assert out["case"] == {"region": "RegionD", "swapped": False,
                          "letter": "D"}
    assert out["bounds"] == {"lx": 0.14, "ly": 0.5, "lz": 0.1, "uz": 0.7}
    assert len(out["rlt"]) == 4
    assert [p["soc"]["family"] for p in out["pieces"]] == [
        "UpperGeneral", "SideY"]


def test_describe_box_whose_tightening_once_stalled():
    # uz/ly lands one ulp under 1 during tightening; this used to end in a
    # traceback from a bare RuntimeError
    r = run_cli("describe", "--lx", "0.3276705387104378",
                "--ly", "0.43411562216305305", "--lz", "0.14234243155401288",
                "--uz", "0.20572509825365426")
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
    out = json.loads(r.stdout)
    assert out["case"]["region"] == "RegionA"


def test_describe_roundoff_uz_box_has_no_pieces():
    out = run_json("describe", "--ux", "1e-8", "--uy", "1e-8", "--uz", "1e-16")
    assert out["bounds"]["uz"] == 1
    assert out["case"]["region"] == "NoZBound"
    assert out["pieces"] == []


def test_underflowing_scale_exits_1_with_one_error_line():
    # ux*uy underflows to zero; this used to end in a ZeroDivisionError
    r = run_cli("describe", "--ux", "1e-200", "--uy", "1e-200")
    assert r.returncode == 1
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr
    # ux*uy overflows the float range: an error too, not an infeasible box
    assert run_cli("describe", "--ux", "1e200", "--uy", "1e200").returncode == 1


@pytest.mark.parametrize("method", ["numeric", "closed"])
def test_overflowing_volume_factor_exits_1_with_one_error_line(method):
    # (sx*sy)**2 passes the float range; this used to end in an
    # OverflowError traceback
    r = run_cli("volume", "--method", method,
                "--lz", "9.161247025146194e+174",
                "--ux", "3.940922943617444e+38",
                "--uy", "2.6697458691962817e+136",
                "--uz", "1.0521262749543521e+175")
    assert r.returncode == 1 and r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr
    assert "overflows" in lines[0]


def test_output_is_byte_stable():
    args = ("describe", "--lx", "0.32", "--ly", "0.28",
            "--lz", "0.1", "--uz", "0.7")
    r1 = run_cli(*args)
    r2 = run_cli(*args)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout


def test_check_flags_outside_point():
    out = run_json("check", "--uz", "0.4", "--point", "0.5,0.5,0.35")
    assert out["member"] is False
    assert out["violated"] == {"kind": "soc", "family": "UpperZero"}
    assert abs(out["worst_residual"] + 0.0615773106) <= 1e-9

    out = run_json("check", "--uz", "0.4", "--point", "0.5,0.5,0.3")
    assert out["member"] is True
    assert out["violated"] is None


def test_separate_reports_example_cut():
    out = run_json("separate", "--uz", "0.4", "--point", "0.5,0.5,0.35")
    assert out["inside"] is False
    cut = out["cut"]
    assert cut["type"] == "linear"
    assert abs(cut["ax"] - 0.632455532) <= 1e-9
    assert abs(cut["ay"] - 0.632455532) <= 1e-9
    assert cut["az"] == -2
    assert abs(out["violation"] - 0.067544468) <= 1e-9
    # unscaled input: raw coefficients match the normalized ones
    assert out["cut_raw"] == cut


def test_separate_at_lower_cone_apex_is_symmetric():
    # (1, 1) is the apex of the Lower cone; the box and the point are
    # symmetric in x and y, and so is the cut
    out = run_json("separate", "--lx", "0.5", "--ly", "0.3", "--lz", "0.3",
                   "--point", "1,1,1.05")
    cut = out["cut"]
    assert cut["ax"] == cut["ay"] == 0.547722558  # sqrt(0.3)


def test_tangent_command():
    out = run_json("tangent", "--uz", "0.4", "--at", "0.5,0.5")
    assert out["family"] == "UpperZero"
    assert abs(out["alpha"] - 0.209430585) <= 1e-9
    f = math.sqrt(0.4 / 0.25)
    up = out["segment"]["upper"]
    assert abs(up[0] - 0.5 * f) <= 1e-9
    assert abs(up[2] - 0.4) <= 1e-12
    assert out["segment"]["lower"] == [0, 0, 0]


def test_envelope_at_point():
    out = run_json("envelope", "--uz", "0.4", "--at", "0.5,0.5")
    assert out["zmin"] == 0
    assert abs(out["zmax"] - math.sqrt(0.1)) <= 1e-9


def test_envelope_just_outside_the_box_is_clipped_onto_it():
    # x = -1e-9 is within FEAS_TOL of lx = 0; the upper cone's discriminant
    # there is -2e-10, so the point is evaluated at x = 0
    out = run_json("envelope", "--lz", "0", "--uz", "0.4", "--at=-1e-9,0.5")
    at_edge = run_json("envelope", "--lz", "0", "--uz", "0.4", "--at", "0,0.5")
    assert (out["zmin"], out["zmax"]) == (at_edge["zmin"], at_edge["zmax"])


def test_envelope_grid_csv():
    r = run_cli("envelope", "--uz", "0.4", "--grid", "5", "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0].startswith("#") and lines[1].startswith("#")
    assert lines[2] == "x,y,zmin,zmax"
    assert len(lines) == 3 + 25


def test_mesh_csv_layout():
    r = run_cli("mesh", "--uz", "0.4", "--grid", "4", "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[2] == "x,y,zmin,zmax,piece_id"
    assert len(lines) == 3 + 16
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0 and float(last[1]) == 1.0


@pytest.mark.parametrize("command", ["mesh", "envelope"])
def test_grid_tables_format_values_as_g_and_json_do(monkeypatch, command):
    # no real box puts -0.0 or NaN in a grid, so the envelopes are faked:
    # each CSV line must read as _g prints the row, and the JSON rows as
    # _json prints them
    import numpy as np

    from bilinear_hull import cli
    from bilinear_hull.geometry import RawBounds
    from bilinear_hull.hull import hull_from_raw

    special = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300,
               1.0000000005, 0.1]
    zmin = np.array(special * 2).reshape(4, 4)
    zmax = zmin[::-1, ::-1].copy()
    pid = np.array([-1, 2] * 8).reshape(4, 4)
    monkeypatch.setattr(cli, "envelope_grid",
                        lambda d, xs, ys: (zmin, zmax, pid))
    box = ["--lx", "1.0", "--ly", "0.56", "--lz", "0.8",
           "--ux", "2", "--uy", "4", "--uz", "5.6"]
    d, sc = hull_from_raw(RawBounds(1.0, 0.56, 0.8, 2.0, 4.0, 5.6))
    xs = np.linspace(d.bounds.lx, 1.0, 4) * sc.sx
    ys = np.linspace(d.bounds.ly, 1.0, 4) * sc.sy
    rows = []
    for i in range(4):
        for j in range(4):
            row = [float(xs[i]), float(ys[j]), float(zmin[i, j] * sc.sz),
                   float(zmax[i, j] * sc.sz)]
            rows.append(row + [int(pid[i, j])] if command == "mesh" else row)

    def run(*fmt):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main([command, *box, "--grid", "4", *fmt]) == 0
        return buf.getvalue()

    lines = run("--format", "csv").splitlines()
    assert lines[3:] == [",".join(map(cli._g, row)) for row in rows]
    assert math.copysign(1.0, rows[0][2]) < 0  # -0.0 reaches the table
    assert lines[3].split(",")[2] == "0"
    assert run().endswith('"rows": %s}\n' % cli._json(rows))


def test_volume_closed_and_raw_scaling():
    out = run_json("volume", "--uz", "0.4", "--method", "closed")
    assert abs(out["volume"] - 0.113797828) <= 1e-9
    assert out["volume"] == out["volume_raw"]

    out = run_json("volume", "--ux", "2", "--uy", "2", "--uz", "1.6",
                   "--method", "closed")
    assert abs(out["volume"] - 0.113797828) <= 1e-9
    assert abs(out["volume_raw"] - 0.113797828 * 16) <= 2e-7


def test_volume_closed_on_lower_only_zero_corner_box():
    out = run_json("volume", "--lz", "0.3", "--method", "closed")
    assert out["bounds"]["lx"] == out["bounds"]["ly"] == 0.3
    assert abs(out["volume"] - 0.0218885704) <= 1e-10
    num = run_json("volume", "--lz", "0.3", "--method", "numeric")
    assert abs(num["volume"] - out["volume"]) <= 1e-8


def test_volume_methods_agree():
    closed = run_json("volume", "--uz", "0.4", "--method", "closed")["volume"]
    num = run_json("volume", "--uz", "0.4", "--method", "numeric")
    assert abs(num["volume"] - closed) <= 1e-5
    mc = run_json("volume", "--uz", "0.4", "--method", "mc",
                  "--samples", "200000", "--seed", "3")
    assert abs(mc["volume"] - closed) <= mc["halfwidth_3sigma"]


def test_branch_command():
    out = run_json("branch")
    assert abs(out["b_star"] - 0.2031878700) <= 1e-8
    assert abs(out["reduction_percent"] - 32.3805119) <= 1e-6
    assert out["columns"] == ["b", "upper_ratio", "lower_ratio", "total_ratio"]
    assert len(out["rows"]) == 99


def test_regions_command():
    out = run_json("regions", "--lx", "0.14", "--ly", "0.5",
                   "--lz", "0.1", "--uz", "0.7")
    assert out["letter"] == "D"
    assert abs(out["thresholds"]["s_lo"] - math.sqrt(0.07)) <= 1e-9
    assert abs(out["thresholds"]["s_hi"] - math.sqrt(0.1 / 0.7)) <= 1e-9
    assert set(out["polylines"]) == {"frame_lx", "frame_ly", "hyperbola",
                                     "split_lx", "split_ly", "far_ly",
                                     "far_lx"}


def test_oracle_cross_checks():
    out = run_json("oracle", "--uz", "0.4", "--at", "0.5,0.5",
                   "--samples", "101")
    assert out["samples"] > 1000
    assert abs(out["analytic_zmax"] - math.sqrt(0.1)) <= 1e-9
    assert 0 <= out["gap"] <= 1e-3

    out = run_json("oracle", "--uz", "0.4", "--point", "0.5,0.5,0.35",
                   "--samples", "61")
    assert out["analytic_member"] is False
    assert out["oracle_member"] is False


@pytest.mark.parametrize("argv", [
    ["describe", "--uz", "0.4"],
    ["mesh", "--uz", "0.4", "--grid", "3", "--format", "csv"],
    ["branch", "--grid", "5"],
], ids=lambda a: a[0])
def test_out_flag_writes_the_same_bytes(tmp_path, argv):
    target = tmp_path / "out.txt"
    r = run_cli(*argv)
    r2 = run_cli(*argv, "--out", str(target))
    assert r2.returncode == 0
    assert r2.stdout == ""
    assert target.read_text() == r.stdout


def test_unwritable_out_exits_2_with_one_error_line(tmp_path):
    target = tmp_path / "missing" / "x.json"
    r = run_cli("describe", "--uz", "0.4", "--out", str(target))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write ")
    assert not target.exists()


def test_csv_fallback_is_flat_key_value():
    r = run_cli("check", "--uz", "0.4", "--point", "0.5,0.5,0.35",
                "--format", "csv")
    assert r.returncode == 0
    lines = [ln for ln in r.stdout.strip().splitlines()
             if not ln.startswith("#")]
    rows = dict(ln.split(",", 1) for ln in lines)
    assert rows["member"] == "false"
    assert rows["point.z"] == "0.35"
    assert rows["violated.family"] == "UpperZero"


def test_exit_codes():
    assert run_cli("check", "--point", "bad").returncode == 2
    assert run_cli("oracle", "--uz", "0.4").returncode == 2
    # --at and --point are exclusive: one query per call
    assert run_cli("oracle", "--uz", "0.4", "--at", "0.5,0.5",
                   "--point", "0.5,0.5,0.35").returncode == 2
    # branch works on the unit box and takes no box flags
    assert run_cli("branch", "--lz", "0.2").returncode == 2
    assert run_cli("check", "--lz", "0.9", "--uz", "0.2",
                   "--point", "0,0,0").returncode == 3
    # a box whose z range collapses in normalize is infeasible too
    assert run_cli("check", "--lx", "0.5", "--ly", "0.5", "--uz", "0.25",
                   "--point", "0,0,0").returncode == 3
    assert run_cli("envelope", "--uz", "0.4", "--at", "2.0,0.5").returncode == 1


@pytest.mark.parametrize("argv", [
    ["volume", "--method", "numeric", "--grid", "9"],
    ["volume", "--method", "numeric", "--grid", "1"],
    ["volume", "--method", "mc", "--samples", "0"],
    ["volume", "--method", "mc", "--seed", "-1"],
    ["volume", "--method", "mc", "--seed", str(2 ** 64)],
    ["oracle", "--samples", "1", "--at", "0.5,0.5"],
    ["mesh", "--grid", "-1"],
    ["envelope", "--grid", "-1"],
    ["branch", "--grid", "-1"],
    ["regions", "--lz", "0.1", "--uz", "0.5", "--grid", "-1"],
], ids=lambda a: "-".join(a))
def test_bad_counts_exit_2_with_one_error_line(argv):
    r = run_cli(*argv)
    assert r.returncode == 2
    assert r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr


@pytest.mark.parametrize("argv", [
    ["describe", "--lx", "nan"],
    ["volume", "--lx", "inf"],
    ["check", "--point", "nan,0.5,0.5"],
    ["tangent", "--at", "nan,0.5"],
    ["envelope", "--at", "inf,0.5"],
], ids=lambda a: "-".join(a))
def test_non_finite_arguments_exit_2(argv):
    # a NaN or inf flag is a bad argument, not an infeasible box (exit 3)
    # nor a domain error (exit 1)
    r = run_cli(*argv)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    assert "finite" in r.stderr


@pytest.mark.parametrize("command", [
    ["check"], ["separate"], ["oracle", "--samples", "5"]], ids=lambda a: a[0])
def test_a_finite_point_that_overflows_the_scaling_says_so(command):
    # the point is finite, but z/(sx*sy) passes the float range: an error
    # about the scaling, not about non-finite input
    r = run_cli(*command, "--ux", "2.8346854760846905e+40", "--uy", "2e-323",
                "--point", "1.417e40,1e-323,3.07e213")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == "error: query point overflows under the scaling\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_cut_that_overflows_the_scaling_exits_1(fmt):
    # sz = sx*sy is subnormal, so the raw az = az/sz passes the float
    # range; this used to print -inf, which is no JSON number
    r = run_cli("separate", "--ux", "1e-160", "--uy", "1e-160",
                "--uz", "1e-320", "--point", "5e-161,5e-161,1e-320",
                "--format", fmt)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == "error: the inequality overflows under the scaling\n"
