"""Tests of the benchmark itself: seeded inputs, repeatable results, gates.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from bilinear_hull import (  # noqa: E402
    LinearInequality,
    Point3,
    RawBounds,
    envelope_grid,
    hull_from_raw,
    membership,
    oracle_envelope_many,
    sample_surface,
    separate,
)

import checks  # noqa: E402
import compare  # noqa: E402
import wl_bulk  # noqa: E402
import wl_cli  # noqa: E402
import wl_node  # noqa: E402
import wl_oracle  # noqa: E402
from common import mean_beyond, quantile  # noqa: E402
from inputs import ACCEPTANCE_BOXES, draw_node_box, rng_for, surface_cloud  # noqa: E402


def _node_inputs(seed, n=300):
    rng = rng_for(seed, "node")
    out = []
    for _ in range(n):
        kind, mirrored, raw = draw_node_box(rng)
        out.append((kind, mirrored, raw, rng.random((4, 3)).tolist()))
    return out


def test_inputs_are_a_function_of_the_seed():
    assert _node_inputs(7) == _node_inputs(7)
    assert _node_inputs(7) != _node_inputs(8)
    a = wl_cli.argv_for(rng_for(7, "cli"), "tangent", {})
    assert a == wl_cli.argv_for(rng_for(7, "cli"), "tangent", {})


def test_node_stream_reaches_every_case():
    seen = set()
    for kind, mirrored, raw, _ in _node_inputs(3, 2000):
        try:
            d, _ = hull_from_raw(raw)
        except RuntimeError:
            continue
        seen.add((d.case.region.value, d.case.swapped))
    for region in ("NoZBound", "UpperOnly", "LowerOnly"):
        assert (region, False) in seen
    for region in ("RegionA", "RegionB", "RegionC", "RegionD"):
        assert (region, False) in seen and (region, True) in seen


@pytest.mark.parametrize("mod, ops", [(wl_node, 200), (wl_bulk, 6),
                                      (wl_oracle, 2), (wl_cli, 3)])
def test_one_seed_gives_identical_checksums(mod, ops):
    kw = {"src": str(ROOT / "src")} if mod is wl_cli else {}
    first = mod.run(11, 0.0, max_ops=ops, **kw)
    second = mod.run(11, 0.0, max_ops=ops, **kw)
    assert first.attempted == second.attempted == ops
    assert first.incorrect == second.incorrect == 0
    assert first.checksum == second.checksum
    assert first.mix == second.mix


def test_node_failures_are_counted_not_filtered():
    # the stream keeps boxes whose tightening does not settle; each counts
    # as a failed node with its index recorded, and nothing is re-drawn
    out = wl_node.run(21, 0.0, max_ops=1800)
    assert out.attempted == 1800
    assert out.failed_index == [1221, 1740]
    assert out.failed == 2 and out.incorrect == 0
    assert all("RuntimeError" in p["reason"] for p in out.problems)
    # both are the recorded tightening defect, which run.py reports apart
    assert out.known_defect == 2 and out.defect_index == [1221, 1740]


def test_only_the_recorded_defect_is_known():
    # a RuntimeError raised elsewhere, or with another message, stays an
    # ordinary failure in the result's `failed`
    def raise_(message):
        raise RuntimeError(message)

    try:
        raise_(wl_node.KNOWN_DEFECT[1])
    except RuntimeError as e:
        assert not wl_node.is_known_defect(e)
    box = RawBounds(0.3276705387104378, 0.43411562216305305,
                    0.14234243155401288, 1.0, 1.0, 0.20572509825365426)
    with pytest.raises(RuntimeError) as info:
        hull_from_raw(box)
    assert wl_node.is_known_defect(info.value)


@pytest.mark.parametrize("seed, index", [(48, 1), (40, 34)])
def test_traced_run_counts_every_tightening_failure(seed, index):
    # an odd node runs untraced first and an even one traced first; the
    # failure counts in the per-layer metric either way
    from spans import Tracer
    out = wl_node.run(seed, 0.0, tracer=Tracer(), max_ops=40)
    assert out.failed_index == [index]
    assert out.mix["errors"] == {"RuntimeError": 1}
    assert out.layers["geometry.tighten_with_scaling.failed"] == 1


def _violated_cut():
    d, _ = hull_from_raw(ACCEPTANCE_BOXES[5][1])
    p = Point3(0.6, 0.6, 0.55)
    assert not membership(d, p)
    cut = separate(d, p)
    cloud = surface_cloud(rng_for(0, "test"), d.bounds, 256)
    return d, p, cut, cloud


def test_gate_accepts_a_true_cut_and_catches_corrupted_ones():
    _, p, cut, cloud = _violated_cut()
    pt = p.astuple()
    assert checks.check_node_point(False, cut, pt, cloud) is None
    shifted = LinearInequality(cut.a0 - 0.05, cut.ax, cut.ay, cut.az, cut.label)
    assert "removes a surface point" in checks.check_node_point(
        False, shifted, pt, cloud)
    weak = LinearInequality(cut.a0 + 1.0, cut.ax, cut.ay, cut.az, cut.label)
    assert "does not cut off" in checks.check_node_point(False, weak, pt, cloud)
    assert checks.check_node_point(False, None, pt, cloud) is not None
    assert checks.check_node_point(True, cut, pt, cloud) is not None


def test_node_workload_flags_a_corrupted_cut(monkeypatch):
    def bad_separate(d, p, *a):
        c = separate(d, p, *a)
        return None if c is None else LinearInequality(
            c.a0 - 0.5, c.ax, c.ay, c.az, c.label)
    monkeypatch.setattr(wl_node, "separate", bad_separate)
    out = wl_node.run(2, 0.0, max_ops=50)
    assert out.incorrect > 0
    assert any(p["wrong_result"] for p in out.problems)


def _oracle_case():
    d, _ = hull_from_raw(ACCEPTANCE_BOXES[3][1])
    b = d.bounds
    s = sample_surface(b, 61)
    gx, gy = np.linspace(b.lx, 1.0, 5), np.linspace(b.ly, 1.0, 5)
    zmin, zmax, _ = envelope_grid(d, gx, gy)
    xs, ys = (a.ravel() for a in np.meshgrid(gx, gy, indexing="ij"))
    return oracle_envelope_many(s, xs, ys), zmin.ravel(), zmax.ravel()


def test_gate_catches_corrupted_oracle_values():
    got, zmin, zmax = _oracle_case()
    assert checks.check_oracle(got, zmin, zmax)[0] is None
    k = int(np.argmax(np.where(np.isnan(got), -1.0, zmax - zmin)))
    above = got.copy()
    above[k] = zmax[k] + 1e-6
    assert "above" in checks.check_oracle(above, zmin, zmax)[0]
    low = got.copy()
    low[k] -= 0.01
    assert "gap" in checks.check_oracle(low, zmin, zmax)[0]
    hole = got.copy()
    hole[k] = np.nan
    assert "infeasible" in checks.check_oracle(hole, zmin, zmax)[0]


def test_oracle_workload_flags_a_corrupted_value(monkeypatch):
    def high(s, xs, ys):
        return oracle_envelope_many(s, xs, ys) + 1e-6
    monkeypatch.setattr(wl_oracle, "oracle_envelope_many", high)
    out = wl_oracle.run(3, 0.0, max_ops=1)
    assert out.incorrect == 1


def test_volume_and_cli_gates():
    assert checks.check_mc_workers((0.1, 0.01), (0.1, 0.01)) is None
    assert checks.check_mc_workers((0.1, 0.01), (0.1 + 1e-17, 0.01))
    assert checks.check_vol_mc(0.5, 0.003, 0.5, 0.0) is None
    assert checks.check_vol_mc(0.52, 0.003, 0.5, 0.0)
    assert checks.check_vol_numeric(0.1 + 1e-5, 0.1)
    assert checks.check_cli(0, b"x\n", "x\n") is None
    assert checks.check_cli(0, b"x\n", "y\n")
    assert checks.check_cli(1, b"x\n", "x\n")


def test_run_child_returns_output_and_kills_a_hung_child(monkeypatch):
    import reference
    code, out = reference.run_child(
        [sys.executable, "-c", "import sys; print('hi'); sys.exit(3)"], {})
    assert (code, out) == (3, b"hi\n")
    monkeypatch.setattr(reference, "CHILD_TIMEOUT_S", 0.2)
    with pytest.raises(subprocess.TimeoutExpired):
        reference.run_child(
            [sys.executable, "-c", "import time; time.sleep(30)"], {})


def test_quantile_follows_the_exclusive_rule():
    import statistics
    v = [float(x) for x in np.random.default_rng(0).random(37)]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    assert quantile(v, 0.25) == pytest.approx(q1)
    assert quantile(v, 0.5) == pytest.approx(q2)
    assert quantile(v, 0.75) == pytest.approx(q3)
    assert quantile(v + [np.inf] * 4, 0.95) > 1e300
    assert mean_beyond(v, 0.9) == pytest.approx(np.mean(sorted(v)[-3:]))
    assert mean_beyond(v + [np.inf], 0.9) > 1e300


def test_rates_are_steady_when_the_machine_slows_down():
    from common import Outcome

    def run(slowdown):
        out = Outcome()
        for k in range(31):
            if k % 10 == 0:
                out.reference(k, 2e-3 * slowdown)
            if k < 30:
                out.ok(1e-3 * slowdown * (1 + k % 3), k)
        return out.rates(10, 0.9, block_quantiles=False)

    fast, slow = run(1.0), run(1.5)
    assert slow[0][0] == pytest.approx(fast[0][0] / 1.5)
    assert slow[1] == pytest.approx(fast[1])
    assert fast[1][1] == pytest.approx(1.0)  # p50 of 1, 2, 3 ms over 2 ms
    assert fast[2] == 3


def test_tail_can_take_an_upper_quantile_of_the_references():
    from common import Outcome
    out = Outcome()
    for k, ref in enumerate((1e-3, 1e-3, 1e-3, 1e-3, 2e-3, 2e-3)):
        out.reference(2 * k, ref)
    for k in range(10):
        out.ok(1e-3 * (k + 1), k)
    _, (_, p50, tail), _ = out.rates(10, 0.9, False, tail_ref_q=0.75)
    _, (_, p50_mean, tail_mean), _ = out.rates(10, 0.9, False)
    assert p50 == p50_mean  # the median stays in units of the mean
    assert tail == pytest.approx(tail_mean * (4.0 / 3.0) / 1.75)


def test_compare_verdicts():
    par = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(par, [v * 0.8 for v in par], "lower", 0.1)[0] \
        == "better"
    assert compare.verdict(par, [v * 1.2 for v in par], "lower", 0.1)[0] \
        == "worse"
    assert compare.verdict(par, list(par), "lower", 0.1)[0] == "same"
    noisy = [50.0, 150, 80, 120, 60, 140, 100, 90, 110, 70]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "node", "--seed",
                                             "1", "--seconds", "1", "--trace",
                                             "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
