"""Run the benchmark over several seeds and print every end-to-end metric.

    python3 bench/report.py [--workloads node,bulk,oracle,cli] [--seeds 10]
        [--first-seed 1] [--seconds 30] [--out DIR] [--checkout DIR ...]

Each run is a fresh `bench/run.py` process.  For every workload the table
gives each end-to-end metric under its report name, with unit, median,
quartiles, their spread as a share of the median, the metric's bound from
BENCHMARK.json, the median in absolute units (1/s, ms or us) for the
reference-normalized times, and the sample count behind one run's value.  With two or
more --checkout options the checkouts run alternately for each seed, the
first one leading on odd seeds, and each gets its own result set under
--out for compare.py.  Exits 1 when any run fails its correctness gate or
does not finish cleanly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import REPORT_NAMES  # noqa: E402

# (gated metric, report name or index into REPORT_NAMES, absolute twin)
ROWS = (("setup_s", "setup_s", "setup_raw_s"),
        ("ok_frac", "failed_frac", None),
        ("peak_rss_mb", "peak_rss_mb", None),
        ("throughput_per_ref", 0, "throughput_per_s"),
        ("latency_p50_ref", 1, "latency_p50_ms"),
        ("latency_tail_ref", 2, "latency_tail_ms"))


def load_spec(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / |median|), quartiles as
    statistics.quantiles(values, n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             record: Path) -> dict:
    cmd = [sys.executable, str(checkout / "bench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0", "--record", str(record)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"code": proc.returncode, "result": last, "wall_s": time.monotonic() - t0,
            "stderr": proc.stderr[-2000:]}


def table(results: dict, spec: dict) -> tuple[list[str], bool]:
    """Rows per workload; the flag says whether every spread is under a
    third of its bound.  Times are gated in reference units (setup_s in
    seconds scaled to a fixed numpy import time); `absolute` is the median
    in the report name's own unit (setup_s unscaled), for reading only."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    out = ["%-7s %-18s %-6s %12s %12s %12s %7s %6s %12s %s" %
           ("load", "metric", "unit", "median", "q1", "q3", "spread",
            "bound", "absolute", "samples")]
    for w, runs in results.items():
        ok = [r for r in runs if r["result"] is not None]
        if not ok:
            continue
        recs = [json.loads(Path(r["record"]).read_text()) for r in ok]
        samples = recs[0]["samples"]
        for key, label, twin in ROWS:
            if isinstance(label, int):
                label = REPORT_NAMES[w][label]
            vals = [r["result"]["metrics"][key]["value"] for r in ok]
            med, q1, q3, sp = spread(vals)
            if key == "ok_frac":  # shown as failed_frac = 1 - ok_frac
                med, q1, q3 = 1.0 - med, 1.0 - q3, 1.0 - q1
            absolute = ""
            if twin is not None:
                scale = 1e3 if label.endswith("_us") else 1.0
                absolute = "%.6g" % (statistics.median(
                    rec["absolute"][twin] for rec in recs) * scale)
            flag = ""
            if sp >= bounds[key] / 3.0:
                flag, steady = " WIDE", False
            n = samples["setup_s"] if key == "setup_s" else \
                samples["operations"] if twin else ""
            out.append("%-7s %-18s %-6s %12.6g %12.6g %12.6g %7.4f %6.3f %12s %s%s"
                       % (w, label, units[key], med, q1, q3, sp, bounds[key],
                          absolute, n, flag))
    return out, steady


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", default=str(ROOT / ".bench_results" / "report"))
    ap.add_argument("--checkout", action="append", default=None,
                    help="checkout to measure (repeat to alternate several)")
    args = ap.parse_args(argv)
    checkouts = [Path(c).resolve() for c in (args.checkout or [ROOT])]
    out = Path(args.out)
    bad = False
    for ci, co in enumerate(checkouts):
        label = "side%d" % ci if len(checkouts) > 1 else ""
        (out / label).mkdir(parents=True, exist_ok=True)
    results = {ci: {} for ci in range(len(checkouts))}
    for w in args.workloads.split(","):
        for k in range(args.seeds):
            seed = args.first_seed + k
            order = list(range(len(checkouts)))
            if k % 2:
                order.reverse()
            for ci in order:
                label = "side%d" % ci if len(checkouts) > 1 else ""
                rec = out / label / ("%s-seed%d.json" % (w, seed))
                r = run_once(checkouts[ci], w, seed, args.seconds, rec)
                r["record"] = str(rec)
                results[ci].setdefault(w, []).append(r)
                res = r["result"]
                if r["code"] != 0 or res is None or not res["correct"]:
                    bad = True
                    print("run %s seed %d on %s: exit %d, correct %s\n%s" %
                          (w, seed, checkouts[ci], r["code"],
                           res and res["correct"], r["stderr"]),
                          file=sys.stderr)
                else:
                    print("%s seed %d %s (%.1fs wall): %s" % (
                        w, seed, label or "done", r["wall_s"], " ".join(
                            "%s=%.6g" % (m, v["value"])
                            for m, v in res["metrics"].items())), flush=True)
    for ci, co in enumerate(checkouts):
        lines, steady = table(results[ci], spec)
        print("\n%s (%d seeds x %gs)" % (co, args.seeds, args.seconds))
        print("\n".join(lines))
        print("all spreads under a third of their bound" if steady else
              "some spreads are WIDE: at or above a third of their bound")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
