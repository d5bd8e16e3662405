"""Benchmark of bilinear-hull: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload {node,bulk,oracle,cli} --seed N \
        --seconds S --trace {0,1} [--record FILE]

Run from a checkout; the library is imported from its `src/`.  The last
line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones of the named
workload, measured with tracing off, their times in units of a reference
kernel timed alongside (reference.py; the absolute times are printed and
recorded too), and setup_s in seconds scaled to a fixed speed of numpy's
import (setup_seconds); with --trace 1 they are the per-layer ones, from
spans the benchmark records around each library call.  A traced run covers
every workload (the named one gets the largest share of the
time), so each per-layer metric comes from its own workload.  The full
record of a run, with the workload mix, the failures and the machine, goes
to .bench_results/ (or --record).  The exit code is 1 when a returned
result fails its correctness check.

The result's `failed` leaves out the node boxes that raise the recorded
tightening defect (wl_node.KNOWN_DEFECT): their number follows how many
nodes a timed run gets through, so it cannot match between runs.  They stay
in the stream and are not re-drawn; they count in ok_frac (failed_frac in
reports), in the per-layer geometry.tighten_with_scaling.failed, and are
printed and recorded with their stream indices.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("node", "bulk", "oracle", "cli")
SETUP_REPS = 7
# setup_s is given in seconds at the speed where a fresh interpreter imports
# numpy in this long (the figure measured for numpy's share of
# `import bilinear_hull` when the benchmark was defined)
NUMPY_IMPORT_S = 0.09
# shares of a traced run's time given to the named workload and to each
# other one; the remainder absorbs the whole cycles the cyclic workloads
# finish (one cli cycle alone takes about seven seconds)
TRACE_MAIN_SHARE = 0.3
TRACE_OTHER_SHARE = 0.1

# The names the end-to-end metrics carry for each workload in reports.
REPORT_NAMES = {
    "node": ("node_per_s", "node_p50_us", "node_p99_us", 1e3),
    "bulk": ("points_per_s", "job_p50_ms", "job_p90_ms", 1.0),
    "oracle": ("lp_query_per_s", "oracle_box_p50_ms", "oracle_box_p90_ms", 1.0),
    "cli": ("cli_calls_per_s", "cli_call_p50_ms", "cli_call_beyond_p85_ms",
            1.0),
}


def _fail_setup(msg: str) -> None:
    print("bench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "cpu_model": platform.processor()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    info["numpy"] = numpy.__version__
    return info


def _child_seconds(code: str, env: dict) -> float:
    r = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       capture_output=True, text=True, timeout=60)
    return float(r.stdout.strip().splitlines()[-1])


def measure_setup(warmup: str, env: dict) -> tuple[list[float], list[float]]:
    """Seconds of import plus first-call warm-up in fresh interpreters, and
    of a bare `import numpy` in fresh interpreters before, between and after
    them (SETUP_REPS + 1 of those).

    One unmeasured start first fills the bytecode cache of a fresh checkout.
    """
    timer = ("import time\nt = time.perf_counter()\n%s\n"
             "print(time.perf_counter() - t)\n")
    code = timer % ("import bilinear_hull as bh\n" + warmup)
    ref = timer % "import numpy"
    _child_seconds(code, env)
    setups, refs = [], [_child_seconds(ref, env)]
    for _ in range(SETUP_REPS):
        setups.append(_child_seconds(code, env))
        refs.append(_child_seconds(ref, env))
    return setups, refs


def setup_seconds(setups: list[float], refs: list[float]) -> float:
    """Median set-up time, each run scaled by the numpy imports around it
    to a numpy import of NUMPY_IMPORT_S: the host's speed drifts by up to
    1.8x, and a fresh interpreter's imports drift with it."""
    from common import median
    return NUMPY_IMPORT_S * median(
        [t / ((refs[k] + refs[k + 1]) / 2.0) for k, t in enumerate(setups)])


def end_to_end(name: str, mod, outcome, setup: tuple[list, list]) -> dict:
    """The gated metrics, the same times in absolute units, sample counts."""
    from common import MIN_BEYOND_TAIL, median, samples_beyond
    lat = outcome.latencies
    (a_thr, a_p50, a_tail), (thr, p50, tail), blocks = outcome.rates(
        mod.BLOCK, mod.TAIL_Q, mod.BLOCK_QUANTILES, mod.TAIL_MEAN,
        mod.TAIL_REF_Q)
    if name == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup_seconds(*setup),
        "ok_frac": 1.0 - outcome.failed / max(1, outcome.attempted),
        "peak_rss_mb": rss_kb / 1024.0,
        "throughput_per_ref": thr,
        "latency_p50_ref": p50,
        "latency_tail_ref": tail,
    }
    absolute = {"throughput_per_s": a_thr, "latency_p50_ms": a_p50 * 1e3,
                "latency_tail_ms": a_tail * 1e3,
                "setup_raw_s": median(setup[0]),
                "numpy_import_s": median(setup[1]),
                "reference_ms": median(outcome.refs) * 1e3}
    per_tail = mod.BLOCK if mod.BLOCK_QUANTILES and blocks > 1 else len(lat)
    samples = {"setup_s": len(setup[0]), "operations": len(lat),
               "blocks": blocks, "references": len(outcome.refs),
               "ops_per_quantile": per_tail,
               "tail_beyond": samples_beyond(per_tail, mod.TAIL_Q),
               "tail_percentile": mod.TAIL_Q * 100,
               "tail_mean": mod.TAIL_MEAN}
    if samples["tail_beyond"] < MIN_BEYOND_TAIL:
        _fail_setup("only %d samples beyond the p%g of %s"
                    % (samples["tail_beyond"], mod.TAIL_Q * 100, name))
    return {"values": values, "absolute": absolute, "samples": samples}


def run_traced(main: str, seed: int, seconds: float, mods: dict, spans_path):
    """Every workload traced, the named one for the largest share."""
    from spans import Tracer
    tracer = Tracer()
    layers, outcomes = {}, {}
    others = [w for w in WORKLOADS if w != main]
    for w in [main] + others:
        secs = seconds * (TRACE_MAIN_SHARE if w == main else TRACE_OTHER_SHARE)
        kw = {"src": str(SRC)} if w == "cli" else {}
        outcomes[w] = mods[w].run(seed, secs, tracer=tracer, **kw)
        layers.update(outcomes[w].layers)
    node = outcomes["node"]
    layers["trace.overhead_frac"] = sum(node.traced) / sum(node.baseline) - 1.0
    tracer.write(spans_path)
    return outcomes, layers, tracer.self_times()


def summary_lines(name: str, e2e: dict, outcome) -> list[str]:
    v, a, s = e2e["values"], e2e["absolute"], e2e["samples"]
    thr, p50, tail, scale = REPORT_NAMES[name]
    lat_unit = "us" if scale == 1e3 else "ms"
    n, per = s["operations"], s["ops_per_quantile"]
    blocks = ("median of %d blocks" % s["blocks"]) if s["blocks"] > 1 else "run"
    rows = [
        ("setup_s", v["setup_s"], "s", "%.4g s raw" % a["setup_raw_s"],
         "n=%d fresh interpreters, scaled to numpy import %g s (%.4g s here)"
         % (s["setup_s"], NUMPY_IMPORT_S, a["numpy_import_s"])),
        ("failed_frac", 1.0 - v["ok_frac"], "ratio", "",
         "%d of %d attempted" % (outcome.failed, outcome.attempted)),
        ("peak_rss_mb", v["peak_rss_mb"], "MB", "", "process peak"),
        (thr, a["throughput_per_s"], "1/s",
         "%.6g/ref" % v["throughput_per_ref"], "n=%d, %s" % (n, blocks)),
        (p50, a["latency_p50_ms"] * scale, lat_unit,
         "%.6g ref" % v["latency_p50_ref"], "n=%d per quantile" % per),
        (tail, a["latency_tail_ms"] * scale, lat_unit,
         "%.6g ref" % v["latency_tail_ref"],
         "n=%d per quantile, %d beyond p%g%s" % (
             per, s["tail_beyond"], s["tail_percentile"],
             ", their mean" if s["tail_mean"] else "")),
        ("reference_ms", a["reference_ms"], "ms", "",
         "median of %d reference timings" % s["references"]),
    ]
    return ["%-8s %-18s %13.6g %-5s %-16s %s" % (name, *row) for row in rows]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None,
                    help="where to write the full run record (JSON)")
    args = ap.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        _fail_setup("cannot read BENCHMARK.json: %s" % e)
    if not (SRC / "bilinear_hull" / "__init__.py").is_file():
        _fail_setup("no library at %s; run from a checkout of the repository"
                    % SRC)
    if args.seconds <= 0:
        _fail_setup("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    import wl_bulk
    import wl_cli
    import wl_node
    import wl_oracle
    mods = {"node": wl_node, "bulk": wl_bulk, "oracle": wl_oracle,
            "cli": wl_cli}
    mod = mods[args.workload]
    results = ROOT / ".bench_results"
    record_path = Path(args.record) if args.record else \
        results / "runs" / ("%s-seed%d-trace%d.json"
                            % (args.workload, args.seed, args.trace))
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), "started": time.time()}

    if args.trace:
        spans_path = results / ("spans-%s-seed%d.npz"
                                % (args.workload, args.seed))
        outcomes, metrics, self_times = run_traced(
            args.workload, args.seed, args.seconds, mods, spans_path)
        record["self_times"] = self_times
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        lines = ["%-45s %14.6g" % (m, v) for m, v in sorted(metrics.items())]
    else:
        kw = {"src": str(SRC)} if args.workload == "cli" else {}
        setup = measure_setup(mod.WARMUP, wl_cli.child_env(str(SRC)))
        outcome = mod.run(args.seed, args.seconds, **kw)
        outcomes = {args.workload: outcome}
        e2e = end_to_end(args.workload, mod, outcome, setup)
        metrics = e2e["values"]
        record["absolute"] = e2e["absolute"]
        record["samples"] = e2e["samples"]
        record["setup_runs_s"], record["numpy_import_runs_s"] = setup
        lines = summary_lines(args.workload, e2e, outcome)

    attempted = sum(o.attempted for o in outcomes.values())
    failed = sum(o.failed - o.known_defect for o in outcomes.values())
    correct = all(o.incorrect == 0 for o in outcomes.values())
    record.update({
        "correct": correct, "metrics": metrics,
        "outcomes": {w: {"attempted": o.attempted, "failed": o.failed,
                         "incorrect": o.incorrect,
                         "known_defect": o.known_defect,
                         "defect_index": o.defect_index,
                         "failed_index": o.failed_index,
                         "problems": o.problems, "mix": o.mix,
                         "checksum": o.checksum}
                     for w, o in outcomes.items()},
    })
    record_path.write_text(json.dumps(record, indent=1, default=str))
    for line in lines:
        print(line)
    print("machine %s" % json.dumps(record["machine"]))
    for w, o in outcomes.items():
        print("%-8s mix %s" % (w, json.dumps(o.mix)))
        if o.known_defect:
            print("%-8s known tightening defect: %d of %d operations, at %s"
                  % (w, o.known_defect, o.attempted,
                     json.dumps(o.defect_index)))
        for p in o.problems[:5]:
            print("%-8s problem at op %d (%s): %s"
                  % (w, p["index"], p["kind"], p["reason"]))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        _fail_setup("metrics not measured: %s" % ", ".join(missing))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
