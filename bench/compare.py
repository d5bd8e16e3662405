"""Compare two result sets of the benchmark, metric by metric.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds run records (`<workload>-seed<n>.json`, as report.py
writes them).  Runs pair up by workload and seed.  For every end-to-end
metric of BENCHMARK.json and every workload both sides ran, the verdict is:

  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the distance
              between the parent's quartiles;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the run-to-run spread (quartile distance over median) of
              either side is wider than the bound, unless every change run
              reads better, or every one worse, than every parent run;
  same        none of the above: no worse than the bound allows.

Exits 1 when any pair is worse.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from report import load_spec, spread  # noqa: E402


def load(directory: Path) -> dict:
    """{(workload, seed): {metric: value}} of the untraced runs."""
    out = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0 and "metrics" in rec:
            out[(rec["workload"], rec["seed"])] = rec["metrics"]
    return out


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, dict]:
    sign = 1.0 if better == "higher" else -1.0
    m_p, q1_p, q3_p, sp_p = spread(parent)
    m_c, _, _, sp_c = spread(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    worse_by = -sign * (m_c - m_p) / abs(m_p) if m_p else 0.0
    info = {"parent": m_p, "change": m_c, "worse_by": worse_by,
            "wins": wins, "pairs": len(parent), "spread": max(sp_p, sp_c)}
    # oriented so that larger reads better
    p_up = [sign * v for v in parent]
    c_up = [sign * v for v in change]
    all_better = min(c_up) > max(p_up)
    all_worse = max(c_up) < min(p_up)
    if (wins >= 0.9 * len(parent) and abs(m_c - m_p) > q3_p - q1_p
            and sign * (m_c - m_p) > 0):
        return "better", info
    if max(sp_p, sp_c) > bound:
        if all_better:
            return "better", info
        if all_worse and worse_by > bound:
            return "worse", info
        return "unresolved", info
    if worse_by > bound:
        return "worse", info
    return "same", info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    spec = load_spec()
    a, b = load(Path(args.parent)), load(Path(args.change))
    keys = sorted(set(a) & set(b))
    if not keys:
        print("no (workload, seed) pairs in common", file=sys.stderr)
        return 2
    any_worse = False
    print("%-7s %-17s %12s %12s %9s %6s %7s %6s  %s" %
          ("load", "metric", "parent", "change", "worse_by", "wins",
           "spread", "bound", "verdict"))
    for w in sorted({k[0] for k in keys}):
        seeds = [k for k in keys if k[0] == w]
        for m in spec["end_to_end"]:
            name = m["name"]
            par = [a[k][name] for k in seeds]
            chg = [b[k][name] for k in seeds]
            v, info = verdict(par, chg, m["better"], m["bound"])
            any_worse |= v == "worse"
            print("%-7s %-17s %12.6g %12.6g %+9.4f %3d/%-2d %7.4f %6.3f  %s" %
                  (w, name, info["parent"], info["change"], info["worse_by"],
                   info["wins"], info["pairs"], info["spread"], m["bound"], v))
    print("pairs per workload: %s" % ", ".join(
        "%s %d" % (w, sum(k[0] == w for k in keys))
        for w in sorted({k[0] for k in keys})))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
