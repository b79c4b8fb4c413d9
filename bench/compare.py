"""Compare two BENCH_*.json files, workload by workload.

    python3 bench/compare.py bench/BENCH_before.json bench/BENCH_after.json

For each end-to-end metric it prints both medians, the change, and whether
the change is worse than the metric's bound in BENCHMARK.json. Beside the
speed-normalised throughput and median latency it prints the change of their
raw wall-clock figures and of the speed factor (see speed.py), so a shift of
the probe shows apart from a change of the program. The largest changes of
per-layer self times follow. Exits 1 when any end-to-end metric
regressed beyond its bound. A verdict from one seed set per side is only a
screen; a claimed gain needs the paired runs described in README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYER_ROWS = 8   # per-layer self times shown per workload
# Raw wall-clock figure recorded beside each speed-normalised metric.
RAW = {"work_per_s": "raw_work_per_s", "op_p50_ms": "raw_op_p50_ms"}


def _worse(before: float, after: float, better: str) -> float:
    """Relative worsening (positive = worse) of after against before."""
    change = (after - before) / before
    return change if better == "lower" else -change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("before")
    p.add_argument("after")
    args = p.parse_args(argv)
    a, b = (json.loads(Path(x).read_text()) for x in (args.before, args.after))
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    regressed = False
    for name in sorted(set(a["e2e"]) & set(b["e2e"])):
        print(f"== {name}")
        for metric, m in spec.items():
            if metric not in a["e2e"][name] or metric not in b["e2e"][name]:
                continue
            before, after = a["e2e"][name][metric]["median"], b["e2e"][name][metric]["median"]
            worse = _worse(before, after, m["better"])
            verdict = "REGRESSION" if worse > m["bound"] else ""
            regressed |= bool(verdict)
            raw = ""
            if metric in RAW:
                raw_a, raw_b = (x["workload"][name].get("raw", {}).get(RAW[metric]) for x in (a, b))
                if raw_a and raw_b:
                    raw = f"  raw {-_worse(raw_a['median'], raw_b['median'], m['better']):+.1%} better"
            print(f"  {metric:12s} {before:14.4f} -> {after:14.4f} {m['unit']:5s} {-worse:+8.1%} better"
                  f"  (bound {m['bound']:.0%}) {verdict}{raw}")
        factors = [x["workload"][name].get("raw", {}).get("speed_factor") for x in (a, b)]
        if all(factors):
            print(f"  {'speed_factor':12s} {factors[0]['median']:14.4f} -> {factors[1]['median']:14.4f}"
                  "        (probe seconds / speed.REF_S; higher = slower machine)")
        la, lb = a["layers"].get(name, {}), b["layers"].get(name, {})
        rows = []
        for metric in set(la) & set(lb):
            if metric.endswith(".self_s") and (la[metric]["value"] or lb[metric]["value"]):
                rows.append((lb[metric]["value"] - la[metric]["value"], metric, la[metric]["value"], lb[metric]["value"]))
        for delta, metric, before, after in sorted(rows, key=lambda r: -abs(r[0]))[:LAYER_ROWS]:
            print(f"  {metric:40s} {before:10.4f} -> {after:10.4f} s/pass ({delta:+.4f})")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
