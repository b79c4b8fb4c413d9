"""Run every workload and write one ``BENCH_<label>.json``.

    python3 bench/record.py --label seed [--seeds 1,2,3]

For each workload: one untraced run per seed (end-to-end metrics, median
over seeds) and one traced run on the first seed (per-layer metrics). The
file holds machine information, the input properties, the end-to-end
medians, the per-layer self times and counters, the tracing overhead
(traced throughput against the untraced median) and the layer shares that
confirm each workload's design. Compare two files with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Layer groups whose share of traced time confirms what each workload stresses.
DESIGN_GROUPS = {
    "ingest": {"parse_validate_write": ["ingest.parse", "kinematics.complete_track", "core.validate",
                                        "ingest.encode", "ingest.cache_write"]},
    "analyze": {"geometry": ["analysis.collision", "analysis.offroad", "vecmap.in_drivable"],
                "rest_of_catalogue": ["analysis.population", "analysis.simultaneous", "analysis.density",
                                      "analysis.ego_distances", "analysis.dynamics", "analysis.stationary",
                                      "analysis.heading_deltas", "analysis.path_efficiency",
                                      "analysis.harsh_accel"]},
    "batch": {"get_element": ["batching.get_element"]},
    "replay": {"lane_queries_and_step": ["vecmap.closest_lane", "vecmap.lanes_within", "simulation.step"],
               "score": ["simulation.score", "analysis.collision", "vecmap.in_drivable"]},
}


def _machine() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"platform": platform.platform(), "machine": platform.machine(), "cpu_model": model,
            "cpus": os.cpu_count()}


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip().splitlines()
    return json.loads(out[-2])["detail"], json.loads(out[-1])


def main(argv=None) -> int:
    import numpy

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default="1,2,3")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]

    bench = {"label": args.label, "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "machine": _machine(), "python": sys.version.split()[0], "numpy": numpy.__version__,
             "run_seconds": seconds, "seeds": seeds, "workload": {}, "e2e": {}, "layers": {}, "counters": {},
             "tracing_overhead": {}, "design_shares": {}}
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = [_run(name, seed, seconds, 0) for seed in seeds]
        detail, _ = runs[0]
        e2e = {}
        for metric in spec["end_to_end"]:
            values = [r[1]["metrics"][metric["name"]]["value"] for r in runs]
            e2e[metric["name"]] = {"median": statistics.median(values), "values": values, "unit": metric["unit"]}
        attempted = sum(r[1]["attempted"] for r in runs)
        e2e["error_rate"] = {"median": sum(r[1]["failed"] for r in runs) / attempted, "values": [], "unit": "ratio"}
        bench["e2e"][name] = e2e
        bench["workload"][name] = {"why": entry["why"], "unit": detail["unit"], "properties": detail["properties"],
                                   "output_digests": [r[0]["output_digest"] for r in runs],
                                   # Wall-clock figures as measured, and the probe factor they were divided by.
                                   "raw": {key: {"median": statistics.median(r[0][key] for r in runs),
                                                 "values": [r[0][key] for r in runs]}
                                           for key in ("raw_work_per_s", "raw_op_p50_ms", "speed_factor")},
                                   "correct": all(r[1]["correct"] for r in runs)}

        _, traced = _run(name, seeds[0], seconds, 1)
        layers, counters = {}, {}
        for metric, value in traced["metrics"].items():
            (layers if metric.endswith((".self_s", ".calls", "_ratio")) else counters)[metric] = value
        bench["layers"][name] = layers
        bench["counters"][name] = counters
        traced_rate = traced["metrics"]["trace.work_per_s"]["value"]
        bench["tracing_overhead"][name] = 1.0 - traced_rate / e2e["work_per_s"]["median"]
        total = sum(v["value"] for k, v in layers.items() if k.endswith(".self_s"))
        bench["design_shares"][name] = {
            group: sum(layers.get(f"{span}.self_s", {"value": 0.0})["value"] for span in spans) / total
            for group, spans in DESIGN_GROUPS[name].items()
        }
        print(f"{name}: work_per_s {e2e['work_per_s']['median']:.1f}, shares {bench['design_shares'][name]}",
              file=sys.stderr)

    out = BENCH_DIR / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
