"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``. The
parent process generates the inputs (set-up, repeated and timed), starts a
child process that runs the timed phase, checks the outputs, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` the child wraps the program's layer functions with span
recorders and the metrics are per-layer self times and counters; the spans
are written to ``.bench_out/``. A JSON ``{"detail": ...}`` line before the
result carries input properties, output digests, percentiles and any check
failures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed
from spans import TARGETS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = Path(".bench_work")
TRACE_OUT = Path(".bench_out")
# Set-up runs at least SETUP_MIN times, more while it is short; setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 2.0
RUN_LIMIT_S = 170.0

# Latency sample and tail percentile per workload. ingest and replay time
# each operation (one file, one step). analyze and batch time each pass
# (every dataset analysed, both exports written): a pass is the job a user
# waits for, while its CLI calls differ in size by up to 40 times. ingest's
# p95 falls among the multi-scene files, a real tail. Replay steps all do
# about the same work, so their p95 mostly measured machine noise; p90 is
# steadier. analyze and batch run 10 to 40 passes per run, too few for a
# p95 with ten samples beyond it.
LATENCY = {"ingest": ("op", 95.0), "analyze": ("pass", 90.0), "batch": ("pass", 90.0), "replay": ("op", 90.0)}

SELF_SPANS = tuple(dict.fromkeys(name for name, *_ in TARGETS))
CALL_SPANS = (
    "ingest.cache_write", "ingest.load", "kinematics.complete_track", "vecmap.closest_lane",
    "vecmap.lanes_within", "vecmap.in_drivable", "batching.get_element", "simulation.step",
)
COUNTERS = {
    "ingest.parse.rows": "rows", "ingest.encode.bytes": "B", "ingest.decode.bytes": "B",
    "core.validate.rows": "rows", "kinematics.resample.rows": "rows", "batching.build_index.elements": "count",
    "batching.export.bytes": "B", "analysis.samples": "count", "analysis.rate_den": "count",
}


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    if not (SRC / "trajkit" / "__init__.py").is_file():
        sys.exit(f"bench: no trajkit package under {SRC}; run from a full checkout of the repository")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]


# ---------------------------------------------------------------------------
# Child: the timed phase
# ---------------------------------------------------------------------------

def _peak_rss_kb() -> float:
    """Peak resident memory of this process image, in KiB.

    Linux carries a parent's peak into ``ru_maxrss`` of a child it forks and
    execs, so there ru_maxrss would report the set-up's memory; VmHWM counts
    this image alone.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def child_main(args) -> None:
    from workloads import WORKLOADS, Recorder

    workdir = Path(args.child)
    workload = WORKLOADS[args.workload]
    out = workdir / "out"
    out.mkdir()
    state = workload.prepare(workdir / "inputs")
    rec = Recorder()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    while rec.timed_s < args.seconds:
        workload.run_pass(state, len(rec.pass_ends), out, rec)
        rec.end_pass()
    if tracer is not None:
        tracer.uninstall()
    result = {
        "ops": rec.ops, "timed_s": rec.timed_s, "units": rec.units, "passes": len(rec.pass_ends),
        "segments": rec.segments, "probes": rec.probes, "pass_ends": rec.pass_ends,
        "counters": rec.counters, "maxrss_kb": _peak_rss_kb(),
    }
    if tracer is not None:
        hits, loads = tracer.memo_hits()
        result["trace"] = {
            "summary": tracer.summary(), "counters": dict(tracer.counters), "missing": tracer.missing,
            "top_level_s": tracer.top_level_seconds(), "memo_hits": hits, "loads": loads,
        }
        TRACE_OUT.mkdir(exist_ok=True)
        spans = {"workload": args.workload, "seed": args.seed, "timed_s": rec.timed_s,
                 "spans": tracer.spans()}
        (TRACE_OUT / f"trace-{args.workload}-s{args.seed}.json").write_text(json.dumps(spans))
    (workdir / "result.json").write_text(json.dumps(result))


# ---------------------------------------------------------------------------
# Parent: set-up, child, checks, report
# ---------------------------------------------------------------------------

def normalized(result: dict) -> dict:
    """Speed-normalised view of the timed phase (see speed.py), plus the raw figures."""
    raw = np.asarray(result["segments"])
    factors = speed.segment_factors(len(raw), result["probes"])
    norm = raw / factors
    rates, raw_rates, pass_ms, raw_pass_ms, lo, units_before = [], [], [], [], 0, 0
    for hi, units in result["pass_ends"]:
        rates.append((units - units_before) / norm[lo:hi].sum())
        raw_rates.append((units - units_before) / raw[lo:hi].sum())
        pass_ms.append(norm[lo:hi].sum() * 1e3)
        raw_pass_ms.append(raw[lo:hi].sum() * 1e3)
        lo, units_before = hi, units
    op_seg = [op["seg"] for op in result["ops"]]
    return {"pass_rates": rates, "raw_pass_rates": raw_rates, "op_ms": norm[op_seg] * 1e3, "pass_ms": pass_ms,
            "raw_op_ms": raw[op_seg] * 1e3, "raw_pass_ms": raw_pass_ms, "factor": float(np.median(factors))}


def end_to_end(view: dict, result: dict, workload: str, setup_s: float) -> dict:
    sample, tail = LATENCY[workload]
    latency = view["op_ms"] if sample == "op" else view["pass_ms"]
    return {
        "work_per_s": {"value": statistics.median(view["pass_rates"]), "unit": "1/s"},
        "op_p50_ms": {"value": float(np.percentile(latency, 50.0)), "unit": "ms"},
        "op_tail_ms": {"value": float(np.percentile(latency, tail)), "unit": "ms"},
        "peak_rss_mb": {"value": result["maxrss_kb"] / 1024.0, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def per_layer(view: dict, result: dict) -> dict:
    """Per-pass self times, call counts and counters of the traced run.

    Every pass does the same work, so per-pass numbers compare across
    commits whatever the number of passes a run got through. Seconds are
    divided by the run's median speed factor, like the end-to-end times.
    """
    trace, passes = result["trace"], result["passes"]
    summary, counters = trace["summary"], {**trace["counters"], **result["counters"]}
    per_pass_s = 1.0 / (passes * view["factor"])
    metrics = {}
    for name in SELF_SPANS:
        metrics[f"{name}.self_s"] = {"value": summary.get(name, {}).get("self_s", 0.0) * per_pass_s, "unit": "s/pass"}
    for name in CALL_SPANS:
        metrics[f"{name}.calls"] = {"value": summary.get(name, {}).get("calls", 0) / passes, "unit": "count/pass"}
    for name, unit in COUNTERS.items():
        metrics[name] = {"value": counters.get(name, 0) / passes, "unit": f"{unit}/pass"}
    loads, rows = trace["loads"], counters.get("batching.build_index.candidate_rows", 0)
    metrics["ingest.load.memo_hit_ratio"] = {"value": trace["memo_hits"] / loads if loads else 0.0, "unit": "ratio"}
    metrics["batching.build_index.accept_ratio"] = {
        "value": counters.get("batching.build_index.anchors", 0) / rows if rows else 0.0, "unit": "ratio"}
    metrics["trace.passes"] = {"value": passes, "unit": "count"}
    metrics["trace.work_per_s"] = {"value": statistics.median(view["pass_rates"]), "unit": "1/s"}
    metrics["trace.top_level_coverage"] = {"value": trace["top_level_s"] / result["timed_s"], "unit": "ratio"}
    return metrics


def _run_child(args, workdir: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(workdir), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=max(1.0, deadline - time.monotonic()))
    return json.loads((workdir / "result.json").read_text())


def parent_main(args) -> int:
    from workloads import WORKLOADS

    start = time.monotonic()
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = (WORK_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}").resolve()
    try:
        setup_raw, probes = [], [(0, speed.probe())]
        while len(setup_raw) < SETUP_MIN or (len(setup_raw) < SETUP_MAX and sum(setup_raw) < SETUP_BUDGET_S):
            shutil.rmtree(workdir, ignore_errors=True)
            t0 = time.perf_counter()
            props = workload.setup(workdir / "inputs", np.random.default_rng(args.seed))
            setup_raw.append(time.perf_counter() - t0)
            probes.append((len(setup_raw), speed.probe()))
        result = _run_child(args, workdir, start + RUN_LIMIT_S)
        try:
            failed, notes = workload.check(workdir / "inputs", workdir / "out", result)
        except Exception as exc:  # malformed output: every operation counts as failed
            failed, notes = {op["id"] for op in result["ops"]}, [f"check raised {exc!r}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_factors = speed.segment_factors(len(setup_raw), probes)
    setup_s = statistics.median(t / f for t, f in zip(setup_raw, setup_factors))
    view = normalized(result)
    attempted = len(result["ops"])
    metrics = per_layer(view, result) if args.trace else end_to_end(view, result, args.workload, setup_s)
    digests = sorted({op["digest"] for op in result["ops"] if op.get("digest")})
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "unit": workload.unit,
        "properties": props, "passes": result["passes"], "timed_s": result["timed_s"], "units": result["units"],
        "op_count": attempted, "latency_sample": LATENCY[args.workload][0], "tail_pct": LATENCY[args.workload][1],
        "error_rate": len(failed) / attempted,
        "raw_work_per_s": statistics.median(view["raw_pass_rates"]),
        "raw_op_p50_ms": statistics.median(view[f"raw_{LATENCY[args.workload][0]}_ms"]),
        "speed_factor": view["factor"],
        "setup_samples_s": setup_raw, "output_digest": digests[0] if len(digests) == 1 else digests,
        "notes": notes[:20], "trace_missing": result.get("trace", {}).get("missing", []),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    if args.child:
        child_main(args)
        return 0
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
