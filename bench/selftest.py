"""Tests of the benchmark itself, kept out of the repository's pytest suite.

    python3 -m pytest -q bench/selftest.py

They use shrunken copies of the workloads: generators are deterministic per
seed, every output check rejects a deliberately corrupted output, and the
traced run's top-level spans cover the timed phase.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from trajkit.ingest import cache_load, scene_to_bytes  # noqa: E402


class SmallIngest(workloads.Ingest):
    N_FILES = 3


class SmallAnalyze(workloads.Analyze):
    PED_SCENES = 2
    PED = dict(n_agents=10, n_steps=60, dt=0.4, gap_prob=0.1, min_len=10, max_len=30)


class SmallBatch(workloads.Batch):
    PED = dict(n_agents=5, n_steps=80, dt=0.1, gap_prob=0.1, min_len=45, max_len=70)
    VEH = dict(n_agents=4, n_steps=80, dt=0.1, gap_prob=0.1, min_len=45, max_len=70)


class SmallReplay(workloads.Replay):
    AGENTS = 4
    EPISODES = (workloads.Episode(0, 60, 3), workloads.Episode(2, 60, 6))


SMALL = {
    "ingest": SmallIngest("ingest", "input rows"),
    "analyze": SmallAnalyze("analyze", "cached rows"),
    "batch": SmallBatch("batch", "batch elements"),
    "replay": SmallReplay("replay", "controlled-agent steps"),
}


def run_small(name: str, tmp_path: Path, seed: int = 3, tracer: Tracer | None = None):
    """Set up, run one pass and return (workload, inputs, out, result) like run.py does."""
    workload = SMALL[name]
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    workload.setup(inputs, np.random.default_rng(seed))
    out.mkdir()
    state = workload.prepare(inputs)
    rec = workloads.Recorder()
    if tracer is not None:
        tracer.install()
    try:
        workload.run_pass(state, 0, out, rec)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"ops": rec.ops, "timed_s": rec.timed_s, "units": rec.units, "passes": 1, "counters": rec.counters}
    return workload, inputs, out, result


def assert_clean(workload, inputs, out, result):
    failed, notes = workload.check(inputs, out, result)
    assert not failed, notes


def assert_caught(workload, inputs, out, result):
    failed, notes = workload.check(inputs, out, result)
    assert failed and notes


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def _inputs_digest(name: str, root: Path, seed: int) -> str:
    shutil.rmtree(root, ignore_errors=True)
    SMALL[name].setup(root, np.random.default_rng(seed))
    return workloads.tree_digest(root)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_setup_is_deterministic_per_seed(name, tmp_path):
    first = _inputs_digest(name, tmp_path / "a", 5)
    assert _inputs_digest(name, tmp_path / "b", 5) == first
    assert _inputs_digest(name, tmp_path / "c", 6) != first


def test_generators_are_deterministic_per_seed():
    def sample(seed):
        rng = np.random.default_rng(seed)
        spec = gen.make_map(rng, 50)
        veh = gen.vehicle_scene(rng, "v", 5, 30, 0.1, 0.1, 10, 30)
        ped = gen.pedestrian_scene(rng, "p", 5, 30, 0.4, 0.1, 10, 30)
        on_map = gen.map_vehicle_scene(rng, "m", spec, [0, 1, 2], 20, 0.5, 0.1, (5, 10))
        lanes = b"".join(p.tobytes() for _, p in spec.lanes)
        rings = b"".join(e.tobytes() + b"".join(h.tobytes() for h in holes) for e, holes in spec.roads)
        return (lanes, rings, gen.canonical_csv([veh, on_map], with_heading=True), gen.frame_text(ped, 10))

    assert sample(1) == sample(1)
    assert all(x != y for x, y in zip(sample(1), sample(2)))


# ---------------------------------------------------------------------------
# Each output check catches a corrupted output
# ---------------------------------------------------------------------------

def test_ingest_check_catches_changed_position(tmp_path):
    workload, inputs, out, result = run_small("ingest", tmp_path)
    assert_clean(workload, inputs, out, result)
    path = next((out / "cache-0" / "vehsingle").glob("*.tksc"))
    scene = cache_load(path)
    row = int(np.nonzero(scene.columns.observed)[0][0])
    scene.columns.x[row] = np.nextafter(scene.columns.x[row], np.inf)
    path.write_bytes(scene_to_bytes(scene))
    assert_caught(workload, inputs, out, result)


def test_ingest_check_catches_invalid_scene(tmp_path):
    workload, inputs, out, result = run_small("ingest", tmp_path)
    path = next((out / "cache-0" / "pedtxt").glob("*.tksc"))
    scene = cache_load(path)
    scene.columns.heading[0] = 4.0  # outside (-pi, pi]
    path.write_bytes(scene_to_bytes(scene))
    assert_caught(workload, inputs, out, result)


def test_ingest_check_catches_differing_pass(tmp_path):
    workload, inputs, out, result = run_small("ingest", tmp_path)
    result["ops"].append({**result["ops"][0], "id": len(result["ops"]), "pass": 1, "digest": "0" * 64})
    assert_caught(workload, inputs, out, result)


def _edit_rates(report: Path, edit) -> None:
    path = report / "rates.json"
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("edit", [
    lambda p: p["rates"]["offroad"]["veh0"]["vehicle"].__setitem__("num", p["rates"]["offroad"]["veh0"]["vehicle"]["num"] + 1),
    lambda p: p["rates"]["collision"]["veh0"]["vehicle"].__setitem__("den", 0),
    lambda p: p["population"]["veh0"].__setitem__("unique_agents", 0),
    lambda p: next(h for h in p["histograms"] if h["name"] == "speed").__setitem__("n_samples", -1),
], ids=["offroad", "collision", "population", "speed"])
def test_analyze_check_catches_edited_report(tmp_path, edit):
    workload, inputs, out, result = run_small("analyze", tmp_path)
    assert_clean(workload, inputs, out, result)
    _edit_rates(out / "p0-veh0", edit)
    assert_caught(workload, inputs, out, result)


def test_offroad_oracle_catches_wrong_flags(tmp_path):
    workload, inputs, out, result = run_small("analyze", tmp_path)
    vmap = workloads.map_deserialize((inputs / "map.tkmap").read_bytes())
    scenes = list(workloads.SceneCache(inputs / "cache").iter_scenes(["veh0"]))
    assert checks.drivable_flags_sample(vmap, scenes) == []
    original = vmap.point_in_drivable_area
    vmap.point_in_drivable_area = lambda p: not original(p)
    assert checks.drivable_flags_sample(vmap, scenes)


@pytest.mark.parametrize("corrupt", ["count", "missing_file"])
def test_batch_check_catches_corrupted_export(tmp_path, corrupt):
    workload, inputs, out, result = run_small("batch", tmp_path)
    assert_clean(workload, inputs, out, result)
    manifest_path = out / "p0-agent" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    if corrupt == "count":
        manifest["n_elements"] += 1
        manifest_path.write_text(json.dumps(manifest))
    else:
        (out / "p0-agent" / manifest["batches"][-1]["file"]).unlink()
    assert_caught(workload, inputs, out, result)


@pytest.mark.parametrize("corrupt", ["metrics", "rollout"])
def test_replay_check_catches_corrupted_episode(tmp_path, corrupt):
    workload, inputs, out, result = run_small("replay", tmp_path)
    assert_clean(workload, inputs, out, result)
    episode = out / "p0-e1"
    if corrupt == "metrics":
        metrics = json.loads((episode / "metrics.json").read_text())
        metrics["accel_distance"] = 1e-12
        (episode / "metrics.json").write_text(json.dumps(metrics))
    else:
        lines = (episode / "rollout.csv").read_text().splitlines()
        cells = lines[5].split(",")
        cells[4] = repr(float(cells[4]) + 1e-9)
        lines[5] = ",".join(cells)
        (episode / "rollout.csv").write_text("\n".join(lines) + "\n")
    assert_caught(workload, inputs, out, result)


@pytest.mark.parametrize("corrupt", ["lane", "distance", "within"])
def test_lane_query_check_catches_wrong_answer(tmp_path, corrupt):
    workload, inputs, out, result = run_small("replay", tmp_path)
    assert_clean(workload, inputs, out, result)
    op = next(op for op in result["ops"] if op.get("answers"))
    x, y, lane, dist, near = op["answers"][0]
    if corrupt == "lane":
        lane = "r49l9" if lane != "r49l9" else "r00l0"
    elif corrupt == "distance":
        dist = dist * (1 + 1e-6)
    else:
        near = near[1:] if near else ["r00l0"]
    op["answers"][0] = (x, y, lane, dist, near)
    assert_caught(workload, inputs, out, result)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SMALL))
def test_top_level_spans_cover_timed_phase(name, tmp_path):
    tracer = Tracer()
    _, _, _, result = run_small(name, tmp_path, tracer=tracer)
    assert not tracer.missing
    top = tracer.top_level_seconds()
    assert 0.95 * result["timed_s"] <= top <= result["timed_s"]
    assert all(np.isfinite(tracer.ends))


def test_uninstall_restores_program():
    from trajkit import batching, cli, vecmap

    before = (cli.main, batching.get_element, vecmap.VectorMap.__dict__["lanes_within"])
    tracer = Tracer()
    tracer.install()
    assert cli.main is not before[0]
    tracer.uninstall()
    assert (cli.main, batching.get_element, vecmap.VectorMap.__dict__["lanes_within"]) == before
