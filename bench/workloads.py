"""The four benchmark workloads: ingest, analyze, batch and replay.

Each workload has four parts, called by ``run.py`` in this order:

* ``setup(inputs, rng)`` runs in the parent process. It generates the inputs
  from the seed and builds what the timed phase reads (scene cache, map
  file). ``run.py`` repeats it and reports the median as ``setup_s``.
* ``prepare(inputs)`` runs in the child process that measures, before the
  clock starts (the replay workload loads its scenes and map here).
* ``run_pass(state, n, out, rec)`` runs one pass of operations in a closed
  loop: the next operation starts when the previous one has returned. The
  child repeats passes until the timed total reaches ``--seconds``; every
  pass has the same operations, so the mix does not depend on where a run
  stops. Work between operations (digests, counters, deleting outputs of
  later passes) is left out of the timed total.
* ``check(inputs, out, result)`` runs in the parent after the child exited,
  and returns the ids of failed operations.

Operations go through ``trajkit.cli.main`` in process (ingest, analyze,
batch) or through the simulation API the CLI wraps (replay); every CLI call
builds its own ``SceneCache``, as a fresh process would. Program functions
are looked up on their modules at call time so the traced run's wrappers
apply.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import gen
import speed
from trajkit import cli, simulation
from trajkit.analysis import METRIC_NAMES
from trajkit.ingest import (SceneCache, SceneMetaRecord, cache_load, ingest_scenes, parse_canonical_csv_many,
                            parse_frame_text)
from trajkit.vecmap import PolygonArea, Polyline, RoadLane, VectorMap, map_deserialize, map_serialize

HISTORY = "1,2"   # seconds: minimum available, padded-to maximum
FUTURE = "3,3"
FRAME_STRIDE = 10  # frame-number stride of every generated frame-text file


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def tree_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def build_map(spec: gen.MapSpec) -> VectorMap:
    return VectorMap(
        spec.map_id,
        [RoadLane(lane_id, Polyline(pts)) for lane_id, pts in spec.lanes],
        road_areas=[PolygonArea(exterior, holes) for exterior, holes in spec.roads],
    )


def write_cache(inputs: Path, datasets: dict[str, list[gen.Scene]]) -> dict:
    """Ingest generated datasets into inputs/cache; return their properties.

    The scenes take the program's own path, the one ``trajkit ingest`` takes:
    pedestrian scenes are parsed from frame text, vehicle datasets from one
    multi-scene canonical CSV with headings, and ``ingest_scenes`` validates
    and writes them.
    """
    props = {}
    for dataset, scenes in datasets.items():
        if all(t.agent_type == "pedestrian" for s in scenes for t in s.tracks):
            frames = [parse_frame_text(gen.frame_text(s, FRAME_STRIDE), _meta(s, dataset)) for s in scenes]
        else:
            frames = parse_canonical_csv_many(gen.canonical_csv(scenes, with_heading=True), _meta(scenes[0], dataset))
        ingest_scenes(frames, inputs / "cache")
        per_scene = [s.properties() for s in scenes]
        props[dataset] = {
            "scenes": len(scenes),
            "source_rows": sum(p["rows"] for p in per_scene),
            "cache_rows": sum(len(f.columns) for f in frames),
            "agents": sum(p["agents"] for p in per_scene),
            "agents_per_ts": float(np.mean([p["agents_per_ts"] for p in per_scene])),
            "extent_share": float(np.mean([p["extent_share"] for p in per_scene])),
            "dt": scenes[0].dt,
        }
    return props


def _meta(scene: gen.Scene, dataset: str) -> SceneMetaRecord:
    return SceneMetaRecord.from_json(gen.meta_json(scene.scene_id, scene.dt, dataset))


def write_map(inputs: Path, spec: gen.MapSpec) -> None:
    (inputs / "map.tkmap").write_bytes(map_serialize(build_map(spec)))


def _call_cli(argv: list[str]) -> tuple[int, str | None]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed operation, not a crashed benchmark
            return -1, repr(exc)
    return code, None if code == 0 else f"exit {code}"


class Recorder:
    """Collects what the timed phase did.

    Timed work is a list of segments, each one uninterrupted timed stretch
    (an operation, or the reset and the scoring of a replay episode). The
    speed probe (speed.py) runs between segments, untimed: before a segment
    once ``speed.PROBE_EVERY_S`` of timed work has passed since the last
    probe, and at the end of every pass.
    """

    def __init__(self):
        self.ops: list[dict] = []
        self.segments: list[float] = []
        self.probes: list[tuple[int, float]] = []   # (segment index it preceded, probe seconds)
        self.pass_ends: list[tuple[int, int]] = []  # (segments, units) at the end of each pass
        self.timed_s = 0.0
        self.units = 0
        self.counters: dict[str, float] = {}
        self._since_probe = math.inf

    def timed(self, fn, *args):
        """Call fn(*args) as one timed segment; returns its result."""
        if self._since_probe >= speed.PROBE_EVERY_S:
            self.probe()
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
        self.segments.append(seconds)
        self.timed_s += seconds
        self._since_probe += seconds
        return result

    def probe(self) -> None:
        self.probes.append((len(self.segments), speed.probe()))
        self._since_probe = 0.0

    def end_pass(self) -> None:
        self.probe()
        self.pass_ends.append((len(self.segments), self.units))

    def cli(self, argv: list[str], units: int, kind: str, pass_no: int) -> None:
        """Run one CLI call as one timed operation."""
        code, error = self.timed(_call_cli, argv)
        self.units += units
        self.op(kind, pass_no, ok=code == 0, error=error)

    def op(self, kind: str, pass_no: int, ok: bool = True, error: str | None = None, **extra) -> None:
        """Record the last timed segment as one operation."""
        self.ops.append({"id": len(self.ops), "kind": kind, "pass": pass_no, "seg": len(self.segments) - 1,
                         "ok": ok, "error": error, **extra})

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount


def _ops_by(result: dict, **match) -> list[dict]:
    return [op for op in result["ops"] if all(op.get(k) == v for k, v in match.items())]


def _digest_mismatches(result: dict, key_of) -> set[int]:
    """Ops whose output digest differs from the first pass's digest for the same key."""
    first: dict[str, str] = {}
    bad = set()
    for op in result["ops"]:
        if "digest" not in op:
            continue
        key = key_of(op)
        if key not in first:
            first[key] = op["digest"]
        elif op["digest"] != first[key]:
            bad.add(op["id"])
    return bad


@dataclass
class Workload:
    """One workload; why each exists is in BENCHMARK.json and the subclass docstrings."""

    name: str
    unit: str                      # what work_per_s counts

    def setup(self, inputs: Path, rng: np.random.Generator) -> dict:
        raise NotImplementedError

    def prepare(self, inputs: Path):
        return inputs

    def run_pass(self, state, n: int, out: Path, rec: Recorder) -> None:
        raise NotImplementedError

    def check(self, inputs: Path, out: Path, result: dict) -> tuple[set[int], list[str]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# ingest: the write path
# ---------------------------------------------------------------------------

class Ingest(Workload):
    """Many ``trajkit ingest`` calls into a fresh cache per pass.

    A pass ingests every generated file once: single-scene and multi-scene
    canonical CSVs of vehicles with extents (headings given in every other
    file, derived in the rest) and strided frame-text pedestrian files with
    gaps. Each dataset collects many scenes, so every write rewrites a
    growing ``index.json``.
    """

    N_FILES = 24   # single-scene CSVs and frame-text files each; a third as many multi-scene CSVs
    SINGLE = dict(n_agents=20, n_steps=60, dt=0.1, gap_prob=0.1, lifetimes=gen.staggered(20, 40, 1))
    MULTI = dict(n_agents=12, n_steps=50, dt=0.1, gap_prob=0.1, lifetimes=gen.staggered(12, 35, 1))
    SCENES_PER_MULTI = 3
    TEXT = dict(n_agents=25, n_steps=48, dt=0.4, gap_prob=0.15, lifetimes=gen.staggered(25, 24, 1))

    def setup(self, inputs, rng):
        inputs.mkdir(parents=True)
        files, truth = [], {}
        # Interleave kinds so every stretch of a pass mixes them.
        plan = []
        for i in range(self.N_FILES):
            plan += ["single", "text"] + (["multi"] if i % 3 == 2 else [])
        for pos, kind in enumerate(plan):
            stem = f"{pos:03d}_{kind}"
            if kind == "text":
                scenes = [gen.pedestrian_scene(rng, f"ped{pos:03d}", **self.TEXT)]
                dataset, fmt, dt = "pedtxt", "frame-text", self.TEXT["dt"]
                text = gen.frame_text(scenes[0], FRAME_STRIDE)
                suffix = "txt"
            else:
                params = self.SINGLE if kind == "single" else self.MULTI
                count = 1 if kind == "single" else self.SCENES_PER_MULTI
                scenes = [gen.vehicle_scene(rng, f"{kind}{pos:03d}_{j}", **params) for j in range(count)]
                dataset, fmt, dt = ("vehsingle" if kind == "single" else "vehmulti"), "canonical-csv", params["dt"]
                text = gen.canonical_csv(scenes, with_heading=pos % 2 == 0)
                suffix = "csv"
            (inputs / f"{stem}.{suffix}").write_text(text, encoding="utf-8")
            (inputs / f"{stem}.meta.json").write_text(gen.meta_json(scenes[0].scene_id, dt, dataset))
            files.append({"input": f"{stem}.{suffix}", "meta": f"{stem}.meta.json", "format": fmt, "kind": kind,
                          "dataset": dataset, "rows": sum(s.n_rows for s in scenes),
                          "scenes": [s.scene_id for s in scenes]})
            for s in scenes:
                truth[s.scene_id] = s
        (inputs / "files.json").write_text(json.dumps(files))
        self.truth = truth
        kinds = {k: [f for f in files if f["kind"] == k] for k in ("single", "multi", "text")}
        all_props = [s.properties() for s in truth.values()]
        return {
            "files": len(files),
            "rows_per_pass": sum(f["rows"] for f in files),
            "files_by_kind": {k: len(v) for k, v in kinds.items()},
            "scenes_per_pass": len(truth),
            "agents_per_ts": float(np.mean([p["agents_per_ts"] for p in all_props])),
            "extent_share": float(np.mean([p["extent_share"] for p in all_props])),
            "frame_stride": FRAME_STRIDE,
        }

    def prepare(self, inputs):
        return inputs, json.loads((inputs / "files.json").read_text())

    def run_pass(self, state, n, out, rec):
        inputs, files = state
        cache = out / f"cache-{n}"
        ids = []
        for f in files:
            argv = ["ingest", "--input", str(inputs / f["input"]), "--format", f["format"],
                    "--meta", str(inputs / f["meta"]), "--cache", str(cache)]
            rec.cli(argv, f["rows"], f["kind"], n)
            ids.append(len(rec.ops) - 1)
        digest = tree_digest(cache)
        for i in ids:
            rec.ops[i]["digest"] = digest
        if n > 0:
            shutil.rmtree(cache)

    def check(self, inputs, out, result):
        failed = {op["id"] for op in result["ops"] if not op["ok"]}
        notes = []
        files = json.loads((inputs / "files.json").read_text())
        first_pass = _ops_by(result, **{"pass": 0})
        for f, op in zip(files, first_pass):
            for scene_id in f["scenes"]:
                path = out / "cache-0" / f["dataset"] / f"{scene_id}.tksc"
                problems = checks.ingest_roundtrip(self.truth[scene_id], path)
                if problems:
                    failed.add(op["id"])
                    notes.append(f"{f['input']}: {problems[0]}")
        bad = _digest_mismatches(result, key_of=lambda op: "cache")
        if bad:
            notes.append(f"{len(bad)} ingests produced a cache that differs from the first pass")
        return failed | bad, notes


# ---------------------------------------------------------------------------
# analyze: the read path
# ---------------------------------------------------------------------------

def _spread_roads(n_agents: int, n_roads: int, offset: int = 0) -> list[int]:
    """Agent k's road, spreading agents evenly over the map's polygon list."""
    return [((k * n_roads) // n_agents + offset) % n_roads for k in range(n_agents)]


class Analyze(Workload):
    """``trajkit analyze`` with the full metric catalogue, one call per dataset.

    Pedestrian datasets (no extents, no vehicles) hold most rows and make the
    decoded cache tens of MB; the vehicle datasets run at 2 Hz on the
    500-lane / 50-polygon map and carry the geometry metrics. The vehicle
    datasets are small because the off-road test, which tests a point
    against one polygon after another, costs about a thousand times more per
    row than the rest of the catalogue; sized so, geometry and the rest of
    the catalogue each take about half of the traced time.
    """

    PED_DATASETS, PED_SCENES = 2, 40
    PED = dict(n_agents=60, n_steps=240, dt=0.4, gap_prob=0.1, min_len=30, max_len=90)
    VEH_DATASETS, VEH_AGENTS = 2, 25
    VEH = dict(n_steps=16, dt=0.5, gap_prob=0.1, lifetime=(10, 10))
    N_ROADS = 50   # 500 lanes, 50 drivable polygons

    def setup(self, inputs, rng):
        inputs.mkdir(parents=True)
        spec = gen.make_map(rng, self.N_ROADS)
        write_map(inputs, spec)
        datasets = {}
        for d in range(self.PED_DATASETS):
            datasets[f"peds{d}"] = [gen.pedestrian_scene(rng, f"peds{d}_{s:02d}", **self.PED) for s in range(self.PED_SCENES)]
        for d in range(self.VEH_DATASETS):
            # Each dataset spreads its agents over the whole polygon list.
            roads = _spread_roads(self.VEH_AGENTS, self.N_ROADS, offset=d)
            datasets[f"veh{d}"] = [gen.map_vehicle_scene(rng, f"veh{d}_0", spec, roads, **self.VEH)]
        props = write_cache(inputs, datasets)
        (inputs / "datasets.json").write_text(json.dumps(props))
        return {"datasets": props, "map": gen.map_properties(spec),
                "decoded_cache_mb": sum(p["cache_rows"] for p in props.values()) * 81 / 1e6}

    def prepare(self, inputs):
        return inputs, json.loads((inputs / "datasets.json").read_text())

    def run_pass(self, state, n, out, rec):
        inputs, datasets = state
        for dataset, props in datasets.items():
            report = out / f"p{n}-{dataset}"
            argv = ["analyze", "--cache", str(inputs / "cache"), "--tags", dataset, "--metrics", ",".join(METRIC_NAMES),
                    "--map", str(inputs / "map.tkmap"), "--out", str(report)]
            rec.cli(argv, props["cache_rows"], dataset, n)
            op = rec.ops[-1]
            op["digest"] = tree_digest(report)
            if op["ok"]:
                samples, rate_den = checks.report_tallies(report / "rates.json")
                rec.count("analysis.samples", samples)
                rec.count("analysis.rate_den", rate_den)
            if n > 0:
                shutil.rmtree(report)

    def check(self, inputs, out, result):
        failed = {op["id"] for op in result["ops"] if not op["ok"]}
        notes = []
        vmap = map_deserialize((inputs / "map.tkmap").read_bytes())
        cache = SceneCache(inputs / "cache")
        datasets = json.loads((inputs / "datasets.json").read_text())
        for op in _ops_by(result, **{"pass": 0}):
            if not op["ok"]:
                continue
            scenes = list(cache.iter_scenes([op["kind"]]))
            problems = checks.analyze_report(out / f"p0-{op['kind']}", op["kind"], scenes, vmap, datasets[op["kind"]])
            if problems:
                failed.add(op["id"])
                notes.append(f"{op['kind']}: {problems[0]}")
        problems = checks.drivable_flags_sample(vmap, [s for ds in datasets if ds.startswith("veh") for s in cache.iter_scenes([ds])])
        if problems:
            failed |= {op["id"] for op in result["ops"]}
            notes.append(problems[0])
        bad = _digest_mismatches(result, key_of=lambda op: op["kind"])
        if bad:
            notes.append(f"{len(bad)} reports differ from the first pass's report of the same dataset")
        return failed | bad, notes


# ---------------------------------------------------------------------------
# batch: agent-centric and scene-centric export
# ---------------------------------------------------------------------------

class Batch(Workload):
    """``trajkit batch``: an agent-centric export over pedestrians and vehicles
    and a scene-centric export of the vehicles resampled to 0.2 s.

    Pedestrian scenes have fewer neighbours per element than vehicle scenes
    (about 5 against 8 agents per timestep); neighbour count is what element
    cost follows. Both datasets share one timestep because an agent-centric
    batch cannot mix window shapes. Lifetimes are staggered, not random, so
    every seed exports the same number of elements with the same neighbours.
    """

    PED = dict(n_agents=10, n_steps=200, dt=0.1, gap_prob=0.1, lifetimes=gen.staggered(10, 100, 10))
    VEH = dict(n_agents=12, n_steps=120, dt=0.1, gap_prob=0.1, lifetimes=gen.staggered(12, 80, 3))
    SCENE_DT = 0.2

    def setup(self, inputs, rng):
        inputs.mkdir(parents=True)
        datasets = {"pedsb": [gen.pedestrian_scene(rng, "pedsb_0", **self.PED)],
                    "vehb": [gen.vehicle_scene(rng, "vehb_0", **self.VEH)]}
        self.truth = datasets
        props = write_cache(inputs, datasets)
        return {"datasets": props}

    def exports(self, inputs: Path) -> list[tuple[str, list[str]]]:
        cache = str(inputs / "cache")
        common = ["--cache", cache, "--history", HISTORY, "--future", FUTURE]
        return [
            ("agent", ["batch", *common, "--tags", "pedsb,vehb", "--centric", "agent"]),
            ("scene", ["batch", *common, "--tags", "vehb", "--centric", "scene", "--dt", str(self.SCENE_DT)]),
        ]

    def run_pass(self, inputs, n, out, rec):
        for kind, argv in self.exports(inputs):
            target = out / f"p{n}-{kind}"
            # Elements are counted from the manifest after the call; the unit
            # count joins the timed total's work once the export is known.
            rec.cli([*argv, "--out", str(target)], 0, kind, n)
            op = rec.ops[-1]
            if op["ok"]:
                manifest = json.loads((target / "manifest.json").read_text())
                rec.units += manifest["n_elements"]
                op["elements"] = manifest["n_elements"]
                rec.count("batching.export.bytes", tree_bytes(target))
            op["digest"] = tree_digest(target) if target.exists() else ""
            if n > 0 and target.exists():
                shutil.rmtree(target)

    def check(self, inputs, out, result):
        failed = {op["id"] for op in result["ops"] if not op["ok"]}
        notes = []
        expected = {
            "agent": checks.count_agent_anchors(self.truth["pedsb"] + self.truth["vehb"], 1.0, 3.0),
            "scene": checks.count_scene_anchors(self.truth["vehb"], 1.0, 3.0, self.SCENE_DT),
        }
        for op in _ops_by(result, **{"pass": 0}):
            if not op["ok"]:
                continue
            problems = checks.batch_export(out / f"p0-{op['kind']}", expected[op["kind"]])
            if problems:
                failed.add(op["id"])
                notes.append(f"{op['kind']}: {problems[0]}")
        bad = _digest_mismatches(result, key_of=lambda op: op["kind"])
        if bad:
            notes.append(f"{len(bad)} exports differ from the first pass's export of the same kind")
        return failed | bad, notes


# ---------------------------------------------------------------------------
# replay: closed-loop episodes through the simulation API
# ---------------------------------------------------------------------------

@dataclass
class Episode:
    scene: int
    init_ts: int
    steps: int


class Replay(Workload):
    """Closed-loop log replay on a district map: per step, a policy asks the
    map for each controlled agent's closest lane and the lanes around it and
    returns the recorded pose; each episode ends with ``sim_score(state,
    vmap)`` and ``sim_export``. Two short episodes and a long one start after
    the same history; over the long one the per-step cost of re-deriving each
    controlled series grows with the steps taken (O(T^2) per episode).

    The map has 10 roads (100 lanes, 10 drivable polygons) where analyze's
    has 50: a replay loads the map of the scene's district. Scoring tests
    every position of the rollout against the drivable polygons one after
    another; agents sit on roads spread over the whole polygon list, so the
    scan does its full average work, but on a 50-polygon map that scan alone
    would outweigh the lane queries and steps this workload exists to time.
    """

    SCENES, AGENTS, LIFETIME = 3, 8, (0, 220)
    N_ROADS = 10
    # Slow enough that no vehicle reaches the end of its road within its lifetime.
    SCENE = dict(n_steps=221, dt=0.1, gap_prob=0.05, speed=(2.5, 4.5))
    EPISODES = (Episode(0, 20, 20), Episode(1, 20, 20), Episode(2, 20, 200))
    RADIUS = 10.0
    QUERY_SAMPLE = 400   # lane-query answers kept per pass for the check

    def setup(self, inputs, rng):
        inputs.mkdir(parents=True)
        spec = gen.make_map(rng, self.N_ROADS)
        write_map(inputs, spec)
        scenes = []
        for j in range(self.SCENES):
            # Pairs of agents share a road; pairs spread over the polygon list.
            pairs = _spread_roads(self.AGENTS // 2, self.N_ROADS, offset=j * 3)
            roads = [r for r in pairs for _ in range(2)]
            scenes.append(gen.map_vehicle_scene(rng, f"city_{j}", spec, roads, lifetime=self.LIFETIME,
                                                fixed_lifetime=True, **self.SCENE))
        props = write_cache(inputs, {"city": scenes})
        # The child loads the map and scenes before timing; do it here too so
        # set-up time shows work moved into map or scene loading.
        self.prepare(inputs)
        return {"datasets": props, "map": gen.map_properties(spec),
                "episodes": [vars(e) for e in self.EPISODES], "controlled_per_episode": self.AGENTS}

    def prepare(self, inputs):
        vmap = map_deserialize((inputs / "map.tkmap").read_bytes())
        cache = SceneCache(inputs / "cache")
        scenes = [cache_load(e.path) for e in cache.resolve(["city"])]
        return vmap, scenes

    def run_pass(self, state, n, out, rec):
        vmap, scenes = state
        for e_no, ep in enumerate(self.EPISODES):
            scene = scenes[ep.scene]
            end = ep.init_ts + ep.steps
            controlled = [m.agent_id for m in scene.agents if m.first_ts <= ep.init_ts and m.last_ts >= end]
            index = {m.agent_id: i for i, m in enumerate(scene.agents)}
            answers: list[tuple] = []
            target = out / f"p{n}-e{e_no}"
            first_op = len(rec.ops)
            sim_state, obs = rec.timed(simulation.sim_reset, scene, ep.init_ts, controlled)
            for _ in range(ep.steps):
                sim_state, obs = rec.timed(_step, vmap, scene, sim_state, obs, controlled, index, self.RADIUS, answers)
                rec.op("step", n, episode=e_no)
            metrics = rec.timed(_finish, sim_state, vmap, target)
            rec.units += len(controlled) * ep.steps
            (target / "metrics.json").write_text(json.dumps(metrics.to_dict(), sort_keys=True))
            digest = tree_digest(target)
            for op in rec.ops[first_op:]:
                op["digest"] = digest
            rec.ops[-1]["answers"] = _sample(answers, self.QUERY_SAMPLE // (len(self.EPISODES) * 2), n)
            if n > 0:
                shutil.rmtree(target)

    def check(self, inputs, out, result):
        failed = {op["id"] for op in result["ops"] if not op["ok"]}
        notes = []
        vmap, scenes = self.prepare(inputs)
        episode_ops: dict[tuple[int, int], list[int]] = {}
        for op in result["ops"]:
            episode_ops.setdefault((op["pass"], op["episode"]), []).append(op["id"])
        answers = [a for op in result["ops"] for a in op.get("answers", [])]
        problems = checks.lane_answers(vmap, answers, self.RADIUS)
        if problems:
            failed |= {op["id"] for op in result["ops"]}
            notes.append(problems[0])
        for e_no, ep in enumerate(self.EPISODES):
            target = out / f"p0-e{e_no}"
            problems = checks.replay_episode(target, scenes[ep.scene], ep.init_ts, ep.init_ts + ep.steps)
            if problems:
                failed |= set(episode_ops.get((0, e_no), []))
                notes.append(f"episode {e_no}: {problems[0]}")
        bad = _digest_mismatches(result, key_of=lambda op: op["episode"])
        if bad:
            notes.append(f"{len(bad)} steps belong to episodes whose outputs differ from the first pass")
        return failed | bad, notes


def _step(vmap, scene, sim_state, obs, controlled, index, radius, answers):
    """One replay operation: the policy, then one simulation step."""
    poses = _policy(vmap, scene, obs, controlled, index, radius, answers)
    return simulation.sim_step(sim_state, poses)


def _finish(sim_state, vmap, target: Path):
    metrics = simulation.sim_score(sim_state, vmap)
    simulation.sim_export(sim_state, target / "rollout.csv")
    return metrics


def _policy(vmap, scene, obs, controlled, index, radius, answers) -> dict:
    """Look up each controlled agent's lane context, then return its recorded next pose."""
    cols = scene.columns
    ts = obs.ts + 1
    poses = {}
    for agent_id in controlled:
        i = index[agent_id]
        x, y = obs.states[i, 0], obs.states[i, 1]
        lane, dist = vmap.closest_lane_with_distance((x, y))
        near = vmap.lanes_within((x, y), radius)
        answers.append((float(x), float(y), lane, dist, sorted(near)))
        row = scene.row_at(i, ts)
        poses[agent_id] = (cols.x[row], cols.y[row], cols.heading[row])
    return poses


def _sample(items: list, k: int, salt: int) -> list:
    if len(items) <= k:
        return list(items)
    step = len(items) / k
    return [items[int(j * step + salt) % len(items)] for j in range(k)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Ingest("ingest", "input rows"),
        Analyze("analyze", "cached rows"),
        Batch("batch", "batch elements"),
        Replay("replay", "controlled-agent steps"),
    )
}
