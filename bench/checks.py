"""Output checks and brute-force oracles of the benchmark.

Each check returns a list of problems (empty when the output is right). The
oracles take a different path than the program: they enumerate from the
generator's ground truth, or scan every segment or polygon edge at once with
numpy, where the program walks an index or loops point by point.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from trajkit.core import scene_validate
from trajkit.ingest import SceneMetaRecord, cache_load, parse_canonical_csv

import gen


OFFROAD_TYPES = ("vehicle", "motorcycle")   # agent types the off-road rate scores
FLAG_SAMPLE = 300                          # drivable-area flags checked per analyze run
SCAN_CHUNK = 64                            # lane-query answers scanned at once


def _steps(seconds: float, dt: float) -> int:
    """Whole steps in a duration, rounding half up (the documented window rule)."""
    return int(math.floor(seconds / dt + 0.5))


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def ingest_roundtrip(truth: gen.Scene, path: Path) -> list[str]:
    """The cached scene validates, and its observed rows are the generated poses bit for bit."""
    if not path.exists():
        return [f"{path.name} missing from the cache"]
    scene = cache_load(path)
    problems = scene_validate(scene)
    base = min(t.first for t in truth.tracks)
    by_id = {m.agent_id: i for i, m in enumerate(scene.agents)}
    if sorted(by_id) != sorted(t.agent_id for t in truth.tracks):
        return problems + [f"{truth.scene_id}: agent ids differ from the source"]
    cols = scene.columns
    for t in truth.tracks:
        sl = scene.rows_for_agent(by_id[t.agent_id])
        obs = cols.observed[sl]
        if not np.array_equal(cols.ts[sl][obs], t.steps - base):
            problems.append(f"{truth.scene_id}/{t.agent_id}: observed timesteps differ from the source")
        elif cols.x[sl][obs].tobytes() != t.x.tobytes() or cols.y[sl][obs].tobytes() != t.y.tobytes():
            problems.append(f"{truth.scene_id}/{t.agent_id}: observed positions differ from the source")
    return problems


# ---------------------------------------------------------------------------
# analyze and the drivable-area oracle
# ---------------------------------------------------------------------------

def report_tallies(rates_path: Path) -> tuple[int, int]:
    """(histogram samples, summed rate denominators) of one analyze report."""
    payload = json.loads(rates_path.read_text())
    samples = sum(h["n_samples"] for h in payload["histograms"])
    den = 0
    for per_dataset in payload["rates"].values():
        for per_type in per_dataset.values():
            den += sum(entry["den"] for entry in per_type.values())
    return samples, den


def _rings(vmap) -> list[list[np.ndarray]]:
    return [area.rings() for area in vmap.drivable_polygons()]


def inside_drivable(points: np.ndarray, polygons: list[list[np.ndarray]]) -> np.ndarray:
    """Crossing-number membership of many points in a union of polygons with holes.

    A horizontal ray from each point counts edge crossings over all rings of
    a polygon; an odd count is inside. Points exactly on an edge are measure
    zero for generated data and are not treated specially.
    """
    px, py = points[:, 0][:, None], points[:, 1][:, None]
    inside = np.zeros(len(points), dtype=bool)
    for rings in polygons:
        crossings = np.zeros(len(points), dtype=np.int64)
        for ring in rings:
            x0, y0 = ring[:, 0][None, :], ring[:, 1][None, :]
            x1, y1 = np.roll(ring[:, 0], -1)[None, :], np.roll(ring[:, 1], -1)[None, :]
            straddles = (y0 <= py) != (y1 <= py)
            with np.errstate(divide="ignore", invalid="ignore"):
                x_at = x0 + (py - y0) * (x1 - x0) / (y1 - y0)
            crossings += np.count_nonzero(straddles & (px < x_at), axis=1)
        inside |= crossings % 2 == 1
    return inside


def offroad_oracle(scenes, vmap) -> dict:
    """Per-type any-timestep off-road tallies over observed rows."""
    polygons = _rings(vmap)
    num: dict[str, int] = {}
    den: dict[str, int] = {}
    for scene in scenes:
        cols = scene.columns
        for i, meta in enumerate(scene.agents):
            t = str(meta.agent_type)
            sl = scene.rows_for_agent(i)
            obs = cols.observed[sl]
            if t not in OFFROAD_TYPES or not obs.any():
                continue
            pts = np.stack([cols.x[sl][obs], cols.y[sl][obs]], axis=1)
            den[t] = den.get(t, 0) + 1
            num[t] = num.get(t, 0) + int(not inside_drivable(pts, polygons).all())
    return {t: {"num": num[t], "den": den[t]} for t in sorted(den)}


def analyze_report(report: Path, dataset: str, scenes, vmap, props: dict) -> list[str]:
    rates_path = report / "rates.json"
    if not rates_path.exists():
        return ["rates.json missing"]
    payload = json.loads(rates_path.read_text())
    problems = []
    unique = len({m.agent_id for s in scenes for m in s.agents})
    if payload["population"][dataset]["unique_agents"] != unique:
        problems.append(f"population counts {payload['population'][dataset]['unique_agents']} agents, expected {unique}")
    rows_by_type: dict[str, int] = {}
    for s in scenes:
        for i, m in enumerate(s.agents):
            sl = s.rows_for_agent(i)
            rows_by_type[str(m.agent_type)] = rows_by_type.get(str(m.agent_type), 0) + sl.stop - sl.start
    speed = {h["agent_type"]: h["n_samples"] for h in payload["histograms"] if h["name"] == "speed" and h["dataset"] == dataset}
    if speed != rows_by_type:
        problems.append(f"speed histogram samples {speed} differ from rows per type {rows_by_type}")
    if sum(rows_by_type.values()) != props["cache_rows"]:
        problems.append("cache rows differ from the set-up's count")
    expected = offroad_oracle(scenes, vmap)
    got = {t: {"num": e["num"], "den": e["den"]} for t, e in payload["rates"]["offroad"][dataset].items()}
    if got != expected:
        problems.append(f"offroad tallies {got} differ from the crossing-number oracle {expected}")
    extents: dict[str, int] = {}
    for s in scenes:
        for m in s.agents:
            if m.extent is not None:
                extents[str(m.agent_type)] = extents.get(str(m.agent_type), 0) + 1
    coll_den = {t: e["den"] for t, e in payload["rates"]["collision"][dataset].items()}
    if coll_den != extents:
        problems.append(f"collision denominators {coll_den} differ from extent-bearing agents {extents}")
    return problems


def drivable_flags_sample(vmap, scenes) -> list[str]:
    """point_in_drivable_area on sampled vehicle positions equals the crossing-number oracle."""
    pts = np.concatenate([np.stack([s.columns.x, s.columns.y], axis=1) for s in scenes])
    pts = pts[np.linspace(0, len(pts) - 1, min(FLAG_SAMPLE, len(pts))).astype(int)]
    flags = np.array([vmap.point_in_drivable_area(p) for p in pts])
    oracle = inside_drivable(pts, _rings(vmap))
    bad = np.nonzero(flags != oracle)[0]
    if bad.size:
        return [f"point_in_drivable_area disagrees with the oracle at {len(bad)} of {len(pts)} sampled points, first {pts[bad[0]].tolist()}"]
    return []


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

def count_agent_anchors(scenes: list[gen.Scene], h_min_s: float, f_min_s: float) -> int:
    """Agent-centric elements: observed steps with h_min steps of lifetime behind and f_min ahead."""
    total = 0
    for scene in scenes:
        h, f = _steps(h_min_s, scene.dt), _steps(f_min_s, scene.dt)
        for t in scene.tracks:
            total += int(np.count_nonzero((t.steps - h >= t.first) & (t.steps + f <= t.last)))
    return total


def count_scene_anchors(scenes: list[gen.Scene], h_min_s: float, f_min_s: float, new_dt: float) -> int:
    """Scene-centric elements after downsampling to new_dt: distinct steps with a qualifying agent."""
    total = 0
    for scene in scenes:
        factor = round(new_dt / scene.dt)
        h, f = _steps(h_min_s, new_dt), _steps(f_min_s, new_dt)
        base = min(t.first for t in scene.tracks)  # ingest puts the first observed step at 0
        anchors: set[int] = set()
        for t in scene.tracks:
            first, last = -(-(t.first - base) // factor), (t.last - base) // factor
            if first > last:
                continue
            steps = t.steps - base
            kept = steps[steps % factor == 0] // factor
            anchors.update(int(s) for s in kept if s - h >= first and s + f <= last)
        total += len(anchors)
    return total


def batch_export(out: Path, expected_elements: int) -> list[str]:
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        return ["manifest.json missing"]
    manifest = json.loads(manifest_path.read_text())
    problems = []
    if manifest["n_elements"] != expected_elements:
        problems.append(f"{manifest['n_elements']} elements, brute-force enumeration gives {expected_elements}")
    if sum(b["n_elements"] for b in manifest["batches"]) != manifest["n_elements"]:
        problems.append("batch element counts do not add up to the manifest total")
    for b in manifest["batches"]:
        path = out / b["file"]
        if not path.exists():
            problems.append(f"{b['file']} missing")
            continue
        with np.load(path) as arrays:
            for name, spec in b["arrays"].items():
                if list(arrays[name].shape) != spec["shape"] or arrays[name].shape[0] != b["n_elements"]:
                    problems.append(f"{b['file']}:{name} has shape {arrays[name].shape}, manifest says {spec['shape']}")
    return problems


# ---------------------------------------------------------------------------
# replay and the lane-query oracle
# ---------------------------------------------------------------------------

def _segments(vmap):
    lane_ids = sorted(vmap.lanes)
    xy = [vmap.lanes[i].centerline.points[:, :2] for i in lane_ids]
    a = np.concatenate([p[:-1] for p in xy])
    b = np.concatenate([p[1:] for p in xy])
    owner = np.concatenate([np.full(len(p) - 1, k) for k, p in enumerate(xy)])
    return lane_ids, a, b, owner


def lane_answers(vmap, answers: list, radius: float) -> list[str]:
    """Closest-lane and lanes-within answers equal a scan over every centerline segment."""
    if not answers:
        return []
    lane_ids, a, b, owner = _segments(vmap)
    d = b - a
    len2 = (d * d).sum(axis=1)
    n_lanes = len(lane_ids)
    problems = []
    for lo in range(0, len(answers), SCAN_CHUNK):
        part = answers[lo : lo + SCAN_CHUNK]
        p = np.array([[ans[0], ans[1]] for ans in part])
        t = np.clip(((p[:, None, 0] - a[:, 0]) * d[:, 0] + (p[:, None, 1] - a[:, 1]) * d[:, 1]) / len2, 0.0, 1.0)
        qx = a[:, 0] + t * d[:, 0]
        qy = a[:, 1] + t * d[:, 1]
        d2 = (p[:, None, 0] - qx) ** 2 + (p[:, None, 1] - qy) ** 2
        per_lane = np.full((len(part), n_lanes), np.inf)
        np.minimum.at(per_lane, (np.arange(len(part))[:, None], owner[None, :]), d2)
        best = per_lane.min(axis=1)
        for q, (x, y, lane, dist, near) in enumerate(part):
            tol = 1e-9 * max(1.0, best[q])
            nearest = {lane_ids[k] for k in np.nonzero(per_lane[q] <= best[q] + tol)[0]}
            if lane not in nearest or abs(dist - math.sqrt(best[q])) > 1e-9 * max(1.0, dist):
                problems.append(f"closest lane at ({x}, {y}) is {lane} at {dist}, scan gives {sorted(nearest)} at {math.sqrt(best[q])}")
            r2 = radius * radius
            sure = {lane_ids[k] for k in np.nonzero(per_lane[q] < r2 - 1e-9 * r2)[0]}
            maybe = {lane_ids[k] for k in np.nonzero(per_lane[q] <= r2 + 1e-9 * r2)[0]}
            if not sure <= set(near) <= maybe:
                problems.append(f"lanes within {radius} m of ({x}, {y}) are {near}, scan gives {sorted(maybe)}")
    return problems


def replay_episode(out: Path, scene, init_ts: int, end_ts: int) -> list[str]:
    """An exact replay scores zero distances and its export re-parses to the recorded poses."""
    metrics_path, rollout = out / "metrics.json", out / "rollout.csv"
    if not metrics_path.exists() or not rollout.exists():
        return ["metrics.json or rollout.csv missing"]
    metrics = json.loads(metrics_path.read_text())
    problems = []
    if metrics["speed_distance"] != 0.0 or metrics["accel_distance"] != 0.0:
        problems.append(f"exact replay scored speed {metrics['speed_distance']} and accel {metrics['accel_distance']}")
    meta = SceneMetaRecord.from_json((out / "rollout.csv.meta.json").read_text())
    parsed = parse_canonical_csv(rollout.read_text(), meta)
    recorded = {m.agent_id: i for i, m in enumerate(scene.agents)}
    alive = {m.agent_id for m in scene.agents if m.first_ts <= end_ts and m.last_ts >= init_ts}
    if {m.agent_id for m in parsed.agents} != alive:
        problems.append("exported agents differ from the agents alive in the episode")
        return problems
    pc, rc = parsed.columns, scene.columns
    for i, m in enumerate(parsed.agents):
        sl = parsed.rows_for_agent(i)
        j = recorded[m.agent_id]
        rows = [scene.row_at(j, init_ts + int(ts)) for ts in pc.ts[sl]]
        if None in rows:
            problems.append(f"{m.agent_id}: exported timesteps outside the recorded lifetime")
            continue
        for name in ("x", "y", "heading"):
            if getattr(pc, name)[sl].tobytes() != getattr(rc, name)[rows].tobytes():
                problems.append(f"{m.agent_id}: exported {name} differs from the recording")
    return problems
