"""Seeded input generators for the benchmark workloads (numpy only).

Every input byte comes from one ``numpy.random.Generator`` seeded from the
command line. Sizes are fixed per workload; the seed varies the random walks,
gaps, lifetimes and map jitter, so each seed does the same amount of work on
different data.

Scenes are kept as generator-side ground truth (``Scene`` / ``Track``): the
observed grid steps and the exact float positions an ingest must reproduce.
The map is kept as plain arrays (``MapSpec``) so the oracles need nothing from
the program under test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

VEHICLE_EXTENT = (4.6, 1.9, 1.6)
LANES_PER_ROAD = 10
LANE_POINTS = 20          # 19 segments per lane
LANE_SPACING = 3.5        # m between parallel lanes of one road
ROAD_LENGTH = 170.0       # m of lane centerline per road
ROAD_HALF_WIDTH = 19.0    # m; the lanes span +-15.75 m
CANONICAL_HEADER = "scene_id,agent_id,agent_type,frame,x,y,z,heading,length,width,height"
CSV_FRAME_BASE = 1000     # source frame number of grid step 0 in canonical CSVs
TEXT_FRAME_BASE = 780     # and in frame-text files
PED_SPAN = 25.0           # pedestrians start inside a square of side 2 * PED_SPAN
LOCATION = "bench"
MAP_ID = "bench:grid"


@dataclass
class Track:
    """One agent as generated: observed grid steps and exact poses there."""

    agent_id: str
    agent_type: str
    steps: np.ndarray          # observed grid steps, strictly increasing (int64)
    x: np.ndarray
    y: np.ndarray
    heading: np.ndarray
    extent: tuple[float, float, float | None] | None = None

    @property
    def first(self) -> int:
        return int(self.steps[0])

    @property
    def last(self) -> int:
        return int(self.steps[-1])


@dataclass
class Scene:
    scene_id: str
    dt: float
    tracks: list[Track] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        """Observed rows (what a source file holds)."""
        return sum(len(t.steps) for t in self.tracks)

    def properties(self) -> dict:
        """Input properties the benchmark reports: rows, agents per timestep, extent share."""
        lo = min(t.first for t in self.tracks)
        hi = max(t.last for t in self.tracks)
        present = np.zeros(hi - lo + 1, dtype=np.int64)
        for t in self.tracks:
            present[t.first - lo : t.last - lo + 1] += 1
        return {
            "rows": self.n_rows,
            "agents": len(self.tracks),
            "timesteps": int(hi - lo + 1),
            "agents_per_ts": float(present.mean()),
            "extent_share": sum(t.extent is not None for t in self.tracks) / len(self.tracks),
        }


@dataclass
class MapSpec:
    """Lane centerlines and drivable polygons of a generated map, as arrays."""

    map_id: str
    lanes: list[tuple[str, np.ndarray]]                   # (lane_id, (LANE_POINTS, 3))
    roads: list[tuple[np.ndarray, list[np.ndarray]]]      # (exterior (k, 2), holes)

    def road_lanes(self, road: int) -> list[np.ndarray]:
        return [pts for _, pts in self.lanes[road * LANES_PER_ROAD : (road + 1) * LANES_PER_ROAD]]


def _observed_mask(rng: np.random.Generator, n: int, gap_prob: float) -> np.ndarray:
    keep = rng.random(n) > gap_prob
    keep[0] = keep[-1] = True
    if n > 1:
        keep[1] = True  # two consecutive frames keep a strided frame grid recoverable
    return keep


def _follow_path(rng, path_xy: np.ndarray, n: int, dt: float, s0: float, speed: float):
    """Poses of a vehicle driving along a polyline with speed and lateral noise.

    Past the path's end the vehicle keeps the last segment's direction, so
    long lifetimes leave the road.
    """
    seg = np.diff(path_xy, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    knots = np.concatenate([[0.0], np.cumsum(seg_len)])
    v = np.clip(speed + np.cumsum(rng.normal(0.0, 0.5 * dt, n)), 1.0, 16.0)
    s = s0 + np.cumsum(v) * dt
    k = np.clip(np.searchsorted(knots, s, side="right") - 1, 0, len(seg) - 1)
    ux, uy = seg[k, 0] / seg_len[k], seg[k, 1] / seg_len[k]
    along = s - knots[k]
    lateral = np.clip(np.cumsum(rng.normal(0.0, 0.04, n)), -1.4, 1.4)
    x = path_xy[k, 0] + ux * along - uy * lateral
    y = path_xy[k, 1] + uy * along + ux * lateral
    heading = np.arctan2(uy, ux) + rng.normal(0.0, 0.01, n)
    return x, y, heading


def _lifetime(rng, n_steps: int, min_len: int, max_len: int) -> tuple[int, int]:
    length = int(rng.integers(min_len, max_len + 1))
    first = int(rng.integers(0, n_steps - length + 1))
    return first, first + length - 1


def vehicle_track(rng, agent_id: str, path_xy: np.ndarray, first: int, last: int, dt: float,
                  gap_prob: float, extent=VEHICLE_EXTENT, s0: float | None = None,
                  speed: tuple[float, float] = (5.0, 11.0)) -> Track:
    n = last - first + 1
    s0 = float(rng.uniform(0.0, 40.0)) if s0 is None else s0
    x, y, heading = _follow_path(rng, path_xy, n, dt, s0, float(rng.uniform(*speed)))
    keep = _observed_mask(rng, n, gap_prob)
    steps = np.arange(first, last + 1, dtype=np.int64)
    return Track(agent_id, "vehicle", steps[keep], x[keep], y[keep], heading[keep], extent)


def pedestrian_track(rng, agent_id: str, first: int, last: int, dt: float, gap_prob: float) -> Track:
    """Correlated random walk at walking speed, starting inside a square of side 2 * PED_SPAN."""
    n = last - first + 1
    heading = float(rng.uniform(-math.pi, math.pi)) + np.cumsum(rng.normal(0.0, 0.15, n))
    speed = np.clip(1.3 + rng.normal(0.0, 0.2, n), 0.2, 2.5)
    start = rng.uniform(-PED_SPAN, PED_SPAN, size=2)
    x = start[0] + np.cumsum(speed * np.cos(heading)) * dt
    y = start[1] + np.cumsum(speed * np.sin(heading)) * dt
    keep = _observed_mask(rng, n, gap_prob)
    steps = np.arange(first, last + 1, dtype=np.int64)
    return Track(agent_id, "pedestrian", steps[keep], x[keep], y[keep], heading[keep], None)


def random_path(rng) -> np.ndarray:
    """Smooth random polyline of 300 m and 12 points for vehicle scenes that have no map."""
    length, n_points = 300.0, 12
    start = rng.uniform(-200.0, 200.0, size=2)
    turn = np.cumsum(rng.normal(0.0, 0.12, n_points - 1)) + rng.uniform(-math.pi, math.pi)
    step = length / (n_points - 1)
    pts = np.vstack([start, start + np.cumsum(np.stack([np.cos(turn), np.sin(turn)], axis=1) * step, axis=0)])
    return pts


def staggered(n_agents: int, length: int, stride: int) -> list[tuple[int, int]]:
    """Lifetimes of equal length starting every ``stride`` steps: the same
    agents-per-timestep profile for every seed."""
    return [(k * stride, k * stride + length - 1) for k in range(n_agents)]


def vehicle_scene(rng, scene_id: str, n_agents: int, n_steps: int, dt: float, gap_prob: float,
                  min_len: int = 0, max_len: int = 0, lifetimes: list[tuple[int, int]] | None = None) -> Scene:
    """Map-free vehicle scene: agents follow a few shared random paths (platoons).

    Lifetimes are random with lengths in [min_len, max_len] unless given.
    """
    paths = [random_path(rng) for _ in range(max(1, n_agents // 6))]
    scene = Scene(scene_id, dt)
    for k in range(n_agents):
        first, last = lifetimes[k] if lifetimes else _lifetime(rng, n_steps, min_len, max_len)
        path = paths[k % len(paths)]
        # Two lateral offsets per path keep platoons side by side.
        offset = np.array([0.0, LANE_SPACING * (k % 2)])
        extent = VEHICLE_EXTENT if k % 4 else (VEHICLE_EXTENT[0], VEHICLE_EXTENT[1], None)
        scene.tracks.append(vehicle_track(rng, f"v{k:03d}", path + offset, first, last, dt, gap_prob, extent))
    return scene


def map_vehicle_scene(rng, scene_id: str, spec: MapSpec, roads: list[int], n_steps: int, dt: float,
                      gap_prob: float, lifetime: tuple[int, int], fixed_lifetime: bool = False,
                      speed: tuple[float, float] = (5.0, 11.0)) -> Scene:
    """Vehicles driving along lanes of the map, agent k on road ``roads[k]``.

    Callers place agents on roads by a rule that does not depend on the seed,
    so every seed puts the same number of agents on each drivable polygon.
    Agents sharing a road start about 9 m apart on random lanes of it, which
    produces some box overlaps. ``lifetime`` is (min, max) steps, or with
    ``fixed_lifetime`` the exact (first, last) step of every agent. Agent 0
    is the ego.
    """
    scene = Scene(scene_id, dt)
    seen: dict[int, int] = {}
    for k, road in enumerate(roads):
        lanes = spec.road_lanes(road)
        lane = lanes[int(rng.integers(0, len(lanes)))][:, :2]
        first, last = lifetime if fixed_lifetime else _lifetime(rng, n_steps, *lifetime)
        s0 = float(rng.uniform(0.0, 20.0)) + 9.0 * seen.get(road, 0)
        seen[road] = seen.get(road, 0) + 1
        agent_id = "ego" if k == 0 else f"v{k:03d}"
        scene.tracks.append(vehicle_track(rng, agent_id, lane, first, last, dt, gap_prob, VEHICLE_EXTENT, s0, speed))
    return scene


def pedestrian_scene(rng, scene_id: str, n_agents: int, n_steps: int, dt: float, gap_prob: float,
                     min_len: int = 0, max_len: int = 0,
                     lifetimes: list[tuple[int, int]] | None = None) -> Scene:
    scene = Scene(scene_id, dt)
    for k in range(n_agents):
        first, last = lifetimes[k] if lifetimes else _lifetime(rng, n_steps, min_len, max_len)
        scene.tracks.append(pedestrian_track(rng, str(k + 1), first, last, dt, gap_prob))
    return scene


# ---------------------------------------------------------------------------
# Map: n_roads roads of 10 lanes each (50 roads: 500 lanes x 19 segments),
# one drivable polygon per road, every fifth polygon with a traffic-island hole.
# ---------------------------------------------------------------------------

def _subdivided_ring(half_len: float, half_wid: float, per_side: int) -> np.ndarray:
    """Rectangle ring (open, counterclockwise) with extra vertices on the long sides."""
    xs = np.linspace(-half_len, half_len, per_side)
    bottom = np.stack([xs, np.full(per_side, -half_wid)], axis=1)
    top = np.stack([xs[::-1], np.full(per_side, half_wid)], axis=1)
    return np.vstack([bottom, top])


def make_map(rng, n_roads: int) -> MapSpec:
    cols = 10
    lanes: list[tuple[str, np.ndarray]] = []
    roads: list[tuple[np.ndarray, list[np.ndarray]]] = []
    for r in range(n_roads):
        cx = (r % cols) * 240.0 + rng.uniform(-10.0, 10.0)
        cy = (r // cols) * 120.0 + rng.uniform(-10.0, 10.0)
        theta = rng.uniform(-0.3, 0.3)
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        half_len = 0.5 * ROAD_LENGTH + 6.0
        ring = _subdivided_ring(half_len, ROAD_HALF_WIDTH, 8)
        ring[:, 1] += rng.uniform(-0.4, 0.4, len(ring))  # keeps the strip simple
        exterior = ring @ rot.T + (cx, cy)
        holes = []
        if r % 5 == 0:
            island = _subdivided_ring(12.0, 0.9, 3) + (rng.uniform(-30.0, 30.0), 0.0)
            holes.append(island @ rot.T + (cx, cy))
        roads.append((exterior, holes))
        u = np.linspace(-0.5 * ROAD_LENGTH, 0.5 * ROAD_LENGTH, LANE_POINTS)
        for j in range(LANES_PER_ROAD):
            offset = (j - 0.5 * (LANES_PER_ROAD - 1)) * LANE_SPACING
            wiggle = 0.4 * np.sin(u / 25.0 + rng.uniform(0.0, 2.0 * math.pi))
            local = np.stack([u, offset + wiggle], axis=1)
            pts = np.zeros((LANE_POINTS, 3))
            pts[:, :2] = local @ rot.T + (cx, cy)
            lanes.append((f"r{r:02d}l{j}", pts))
    return MapSpec(MAP_ID, lanes, roads)


def map_properties(spec: MapSpec) -> dict:
    return {
        "lanes": len(spec.lanes),
        "lane_segments": sum(len(p) - 1 for _, p in spec.lanes),
        "polygons": len(spec.roads),
        "polygons_with_holes": sum(1 for _, h in spec.roads if h),
    }


# ---------------------------------------------------------------------------
# Source-file writers
# ---------------------------------------------------------------------------

def _cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def canonical_csv(scenes: list[Scene], with_heading: bool) -> str:
    """Canonical CSV of one or more scenes; positions written with repr (exact)."""
    lines = [CANONICAL_HEADER]
    for scene in scenes:
        for t in scene.tracks:
            ext = t.extent or (None, None, None)
            tail = f"{_cell(ext[0])},{_cell(ext[1])},{_cell(ext[2])}"
            for step, x, y, h in zip(t.steps.tolist(), t.x.tolist(), t.y.tolist(), t.heading.tolist()):
                head = repr(h) if with_heading else ""
                lines.append(f"{scene.scene_id},{t.agent_id},{t.agent_type},{CSV_FRAME_BASE + step},{x!r},{y!r},0.0,{head},{tail}")
    return "\n".join(lines) + "\n"


def frame_text(scene: Scene, stride: int) -> str:
    """ETH/UCY-style "frame id x y" lines, frame-major, frame numbers strided."""
    rows = []
    for t in scene.tracks:
        for step, x, y in zip(t.steps.tolist(), t.x.tolist(), t.y.tolist()):
            rows.append((step, int(t.agent_id), x, y))
    rows.sort()
    return "".join(f"{TEXT_FRAME_BASE + step * stride} {aid} {x!r} {y!r}\n" for step, aid, x, y in rows)


def meta_json(scene_id: str, dt: float, dataset: str) -> str:
    return json.dumps({"scene_id": scene_id, "dt": dt, "location": LOCATION, "dataset": dataset})
