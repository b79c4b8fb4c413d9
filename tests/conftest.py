import builtins
import io
import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from trajkit import ingest
from trajkit.core import AgentMetadata, AgentType, Extent, SceneFrame
from trajkit.ingest import SceneCache
from trajkit.kinematics import complete_track
from trajkit.vecmap import Polyline, PolygonArea, RoadLane, TrafficLightStatus, VectorMap


@pytest.fixture
def cache(tmp_path):
    return SceneCache(tmp_path / "cache")


@pytest.fixture
def forks(monkeypatch):
    """The pid that called os.fork, once per fork."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    return forks


def set_cpus(monkeypatch, n: int) -> None:
    """Make os.sched_getaffinity report n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def no_child_left() -> bool:
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def count_scene_file_reads(monkeypatch) -> tuple[list[Path], list[str], list[str]]:
    """From this call on, record the path of each opening of a .tksc file,
    and the scene id of each header ingest._read_header checks and of each
    payload ingest._scene_from_header decodes."""
    opened, checked, decoded = [], [], []
    real_open, read_header, decode = io.open, ingest._read_header, ingest._scene_from_header

    def counting_open(file, *args, **kwargs):
        if str(file).endswith(".tksc"):
            opened.append(Path(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)  # what Path.read_bytes opens with
    monkeypatch.setattr(ingest, "_read_header", lambda header: checked.append(header["scene_id"]) or read_header(header))
    monkeypatch.setattr(ingest, "_scene_from_header", lambda header, *rest: decoded.append(header["scene_id"]) or decode(header, *rest))
    return opened, checked, decoded


def random_scene(
    rng: np.random.Generator,
    n_agents: int = 4,
    n_timesteps: int = 40,
    dt: float = 0.1,
    gap_prob: float = 0.15,
    dataset: str = "rand",
    scene_id: str = "scene-0",
    with_extent: bool = True,
    location: str = "nowhere",
) -> SceneFrame:
    """Valid random scene built through the normal imputation/derivation pipeline."""
    agents = []
    tracks = []
    for k in range(n_agents):
        first = int(rng.integers(0, max(1, n_timesteps // 3)))
        last = int(rng.integers(first + 2, n_timesteps))
        ts_all = np.arange(first, last + 1)
        keep = rng.random(len(ts_all)) > gap_prob
        keep[0] = keep[-1] = True
        ts_obs = ts_all[keep]
        steps = rng.normal(0.0, 0.5, size=(len(ts_obs), 2))
        pos = np.cumsum(steps, axis=0) + rng.uniform(-50, 50, size=2)
        first_ts, track, _ = complete_track(ts_obs, pos[:, 0], pos[:, 1], np.zeros(len(ts_obs)), dt)
        last_ts = first_ts + len(track["x"]) - 1
        agent_type = rng.choice(list(AgentType))
        extent = Extent(4.0, 2.0, 1.5) if with_extent else None
        agents.append(AgentMetadata(f"a{k}", agent_type, extent, first_ts, last_ts))
        tracks.append(track)
    return SceneFrame.from_tracks(scene_id, dataset, location, dt, agents, tracks)


def random_lane_map(rng: np.random.Generator, n_lanes: int = 20, pts_per_lane: int = 12, span: float = 200.0):
    """Centerline-only random map plus the raw segment arrays for brute-force oracles."""
    lanes = []
    for k in range(n_lanes):
        start = rng.uniform(-span, span, size=2)
        steps = rng.uniform(-8.0, 8.0, size=(pts_per_lane - 1, 2))
        xy = np.vstack([start, start + np.cumsum(steps, axis=0)])
        pts = np.zeros((pts_per_lane, 3))
        pts[:, :2] = xy
        lanes.append(RoadLane(f"lane{k:03d}", Polyline(pts)))
    vmap = VectorMap("rand:flat", lanes)
    return vmap


def convex_polygon(rng: np.random.Generator, center, scale: float, n_pts: int = 12) -> np.ndarray:
    """Random convex ring (guaranteed simple) around a center."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n_pts))
    radii = rng.uniform(0.4 * scale, scale, size=n_pts)
    ring = np.stack([np.cos(angles) * radii, np.sin(angles) * radii], axis=1) + center
    return ring


def straight_lane(lane_id: str, y: float, length: float = 100.0, half_width: float | None = None) -> RoadLane:
    center = Polyline([(0.0, y, 0.0), (length, y, 0.0)])
    left = right = None
    if half_width is not None:
        left = Polyline([(0.0, y + half_width, 0.0), (length, y + half_width, 0.0)])
        right = Polyline([(0.0, y - half_width, 0.0), (length, y - half_width, 0.0)])
    return RoadLane(lane_id, center, left_edge=left, right_edge=right)


def square_area(x0: float, y0: float, side: float, holes=()) -> PolygonArea:
    ring = np.array([(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)])
    return PolygonArea(ring, [np.asarray(h, dtype=float) for h in holes])


def tiny_traffic_map() -> VectorMap:
    return VectorMap(
        "toy:flat",
        [straight_lane("L1", 0.0, half_width=2.0), straight_lane("L2", 10.0)],
        traffic_lights={("L1", 5): TrafficLightStatus.RED},
    )


def rewrite_json_header(data: bytes, edit, crc: bool) -> bytes:
    """Apply edit to the JSON header of a .tksc or .tkmap blob (6-byte magic,
    u32 version, u64 header length, header, payload). With crc the blob ends
    in a CRC-32 of everything before it, which is recomputed, so the result
    still passes the checksum."""
    (header_len,) = struct.unpack_from("<Q", data, 10)
    header = json.loads(data[18 : 18 + header_len])
    edit(header)
    return replace_header(data, json.dumps(header, sort_keys=True, separators=(",", ":")).encode(), crc)


def replace_header(data: bytes, new_header: bytes, crc: bool) -> bytes:
    """data with its JSON header replaced by the bytes new_header, which need
    not decode; crc as for rewrite_json_header."""
    (header_len,) = struct.unpack_from("<Q", data, 10)
    payload = data[18 + header_len : len(data) - 4 if crc else len(data)]
    out = data[:10] + struct.pack("<Q", len(new_header)) + new_header + payload
    return out + struct.pack("<I", zlib.crc32(out) & 0xFFFFFFFF) if crc else out


# JSON headers that do not decode although every byte is valid UTF-8: one
# nested deeper than the decoder recurses, one holding an integer beyond
# Python's int-digit limit.
UNDECODABLE_HEADERS = {"deep": b"[" * 5000 + b"]" * 5000, "long-int": b'{"n_rows":' + b"1" * 5000 + b"}"}
