"""Polyline vector-map model: lanes with connectivity, drivable/pedestrian
polygons, traffic-light state, spatial queries, and a compact binary format.

Distance queries operate in the xy-plane (z is carried but ignored).
Centerline-only lanes contribute lane length but no drivable area; lane
polygons exist only where both edges are given. Area totals sum polygons
without overlap resolution and over-count where they overlap.
"""

from __future__ import annotations

import enum
import heapq
import json
import logging
import math
import struct
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

log = logging.getLogger(__name__)

MAP_MAGIC = b"TKMAP1"
MAP_VERSION = 1
_NODE_CAPACITY = 16


class MapError(Exception):
    """Base class for vector-map failures."""


class MapFormatError(MapError):
    """Bad magic/version or a malformed serialized map."""


class DanglingLaneError(MapError):
    """A lane references a lane_id that does not exist in the map."""


class NoLanesError(MapError):
    """A lane query was issued against a map with no lanes."""


class DrivableAreaUnsupported(MapError):
    """The map has no road areas and no bounded lanes, so drivable-area
    membership cannot be decided."""


class DegenerateRingError(MapError):
    """A polygon ring has fewer than 3 distinct points."""


class TrafficLightStatus(enum.Enum):
    GREEN = "green"
    YELLOW = "yellow"
    RED = "red"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_string(cls, text: str) -> "TrafficLightStatus":
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"unknown traffic light status {text!r}")


# ---------------------------------------------------------------------------
# Geometry primitives
# ---------------------------------------------------------------------------

def _encode_points(points: np.ndarray) -> bytes:
    """First point as 3 little-endian f64, then per-point 3xf32 deltas.

    Deltas are taken against the decoder's running reconstruction (not the
    original previous point) so quantization error never accumulates.
    """
    out = bytearray(struct.pack("<3d", float(points[0, 0]), float(points[0, 1]), float(points[0, 2])))
    prev = [float(points[0, 0]), float(points[0, 1]), float(points[0, 2])]
    for k in range(1, len(points)):
        deltas = []
        for j in range(3):
            d = float(np.float32(points[k, j] - prev[j]))
            deltas.append(d)
            prev[j] = prev[j] + d
        out += struct.pack("<3f", *deltas)
    return bytes(out)


def _decode_points(buf: bytes, offset: int, n: int) -> tuple[np.ndarray, bytes, int]:
    """Inverse of _encode_points; also returns the raw slice for canonical re-encoding."""
    nbytes = 24 + 12 * (n - 1)
    blob = buf[offset : offset + nbytes]
    if len(blob) != nbytes:
        raise MapFormatError(f"geometry payload truncated: wanted {nbytes} bytes at offset {offset}")
    base = struct.unpack_from("<3d", blob, 0)
    deltas = np.frombuffer(blob, dtype="<f4", offset=24).astype(np.float64).reshape(n - 1, 3)
    pts = np.empty((n, 3))
    for j in range(3):
        pts[:, j] = np.cumsum(np.concatenate(([base[j]], deltas[:, j])))
    return pts, bytes(blob), offset + nbytes


@dataclass(eq=False)
class Polyline:
    """Ordered (x, y, z) points in meters; consecutive points must differ."""

    points: np.ndarray
    _encoded: bytes | None = field(default=None, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"polyline points must be (N, 3), got {pts.shape}")
        if len(pts) < 2:
            raise ValueError("polyline needs at least 2 points")
        if np.any(np.all(pts[1:] == pts[:-1], axis=1)):
            raise ValueError("polyline has identical consecutive points")
        self.points = pts

    def __len__(self) -> int:
        return len(self.points)

    @property
    def xy(self) -> np.ndarray:
        return self.points[:, :2]

    def arclength(self) -> float:
        """Length of the xy projection in meters."""
        d = np.diff(self.xy, axis=0)
        return float(np.sum(np.hypot(d[:, 0], d[:, 1])))

    def encode(self) -> bytes:
        if self._encoded is None:
            self._encoded = _encode_points(self.points)
        return self._encoded

    @classmethod
    def decode(cls, buf: bytes, offset: int, n: int) -> tuple["Polyline", int]:
        pts, blob, nxt = _decode_points(buf, offset, n)
        return cls(pts, _encoded=blob), nxt


def _normalize_ring(ring) -> np.ndarray:
    pts = np.asarray(ring, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"ring points must be (N, 2), got {pts.shape}")
    if len(pts) >= 2 and np.all(pts[0] == pts[-1]):
        pts = pts[:-1]
    return pts


@dataclass(eq=False)
class PolygonArea:
    """Closed region given by an exterior ring and optional hole rings.

    Rings are stored open (no repeated closing vertex); a closing duplicate in
    the input is dropped.
    """

    exterior: np.ndarray
    holes: list[np.ndarray] = field(default_factory=list)
    _encoded: list[bytes] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.exterior = _normalize_ring(self.exterior)
        self.holes = [_normalize_ring(h) for h in self.holes]

    def rings(self) -> list[np.ndarray]:
        return [self.exterior, *self.holes]


def _ring_edges(ring: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x0, y0, x1, y1): start and end of every edge of a closed ring."""
    x0, y0 = ring[:, 0], ring[:, 1]
    return x0, y0, np.concatenate((x0[1:], x0[:1])), np.concatenate((y0[1:], y0[:1]))


def _ring_area(ring: np.ndarray) -> float:
    if len(np.unique(ring, axis=0)) < 3:
        raise DegenerateRingError(f"ring with {len(ring)} points has fewer than 3 distinct vertices")
    x, y, x1, y1 = _ring_edges(ring)
    return 0.5 * abs(float(np.sum(x * y1 - x1 * y)))


def polygon_area(area: PolygonArea) -> float:
    """Shoelace area of the exterior minus the hole areas, in m^2."""
    total = _ring_area(area.exterior)
    for hole in area.holes:
        total -= _ring_area(hole)
    return total


def _point_on_ring_boundary(px: float, py: float, ring: np.ndarray) -> bool:
    x0, y0, x1, y1 = _ring_edges(ring)
    cross = (x1 - x0) * (py - y0) - (px - x0) * (y1 - y0)
    within_x = (px >= np.minimum(x0, x1)) & (px <= np.maximum(x0, x1))
    within_y = (py >= np.minimum(y0, y1)) & (py <= np.maximum(y0, y1))
    return bool(np.any((cross == 0.0) & within_x & within_y))


def _ring_crossings(px: float, py: float, ring: np.ndarray) -> int:
    x0, y0, x1, y1 = _ring_edges(ring)
    straddles = ((y0 <= py) & (y1 > py)) | ((y1 <= py) & (y0 > py))
    if not straddles.any():
        return 0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (py - y0) / (y1 - y0)
        x_at = x0 + t * (x1 - x0)
    return int(np.count_nonzero(straddles & (px < x_at)))


def point_in_polygon(px: float, py: float, area: PolygonArea) -> bool:
    """Even-odd membership over exterior and holes; boundary points count as inside."""
    crossings = 0
    for ring in area.rings():
        if _point_on_ring_boundary(px, py, ring):
            return True
        crossings += _ring_crossings(px, py, ring)
    return crossings % 2 == 1


# ---------------------------------------------------------------------------
# Lanes and the map
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RoadLane:
    """A driveable lane: centerline, optional edges, and graph connectivity."""

    lane_id: str
    centerline: Polyline
    left_edge: Polyline | None = None
    right_edge: Polyline | None = None
    adjacent_left: set[str] = field(default_factory=set)
    adjacent_right: set[str] = field(default_factory=set)
    successors: set[str] = field(default_factory=set)
    predecessors: set[str] = field(default_factory=set)

    def polygon(self) -> PolygonArea | None:
        """Region between the edges, or None for a centerline-only lane."""
        if self.left_edge is None or self.right_edge is None:
            return None
        ring = np.concatenate([self.left_edge.xy, self.right_edge.xy[::-1]])
        return PolygonArea(ring)


@dataclass(frozen=True)
class MapStats:
    """Aggregate map magnitudes; road_area over-counts where polygons overlap."""

    total_lane_length: float  # km
    road_area: float  # m^2
    pedestrian_area: float  # m^2

    def to_dict(self) -> dict[str, float]:
        return {
            "lane_length_km": self.total_lane_length,
            "road_area_m2": self.road_area,
            "pedestrian_area_m2": self.pedestrian_area,
        }


def _box_dist2(px, py, minx, miny, maxx, maxy):
    dx = np.maximum(np.maximum(minx - px, px - maxx), 0.0)
    dy = np.maximum(np.maximum(miny - py, py - maxy), 0.0)
    return dx * dx + dy * dy


def segment_dist2(px: float, py: float, ax, ay, bx, by):
    """Squared xy distance from a point to segments (vectorized over segments)."""
    dx = bx - ax
    dy = by - ay
    len2 = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((px - ax) * dx + (py - ay) * dy) / len2
    t = np.where(len2 > 0.0, np.clip(t, 0.0, 1.0), 0.0)
    qx = ax + t * dx
    qy = ay + t * dy
    return (px - qx) ** 2 + (py - qy) ** 2


class _SegmentIndex:
    """Static STR-packed bounding-box hierarchy over lane centerline segments."""

    def __init__(self, ax, ay, bx, by, lane_ord):
        order = self._str_order(0.5 * (ax + bx), 0.5 * (ay + by))
        self.ax, self.ay = ax[order], ay[order]
        self.bx, self.by = bx[order], by[order]
        self.lane_ord = lane_ord[order]
        n = len(ax)

        minx = np.minimum(self.ax, self.bx)
        miny = np.minimum(self.ay, self.by)
        maxx = np.maximum(self.ax, self.bx)
        maxy = np.maximum(self.ay, self.by)
        self.levels: list[tuple[np.ndarray, ...]] = []
        starts = np.arange(0, n, _NODE_CAPACITY)
        ends = np.minimum(starts + _NODE_CAPACITY, n)
        level = self._pack_level(minx, miny, maxx, maxy, starts, ends)
        self.levels.append(level)
        while len(self.levels[-1][0]) > 1:
            lminx, lminy, lmaxx, lmaxy, _, _ = self.levels[-1]
            m = len(lminx)
            starts = np.arange(0, m, _NODE_CAPACITY)
            ends = np.minimum(starts + _NODE_CAPACITY, m)
            self.levels.append(self._pack_level(lminx, lminy, lmaxx, lmaxy, starts, ends))

    @staticmethod
    def _str_order(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        n = len(cx)
        n_leaves = math.ceil(n / _NODE_CAPACITY)
        n_slices = math.ceil(math.sqrt(n_leaves))
        slice_size = n_slices * _NODE_CAPACITY
        by_x = np.argsort(cx, kind="stable")
        out = []
        for start in range(0, n, slice_size):
            chunk = by_x[start : start + slice_size]
            out.append(chunk[np.argsort(cy[chunk], kind="stable")])
        return np.concatenate(out)

    @staticmethod
    def _pack_level(minx, miny, maxx, maxy, starts, ends):
        k = len(starts)
        nminx = np.empty(k)
        nminy = np.empty(k)
        nmaxx = np.empty(k)
        nmaxy = np.empty(k)
        for i, (s, e) in enumerate(zip(starts, ends)):
            nminx[i] = minx[s:e].min()
            nminy[i] = miny[s:e].min()
            nmaxx[i] = maxx[s:e].max()
            nmaxy[i] = maxy[s:e].max()
        return (nminx, nminy, nmaxx, nmaxy, starts, ends)

    def nearest_dist2(self, px: float, py: float) -> float:
        top = len(self.levels) - 1
        best = math.inf
        heap: list[tuple[float, int, int]] = [(0.0, top, 0)]
        root = self.levels[top]
        heap[0] = (float(_box_dist2(px, py, root[0][0], root[1][0], root[2][0], root[3][0])), top, 0)
        while heap:
            lb, level, node = heapq.heappop(heap)
            if lb >= best:
                break
            minx, miny, maxx, maxy, starts, ends = self.levels[level]
            s, e = int(starts[node]), int(ends[node])
            if level == 0:
                d2 = segment_dist2(px, py, self.ax[s:e], self.ay[s:e], self.bx[s:e], self.by[s:e])
                best = min(best, float(d2.min()))
            else:
                child = self.levels[level - 1]
                lbs = _box_dist2(px, py, child[0][s:e], child[1][s:e], child[2][s:e], child[3][s:e])
                for i in range(s, e):
                    lb_i = float(lbs[i - s])
                    if lb_i < best:
                        heapq.heappush(heap, (lb_i, level - 1, i))
        return best

    def within_dist2(self, px: float, py: float, r2: float) -> np.ndarray:
        """Ordinals (into the permuted segment arrays) with distance^2 <= r2.

        Walks the hierarchy one level at a time, testing every surviving
        node's children in one array call.
        """
        top = len(self.levels) - 1
        nodes = np.arange(len(self.levels[top][0]))
        for level in range(top, -1, -1):
            minx, miny, maxx, maxy, starts, ends = self.levels[level]
            lb = _box_dist2(px, py, minx[nodes], miny[nodes], maxx[nodes], maxy[nodes])
            nodes = nodes[~(lb > r2)]
            nodes = _expand_ranges(starts[nodes], ends[nodes])
        d2 = segment_dist2(px, py, self.ax[nodes], self.ay[nodes], self.bx[nodes], self.by[nodes])
        return nodes[d2 <= r2]


def _expand_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, e) over the paired starts and ends."""
    lengths = ends - starts
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return np.arange(int(lengths.sum()), dtype=np.int64) + shift


class VectorMap:
    """Immutable vector map; all queries are safe to run concurrently.

    Construction finalizes the map: lane references are validated,
    successor/predecessor symmetry is closed (with a warning when source data
    was asymmetric), lane polygons are built, and the spatial index is packed.
    """

    def __init__(
        self,
        map_id: str,
        lanes: Iterable[RoadLane],
        road_areas: Sequence[PolygonArea] = (),
        ped_crosswalks: Sequence[PolygonArea] = (),
        ped_walkways: Sequence[PolygonArea] = (),
        traffic_lights: Mapping[tuple[str, int], TrafficLightStatus] | None = None,
    ):
        parts = map_id.split(":")
        if len(parts) != 2 or not all(parts):
            raise ValueError(f"map_id must be 'dataset:location', got {map_id!r}")
        self.map_id = map_id
        self.lanes: dict[str, RoadLane] = {}
        for lane in lanes:
            if lane.lane_id in self.lanes:
                raise ValueError(f"duplicate lane_id {lane.lane_id!r}")
            self.lanes[lane.lane_id] = lane
        self.road_areas = list(road_areas)
        self.ped_crosswalks = list(ped_crosswalks)
        self.ped_walkways = list(ped_walkways)
        self.traffic_light_frame: dict[tuple[str, int], TrafficLightStatus] = dict(traffic_lights or {})

        self._validate_references()
        self._close_connectivity()
        self._lane_ids = sorted(self.lanes)
        self._lane_polygons = {
            lane_id: poly
            for lane_id, poly in ((lid, self.lanes[lid].polygon()) for lid in self._lane_ids)
            if poly is not None
        }
        self._index = self._build_index()

    def _validate_references(self) -> None:
        for lane in self.lanes.values():
            refs = lane.adjacent_left | lane.adjacent_right | lane.successors | lane.predecessors
            missing = refs - self.lanes.keys()
            if missing:
                raise DanglingLaneError(f"lane {lane.lane_id}: references to missing lanes {sorted(missing)}")
            if lane.lane_id in refs:
                raise ValueError(f"lane {lane.lane_id}: refers to itself")
        for (lane_id, ts), status in self.traffic_light_frame.items():
            if lane_id not in self.lanes:
                raise DanglingLaneError(f"traffic light record for missing lane {lane_id!r} at ts {ts}")
            if not isinstance(status, TrafficLightStatus):
                raise ValueError(f"traffic light status must be TrafficLightStatus, got {status!r}")

    def _close_connectivity(self) -> None:
        added = 0
        for lane in self.lanes.values():
            for succ in lane.successors:
                if lane.lane_id not in self.lanes[succ].predecessors:
                    self.lanes[succ].predecessors.add(lane.lane_id)
                    added += 1
            for pred in lane.predecessors:
                if lane.lane_id not in self.lanes[pred].successors:
                    self.lanes[pred].successors.add(lane.lane_id)
                    added += 1
        if added:
            log.warning("map %s: closed %d asymmetric successor/predecessor links", self.map_id, added)

    def _build_index(self) -> _SegmentIndex | None:
        if not self.lanes:
            return None
        ax, ay, bx, by, lane_ord = [], [], [], [], []
        for ord_, lane_id in enumerate(self._lane_ids):
            xy = self.lanes[lane_id].centerline.xy
            ax.append(xy[:-1, 0])
            ay.append(xy[:-1, 1])
            bx.append(xy[1:, 0])
            by.append(xy[1:, 1])
            lane_ord.append(np.full(len(xy) - 1, ord_, dtype=np.int64))
        return _SegmentIndex(
            np.concatenate(ax), np.concatenate(ay), np.concatenate(bx), np.concatenate(by), np.concatenate(lane_ord)
        )

    # -- queries ------------------------------------------------------------

    def closest_lane_with_distance(self, point) -> tuple[str, float]:
        """Lane whose centerline is nearest in the xy-plane, plus the distance.

        Ties break toward the lexicographically smallest lane_id. Matches a
        brute-force scan over all segments.
        """
        if self._index is None:
            raise NoLanesError(f"map {self.map_id} has no lanes")
        px, py = float(point[0]), float(point[1])
        d2 = self._index.nearest_dist2(px, py)
        ords = self._index.within_dist2(px, py, d2)
        exact = segment_dist2(px, py, self._index.ax[ords], self._index.ay[ords], self._index.bx[ords], self._index.by[ords])
        winners = ords[exact == d2]
        lane_ord = int(self._index.lane_ord[winners].min())
        return self._lane_ids[lane_ord], math.sqrt(d2)

    def get_closest_lane(self, point) -> str:
        return self.closest_lane_with_distance(point)[0]

    def lanes_within(self, point, radius: float) -> set[str]:
        """Lane ids whose centerline xy-distance to the point is <= radius."""
        if radius < 0.0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        if self._index is None:
            return set()
        px, py = float(point[0]), float(point[1])
        ords = self._index.within_dist2(px, py, radius * radius)
        return {self._lane_ids[i] for i in np.unique(self._index.lane_ord[ords])}

    def drivable_polygons(self) -> list[PolygonArea]:
        return [*self.road_areas, *self._lane_polygons.values()]

    @property
    def has_drivable_area(self) -> bool:
        return bool(self.road_areas) or bool(self._lane_polygons)

    def point_in_drivable_area(self, point) -> bool:
        """True iff the xy point lies in the union of road areas and lane polygons.

        Boundary points count as inside. Raises DrivableAreaUnsupported when
        the map carries no area geometry at all (distinct from False).
        """
        if not self.has_drivable_area:
            raise DrivableAreaUnsupported(f"map {self.map_id} has no road areas and no bounded lanes")
        px, py = float(point[0]), float(point[1])
        return any(point_in_polygon(px, py, poly) for poly in self.drivable_polygons())

    def traffic_light_status(self, lane_id: str, scene_ts: int) -> TrafficLightStatus:
        if lane_id not in self.lanes:
            raise KeyError(f"unknown lane_id {lane_id!r}")
        return self.traffic_light_frame.get((lane_id, scene_ts), TrafficLightStatus.UNKNOWN)

    def stats(self) -> MapStats:
        lane_length = sum(lane.centerline.arclength() for lane in self.lanes.values())
        road = sum(polygon_area(p) for p in self.road_areas)
        road += sum(polygon_area(p) for p in self._lane_polygons.values())
        ped = sum(polygon_area(p) for p in self.ped_crosswalks)
        ped += sum(polygon_area(p) for p in self.ped_walkways)
        return MapStats(total_lane_length=lane_length / 1000.0, road_area=road, pedestrian_area=ped)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _encode_ring(ring: np.ndarray, cached: bytes | None) -> bytes:
    if cached is not None:
        return cached
    pts3 = np.zeros((len(ring), 3))
    pts3[:, :2] = ring
    return _encode_points(pts3)


def _area_entry(area: PolygonArea) -> dict:
    return {"n_exterior": len(area.exterior), "n_holes": [len(h) for h in area.holes]}


def _encode_area(area: PolygonArea) -> bytes:
    cached = area._encoded
    out = bytearray()
    for i, ring in enumerate(area.rings()):
        out += _encode_ring(ring, cached[i] if cached is not None else None)
    return bytes(out)


def _decode_area(buf: bytes, offset: int, entry: dict) -> tuple[PolygonArea, int]:
    blobs: list[bytes] = []
    pts, blob, offset = _decode_points(buf, offset, int(entry["n_exterior"]))
    blobs.append(blob)
    exterior = pts[:, :2]
    holes = []
    for n in entry["n_holes"]:
        pts, blob, offset = _decode_points(buf, offset, int(n))
        blobs.append(blob)
        holes.append(pts[:, :2])
    area = PolygonArea(exterior, holes, _encoded=blobs)
    return area, offset


def map_serialize(vmap: VectorMap) -> bytes:
    """Canonical binary encoding; byte-identical across repeated round trips."""
    lanes_entry = []
    for lane_id in sorted(vmap.lanes):
        lane = vmap.lanes[lane_id]
        lanes_entry.append(
            {
                "id": lane_id,
                "adjacent_left": sorted(lane.adjacent_left),
                "adjacent_right": sorted(lane.adjacent_right),
                "successors": sorted(lane.successors),
                "predecessors": sorted(lane.predecessors),
                "n_center": len(lane.centerline),
                "n_left": None if lane.left_edge is None else len(lane.left_edge),
                "n_right": None if lane.right_edge is None else len(lane.right_edge),
            }
        )
    header = {
        "map_id": vmap.map_id,
        "lanes": lanes_entry,
        "road_areas": [_area_entry(a) for a in vmap.road_areas],
        "ped_crosswalks": [_area_entry(a) for a in vmap.ped_crosswalks],
        "ped_walkways": [_area_entry(a) for a in vmap.ped_walkways],
        "traffic_lights": sorted(
            [lane_id, ts, str(status)] for (lane_id, ts), status in vmap.traffic_light_frame.items()
        ),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = bytearray()
    out += MAP_MAGIC
    out += struct.pack("<I", MAP_VERSION)
    out += struct.pack("<Q", len(header_bytes))
    out += header_bytes
    for lane_id in sorted(vmap.lanes):
        lane = vmap.lanes[lane_id]
        out += lane.centerline.encode()
        if lane.left_edge is not None:
            out += lane.left_edge.encode()
        if lane.right_edge is not None:
            out += lane.right_edge.encode()
    for areas in (vmap.road_areas, vmap.ped_crosswalks, vmap.ped_walkways):
        for area in areas:
            out += _encode_area(area)
    return bytes(out)


def map_deserialize(data: bytes) -> VectorMap:
    """Decode map_serialize output; geometry is reconstructed within 1e-3 m and
    everything non-geometric exactly."""
    head_len = len(MAP_MAGIC) + 4 + 8
    if len(data) < head_len:
        raise MapFormatError(f"file too short ({len(data)} bytes) for the map preamble")
    if data[: len(MAP_MAGIC)] != MAP_MAGIC:
        raise MapFormatError(f"bad magic {data[:len(MAP_MAGIC)]!r}, expected {MAP_MAGIC!r}")
    (version,) = struct.unpack_from("<I", data, len(MAP_MAGIC))
    if version != MAP_VERSION:
        raise MapFormatError(f"unsupported map version {version}, expected {MAP_VERSION}")
    (header_len,) = struct.unpack_from("<Q", data, len(MAP_MAGIC) + 4)
    pos = head_len + header_len
    if len(data) < pos:
        raise MapFormatError("file ends inside the JSON directory")
    try:
        header = json.loads(data[head_len:pos].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MapFormatError(f"unreadable map directory: {exc}") from exc

    try:
        return _map_from_header(header, data, pos)
    except (KeyError, TypeError, ValueError) as exc:
        raise MapFormatError(f"map directory does not match the map schema: {exc!r}") from exc


def _map_from_header(header: dict, data: bytes, pos: int) -> VectorMap:
    """Decode the geometry payload at pos as the directory directs; a directory
    lacking a key or holding a wrong-typed value raises KeyError, TypeError or
    ValueError."""
    lanes = []
    for entry in header["lanes"]:
        centerline, pos = Polyline.decode(data, pos, int(entry["n_center"]))
        left = right = None
        if entry["n_left"] is not None:
            left, pos = Polyline.decode(data, pos, int(entry["n_left"]))
        if entry["n_right"] is not None:
            right, pos = Polyline.decode(data, pos, int(entry["n_right"]))
        lanes.append(
            RoadLane(
                lane_id=entry["id"],
                centerline=centerline,
                left_edge=left,
                right_edge=right,
                adjacent_left=set(entry["adjacent_left"]),
                adjacent_right=set(entry["adjacent_right"]),
                successors=set(entry["successors"]),
                predecessors=set(entry["predecessors"]),
            )
        )
    areas: dict[str, list[PolygonArea]] = {}
    for kind in ("road_areas", "ped_crosswalks", "ped_walkways"):
        decoded = []
        for entry in header[kind]:
            area, pos = _decode_area(data, pos, entry)
            decoded.append(area)
        areas[kind] = decoded
    if pos != len(data):
        raise MapFormatError(f"trailing bytes after geometry payload ({len(data) - pos})")

    lights = {}
    for lane_id, ts, status in header["traffic_lights"]:
        lights[(lane_id, int(ts))] = TrafficLightStatus.from_string(status)

    return VectorMap(
        map_id=header["map_id"],
        lanes=lanes,
        road_areas=areas["road_areas"],
        ped_crosswalks=areas["ped_crosswalks"],
        ped_walkways=areas["ped_walkways"],
        traffic_lights=lights,
    )
