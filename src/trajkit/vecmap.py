"""Polyline vector-map model: lanes with connectivity, drivable/pedestrian
polygons, traffic-light state, spatial queries, and a compact binary format.

Distance queries operate in the xy-plane (z is carried but ignored).
Centerline-only lanes contribute lane length but no drivable area; lane
polygons exist only where both edges are given. Area totals sum polygons
without overlap resolution and over-count where they overlap.

The constructor and the decoder finalize a map from the same columns: a (P, 3)
point array and each lane's centerline rows. The decoder fills one array with
every polyline of a file in one pass; loaded polylines are read-only views.
"""

from __future__ import annotations

import enum
import io
import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import pack_container, read_container

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
        member = _LIGHT_STATUSES.get(text)
        if member is None:
            raise ValueError(f"unknown traffic light status {text!r}")
        return member


_LIGHT_STATUSES = {m.value: m for m in TrafficLightStatus}


# ---------------------------------------------------------------------------
# Geometry primitives
# ---------------------------------------------------------------------------

def _encode_polylines(polylines: Sequence[np.ndarray]) -> list[bytes]:
    """Each (n, 3) float64 polyline as its first point in 3 little-endian f64,
    then per further point 3xf32 deltas.

    Deltas are taken against the decoder's running reconstruction (not the
    original previous point) so quantization error never accumulates. Step k
    encodes point k of every polyline longer than k at once, by the float
    operations of a per-point loop, so the bytes are the same."""
    counts = np.array([len(p) for p in polylines], dtype=np.int64)
    if not len(counts):
        return []
    pts = np.concatenate(polylines)
    start = np.cumsum(counts) - counts
    order = np.argsort(-counts, kind="stable")  # longest first: the polylines still stepping are a prefix
    first, sizes = start[order], counts[order]
    prev = pts[first]
    deltas = np.zeros((len(pts), 3), dtype="<f4")
    for k in range(1, int(sizes[0])):
        m = int(np.count_nonzero(sizes > k))
        rows = first[:m] + k
        deltas[rows] = pts[rows] - prev[:m]
        prev[:m] += deltas[rows]
    # Polyline i takes units start + i to start + i + n: its base, then its deltas.
    units = np.empty((len(pts) + len(counts), 12), dtype=np.uint8)
    units[np.arange(len(pts)) + np.repeat(np.arange(len(counts)), counts) + 1] = deltas.view(np.uint8)
    base = start + np.arange(len(counts))
    units[base[:, None] + (0, 1)] = pts[start].astype("<f8").view(np.uint8).reshape(-1, 2, 12)
    payload, ends = units.tobytes(), (12 * np.cumsum(counts + 1)).tolist()
    return [payload[e - 12 * (n + 1) : e] for e, n in zip(ends, counts.tolist())]


def _decode_polylines(buf: bytes, offset: int, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of _encode_polylines over consecutive polylines of the given point
    counts: their points as one (P, 3) array grouped by point count, each one's
    first row, and whether it has identical consecutive points. A polyline of
    n points takes n + 1 units of 12 bytes: the f64 base two, each f32 delta one.
    One in-place cumsum per group adds in the order of a per-polyline cumsum,
    so gives the same bits (a flat cumsum less each prefix does not)."""
    counts = np.asarray(counts, dtype=np.int64)
    if not len(counts):
        return np.zeros((0, 3)), counts, np.zeros(0, dtype=bool)
    base = np.cumsum(counts + 1) - (counts + 1)  # the first unit of each polyline
    n_units = int(base[-1] + counts[-1] + 1)
    if len(buf) - offset < 12 * n_units:
        raise MapFormatError(f"geometry payload truncated: wanted {12 * n_units} bytes at offset {offset}")
    units = np.frombuffer(buf, dtype=np.uint8, count=12 * n_units, offset=offset).reshape(n_units, 12)
    order = np.argsort(counts, kind="stable")
    sizes = counts[order]
    start = np.empty_like(counts)
    start[order] = np.cumsum(sizes) - sizes
    repeats = np.empty(len(counts), dtype=bool)
    with np.errstate(all="ignore"):  # a payload may decode to NaN or inf
        # Row 0 of a polyline first takes the second half of its base, then the base.
        pts = units[_expand_ranges(base[order] + 1, base[order] + 1 + sizes)].view("<f4").astype(np.float64)
        pts[start] = np.concatenate((units[base], units[base + 1]), axis=1).view("<f8")
        for group in np.split(order, np.flatnonzero(np.diff(sizes)) + 1):
            block = pts[start[group[0]] : start[group[-1]] + counts[group[0]]].reshape(len(group), -1, 3)
            np.cumsum(block, axis=1, out=block)
            same = block[:, 1:] == block[:, :-1]
            repeats[group] = (same[..., 0] & same[..., 1] & same[..., 2]).any(axis=1)
    return pts, start, repeats


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

    @classmethod
    def _view(cls, points: np.ndarray, encoded: bytes) -> "Polyline":
        """A decoded polyline over points already checked, without __post_init__."""
        line = cls.__new__(cls)
        line.points, line._encoded = points, encoded
        return line


def _normalize_ring(ring) -> np.ndarray:
    pts = np.asarray(ring, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"ring points must be (N, 2), got {pts.shape}")
    if len(pts) >= 2 and np.all(pts[0] == pts[-1]):
        pts = pts[:-1]
    if len(pts) < 2:  # the map format holds no ring of fewer points
        raise ValueError(f"ring needs at least 2 points without its closing duplicate, got {len(pts)}")
    return pts


@dataclass(eq=False)
class PolygonArea:
    """Closed region given by an exterior ring and optional hole rings.

    Rings are stored open (no repeated closing vertex); a closing duplicate in
    the input is dropped, and a ring must keep at least 2 points.
    """

    exterior: np.ndarray
    holes: list[np.ndarray] = field(default_factory=list)
    _encoded: list[bytes] | None = field(default=None, repr=False)

    def __post_init__(self):
        given = (self.exterior, *self.holes)
        self.exterior = _normalize_ring(self.exterior)
        self.holes = [_normalize_ring(h) for h in self.holes]
        if any(len(ring) != len(raw) for ring, raw in zip(self.rings(), given)):
            self._encoded = None  # a payload of the rings before a closing duplicate was dropped

    def rings(self) -> list[np.ndarray]:
        return [self.exterior, *self.holes]


def _ring_area(ring: np.ndarray) -> float:
    if len(np.unique(ring, axis=0)) < 3:
        raise DegenerateRingError(f"ring with {len(ring)} points has fewer than 3 distinct vertices")
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def polygon_area(area: PolygonArea) -> float:
    """Shoelace area of the exterior minus the hole areas, in m^2."""
    total = _ring_area(area.exterior)
    for hole in area.holes:
        total -= _ring_area(hole)
    return total


class _EdgeTable:
    """Every edge of every ring of a list of polygons, grouped by polygon,
    plus each polygon's bounding box widened by a relative margin.

    ``contains_many`` runs the even-odd test for many points over all polygons
    at once: one (points, polygons) box test picks the candidate pairs, their
    edges are gathered as one array of (pair, edge) rows, and one pass over
    those rows does the boundary and crossing tests; ``contains`` is its
    one-point case. Skipping the other polygons is exact. A point outside a
    polygon's y-range touches and straddles none of its edges. Where
    ``y0 <= py < y1`` the crossing abscissa ``x_at`` stays within a few ULPs
    of the edge's x-range, far inside the margin, so a point left of the box
    crosses every straddled edge (an even number per ring) and a point right
    of it crosses none.
    """

    def __init__(self, polygons: Sequence[PolygonArea]):
        rings = [ring for area in polygons for ring in area.rings()]
        ring_len = np.array([len(ring) for ring in rings], dtype=np.int64)
        pts = np.concatenate(rings) if rings else np.zeros((0, 2))
        # Each edge runs from a vertex to the next one of its ring, the last back to the first.
        ring_end = np.cumsum(ring_len)
        nxt = np.arange(1, len(pts) + 1)
        nxt[ring_end[ring_len > 0] - 1] = (ring_end - ring_len)[ring_len > 0]
        x0, y0, x1, y1 = pts[:, 0], pts[:, 1], pts[nxt, 0], pts[nxt, 1]
        self._edges = np.stack(
            [x0, y0, x1 - x0, y1 - y0, np.minimum(x0, x1), np.maximum(x0, x1), np.minimum(y0, y1), np.maximum(y0, y1)]
        )
        counts = np.array([sum(map(len, area.rings())) for area in polygons], dtype=np.int64)
        self._end = np.cumsum(counts)
        self._start = self._end - counts
        # A polygon without points is never a candidate.
        self._lo, self._hi = np.full((2, len(polygons)), np.inf), np.full((2, len(polygons)), -np.inf)
        has = np.flatnonzero(counts)
        if len(has):
            first = self._start[has]
            reach = np.maximum.reduceat(np.abs(pts).max(axis=1), first)[:, None]
            near = reach < 1e300  # else NaN, infinite or near-overflow coordinates: always test the edges
            margin = np.where(near, 1e-9 * (1.0 + reach), 0.0)
            self._lo[:, has] = np.where(near, np.minimum.reduceat(pts, first) - margin, -np.inf).T
            self._hi[:, has] = np.where(near, np.maximum.reduceat(pts, first) + margin, np.inf).T

    def contains_many(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Per point (px[i], py[i]): True iff it lies in any polygon; boundary
        points count as inside."""
        lo, hi = self._lo, self._hi
        inside = np.zeros(len(px), dtype=bool)
        cx, cy = px[:, None], py[:, None]
        point, poly = np.nonzero((lo[0] <= cx) & (cx <= hi[0]) & (lo[1] <= cy) & (cy <= hi[1]))
        if len(point) == 0:
            return inside
        starts, ends = self._start[poly], self._end[poly]
        pair = np.repeat(np.arange(len(point)), ends - starts)  # the (point, polygon) pair of each edge row
        qx, qy = px[point[pair]], py[point[pair]]
        x0, y0, dx, dy, min_x, max_x, min_y, max_y = self._edges[:, _expand_ranges(starts, ends)]
        on_line = dx * (qy - y0) - (qx - x0) * dy == 0.0
        inside[point[pair[on_line & (qx >= min_x) & (qx <= max_x) & (qy >= min_y) & (qy <= max_y)]]] = True
        straddle = np.flatnonzero((min_y <= qy) & (qy < max_y))
        x_at = x0[straddle] + (qy[straddle] - y0[straddle]) / dy[straddle] * dx[straddle]
        crossed = straddle[qx[straddle] < x_at]
        inside[point[np.bincount(pair[crossed], minlength=len(point)) % 2 == 1]] = True
        return inside

    def contains(self, px: float, py: float) -> bool:
        """True iff (px, py) lies in any polygon; boundary points count as inside."""
        return bool(self.contains_many(np.array([px]), np.array([py]))[0])


def point_in_polygon(px: float, py: float, area: PolygonArea) -> bool:
    """Even-odd membership over exterior and holes; boundary points count as inside."""
    return _EdgeTable([area]).contains(px, py)


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


def segment_dist2(px: float, py: float, ax, ay, dx, dy, len2):
    """Squared xy distance from a point to segments (vectorized over segments)
    given each segment's start (ax, ay), its offset to the end (dx, dy) and
    len2 = dx * dx + dy * dy."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((px - ax) * dx + (py - ay) * dy) / len2
    t = np.where(len2 > 0.0, np.clip(t, 0.0, 1.0), 0.0)
    qx = ax + t * dx
    qy = ay + t * dy
    return (px - qx) ** 2 + (py - qy) ** 2


class _SegmentIndex:
    """Lane centerline segments in STR order (Leutenegger et al., ICDE 1997),
    packed into leaves of _NODE_CAPACITY consecutive segments. The leaf boxes
    are one stacked pair ``lo``/``hi`` of shape (2, L), and the segments one
    (L, 5, _NODE_CAPACITY) block of (ax, ay, dx, dy, len2) rows beside their
    (L, _NODE_CAPACITY) lane ordinals. The last leaf is padded with copies of
    its own last segment; a duplicate changes neither a minimum, nor the lane
    ordinals among ties, nor a set of lanes.

    Both lane queries scan every leaf box in one array call and gather the
    surviving leaves' blocks in one more (`walk`); there is no level above the
    leaves. Measured on 9.5k-76k segment maps, a scan starting from a higher
    level of the tree was slower at every size tried.
    """

    def __init__(self, ax, ay, bx, by, lane_ord):
        order = self._str_order(0.5 * (ax + bx), 0.5 * (ay + by))
        n_leaves = math.ceil(len(order) / _NODE_CAPACITY)
        seg = order[np.minimum(np.arange(n_leaves * _NODE_CAPACITY), len(order) - 1)]
        ax, ay, bx, by = (col[seg].reshape(n_leaves, _NODE_CAPACITY) for col in (ax, ay, bx, by))
        dx, dy = bx - ax, by - ay
        self._blocks = np.stack([ax, ay, dx, dy, dx * dx + dy * dy], axis=1)
        self._lane_ord = lane_ord[seg].reshape(n_leaves, _NODE_CAPACITY)
        self.lo = np.stack([np.minimum(ax, bx).min(axis=1), np.minimum(ay, by).min(axis=1)])
        self.hi = np.stack([np.maximum(ax, bx).max(axis=1), np.maximum(ay, by).max(axis=1)])

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

    def walk(self, px: float, py: float, r2: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Lane ordinals of every segment in a surviving leaf, and their
        squared distances to the point, as two (k, _NODE_CAPACITY) arrays.

        A leaf survives unless its box lies farther than r2. Given no r2 the
        scan is a nearest search: r2 is the smallest farthest-corner distance
        of any leaf, widened by a relative 1e-9 (far above float64 rounding)
        so that rounding cannot prune a winner. Every box holds a segment no
        farther than its farthest corner, which bounds the MINMAXDIST of
        Roussopoulos, Kelley and Vincent (SIGMOD 1995) from above.
        """
        p = np.array([[px], [py]])
        below, above = self.lo - p, p - self.hi  # per axis, the signed gaps to the box's sides
        if r2 is None:
            # The farthest corner lies max(p - lo, hi - p) = -min(below, above) away per axis;
            # fmin skips a box with a NaN side, which bounds nothing (it is never pruned).
            far = np.minimum(below, above)
            far *= far
            r2 = float(np.fmin.reduce(far[0] + far[1])) * (1.0 + 1e-9)
        gap = np.maximum(np.maximum(below, above), 0.0)
        gap *= gap
        leaves = np.flatnonzero(~(gap[0] + gap[1] > r2))
        ax, ay, dx, dy, len2 = self._blocks[leaves].transpose(1, 0, 2)
        return self._lane_ord[leaves], segment_dist2(px, py, ax, ay, dx, dy, len2)


def _expand_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, e) over the paired starts and ends."""
    lengths = ends - starts
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return np.arange(int(lengths.sum()), dtype=np.int64) + shift


def _finite_xy(point) -> tuple[float, float]:
    """The point's x and y as floats; ValueError unless both are finite."""
    px, py = float(point[0]), float(point[1])
    if not (math.isfinite(px) and math.isfinite(py)):
        raise ValueError(f"query point must be finite, got ({px}, {py})")
    return px, py


class VectorMap:
    """Immutable vector map; all queries are safe to run concurrently.

    Construction finalizes the map: lane references are validated,
    successor/predecessor symmetry is closed (with a warning when source data
    was asymmetric), lane polygons are built, the spatial index is packed, and
    the edges and bounding boxes of the drivable polygons are tabulated.
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
        lanes = list(lanes)
        lines = [lane.centerline.points for lane in lanes]
        n = np.array([len(line) for line in lines], dtype=np.int64)
        columns = (np.concatenate(lines) if lines else np.zeros((0, 3)), np.cumsum(n) - n, np.cumsum(n))
        self._finalize(map_id, lanes, (road_areas, ped_crosswalks, ped_walkways), traffic_lights, columns)

    def _finalize(self, map_id, lanes, areas, traffic_lights, centerlines) -> None:
        """The one build of the constructor and the decoder. centerlines holds
        columns (points, lo, hi): lane k's centerline is points[lo[k]:hi[k]]."""
        parts = map_id.split(":")
        if len(parts) != 2 or not all(parts):
            raise ValueError(f"map_id must be 'dataset:location', got {map_id!r}")
        self.map_id = map_id
        self.lanes: dict[str, RoadLane] = {}
        for lane in lanes:
            if lane.lane_id in self.lanes:
                raise ValueError(f"duplicate lane_id {lane.lane_id!r}")
            self.lanes[lane.lane_id] = lane
        self.road_areas, self.ped_crosswalks, self.ped_walkways = (list(kind) for kind in areas)
        self.traffic_light_frame: dict[tuple[str, int], TrafficLightStatus] = dict(traffic_lights or {})

        self._validate_references()
        self._close_connectivity()
        ids = list(self.lanes)
        by_id = sorted(range(len(ids)), key=ids.__getitem__)
        self._lane_ids = [ids[k] for k in by_id]
        polygons = ((lane_id, self.lanes[lane_id].polygon()) for lane_id in self._lane_ids)
        self._lane_polygons = {lane_id: poly for lane_id, poly in polygons if poly is not None}
        points, lo, hi = centerlines
        self._index = self._build_index(points, lo[by_id], hi[by_id]) if ids else None
        self._drivable = _EdgeTable(self.drivable_polygons())

    def _validate_references(self) -> None:
        for lane in self.lanes.values():
            refs = lane.adjacent_left | lane.adjacent_right | lane.successors | lane.predecessors
            missing = refs.difference(self.lanes)  # linear; refs - keys() scans every key
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

    @staticmethod
    def _build_index(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> _SegmentIndex:
        """Index over the segments of the polylines points[lo[k]:hi[k]]."""
        a = _expand_ranges(lo, hi - 1)  # the first row of every segment
        x, y = points[:, 0], points[:, 1]
        return _SegmentIndex(x[a], y[a], x[a + 1], y[a + 1], np.repeat(np.arange(len(lo)), hi - lo - 1))

    # -- queries ------------------------------------------------------------

    def closest_lane_with_distance(self, point) -> tuple[str, float]:
        """Lane whose centerline is nearest in the xy-plane, plus the distance.

        Ties break toward the lexicographically smallest lane_id. Matches a
        brute-force scan over all segments.
        """
        if self._index is None:
            raise NoLanesError(f"map {self.map_id} has no lanes")
        px, py = _finite_xy(point)
        lane_ord, d2 = self._index.walk(px, py)
        # fmin skips the NaN that segment_dist2 gives where far points overflow.
        best = np.fmin.reduce(d2, axis=None)
        return self._lane_ids[int(lane_ord[d2 == best].min())], math.sqrt(best)

    def get_closest_lane(self, point) -> str:
        return self.closest_lane_with_distance(point)[0]

    def lanes_within(self, point, radius: float) -> set[str]:
        """Lane ids whose centerline xy-distance to the point is <= radius."""
        if not radius >= 0.0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        px, py = _finite_xy(point)
        if self._index is None:
            return set()
        r2 = radius * radius
        lane_ord, d2 = self._index.walk(px, py, r2)
        return {self._lane_ids[i] for i in np.unique(lane_ord[d2 <= r2])}

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
        return bool(self.points_in_drivable_area([(float(point[0]), float(point[1]))])[0])

    def points_in_drivable_area(self, points) -> np.ndarray:
        """point_in_drivable_area of each row of an (N, 2) or (N, 3) array, as
        a bool array, in one array pass over every point."""
        if not self.has_drivable_area:
            raise DrivableAreaUnsupported(f"map {self.map_id} has no road areas and no bounded lanes")
        xy = np.asarray(points, dtype=np.float64)
        if xy.ndim != 2 or xy.shape[1] not in (2, 3):
            raise ValueError(f"points must be (N, 2) or (N, 3), got shape {xy.shape}")
        return self._drivable.contains_many(xy[:, 0], xy[:, 1])

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

_AREA_KINDS = ("road_areas", "ped_crosswalks", "ped_walkways")


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
        **{
            kind: [{"n_exterior": len(a.exterior), "n_holes": [len(h) for h in a.holes]} for a in getattr(vmap, kind)]
            for kind in _AREA_KINDS
        },
        "traffic_lights": sorted(
            [lane_id, ts, str(status)] for (lane_id, ts), status in vmap.traffic_light_frame.items()
        ),
    }
    out = pack_container(MAP_MAGIC, MAP_VERSION, header)
    # A decoded polyline or area keeps its payload; every other one is encoded here, all at once.
    lanes = [vmap.lanes[lane_id] for lane_id in sorted(vmap.lanes)]
    lines = [line for lane in lanes for line in (lane.centerline, lane.left_edge, lane.right_edge) if line is not None]
    areas = [area for kind in _AREA_KINDS for area in getattr(vmap, kind)]
    fresh = [line.points for line in lines if line._encoded is None]
    fresh += [np.column_stack([ring, np.zeros(len(ring))]) for area in areas if area._encoded is None for ring in area.rings()]
    blobs = iter(_encode_polylines(fresh))
    for line in lines:
        out += next(blobs) if line._encoded is None else line._encoded
    for area in areas:
        out += b"".join(area._encoded if area._encoded is not None else [next(blobs) for _ in area.rings()])
    return bytes(out)


def map_deserialize(data: bytes) -> VectorMap:
    """Decode map_serialize output; geometry is reconstructed within 1e-3 m and
    everything non-geometric exactly."""
    header, pos = read_container(io.BytesIO(data), len(data), MAP_MAGIC, MAP_VERSION, (MapFormatError,) * 3)
    try:
        with np.errstate(all="ignore"):  # decoded geometry may be NaN or inf
            return _map_from_header(header, data, pos)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: int() of an infinite ts
        raise MapFormatError(f"map directory does not match the map schema: {exc!r}") from exc


def _map_from_header(header: dict, data: bytes, pos: int) -> VectorMap:
    """Decode the geometry payload at pos as the directory directs: every point
    count first, then every polyline in one pass. A directory lacking a key or
    holding a wrong-typed value raises KeyError, TypeError or ValueError."""
    counts, centers = [], []
    for entry in header["lanes"]:
        centers.append(len(counts))
        counts += [entry["n_center"], *(entry[key] for key in ("n_left", "n_right") if entry[key] is not None)]
    n_lane_lines = len(counts)
    area_entries = [header[kind] for kind in _AREA_KINDS]
    for entries in area_entries:
        for entry in entries:
            counts += [entry["n_exterior"], *entry["n_holes"]]
    bad = [n for n in counts if type(n) is not int or n < 2]  # bool is an int subclass, so True fails too
    if bad:
        raise MapFormatError(f"bad point count {bad[0]!r}: expected an integer >= 2")
    if counts and max(counts) > len(data):  # checked before any arithmetic can overflow
        raise MapFormatError(f"geometry payload truncated: a polyline of {max(counts)} points in {len(data)} bytes")
    points, start, repeats = _decode_polylines(data, pos, counts)
    end = pos + 12 * (len(points) + len(counts))
    if end != len(data):
        raise MapFormatError(f"trailing bytes after geometry payload ({len(data) - end})")
    if repeats[:n_lane_lines].any():
        raise MapFormatError("a lane polyline has identical consecutive points")
    points.flags.writeable = False

    byte_end = (pos + 12 * np.cumsum(np.asarray(counts) + 1)).tolist()
    line = iter([Polyline._view(points[a : a + n], data[e - 12 * n - 12 : e]) for a, n, e in zip(start.tolist(), counts, byte_end)])
    lanes = []
    for entry in header["lanes"]:
        center = next(line)
        left = None if entry["n_left"] is None else next(line)
        right = None if entry["n_right"] is None else next(line)
        refs = entry["adjacent_left"], entry["adjacent_right"], entry["successors"], entry["predecessors"]
        lanes.append(RoadLane(entry["id"], center, left, right, set(refs[0]), set(refs[1]), set(refs[2]), set(refs[3])))
    areas = []
    for entries in area_entries:
        areas.append([])
        for entry in entries:
            rings = [next(line) for _ in range(1 + len(entry["n_holes"]))]
            areas[-1].append(PolygonArea(rings[0].xy, [r.xy for r in rings[1:]], _encoded=[r._encoded for r in rings]))

    lights = {(lane_id, int(ts)): TrafficLightStatus.from_string(status) for lane_id, ts, status in header["traffic_lights"]}
    vmap = VectorMap.__new__(VectorMap)
    lo = start[centers]
    vmap._finalize(header["map_id"], lanes, areas, lights, (points, lo, lo + np.asarray(counts)[centers]))
    return vmap
