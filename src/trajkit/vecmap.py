"""Polyline vector-map model: lanes with connectivity, drivable/pedestrian
polygons, traffic-light state, spatial queries, and a compact binary format.

Distance queries operate in the xy-plane (z is carried but ignored).
Centerline-only lanes contribute lane length but no drivable area; lane
polygons exist only where both edges are given. Area totals sum polygons
without overlap resolution and over-count where they overlap.

The constructor and the decoder finalize a map from the same lane table: a
read-only (P, 3) point array, each lane's point ranges and its links. The
decoder fills the array with every polyline of a file in one pass; lane
records are built from the table only when ``VectorMap.lanes`` is read.
"""

from __future__ import annotations

import enum
import io
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

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


def _read_only(values) -> np.ndarray:
    """values as a float64 array that nothing can write: the array itself if
    it is a read-only one already, else a read-only copy."""
    array = np.asarray(values, dtype=np.float64)
    if array.flags.writeable:
        array = array.copy()
        array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class Polyline:
    """Ordered (x, y, z) points in meters; consecutive points must differ.
    The points are read-only: a writable array given is copied."""

    points: np.ndarray

    def __post_init__(self):
        pts = _read_only(self.points)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"polyline points must be (N, 3), got {pts.shape}")
        if len(pts) < 2:
            raise ValueError("polyline needs at least 2 points")
        if np.any(np.all(pts[1:] == pts[:-1], axis=1)):
            raise ValueError("polyline has identical consecutive points")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def xy(self) -> np.ndarray:
        return self.points[:, :2]

    def arclength(self) -> float:
        """Length of the xy projection in meters."""
        return _arclength(self.points)


def _arclength(points: np.ndarray) -> float:
    """Length of the xy projection of (n, 3) points in meters."""
    d = np.diff(points[:, :2], axis=0)
    return float(np.sum(np.hypot(d[:, 0], d[:, 1])))


def _normalize_ring(ring) -> np.ndarray:
    pts = _read_only(ring)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"ring points must be (N, 2), got {pts.shape}")
    if len(pts) >= 2 and np.all(pts[0] == pts[-1]):
        pts = pts[:-1]
    if len(pts) < 2:  # the map format holds no ring of fewer points
        raise ValueError(f"ring needs at least 2 points without its closing duplicate, got {len(pts)}")
    return pts


@dataclass(frozen=True, eq=False)
class PolygonArea:
    """Closed region given by an exterior ring and optional hole rings.

    Rings are stored open (no repeated closing vertex); a closing duplicate in
    the input is dropped, and a ring must keep at least 2 points. The area is
    frozen, its holes a tuple and its rings read-only (a writable array given
    is copied).
    """

    exterior: np.ndarray
    holes: tuple[np.ndarray, ...] = ()
    _encoded: tuple[bytes, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        given = (self.exterior, *self.holes)
        rings = [_normalize_ring(ring) for ring in given]
        object.__setattr__(self, "exterior", rings[0])
        object.__setattr__(self, "holes", tuple(rings[1:]))
        if any(len(ring) != len(raw) for ring, raw in zip(rings, given)):
            object.__setattr__(self, "_encoded", None)  # a payload of the rings before a closing duplicate was dropped

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
    those rows does the boundary and crossing tests. Skipping the other
    polygons is exact. A point outside a polygon's y-range touches and
    straddles none of its edges. Where ``y0 <= py < y1`` the crossing
    abscissa ``x_at`` stays within a few ULPs of the edge's x-range, far
    inside the margin, so a point left of the box crosses every straddled
    edge (an even number per ring) and a point right of it crosses none.
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


def point_in_polygon(px: float, py: float, area: PolygonArea) -> bool:
    """Even-odd membership over exterior and holes; boundary points count as inside."""
    return bool(_EdgeTable([area]).contains_many(np.array([px]), np.array([py]))[0])


# ---------------------------------------------------------------------------
# Lanes and the map
# ---------------------------------------------------------------------------

_RELATIONS = ("adjacent_left", "adjacent_right", "successors", "predecessors")


@dataclass(frozen=True, eq=False)
class RoadLane:
    """A driveable lane: centerline, optional edges, and graph connectivity.

    Frozen; each relation is a frozenset of lane ids (another iterable given
    is converted). A map's own records take their predecessors from its
    successor links, so each link shows on both of its lanes.
    """

    lane_id: str
    centerline: Polyline
    left_edge: Polyline | None = None
    right_edge: Polyline | None = None
    adjacent_left: frozenset[str] = frozenset()
    adjacent_right: frozenset[str] = frozenset()
    successors: frozenset[str] = frozenset()
    predecessors: frozenset[str] = frozenset()

    def __post_init__(self):
        for name in _RELATIONS:
            ids = getattr(self, name)
            if isinstance(ids, str):
                raise TypeError(f"lane {self.lane_id}: {name} must be a collection of lane ids, got the string {ids!r}")
            object.__setattr__(self, name, frozenset(ids))


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


class _SegmentIndex:
    """Lane centerline segments in STR order (Leutenegger et al., ICDE 1997),
    packed into leaves of _NODE_CAPACITY consecutive segments. The last leaf
    is padded with copies of its own last segment; a duplicate changes
    neither a minimum, nor the lane ordinals among ties, nor a set of lanes.

    Every array holds x and y together, so each step of a query is one array
    call for both axes:

    - ``_boxes`` (4, L): the leaf boxes as rows lo_x, lo_y, -hi_x, -hi_y.
      Less (px, py, -px, -py), they give lo - p and p - hi at once; negation
      is exact, so the bits are those of the two separate differences.
    - ``_segments`` (L, 5, _NODE_CAPACITY): per leaf the rows ax, ay (the
      segment starts), dx, dy (the offsets to the ends) and the divisor
      len2 = dx * dx + dy * dy, set to 1 where it is not positive.
    - ``_lane_ord`` (L, _NODE_CAPACITY): each segment's lane ordinal.

    len2 is not positive only where d holds a NaN, which makes the distance
    NaN either way, or where a step under about 2e-162 m underflows it to 0.
    Such a step lies within about 1e-146 m of the origin, since consecutive
    doubles near x are x * 2.2e-16 apart. With the divisor 1 there, t * d is
    0 unless |p - a| is of order 1 m or more, and at that distance moving
    the nearest point a + t * d by at most |d| changes no bit of the
    distance. The distance is therefore that of t = 0 with no mask;
    tests/oracles.py::reference_walk forces t = 0 and agrees bit for bit.

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
        len2 = dx * dx + dy * dy
        self._segments = np.stack([ax, ay, dx, dy, np.where(len2 > 0.0, len2, 1.0)], axis=1)
        self._lane_ord = lane_ord[seg].reshape(n_leaves, _NODE_CAPACITY)
        self._boxes = np.stack([
            np.minimum(ax, bx).min(axis=1), np.minimum(ay, by).min(axis=1),
            -np.maximum(ax, bx).max(axis=1), -np.maximum(ay, by).max(axis=1),
        ])

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

    # Far out, squares overflow to inf and inf - inf gives NaN. The callers
    # expect both (a nearest search skips NaN), so numpy is not to warn.
    @np.errstate(over="ignore", invalid="ignore")
    def walk(self, px: float, py: float, r2: float | None = None, scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """Lane ordinals of every segment in a surviving leaf, and their
        squared distances to the point, each distance first multiplied by
        scale (a power of two, so exactly), as two (k, _NODE_CAPACITY) arrays.

        A leaf survives unless its box lies farther than r2. Given no r2 the
        scan is a nearest search: r2 is the smallest farthest-corner distance
        of any leaf, widened by a relative 1e-9 (far above float64 rounding)
        so that rounding cannot prune a winner. Every box holds a segment no
        farther than its farthest corner, which bounds the MINMAXDIST of
        Roussopoulos, Kelley and Vincent (SIGMOD 1995) from above.

        A segment's nearest point is a + t * d with t the projection of
        p - a on d, clipped to [0, 1]; the distance is measured from it.
        """
        p = np.array((px, py, -px, -py))[:, None]
        gaps = self._boxes - p
        below, above = gaps[:2], gaps[2:]  # per axis, the signed gaps to the box's sides
        if r2 is None:
            # The farthest corner lies max(p - lo, hi - p) = -min(below, above) away per axis;
            # fmin skips a box with a NaN side, which bounds nothing (it is never pruned).
            far = np.minimum(below, above)
            far *= far
            r2 = float(np.fmin.reduce(far[0] + far[1])) * (1.0 + 1e-9)
        gap = np.maximum(below, above)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        leaves = (~(gap[0] + gap[1] > r2)).nonzero()[0]
        seg, xy = self._segments.take(leaves, axis=0), p[:2]  # take: a gather at a third of an index's cost
        a, d = seg[:, :2], seg[:, 2:4]
        u = xy - a
        u *= d
        t = u[:, :1] + u[:, 1:]
        t /= seg[:, 4:]
        np.maximum(t, 0.0, out=t)
        np.minimum(t, 1.0, out=t)
        q = t * d
        q += a
        q -= xy
        if scale != 1.0:
            q *= scale
        q *= q
        return self._lane_ord.take(leaves, axis=0), q[:, 0] + q[:, 1]


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


class _LaneTable(NamedTuple):
    """Every lane of a map, in input order, and no other copy of them.

    Lane k's centerline, left edge and right edge are
    points[lines[k, j, 0]:lines[k, j, 1]] for j = 0, 1, 2, an absent edge an
    empty range. links holds the adjacent_left, adjacent_right and successors
    relations, each a set of (lane, other lane) pairs; a lane's predecessors
    are the successor links read backwards. A decoded map keeps its file as
    payload and each line's byte range in it (line_bytes, shaped as lines),
    so that it serializes to the same bytes.
    """

    ids: tuple[str, ...]
    points: np.ndarray
    lines: np.ndarray
    links: tuple[frozenset, frozenset, frozenset]
    payload: bytes | None = None
    line_bytes: np.ndarray | None = None

    def relations(self) -> list[dict[str, list[str]]]:
        """Per relation of _RELATIONS, each lane's sorted list of the lanes it names."""
        return [*map(_grouped, self.links), _grouped((b, a) for a, b in self.links[2])]


def _links(lanes: Sequence[RoadLane], relation: str) -> frozenset[tuple[str, str]]:
    return frozenset((lane.lane_id, other) for lane in lanes for other in getattr(lane, relation))


def _grouped(links) -> dict[str, list[str]]:
    """The pairs (a, b) of links as each a's sorted list of b."""
    out: dict[str, list[str]] = {}
    for a, b in sorted(links):
        out.setdefault(a, []).append(b)
    return out


class VectorMap:
    """Read-only vector map; all queries are safe to run concurrently.

    The lanes are one table (_LaneTable) with each link stored once. ``lanes``
    presents them as frozen RoadLane records, built on first read and then
    kept; queries, stats and map_serialize build none. The areas are tuples
    of frozen PolygonArea, the traffic-light frame a read-only mapping, and
    no record or array of the caller's is changed or kept writable.

    Construction finalizes the map: lane references are validated, the
    successor links given on either side (a lane's successors, another's
    predecessors) are merged, with a warning when source data was
    asymmetric, lane polygons are built, and the edges and bounding boxes of
    the drivable polygons are tabulated. The lane segment index is packed on
    the first lane query.
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
        lines = [line for lane in lanes for line in (lane.centerline, lane.left_edge, lane.right_edge)]
        sizes = np.array([0 if line is None else len(line) for line in lines], dtype=np.int64).reshape(-1, 3)
        points = np.concatenate([line.points for line in lines if line is not None]) if lanes else np.zeros((0, 3))
        points.flags.writeable = False
        ends = np.cumsum(sizes).reshape(-1, 3)
        links = tuple(_links(lanes, relation) for relation in _RELATIONS[:3])
        table = _LaneTable(tuple(lane.lane_id for lane in lanes), points, np.stack([ends - sizes, ends], axis=-1), links)
        self._finalize(map_id, table, _links(lanes, "predecessors"), (road_areas, ped_crosswalks, ped_walkways), traffic_lights)

    def _finalize(self, map_id, table: _LaneTable, predecessors, areas, traffic_lights) -> None:
        """The one build of the constructor and the decoder, from the lane
        table and the predecessor links (lane, predecessor) given."""
        parts = map_id.split(":")
        if len(parts) != 2 or not all(parts):
            raise ValueError(f"map_id must be 'dataset:location', got {map_id!r}")
        self.map_id = map_id
        ids = table.ids
        self._id_set = frozenset(ids)
        if len(self._id_set) != len(ids):
            raise ValueError(f"duplicate lane_id {next(i for i, n in Counter(ids).items() if n > 1)!r}")
        self.road_areas, self.ped_crosswalks, self.ped_walkways = (tuple(kind) for kind in areas)
        self.traffic_light_frame: Mapping[tuple[str, int], TrafficLightStatus] = MappingProxyType(dict(traffic_lights or {}))

        self._validate_references((*table.links, predecessors))
        left, right, successors = table.links
        self._table = table._replace(links=(left, right, self._close_connectivity(successors, predecessors)))
        by_id = sorted(range(len(ids)), key=ids.__getitem__)
        self._lane_ids = [ids[k] for k in by_id]
        lines, xy = table.lines[by_id], table.points[:, :2]
        bounded = lines[(lines[:, 1, 1] > lines[:, 1, 0]) & (lines[:, 2, 1] > lines[:, 2, 0])].tolist()
        self._lane_polygons = tuple(PolygonArea(np.concatenate([xy[l0:l1], xy[r0:r1][::-1]])) for _, (l0, l1), (r0, r1) in bounded)
        self._centerlines = lines[:, 0]  # point rows (start, end) of each centerline, lanes in id order
        self._drivable = _EdgeTable(self.drivable_polygons())

    def _validate_references(self, relations) -> None:
        """relations: sets of links (lane, lane it names), checked in one pass."""
        bad = [(lane, other) for links in relations for lane, other in links if other == lane or other not in self._id_set]
        if bad:
            lane, other = min(bad)
            if other == lane:
                raise ValueError(f"lane {lane}: refers to itself")
            raise DanglingLaneError(f"lane {lane}: references the missing lane {other!r}")
        for (lane_id, ts), status in self.traffic_light_frame.items():
            if lane_id not in self._id_set:
                raise DanglingLaneError(f"traffic light record for missing lane {lane_id!r} at ts {ts}")
            if not isinstance(status, TrafficLightStatus):
                raise ValueError(f"traffic light status must be TrafficLightStatus, got {status!r}")

    def _close_connectivity(self, successors: frozenset, predecessors: frozenset) -> frozenset:
        """The successor links (a, b) given on either side: b among a's
        successors, or a among b's predecessors. Warns with the number of
        links that one side lacked."""
        given = frozenset((pred, lane) for lane, pred in predecessors)
        added = len(successors ^ given)
        if added:
            log.warning("map %s: closed %d asymmetric successor/predecessor links", self.map_id, added)
        return successors | given

    @cached_property
    def lanes(self) -> Mapping[str, RoadLane]:
        """The lanes as frozen RoadLane records in input order, in a read-only
        mapping built on first read, through the Polyline and RoadLane
        constructors, and then kept. Their predecessors are the successor
        links read backwards."""
        table, records, relations = self._table, {}, self._table.relations()
        for lane_id, ranges in zip(table.ids, table.lines.tolist()):
            lines = [Polyline(table.points[lo:hi]) if hi > lo else None for lo, hi in ranges]
            records[lane_id] = RoadLane(lane_id, *lines, *[by_lane.get(lane_id, ()) for by_lane in relations])
        return MappingProxyType(records)

    @cached_property
    def _index(self) -> _SegmentIndex | None:
        """Index over the segments of the lane centerlines, lanes in id order,
        built on the first lane query; None for a map without lanes. Two first
        queries at once build equal indexes, and either may be kept."""
        if not self._lane_ids:
            return None
        lo, hi = self._centerlines.T
        a = _expand_ranges(lo, hi - 1)  # the first row of every segment
        x, y = self._table.points[:, 0], self._table.points[:, 1]
        return _SegmentIndex(x[a], y[a], x[a + 1], y[a + 1], np.repeat(np.arange(len(lo)), hi - lo - 1))

    # -- queries ------------------------------------------------------------

    def closest_lane_with_distance(self, point) -> tuple[str, float]:
        """Lane whose centerline is nearest in the xy-plane, plus the distance.

        Ties break toward the lexicographically smallest lane_id. Matches a
        brute-force scan over all segments. A point whose distance to every
        lane is NaN (it overflows far out, or the lanes hold NaN coordinates)
        raises ValueError.
        """
        if self._index is None:
            raise NoLanesError(f"map {self.map_id} has no lanes")
        px, py = _finite_xy(point)
        lane_ord, d2 = self._index.walk(px, py)
        # fmin skips the NaN that walk gives where far points overflow.
        best = np.fmin.reduce(d2, axis=None)
        if best != best:
            raise ValueError(
                f"query point ({px}, {py}): its distance to every lane is NaN "
                "(it overflows this far out, or the lanes hold NaN coordinates)"
            )
        return self._lane_ids[min(lane_ord[d2 == best].tolist())], math.sqrt(best)

    def get_closest_lane(self, point) -> str:
        return self.closest_lane_with_distance(point)[0]

    def lanes_within(self, point, radius: float) -> set[str]:
        """Lane ids whose centerline xy-distance to the point is <= radius;
        every lane for an infinite radius."""
        if not radius >= 0.0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        px, py = _finite_xy(point)
        if self._index is None:
            return set()
        if radius == math.inf:  # also the lanes whose distance overflows to NaN
            return set(self._lane_ids)
        r2 = radius * radius
        # Above a radius of about 1.34e154 the squares overflow: compare distances scaled by 2**-600 instead.
        scale = 1.0 if r2 < math.inf else 2.0**-600
        lane_ord, d2 = self._index.walk(px, py, r2, scale)
        ids = self._lane_ids
        return {ids[i] for i in set(lane_ord[d2 <= (radius * scale) ** 2].tolist())}

    def drivable_polygons(self) -> list[PolygonArea]:
        return [*self.road_areas, *self._lane_polygons]

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
        if lane_id not in self._id_set:
            raise KeyError(f"unknown lane_id {lane_id!r}")
        return self.traffic_light_frame.get((lane_id, scene_ts), TrafficLightStatus.UNKNOWN)

    def stats(self) -> MapStats:
        points = self._table.points  # lane length is summed lane by lane, in input order
        lane_length = sum(_arclength(points[lo:hi]) for lo, hi in self._table.lines[:, 0].tolist())
        road = sum(polygon_area(p) for p in self.road_areas)
        road += sum(polygon_area(p) for p in self._lane_polygons)
        ped = sum(polygon_area(p) for p in self.ped_crosswalks)
        ped += sum(polygon_area(p) for p in self.ped_walkways)
        return MapStats(total_lane_length=lane_length / 1000.0, road_area=road, pedestrian_area=ped)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_AREA_KINDS = ("road_areas", "ped_crosswalks", "ped_walkways")


def map_serialize(vmap: VectorMap) -> bytes:
    """Canonical binary encoding; byte-identical across repeated round trips."""
    table, relations = vmap._table, vmap._table.relations()
    order = sorted(range(len(table.ids)), key=table.ids.__getitem__)
    lines = table.lines[order]
    sizes = lines[:, :, 1] - lines[:, :, 0]  # 0 for an absent edge
    lanes_entry = [
        {
            "id": lane_id,
            **{relation: by_lane.get(lane_id, []) for relation, by_lane in zip(_RELATIONS, relations)},
            "n_center": n_center,
            "n_left": n_left or None,
            "n_right": n_right or None,
        }
        for lane_id, (n_center, n_left, n_right) in zip(vmap._lane_ids, sizes.tolist())
    ]
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
    # A decoded map keeps its lanes' payload, a decoded area its rings'; every
    # other polyline is encoded here, lanes' all at once and areas' all at once.
    present = sizes > 0
    if table.payload is None:
        out += b"".join(_encode_polylines([table.points[lo:hi] for lo, hi in lines[present].tolist()]))
    else:
        out += b"".join(table.payload[a:b] for a, b in table.line_bytes[order][present].tolist())
    areas = [area for kind in _AREA_KINDS for area in getattr(vmap, kind)]
    blobs = iter(_encode_polylines([np.column_stack([ring, np.zeros(len(ring))]) for area in areas if area._encoded is None for ring in area.rings()]))
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
    except (KeyError, TypeError, ValueError) as exc:
        raise MapFormatError(f"map directory does not match the map schema: {exc!r}") from exc


def _of_type(values: list, kind: type, what: str) -> list:
    """values, if each is of exactly the type kind (so no bool passes as an
    int); ValueError naming what otherwise."""
    if {*map(type, values)} - {kind}:
        bad = next(value for value in values if type(value) is not kind)
        raise ValueError(f"map directory {what} must be a {kind.__name__}, got {bad!r}")
    return values


def _map_from_header(header: dict, data: bytes, pos: int) -> VectorMap:
    """Decode the geometry payload at pos as the directory directs, reading
    the directory one field at a time: every point count first, then every
    polyline in one pass. A directory lacking a key or holding a wrong-typed
    value raises KeyError, TypeError or ValueError."""
    map_id = _of_type([header["map_id"]], str, "map_id")[0]
    lanes = header["lanes"]
    ids = _of_type([entry["id"] for entry in lanes], str, "lane id")
    relations = []
    for relation in _RELATIONS:
        refs = _of_type([entry[relation] for entry in lanes], list, relation)
        _of_type([other for others in refs for other in others], str, f"{relation} entry")
        relations.append(frozenset((lane_id, other) for lane_id, others in zip(ids, refs) for other in others))
    lights = header["traffic_lights"]
    bad = [light for light in lights if type(light) is not list or [*map(type, light)] != [str, int, str]]
    if bad:
        raise ValueError(f"map directory traffic light must be a list [lane_id, ts, status] of [str, int, str], got {bad[0]!r}")

    center, left, right = ([entry[key] for entry in lanes] for key in ("n_center", "n_left", "n_right"))
    area_entries = [header[kind] for kind in _AREA_KINDS]
    ring_counts = [n for entries in area_entries for entry in entries for n in (entry["n_exterior"], *entry["n_holes"])]
    given = [*center, *(n for n in left + right if n is not None), *ring_counts]
    bad = [n for n in given if type(n) is not int or n < 2]  # bool is an int subclass, so True fails too
    if bad:
        raise MapFormatError(f"bad point count {bad[0]!r}: expected an integer >= 2")
    if given and max(given) > len(data):  # checked before any arithmetic can overflow
        raise MapFormatError(f"geometry payload truncated: a polyline of {max(given)} points in {len(data)} bytes")
    sizes = np.array([center, [n or 0 for n in left], [n or 0 for n in right]], dtype=np.int64).T  # 0: no edge
    present = sizes > 0
    counts = [*sizes[present].tolist(), *ring_counts]  # payload order: each lane's lines, then each ring
    points, start, repeats = _decode_polylines(data, pos, counts)
    end = pos + 12 * (len(points) + len(counts))
    if end != len(data):
        raise MapFormatError(f"trailing bytes after geometry payload ({len(data) - end})")
    n_lane_lines = len(counts) - len(ring_counts)
    if repeats[:n_lane_lines].any():
        raise MapFormatError("a lane polyline has identical consecutive points")
    points.flags.writeable = False

    n = np.array(counts, dtype=np.int64)
    byte_start = pos + 12 * (np.cumsum(n + 1) - (n + 1))
    lines, line_bytes = np.zeros((2, len(ids), 3, 2), dtype=np.int64)
    lines[present] = np.column_stack([start, start + n])[:n_lane_lines]
    line_bytes[present] = np.column_stack([byte_start, byte_start + 12 * (n + 1)])[:n_lane_lines]
    rings = iter(zip(start[n_lane_lines:].tolist(), ring_counts, byte_start[n_lane_lines:].tolist()))
    xy, areas = points[:, :2], []
    for entries in area_entries:
        areas.append([])
        for entry in entries:
            parts = [next(rings) for _ in range(1 + len(entry["n_holes"]))]
            views = [xy[a : a + n] for a, n, _ in parts]
            areas[-1].append(PolygonArea(views[0], views[1:], tuple(data[b : b + 12 * (n + 1)] for _, n, b in parts)))

    table = _LaneTable(tuple(ids), points, lines, tuple(relations[:3]), data, line_bytes)
    frame = {(lane_id, ts): TrafficLightStatus.from_string(status) for lane_id, ts, status in lights}
    vmap = VectorMap.__new__(VectorMap)
    vmap._finalize(map_id, table, relations[3], areas, frame)
    return vmap
