"""Independent brute-force oracles.

Everything here re-derives expected results along a different path than the
library (exhaustive scans, scalar loops, dense sampling, alternative
decompositions) so that agreement is evidence, not tautology.
"""

import csv
import io
import json
import math
import struct
import zipfile

import numpy as np

from trajkit.analysis import (
    OFFROAD_TYPES,
    Histogram,
    MetricReport,
    _agent_counts,
    _observed_runs,
    _offroad_rows,
    _rate_entry,
    obb_corners,
    obb_intersect,
)
from trajkit.batching import STATE_DIM, AgentBatchElement, FilterSpec, SceneBatchElement, seconds_to_steps
from trajkit.core import COLUMN_NAMES, TYPE_BY_CODE, TYPE_NAMES, AgentMetadata, AgentType, Extent, SceneFrame, type_codes, wrap_angle
from trajkit.ingest import CANONICAL_HEADER, ParseError, _CsvColumns
from trajkit.kinematics import DEFAULT_SPEED_FLOOR, derive_derivative, plan_resample, resample_scene
from trajkit.simulation import OBS_STATE_LAYOUT, SimMetrics, SimObservation, _pooled_rate, wasserstein_1d
from trajkit.vecmap import PolygonArea, Polyline, RoadLane, TrafficLightStatus, VectorMap


def lane_segment_arrays(vmap):
    """Flatten a map's centerlines into parallel segment arrays (sorted lane order)."""
    ax, ay, bx, by, lane_ord = [], [], [], [], []
    lane_ids = sorted(vmap.lanes)
    for ord_, lane_id in enumerate(lane_ids):
        xy = vmap.lanes[lane_id].centerline.points[:, :2]
        ax.append(xy[:-1, 0])
        ay.append(xy[:-1, 1])
        bx.append(xy[1:, 0])
        by.append(xy[1:, 1])
        lane_ord.append(np.full(len(xy) - 1, ord_, dtype=np.int64))
    return (
        lane_ids,
        np.concatenate(ax),
        np.concatenate(ay),
        np.concatenate(bx),
        np.concatenate(by),
        np.concatenate(lane_ord),
    )


def brute_dist2_matrix(points, ax, ay, bx, by):
    """(Q, S) squared point-to-segment distances by direct evaluation."""
    px = points[:, 0][:, None]
    py = points[:, 1][:, None]
    dx = (bx - ax)[None, :]
    dy = (by - ay)[None, :]
    len2 = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((px - ax[None, :]) * dx + (py - ay[None, :]) * dy) / len2
    t = np.where(len2 > 0.0, np.clip(t, 0.0, 1.0), 0.0)
    qx = ax[None, :] + t * dx
    qy = ay[None, :] + t * dy
    return (px - qx) ** 2 + (py - qy) ** 2


def brute_closest_lanes(vmap, points):
    """Per query point: (winning lane_id, dist) by exhaustive scan with the
    same lexicographic tie-break as the production contract."""
    lane_ids, ax, ay, bx, by, lane_ord = lane_segment_arrays(vmap)
    d2 = brute_dist2_matrix(points, ax, ay, bx, by)
    d2min = d2.min(axis=1)
    is_min = d2 == d2min[:, None]
    big = np.where(is_min, lane_ord[None, :], np.iinfo(np.int64).max)
    winners = big.min(axis=1)
    return [(lane_ids[w], math.sqrt(m)) for w, m in zip(winners, d2min)]


def brute_lanes_within(vmap, points, radius):
    lane_ids, ax, ay, bx, by, lane_ord = lane_segment_arrays(vmap)
    d2 = brute_dist2_matrix(points, ax, ay, bx, by)
    hits = d2 <= radius * radius
    out = []
    for q in range(len(points)):
        out.append({lane_ids[o] for o in np.unique(lane_ord[hits[q]])})
    return out


def reference_segment_dist2(px: float, py: float, ax, ay, dx, dy, len2):
    """Squared xy distance from a point to segments (vectorized over segments)
    given each segment's start (ax, ay), its offset to the end (dx, dy) and
    len2 = dx * dx + dy * dy, one axis at a time: the kernel the segment
    index used before it stacked x and y."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((px - ax) * dx + (py - ay) * dy) / len2
    t = np.where(len2 > 0.0, np.clip(t, 0.0, 1.0), 0.0)
    qx = ax + t * dx
    qy = ay + t * dy
    return (px - qx) ** 2 + (py - qy) ** 2


def reference_walk(index, px: float, py: float, r2: float | None = None):
    """``vecmap._SegmentIndex.walk`` as it ran on separate leaf boxes lo/hi
    and per-axis (ax, ay, dx, dy, len2) blocks, read back from the index's
    stacked arrays: hi is the negation of the boxes' last two rows, len2 is
    recomputed from the offsets. Returns the surviving leaves, their lane
    ordinals and the squared distances."""
    lo, hi = index._boxes[:2], -index._boxes[2:]
    ax, ay, dx, dy = (index._segments[:, k] for k in range(4))
    p = np.array([[px], [py]])
    below, above = lo - p, p - hi
    if r2 is None:
        far = np.minimum(below, above)
        far *= far
        r2 = float(np.fmin.reduce(far[0] + far[1])) * (1.0 + 1e-9)
    gap = np.maximum(np.maximum(below, above), 0.0)
    gap *= gap
    leaves = np.flatnonzero(~(gap[0] + gap[1] > r2))
    ax, ay, dx, dy = ax[leaves], ay[leaves], dx[leaves], dy[leaves]
    return leaves, index._lane_ord[leaves], reference_segment_dist2(px, py, ax, ay, dx, dy, dx * dx + dy * dy)


def reference_encode_points(points):
    """One polyline encoded point by point and coordinate by coordinate: the
    encoder map_serialize replaced. The first point as 3 little-endian f64,
    then per point 3xf32 deltas against the running reconstruction."""
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


def reference_decode_points(buf, offset, n):
    """One encoded polyline by struct and a per-polyline cumsum: the decode
    the columnar map load replaced. Returns the points and the next offset."""
    nbytes = 24 + 12 * (n - 1)
    blob = buf[offset : offset + nbytes]
    assert len(blob) == nbytes, "payload truncated"
    base = struct.unpack_from("<3d", blob, 0)
    deltas = np.frombuffer(blob, dtype="<f4", offset=24).astype(np.float64).reshape(n - 1, 3)
    return np.cumsum(np.vstack([base, deltas]), axis=0), offset + nbytes


def reference_map_polylines(data):
    """Every polyline of a serialized map in payload order (each lane's
    centerline, left and right edge, then the rings of each road area,
    crosswalk and walkway), decoded one at a time."""
    (header_len,) = struct.unpack_from("<Q", data, 10)
    header = json.loads(data[18 : 18 + header_len])
    counts = []
    for entry in header["lanes"]:
        counts += [entry[key] for key in ("n_center", "n_left", "n_right") if entry[key] is not None]
    for kind in ("road_areas", "ped_crosswalks", "ped_walkways"):
        for entry in header[kind]:
            counts += [entry["n_exterior"], *entry["n_holes"]]
    out, pos = [], 18 + header_len
    with np.errstate(invalid="ignore", over="ignore"):  # NaN or inf payloads
        for n in counts:
            pts, pos = reference_decode_points(data, pos, n)
            out.append(pts)
    assert pos == len(data), "trailing bytes"
    return out


def reference_map_deserialize(data):
    """``map_deserialize`` as the per-polyline decode it replaced, building the
    map through the public constructors."""
    (header_len,) = struct.unpack_from("<Q", data, 10)
    header = json.loads(data[18 : 18 + header_len])
    lines = iter(reference_map_polylines(data))
    lanes = []
    for entry in header["lanes"]:
        center = Polyline(next(lines))
        left, right = (None if entry[key] is None else Polyline(next(lines)) for key in ("n_left", "n_right"))
        refs = (set(entry[key]) for key in ("adjacent_left", "adjacent_right", "successors", "predecessors"))
        lanes.append(RoadLane(entry["id"], center, left, right, *refs))
    areas = {}
    for kind in ("road_areas", "ped_crosswalks", "ped_walkways"):
        areas[kind] = []
        for entry in header[kind]:
            exterior = next(lines)[:, :2]
            areas[kind].append(PolygonArea(exterior, [next(lines)[:, :2] for _ in entry["n_holes"]]))
    lights = {(lane_id, ts): TrafficLightStatus.from_string(status) for lane_id, ts, status in header["traffic_lights"]}
    with np.errstate(invalid="ignore", over="ignore"):  # NaN or inf geometry
        return VectorMap(header["map_id"], lanes, traffic_lights=lights, **areas)


def reference_lane_records(vmap):
    """``VectorMap.lanes`` built through the public RoadLane and Polyline
    constructors (with their checks and conversions) from the map's lane
    table, as a plain dict."""
    table = vmap._table
    relations = table.relations()
    records = {}
    for lane_id, ranges in zip(table.ids, table.lines.tolist()):
        center, left, right = (Polyline(table.points[lo:hi]) if hi > lo else None for lo, hi in ranges)
        records[lane_id] = RoadLane(lane_id, center, left, right, *(by_lane.get(lane_id, ()) for by_lane in relations))
    return records


def reference_close_connectivity(lanes):
    """The successor/predecessor closing VectorMap did by editing its lane
    records in place, on lanes: a dict of lane id to an object with mutable
    sets successors and predecessors. Returns the number of links added, as
    the closing warning counts them."""
    added = 0
    for lane_id, lane in lanes.items():
        for succ in lane.successors:
            if lane_id not in lanes[succ].predecessors:
                lanes[succ].predecessors.add(lane_id)
                added += 1
        for pred in lane.predecessors:
            if lane_id not in lanes[pred].successors:
                lanes[pred].successors.add(lane_id)
                added += 1
    return added


def crossing_number_inside(px, py, rings):
    """Scalar-loop even-odd membership with boundary counted inside."""
    crossings = 0
    for ring in rings:
        n = len(ring)
        for i in range(n):
            x0, y0 = ring[i]
            x1, y1 = ring[(i + 1) % n]
            cross = (x1 - x0) * (py - y0) - (px - x0) * (y1 - y0)
            if cross == 0.0 and min(x0, x1) <= px <= max(x0, x1) and min(y0, y1) <= py <= max(y0, y1):
                return True
            if (y0 <= py < y1) or (y1 <= py < y0):
                x_at = x0 + (py - y0) / (y1 - y0) * (x1 - x0)
                if px < x_at:
                    crossings += 1
    return crossings % 2 == 1


def _reference_ring_edges(ring):
    x0, y0 = ring[:, 0], ring[:, 1]
    return x0, y0, np.concatenate((x0[1:], x0[:1])), np.concatenate((y0[1:], y0[:1]))


def _reference_on_ring_boundary(px, py, ring):
    x0, y0, x1, y1 = _reference_ring_edges(ring)
    cross = (x1 - x0) * (py - y0) - (px - x0) * (y1 - y0)
    within_x = (px >= np.minimum(x0, x1)) & (px <= np.maximum(x0, x1))
    within_y = (py >= np.minimum(y0, y1)) & (py <= np.maximum(y0, y1))
    return bool(np.any((cross == 0.0) & within_x & within_y))


def _reference_ring_crossings(px, py, ring):
    x0, y0, x1, y1 = _reference_ring_edges(ring)
    straddles = ((y0 <= py) & (y1 > py)) | ((y1 <= py) & (y0 > py))
    if not straddles.any():
        return 0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (py - y0) / (y1 - y0)
        x_at = x0 + t * (x1 - x0)
    return int(np.count_nonzero(straddles & (px < x_at)))


def reference_point_in_polygon(px, py, area):
    """Even-odd membership one ring at a time, boundary first: the
    per-polygon path the drivable-area edge table replaced."""
    crossings = 0
    # An infinite coordinate meets a horizontal edge as inf * 0 in the cross product.
    with np.errstate(invalid="ignore"):
        for ring in area.rings():
            if _reference_on_ring_boundary(px, py, ring):
                return True
            crossings += _reference_ring_crossings(px, py, ring)
    return crossings % 2 == 1


def reference_polygon_boxes(polygons):
    """(lo, hi) bounds, shape (2, n), of each polygon's points widened by
    1e-9 * (1 + max |coordinate|), one polygon at a time: infinite for a
    polygon with NaN, infinite or near-overflow coordinates, empty (lo = inf,
    hi = -inf) for one without points."""
    lo, hi = np.full((2, len(polygons)), np.inf), np.full((2, len(polygons)), -np.inf)
    for k, area in enumerate(polygons):
        pts = np.concatenate(area.rings())
        if not len(pts):
            continue
        reach = np.abs(pts).max()
        if reach < 1e300:
            lo[:, k], hi[:, k] = pts.min(axis=0) - 1e-9 * (1.0 + reach), pts.max(axis=0) + 1e-9 * (1.0 + reach)
        else:
            lo[:, k], hi[:, k] = -np.inf, np.inf
    return lo, hi


def reference_in_drivable_area(vmap, point):
    """``VectorMap.point_in_drivable_area`` as a scan over every drivable polygon."""
    px, py = float(point[0]), float(point[1])
    return any(reference_point_in_polygon(px, py, poly) for poly in vmap.drivable_polygons())


def reference_offroad_counts(scene, vmap, rows):
    """``analysis._offroad_counts`` one point at a time over the per-polygon
    scan: the per-point loop the batch drivable-area test replaced."""
    cols = scene.columns
    off = np.zeros(len(cols), dtype=bool)
    off[rows] = [not reference_in_drivable_area(vmap, (x, y)) for x, y in zip(cols.x[rows], cols.y[rows])]
    return _agent_counts(scene, rows, off)


def fan_triangulation_area(ring):
    """Polygon area via fan triangulation from vertex 0 (vs. the shoelace)."""
    ring = np.asarray(ring, dtype=float)
    total = 0.0
    for i in range(1, len(ring) - 1):
        u = ring[i] - ring[0]
        v = ring[i + 1] - ring[0]
        total += 0.5 * (u[0] * v[1] - u[1] * v[0])
    return abs(total)


def obb_grid_points(cx, cy, yaw, length, width, n_side):
    """Cell-center grid sample of an oriented box interior."""
    u = (np.arange(n_side) + 0.5) / n_side - 0.5
    uu, vv = np.meshgrid(u * length, u * width)
    c, s = math.cos(yaw), math.sin(yaw)
    x = cx + uu * c - vv * s
    y = cy + uu * s + vv * c
    return np.stack([x.ravel(), y.ravel()], axis=1)


def obb_sample_points(cx, cy, yaw, length, width, n_side):
    """Interior grid plus a perimeter ring (corners included).

    A thin corner-poke intersection always contains a vertex of one box inside
    the other, and a full-crossing intersection always spans a box's own width
    rows, so grid + perimeter together witness every non-degenerate overlap.
    """
    interior = obb_grid_points(cx, cy, yaw, length, width, n_side - 1)
    t = np.linspace(-0.5, 0.5, n_side // 2)
    edges_u = np.concatenate([t, t, np.full(len(t), -0.5), np.full(len(t), 0.5)])
    edges_v = np.concatenate([np.full(len(t), -0.5), np.full(len(t), 0.5), t, t])
    c, s = math.cos(yaw), math.sin(yaw)
    ex = cx + edges_u * length * c - edges_v * width * s
    ey = cy + edges_u * length * s + edges_v * width * c
    return np.vstack([interior, np.stack([ex, ey], axis=1)])


def points_in_obb(points, cx, cy, yaw, length, width):
    c, s = math.cos(yaw), math.sin(yaw)
    rx = points[:, 0] - cx
    ry = points[:, 1] - cy
    local_u = rx * c + ry * s
    local_v = -rx * s + ry * c
    return (np.abs(local_u) <= 0.5 * length) & (np.abs(local_v) <= 0.5 * width)


def obb_overlap_by_sampling(box_a, box_b, n_side=100):
    """Overlap verdict from dense sampling of both boxes (interior + perimeter).

    box = (cx, cy, yaw, length, width); ~n_side^2 samples per box.
    """
    pts_a = obb_sample_points(*box_a, n_side)
    if points_in_obb(pts_a, *box_b).any():
        return True
    pts_b = obb_sample_points(*box_b, n_side)
    return bool(points_in_obb(pts_b, *box_a).any())


def obb_margin(box_a, box_b):
    """Signed separation margin along the 4 rectangle axes.

    Positive: minimum overlap depth across all axes (a penetration measure).
    Negative: the largest axis gap (a separation measure).
    """
    overlaps = []
    for box in (box_a, box_b):
        yaw = box[2]
        for phi in (yaw, yaw + math.pi / 2.0):
            axis = (math.cos(phi), math.sin(phi))
            pa = _project_obb(box_a, axis)
            pb = _project_obb(box_b, axis)
            overlaps.append(min(pa[1], pb[1]) - max(pa[0], pb[0]))
    return min(overlaps)


def _project_obb(box, axis):
    cx, cy, yaw, length, width = box
    c, s = math.cos(yaw), math.sin(yaw)
    corners = []
    for su in (-0.5, 0.5):
        for sv in (-0.5, 0.5):
            x = cx + su * length * c - sv * width * s
            y = cy + su * length * s + sv * width * c
            corners.append(x * axis[0] + y * axis[1])
    return min(corners), max(corners)


def enumerate_qualifying(scene, h_min, f_min, allowed_types=None):
    """Brute-force enumeration of qualifying (agent_id, ts) batch elements:
    anchor observed, h_min in-lifetime steps behind, f_min ahead."""
    cols = scene.columns
    triples = []
    for i, meta in enumerate(scene.agents):
        if allowed_types is not None and meta.agent_type not in allowed_types:
            continue
        sl = scene.rows_for_agent(i)
        observed = {int(t): bool(o) for t, o in zip(cols.ts[sl], cols.observed[sl])}
        for ts in range(meta.first_ts, meta.last_ts + 1):
            if not observed.get(ts, False):
                continue
            if ts - h_min >= meta.first_ts and ts + f_min <= meta.last_ts:
                triples.append((meta.agent_id, ts))
    return triples


def reference_index_entries(cache, tags, centric, window, filt=None, desired_dt=None):
    """``batching.build_index``'s entries by the global sort it replaced: the
    anchors of every scene as (tag, scene id, agent id, agent index, ts),
    sorted on (tag, scene id, agent id, ts), then for scene-centric entries
    grouped by (tag, scene id, ts) and sorted again."""
    filt = filt or FilterSpec()
    allowed = np.array([t in filt.agent_types for t in TYPE_BY_CODE])
    triples = []
    for scene in cache.iter_scenes(tags):
        tag = scene.scene_tag().render()
        if desired_dt is not None:
            scene = resample_scene(scene, desired_dt)
        h_min, f_min = seconds_to_steps(window.history[0], scene.dt), seconds_to_steps(window.future[0], scene.dt)
        cols, j, ids = scene.columns, scene.columns.agent_index, scene.agent_ids
        ok = (
            cols.observed & allowed[scene.type_code][j]
            & (cols.ts - scene.first_ts[j] >= h_min) & (scene.last_ts[j] - cols.ts >= f_min)
        )
        triples += [(tag, scene.scene_id, ids[a], a, ts) for a, ts in zip(j[ok].tolist(), cols.ts[ok].tolist())]
    triples.sort(key=lambda t: (t[0], t[1], t[2], t[4]))
    if centric == "agent":
        return [(tag, sid, aidx, ts) for tag, sid, _, aidx, ts in triples]
    grouped = {}
    for tag, sid, _, aidx, ts in triples:
        grouped.setdefault((tag, sid, ts), []).append(aidx)
    return [(tag, sid, ts, tuple(idxs)) for (tag, sid, ts), idxs in sorted(grouped.items())]


def _reference_window(scene, agent_index, ts_values, origin, yaw):
    """One agent's window gathered slot by slot and rotated on its own: the
    per-agent path the batched window kernel replaced."""
    meta = scene.agents[agent_index]
    cols = scene.columns
    start = scene.rows_for_agent(agent_index).start
    mask = (ts_values >= meta.first_ts) & (ts_values <= meta.last_ts)
    rows = start + (np.where(mask, ts_values, meta.first_ts) - meta.first_ts)
    raw = np.zeros((len(ts_values), 6))
    heading = np.zeros(len(ts_values))
    if mask.any():
        idx = rows[mask]
        for k, name in enumerate(("x", "y", "vx", "vy", "ax", "ay")):
            raw[mask, k] = getattr(cols, name)[idx]
        heading[mask] = cols.heading[idx]
    c, s = math.cos(yaw), math.sin(yaw)
    state = np.zeros((len(raw), STATE_DIM))
    for k, (x, y) in enumerate(((raw[:, 0] - origin[0], raw[:, 1] - origin[1]), raw[:, 2:4].T, raw[:, 4:6].T)):
        state[:, 2 * k] = x * c + y * s  # rotation by -yaw
        state[:, 2 * k + 1] = y * c - x * s
    h_std = wrap_angle(heading - yaw)
    state[:, 6] = np.sin(h_std)
    state[:, 7] = np.cos(h_std)
    state[~mask] = 0.0
    return state, mask


def reference_element(index, i):
    """``batching.get_element`` rebuilt one agent at a time: neighbours by a
    scan over every agent present at the anchor, each window gathered and
    standardized separately."""
    entry = index.entries[i]
    ctx = index.contexts[(entry[0], entry[1])]
    scene, cols = ctx.scene, ctx.scene.columns
    if index.centric == "scene":
        _, _, ts, agent_indices = entry
        hist_ts = np.arange(ts - ctx.h_steps, ts + 1)
        fut_ts = np.arange(ts + 1, ts + ctx.f_steps + 1)
        a = len(agent_indices)
        histories = np.zeros((a, ctx.h_steps + 1, STATE_DIM))
        history_masks = np.zeros((a, ctx.h_steps + 1), dtype=bool)
        futures = np.zeros((a, ctx.f_steps, STATE_DIM))
        future_masks = np.zeros((a, ctx.f_steps), dtype=bool)
        for slot, j in enumerate(agent_indices):
            histories[slot], history_masks[slot] = _reference_window(scene, j, hist_ts, np.zeros(2), 0.0)
            futures[slot], future_masks[slot] = _reference_window(scene, j, fut_ts, np.zeros(2), 0.0)
        return SceneBatchElement(
            scene_id=scene.scene_id,
            dataset_tag=ctx.tag,
            current_ts=ts,
            dt=scene.dt,
            agent_ids=tuple(scene.agents[j].agent_id for j in agent_indices),
            agent_types=tuple(scene.agents[j].agent_type for j in agent_indices),
            histories=histories,
            history_masks=history_masks,
            futures=futures,
            future_masks=future_masks,
        )

    _, _, agent_index, ts = entry
    max_dist = index.filter.max_neighbor_dist
    ego_row = scene.row_at(agent_index, ts)
    origin = np.array([cols.x[ego_row], cols.y[ego_row]])
    yaw = float(cols.heading[ego_row])
    hist_ts = np.arange(ts - ctx.h_steps, ts + 1)
    fut_ts = np.arange(ts + 1, ts + ctx.f_steps + 1)
    neighbors = []
    for j in scene.agents_present_at(ts):
        if j == agent_index:
            continue
        row = scene.row_at(j, ts)
        if not cols.observed[row]:
            continue
        dist = math.hypot(cols.x[row] - origin[0], cols.y[row] - origin[1])
        if max_dist is not None and dist > max_dist:
            continue
        neighbors.append((dist, scene.agents[j].agent_id, j))
    neighbors.sort(key=lambda n: (n[0], n[1]))
    n_hist = np.zeros((len(neighbors), ctx.h_steps + 1, STATE_DIM))
    n_mask = np.zeros((len(neighbors), ctx.h_steps + 1), dtype=bool)
    for slot, (_, _, j) in enumerate(neighbors):
        n_hist[slot], n_mask[slot] = _reference_window(scene, j, hist_ts, origin, yaw)
    history, history_mask = _reference_window(scene, agent_index, hist_ts, origin, yaw)
    future, future_mask = _reference_window(scene, agent_index, fut_ts, origin, yaw)
    meta = scene.agents[agent_index]
    return AgentBatchElement(
        scene_id=scene.scene_id,
        dataset_tag=ctx.tag,
        agent_id=meta.agent_id,
        agent_type=meta.agent_type,
        current_ts=ts,
        dt=scene.dt,
        history=history,
        history_mask=history_mask,
        future=future,
        future_mask=future_mask,
        neighbor_ids=tuple(n[1] for n in neighbors),
        neighbor_types=tuple(scene.agents[n[2]].agent_type for n in neighbors),
        neighbor_histories=n_hist,
        neighbor_masks=n_mask,
        translation=origin,
        rotation=yaw,
    )


def reference_write_npz(path, arrays):
    """The zipfile loop ``batching._write_npz_deterministic`` replaced: one
    stored member per array, in name order, dated 1980-01-01 00:00."""
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.require(arrays[name], requirements="C"))
            zf.writestr(zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0)), buf.getvalue())


def reference_derivative(series, dt):
    """Central differences inside, one-sided at the ends, zero for a single
    sample: the one-series stencil the segment form of
    ``kinematics.derive_derivative`` replaced."""
    s = np.asarray(series, dtype=np.float64)
    n = len(s)
    if n < 2:
        return np.zeros(n)
    out = np.empty(n)
    out[0] = (s[1] - s[0]) / dt
    out[-1] = (s[-1] - s[-2]) / dt
    if n > 2:
        out[1:-1] = (s[2:] - s[:-2]) / (2.0 * dt)
    return out


def reference_unwrap_segments(series, offsets, segments=None):
    """A float64 copy of series with np.unwrap applied to each segment
    series[offsets[k]:offsets[k + 1]] (of every k, or of each k in segments),
    one call per segment: the per-agent loops of ``kinematics.impute_linear``
    and of the cumulative ``analysis.heading_deltas`` that
    ``kinematics.unwrap_segments`` replaced."""
    out = np.array(series, dtype=np.float64)
    for k in range(len(offsets) - 1) if segments is None else segments:
        out[offsets[k] : offsets[k + 1]] = np.unwrap(out[offsets[k] : offsets[k + 1]])
    return out


# The analysis metrics one agent or one timestep at a time, pooled per
# dataset: the loops the per-scene array passes of ``trajkit.analysis``
# replaced. Each takes ``datasets``, a mapping of dataset name to its scenes,
# and reference_report assembles their outputs into a MetricReport.

def _reference_rows_by_ts(scene):
    ts = scene.columns.ts
    order = np.argsort(ts, kind="stable")
    uniq, starts = np.unique(ts[order], return_index=True)
    out = {}
    for i, t in enumerate(uniq):
        end = starts[i + 1] if i + 1 < len(starts) else len(order)
        out[int(t)] = order[starts[i] : end]
    return out


def reference_simultaneous_agents(datasets, cfg):
    hists = []
    for dataset, scenes in sorted(datasets.items()):
        per_ts, maxima = [], []
        for scene in scenes:
            counts = np.zeros(scene.n_timesteps, dtype=np.int64)
            for meta in scene.agents:
                counts[meta.first_ts : meta.last_ts + 1] += 1
            per_ts.append(counts)
            maxima.append(int(counts.max()) if len(counts) else 0)
        edges = cfg.edges("simultaneous")
        hists.append(Histogram.from_samples("simultaneous_per_ts", dataset, "all", np.concatenate(per_ts), edges))
        hists.append(Histogram.from_samples("simultaneous_scene_max", dataset, "all", maxima, edges))
    return hists


def bincount_simultaneous_agents(datasets, cfg):
    """simultaneous_agents as one count per timestep: the rows at each ts,
    an agent having one row per lifetime timestep."""
    hists = []
    for dataset, scenes in sorted(datasets.items()):
        per_ts = [np.bincount(s.columns.ts) for s in scenes]
        maxima = [int(counts.max()) if len(counts) else 0 for counts in per_ts]
        edges = cfg.edges("simultaneous")
        hists.append(Histogram.from_samples("simultaneous_per_ts", dataset, "all", np.concatenate(per_ts), edges))
        hists.append(Histogram.from_samples("simultaneous_scene_max", dataset, "all", maxima, edges))
    return hists


def reference_agent_density(datasets, cfg):
    hists = []
    skipped = 0
    for dataset, scenes in sorted(datasets.items()):
        samples = []
        for scene in scenes:
            cols = scene.columns
            for _, rows in sorted(_reference_rows_by_ts(scene).items()):
                if len(rows) < cfg.density_min_agents:
                    continue
                xs, ys = cols.x[rows], cols.y[rows]
                area = float((xs.max() - xs.min()) * (ys.max() - ys.min()))
                if area <= 0.0:
                    skipped += 1
                    continue
                samples.append(len(rows) / area)
        hists.append(Histogram.from_samples("density", dataset, "all", samples, cfg.edges("density")))
    return hists, {"density_skipped_degenerate": skipped}


def reference_ego_agent_distances(datasets, cfg, ego_id="ego"):
    hists = []
    missing_ego = 0
    for dataset, scenes in sorted(datasets.items()):
        samples = []
        for scene in scenes:
            ego_idx = next((i for i, m in enumerate(scene.agents) if m.agent_id == ego_id), None)
            if ego_idx is None:
                missing_ego += 1
                continue
            cols = scene.columns
            ego = scene.agents[ego_idx]
            ego_sl = scene.rows_for_agent(ego_idx)
            for j, meta in enumerate(scene.agents):
                if j == ego_idx:
                    continue
                lo = max(ego.first_ts, meta.first_ts)
                hi = min(ego.last_ts, meta.last_ts)
                if lo > hi:
                    continue
                er = ego_sl.start + (lo - ego.first_ts)
                jr = scene.rows_for_agent(j).start + (lo - meta.first_ts)
                n = hi - lo + 1
                dx = cols.x[jr : jr + n] - cols.x[er : er + n]
                dy = cols.y[jr : jr + n] - cols.y[er : er + n]
                samples.append(np.hypot(dx, dy))
        pooled = np.concatenate(samples) if samples else np.zeros(0)
        hists.append(Histogram.from_samples("ego_distance", dataset, "all", pooled, cfg.edges("ego_distance")))
    return hists, {"ego_distance_scenes_missing_ego": missing_ego}


def reference_dynamics_distributions(datasets, cfg):
    hists = []
    for dataset, scenes in sorted(datasets.items()):
        pools = {}
        for scene in scenes:
            cols = scene.columns
            for i, meta in enumerate(scene.agents):
                sl = scene.rows_for_agent(i)
                pool = pools.setdefault(str(meta.agent_type), {"speed": [], "accel": [], "jerk": []})
                pool["speed"].append(np.hypot(cols.vx[sl], cols.vy[sl]))
                pool["accel"].append(np.hypot(cols.ax[sl], cols.ay[sl]))
                jx = reference_derivative(cols.ax[sl], scene.dt)
                jy = reference_derivative(cols.ay[sl], scene.dt)
                pool["jerk"].append(np.hypot(jx, jy))
        for agent_type, pool in sorted(pools.items()):
            for metric in ("speed", "accel", "jerk"):
                samples = np.concatenate(pool[metric]) if pool[metric] else np.zeros(0)
                hists.append(Histogram.from_samples(metric, dataset, agent_type, samples, cfg.edges(metric)))
    return hists


def reference_stationary_fraction(datasets, cfg):
    out = {}
    for dataset, scenes in sorted(datasets.items()):
        num = den = 0
        for scene in scenes:
            cols = scene.columns
            for i in range(scene.n_agents):
                sl = scene.rows_for_agent(i)
                obs = cols.observed[sl]
                if not obs.any():
                    continue
                xs, ys = cols.x[sl][obs], cols.y[sl][obs]
                disp = np.hypot(xs - xs[0], ys - ys[0])
                den += 1
                if float(disp.max()) < cfg.stationary_threshold:
                    num += 1
        if den:
            out[dataset] = _rate_entry(num, den)
    return out


def reference_heading_deltas(datasets, cfg):
    hists = []
    for dataset, scenes in sorted(datasets.items()):
        deltas, raws = {}, {}
        for scene in scenes:
            cols = scene.columns
            for i, meta in enumerate(scene.agents):
                h = cols.heading[scene.rows_for_agent(i)]
                dh = np.unwrap(h) - h[0] if cfg.cumulative_heading else wrap_angle(h - h[0])
                deltas.setdefault(str(meta.agent_type), []).append(dh)
                raws.setdefault(str(meta.agent_type), []).append(h)
        for agent_type in sorted(deltas):
            hists.append(Histogram.from_samples(
                "heading_delta", dataset, agent_type, np.concatenate(deltas[agent_type]), cfg.edges("heading_delta")
            ))
            hists.append(Histogram.from_samples(
                "heading_raw", dataset, agent_type, np.concatenate(raws[agent_type]), cfg.edges("heading_raw")
            ))
    return hists


def reference_path_efficiency(datasets, cfg):
    hists = []
    zero_path = 0
    for dataset, scenes in sorted(datasets.items()):
        per_type = {}
        for scene in scenes:
            cols = scene.columns
            for i, meta in enumerate(scene.agents):
                sl = scene.rows_for_agent(i)
                obs = cols.observed[sl]
                if np.count_nonzero(obs) < 2:
                    continue
                xs, ys = cols.x[sl][obs], cols.y[sl][obs]
                path = float(np.sum(np.hypot(np.diff(xs), np.diff(ys))))
                if path < 1e-6:
                    zero_path += 1
                    eff = 100.0
                else:
                    eff = 100.0 * math.hypot(xs[-1] - xs[0], ys[-1] - ys[0]) / path
                per_type.setdefault(str(meta.agent_type), []).append(eff)
        for agent_type in sorted(per_type):
            hists.append(Histogram.from_samples(
                "path_efficiency", dataset, agent_type, per_type[agent_type], cfg.edges("path_efficiency")
            ))
    return hists, {"path_efficiency_zero_path_agents": zero_path}


# The per-scene pooling by type name, the per-agent rate walk and the
# per-agent path sums that ``trajkit.analysis`` replaced with one pass per
# dataset over integer type codes.

_TYPE_NAMES = tuple(sorted(str(t) for t in AgentType))


def _scene_type_codes(scene):
    return np.array([_TYPE_NAMES.index(str(m.agent_type)) for m in scene.agents], dtype=np.int64)


def _pool_by_type(pool, codes, samples):
    """Append each type's share of samples to pool[type name]."""
    for code in np.unique(codes):
        pool.setdefault(_TYPE_NAMES[code], []).append(samples[codes == code])


def _pooled_histograms(dataset, pools, cfg):
    types = sorted(next(iter(pools.values())))
    return [
        Histogram.from_samples(metric, dataset, t, np.concatenate(pool[t]), cfg.edges(metric))
        for t in types
        for metric, pool in pools.items()
    ]


def scene_pooled_dynamics_distributions(datasets, cfg):
    hists = []
    for dataset, scenes in sorted(datasets.items()):
        pools = {"speed": {}, "accel": {}, "jerk": {}}
        for scene in scenes:
            cols = scene.columns
            codes = _scene_type_codes(scene)[cols.agent_index]
            jx = derive_derivative(cols.ax, scene.dt, scene.agent_offsets)
            jy = derive_derivative(cols.ay, scene.dt, scene.agent_offsets)
            _pool_by_type(pools["speed"], codes, np.hypot(cols.vx, cols.vy))
            _pool_by_type(pools["accel"], codes, np.hypot(cols.ax, cols.ay))
            _pool_by_type(pools["jerk"], codes, np.hypot(jx, jy))
        hists += _pooled_histograms(dataset, pools, cfg)
    return hists


def scene_pooled_heading_deltas(datasets, cfg):
    hists = []
    for dataset, scenes in sorted(datasets.items()):
        pools = {"heading_delta": {}, "heading_raw": {}}
        for scene in scenes:
            cols, off = scene.columns, scene.agent_offsets
            h = cols.heading
            if cfg.cumulative_heading:
                parts = [np.unwrap(h[a:b]) - h[a] for a, b in zip(off[:-1], off[1:])]
                dh = np.concatenate(parts) if parts else h
            else:
                dh = wrap_angle(h - h[off[cols.agent_index]])
            codes = _scene_type_codes(scene)[cols.agent_index]
            _pool_by_type(pools["heading_delta"], codes, dh)
            _pool_by_type(pools["heading_raw"], codes, h)
        hists += _pooled_histograms(dataset, pools, cfg)
    return hists


def scene_pooled_path_efficiency(datasets, cfg):
    """Path lengths by one np.sum per agent, pooled per scene."""
    hists = []
    zero_path = 0
    for dataset, scenes in sorted(datasets.items()):
        pool = {}
        for scene in scenes:
            cols = scene.columns
            rows, starts, ends = _observed_runs(scene)
            xs, ys = cols.x[rows], cols.y[rows]
            steps = np.hypot(np.diff(xs), np.diff(ys))
            enough = ends - starts >= 2
            lo, hi = starts[enough], ends[enough] - 1
            path = np.array([np.sum(steps[a:b]) for a, b in zip(lo, hi)])
            direct = np.array([math.hypot(xs[b] - xs[a], ys[b] - ys[a]) for a, b in zip(lo, hi)])
            still = path < 1e-6
            zero_path += int(np.count_nonzero(still))
            eff = np.where(still, 100.0, 100.0 * direct / np.where(still, 1.0, path))
            _pool_by_type(pool, _scene_type_codes(scene)[cols.agent_index[rows[lo]]], eff)
        hists += _pooled_histograms(dataset, {"path_efficiency": pool}, cfg)
    return hists, {"path_efficiency_zero_path_agents": zero_path}


def reference_rates(datasets, counts, per_timestep):
    """``analysis._rates`` by a walk over every selected agent."""
    out = {}
    for dataset, scenes in sorted(datasets.items()):
        num, den = {}, {}
        for scene in scenes:
            events, selected = counts(scene)
            if not per_timestep:
                events, selected = events > 0, selected > 0
            for i in np.flatnonzero(selected):
                t = str(scene.agents[i].agent_type)
                den[t] = den.get(t, 0) + int(selected[i])
                num[t] = num.get(t, 0) + int(events[i])
        out[dataset] = {t: _rate_entry(num[t], den[t]) for t in sorted(den)}
    return out


def reference_histogram_counts(samples, edges):
    """(counts, underflow, overflow) with out-of-range samples clipped into
    the boundary bins before np.histogram, as ``Histogram.from_samples`` did."""
    s = np.asarray(samples, dtype=np.float64)
    s = s[np.isfinite(s)]
    counts, _ = np.histogram(np.clip(s, edges[0], edges[-1]), bins=edges)
    return counts, int(np.count_nonzero(s < edges[0])), int(np.count_nonzero(s > edges[-1]))


SCENE_POOLED_METRICS = {
    "dynamics_distributions": scene_pooled_dynamics_distributions,
    "heading_deltas": scene_pooled_heading_deltas,
    "path_efficiency": scene_pooled_path_efficiency,
    "_rates": reference_rates,
}


def reference_obb_corners(cx, cy, yaw, length, width):
    """One box's corners by the per-box rotation ``analysis.obb_corners`` replaced."""
    hl, hw = 0.5 * length, 0.5 * width
    c, s = math.cos(yaw), math.sin(yaw)
    local = np.array([(-hl, -hw), (-hl, hw), (hl, hw), (hl, -hw)])
    x, y = local[:, 0], local[:, 1]
    return np.stack((x * c - y * s + cx, x * s + y * c + cy), axis=1)


def reference_obb_intersect(corners_a, corners_b):
    """The per-axis separating-axis loop ``analysis.obb_intersect`` replaced."""
    for corners in (corners_a, corners_b):
        edges = np.roll(corners, -1, axis=0) - corners
        for axis in np.stack([-edges[:2, 1], edges[:2, 0]], axis=1):
            pa, pb = (box[:, 0] * axis[0] + box[:, 1] * axis[1] for box in (corners_a, corners_b))
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True


def reference_scene_collisions(scene):
    """``analysis._scene_collisions`` over timestep groups from a dict of rows."""
    cols = scene.columns
    rows = np.array([m.extent is not None for m in scene.agents], dtype=bool)[cols.agent_index]
    hit = np.zeros(len(cols), dtype=bool)
    radius = [0.0 if m.extent is None else 0.5 * math.hypot(m.extent.length, m.extent.width) for m in scene.agents]
    for ts_rows in _reference_rows_by_ts(scene).values():
        pairs = [(int(cols.agent_index[r]), r) for r in ts_rows if rows[r]]
        for a in range(len(pairs)):
            ia, ra = pairs[a]
            for b in range(a + 1, len(pairs)):
                ib, rb = pairs[b]
                if math.hypot(cols.x[ra] - cols.x[rb], cols.y[ra] - cols.y[rb]) > radius[ia] + radius[ib]:
                    continue
                ea, eb = scene.agents[ia].extent, scene.agents[ib].extent
                ca = obb_corners(cols.x[ra], cols.y[ra], cols.heading[ra], ea.length, ea.width)
                cb = obb_corners(cols.x[rb], cols.y[rb], cols.heading[rb], eb.length, eb.width)
                if obb_intersect(ca, cb):
                    hit[ra] = hit[rb] = True
    return _agent_counts(scene, rows, hit)


REFERENCE_METRICS = {
    "simultaneous_agents": reference_simultaneous_agents,
    "agent_density": reference_agent_density,
    "ego_agent_distances": reference_ego_agent_distances,
    "dynamics_distributions": reference_dynamics_distributions,
    "stationary_fraction": reference_stationary_fraction,
    "heading_deltas": reference_heading_deltas,
    "path_efficiency": reference_path_efficiency,
    "_scene_collisions": reference_scene_collisions,
}


def reference_agent_population(datasets):
    """Unique agent ids per dataset, each with the type of the first scene,
    in the order given, that holds it."""
    out = {}
    for dataset, scenes in sorted(datasets.items()):
        types = {}
        for scene in scenes:
            for meta in scene.agents:
                types.setdefault(meta.agent_id, str(meta.agent_type))
        counts = {t: list(types.values()).count(t) for t in sorted(set(types.values()))}
        out[dataset] = {"unique_agents": len(types), "type_counts": counts, "type_fractions": {t: n / len(types) for t, n in counts.items()}}
    return out


# The per-dataset functions reference_report takes by default, under the names
# of the library functions they stand for.
POOLED_METRICS = {
    **REFERENCE_METRICS,
    "agent_population": reference_agent_population,
    "_rates": reference_rates,
    "_offroad_counts": reference_offroad_counts,
}


def reference_report(cache, tags, metrics, cfg, vmap=None, ego_id="ego", **pooled):
    """The MetricReport of per-dataset metric functions over every scene the
    tags select, the scenes held at once and grouped by dataset, as
    ``analysis.run_analysis`` assembled it before it became one pass over the
    cache. pooled replaces entries of POOLED_METRICS by name."""
    fns = {**POOLED_METRICS, **pooled}
    datasets = {}
    for scene in cache.iter_scenes(tags):
        datasets.setdefault(scene.scene_tag().dataset, []).append(scene)
    report = MetricReport(config=cfg.to_dict(), tags=list(tags))
    wanted = set(metrics)

    def rates(counts):
        return fns["_rates"](datasets, counts, cfg.per_timestep_rates)

    if "population" in wanted:
        report.population = fns["agent_population"](datasets)
    if "simultaneous" in wanted:
        report.histograms += fns["simultaneous_agents"](datasets, cfg)
    for metric, name, args in (("density", "agent_density", ()), ("ego_distances", "ego_agent_distances", (ego_id,)),
                               ("path_efficiency", "path_efficiency", ())):
        if metric in wanted:
            hists, tallies = fns[name](datasets, cfg, *args)
            report.histograms += hists
            report.tallies.update(tallies)
    if wanted & {"speed", "accel", "jerk"}:
        report.histograms += [h for h in fns["dynamics_distributions"](datasets, cfg) if h.name in wanted]
    if "heading_deltas" in wanted:
        report.histograms += fns["heading_deltas"](datasets, cfg)
    if "stationary" in wanted:
        report.rates["stationary"] = {ds: {"all": entry} for ds, entry in fns["stationary_fraction"](datasets, cfg).items()}
    if "collision" in wanted:
        report.rates["collision"] = rates(fns["_scene_collisions"])
        report.tallies["collision_agents_without_extent"] = sum(m.extent is None for ss in datasets.values() for s in ss for m in s.agents)
    if "harsh_accel" in wanted:
        report.rates["harsh_accel"] = rates(lambda s: _agent_counts(s, s.columns.observed, np.hypot(s.columns.ax, s.columns.ay) > cfg.harsh_accel_threshold))
    if "offroad" in wanted:
        if vmap is None or not vmap.has_drivable_area:
            report.unavailable.append("offroad")
            if vmap is not None:
                report.tallies["offroad_unsupported_map"] = 1
        else:
            report.rates["offroad"] = rates(lambda s: fns["_offroad_counts"](s, vmap, s.columns.observed & _offroad_rows(s, cfg.offroad_types)))
    return report


def wasserstein_by_quantile_grid(a, b, n_grid=200001):
    """W1 approximated on a dense shared quantile grid (independent estimator)."""
    q = (np.arange(n_grid) + 0.5) / n_grid
    qa = np.quantile(np.asarray(a, dtype=float), q, method="inverted_cdf")
    qb = np.quantile(np.asarray(b, dtype=float), q, method="inverted_cdf")
    return float(np.mean(np.abs(qa - qb)))


class ReferenceSimState:
    """A rollout held agent by agent: the recorded scene plus, per controlled
    agent, the list of provided (x, y, heading) poses after init_ts."""

    def __init__(self, scene, init_ts, controlled):
        self.scene = scene
        self.init_ts = init_ts
        self.current_ts = init_ts
        self.controlled_idx = {
            agent_id: next(i for i, m in enumerate(scene.agents) if m.agent_id == agent_id) for agent_id in controlled
        }
        self.poses = {agent_id: [] for agent_id in controlled}


def reference_sim_reset(scene, init_ts, controlled):
    """``simulation.sim_reset`` on the per-agent state, for valid input."""
    state = ReferenceSimState(scene, init_ts, controlled)
    return state, reference_observe(state)


def reference_sim_step(state, new_states):
    """``simulation.sim_step`` on the per-agent state, for valid input."""
    for agent_id, pose in new_states.items():
        x, y, heading = float(pose[0]), float(pose[1]), float(pose[2])
        state.poses[agent_id].append((x, y, wrap_angle(heading)))
    state.current_ts += 1
    return state, reference_observe(state)


def reference_observe(state):
    """The observation at current_ts, one scene agent at a time."""
    scene = state.scene
    cols = scene.columns
    ts = state.current_ts
    n = scene.n_agents
    states = np.zeros((n, len(OBS_STATE_LAYOUT)))
    valid = np.zeros(n, dtype=bool)
    for i, meta in enumerate(scene.agents):
        if meta.agent_id in state.controlled_idx:
            _, track = _reference_controlled_track(state, i, ts, simulated=True)
            states[i] = [track[k][-1] for k in OBS_STATE_LAYOUT]
            valid[i] = True
            continue
        clamped = min(max(ts, meta.first_ts), meta.last_ts)
        row = scene.row_at(i, clamped)
        states[i] = [getattr(cols, k)[row] for k in OBS_STATE_LAYOUT]
        valid[i] = meta.first_ts <= ts <= meta.last_ts
    return SimObservation(ts=ts, agent_ids=tuple(m.agent_id for m in scene.agents), states=states, valid=valid)


def _reference_controlled_track(state, i, lo, simulated):
    """Track of controlled agent i from timestep lo to its end in the rollout
    window, derived over its own pose series: the recording up to init_ts,
    then the provided poses (simulated) or the rest of its recording clipped
    to its lifetime (replay). Returns (last timestep, track)."""
    scene = state.scene
    cols = scene.columns
    meta = scene.agents[i]
    base = scene.rows_for_agent(i).start - meta.first_ts
    ctx = max(lo - 2, meta.first_ts)
    if simulated:
        end, recorded_end = state.current_ts, state.init_ts
        poses = state.poses[meta.agent_id][max(ctx - state.init_ts - 1, 0) :]
    else:
        end = recorded_end = min(state.current_ts, meta.last_ts)
        poses = []
    rec = slice(base + ctx, base + recorded_end + 1)
    provided = np.asarray(poses, dtype=np.float64).reshape(-1, 3)
    xs = np.concatenate([cols.x[rec], provided[:, 0]])
    ys = np.concatenate([cols.y[rec], provided[:, 1]])
    vx, vy = reference_derivative(xs, scene.dt), reference_derivative(ys, scene.dt)
    track = {
        "x": xs,
        "y": ys,
        "z": np.full(len(xs), cols.z[base + state.init_ts]),
        "vx": vx,
        "vy": vy,
        "ax": reference_derivative(vx, scene.dt),
        "ay": reference_derivative(vy, scene.dt),
        "heading": np.concatenate([cols.heading[rec], provided[:, 2]]),
        "observed": np.ones(len(xs), dtype=bool),
    }
    return end, {k: v[lo - ctx :] for k, v in track.items()}


def reference_window_scene(state, simulated):
    """The rollout (simulated) or its replay baseline over [init_ts,
    current_ts], assembled from per-agent tracks."""
    scene = state.scene
    cols = scene.columns
    lo, hi = state.init_ts, state.current_ts
    agents, tracks = [], []
    for i, meta in enumerate(scene.agents):
        if meta.agent_id in state.controlled_idx:
            end, track = _reference_controlled_track(state, i, lo, simulated)
            agents.append(AgentMetadata(meta.agent_id, meta.agent_type, meta.extent, lo, end))
            tracks.append(track)
            continue
        a, b = max(lo, meta.first_ts), min(hi, meta.last_ts)
        if a > b:
            continue
        start = scene.rows_for_agent(i).start + (a - meta.first_ts)
        n = b - a + 1
        tracks.append({
            k: np.array(getattr(cols, k)[start : start + n])
            for k in ("x", "y", "z", "vx", "vy", "ax", "ay", "heading", "observed")
        })
        agents.append(AgentMetadata(meta.agent_id, meta.agent_type, meta.extent, a, b))
    return SceneFrame.from_tracks(
        scene_id=f"{scene.scene_id}_sim",
        dataset_tag=scene.dataset_tag,
        location=scene.location,
        dt=scene.dt,
        agents=agents,
        tracks=tracks,
        heading_derived=False,
    )


def reference_sim_score(state, vmap):
    """``simulation.sim_score`` over the reference rollout and baseline."""
    sim = reference_window_scene(state, simulated=True)
    real = reference_window_scene(state, simulated=False)
    offroad = None
    if vmap is not None and vmap.has_drivable_area:
        offroad = _pooled_rate(sim, lambda s: reference_offroad_counts(s, vmap, _offroad_rows(s, OFFROAD_TYPES)))
    sc, rc = sim.columns, real.columns
    return SimMetrics(
        collision_rate=_pooled_rate(sim, reference_scene_collisions),
        offroad_rate=offroad,
        speed_distance=wasserstein_1d(np.hypot(sc.vx, sc.vy), np.hypot(rc.vx, rc.vy)),
        accel_distance=wasserstein_1d(np.hypot(sc.ax, sc.ay), np.hypot(rc.ax, rc.ay)),
    )


# Track completion, parsing, resampling and validation one agent at a time:
# the loops the segmented kernel of ``trajkit.kinematics`` and the row
# ordering of ``core.scene_validate`` replaced.

def reference_derive_heading(vx, vy, speed_floor=DEFAULT_SPEED_FLOOR):
    vx = np.asarray(vx, dtype=np.float64)
    vy = np.asarray(vy, dtype=np.float64)
    speed = np.hypot(vx, vy)
    defined = speed >= speed_floor
    if not defined.any():
        return np.zeros(len(vx)), True
    heading = np.zeros(len(vx))
    heading[defined] = wrap_angle(np.arctan2(vy[defined], vx[defined]))
    defined_idx = np.nonzero(defined)[0]
    fill_src = np.maximum.accumulate(np.where(defined, np.arange(len(vx)), -1))
    fill_src[fill_src < 0] = defined_idx[0]
    return heading[fill_src], False


def reference_impute_linear(ts, values, angular=("heading",)):
    ts = np.asarray(ts, dtype=np.int64)
    if ts.size == 0:
        raise ValueError("need at least one observed row to impute")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("observed timesteps must be strictly increasing")
    full_ts = np.arange(ts[0], ts[-1] + 1, dtype=np.int64)
    observed = np.isin(full_ts, ts)
    full_values = {}
    for name, arr in values.items():
        arr = np.asarray(arr, dtype=np.float64)
        if observed.all():
            full_values[name] = arr.copy()
        elif name in angular:
            full_values[name] = wrap_angle(np.interp(full_ts, ts, np.unwrap(arr)))
        else:
            full_values[name] = np.interp(full_ts, ts, arr)
    return full_ts, full_values, observed


def reference_complete_track(ts, x, y, z, dt, heading=None, speed_floor=DEFAULT_SPEED_FLOOR):
    values = {"x": x, "y": y, "z": z}
    if heading is not None:
        values["heading"] = wrap_angle(np.asarray(heading, dtype=np.float64))
    full_ts, full, observed = reference_impute_linear(ts, values)
    full["vx"] = reference_derivative(full["x"], dt)
    full["vy"] = reference_derivative(full["y"], dt)
    full["ax"] = reference_derivative(full["vx"], dt)
    full["ay"] = reference_derivative(full["vy"], dt)
    heading_derived = heading is None
    if heading_derived:
        full["heading"], _ = reference_derive_heading(full["vx"], full["vy"], speed_floor)
    full["observed"] = observed
    return int(full_ts[0]), full, heading_derived


# The canonical-CSV row loop: one Python tuple per row, each cell converted
# and checked on its own: the reference for the library's canonical-CSV reader.

def _parse_float(cell: str, line_no: int, column: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"line {line_no}: malformed numeric cell {cell!r} in column {column}") from None


def _parse_optional_float(cell: str, line_no: int, column: str) -> float | None:
    cell = cell.strip()
    if not cell:
        return None
    return _parse_float(cell, line_no, column)


def _read_canonical_rows(table_text: str) -> dict[str, list[tuple]]:
    """Raw rows grouped by scene_id; each row is (line_no, agent_id, type, frame, x, y, z, heading, l, w, h).

    The row loop: it reads any text csv.reader reads and reports every read
    error, the first in file order."""
    reader = csv.reader(io.StringIO(table_text, newline=""))
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty input: missing canonical header") from None
        header = tuple(h.strip() for h in header)
        if header != CANONICAL_HEADER:
            raise ParseError(f"line 1: header {header!r} does not match canonical schema {CANONICAL_HEADER!r}")
        scenes: dict[str, list[tuple]] = {}
        for row in reader:
            line_no = reader.line_num  # the physical line that ends the record; a quoted cell may hold newlines
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(CANONICAL_HEADER):
                raise ParseError(f"line {line_no}: expected {len(CANONICAL_HEADER)} fields, got {len(row)}")
            scene_id = row[0].strip()
            agent_id = row[1].strip()
            try:
                agent_type = AgentType.from_string(row[2].strip())
            except ValueError as exc:
                raise ParseError(f"line {line_no}: {exc}") from None
            frame_cell = row[3].strip()
            try:
                frame = int(frame_cell)
            except ValueError:
                raise ParseError(f"line {line_no}: frame {frame_cell!r} is not an integer") from None
            if not -(2**63) <= frame < 2**63:
                raise ParseError(f"line {line_no}: frame {frame_cell!r} does not fit in int64")
            x = _parse_float(row[4].strip(), line_no, "x")
            y = _parse_float(row[5].strip(), line_no, "y")
            z = _parse_optional_float(row[6], line_no, "z")
            z = 0.0 if z is None else z
            heading = _parse_optional_float(row[7], line_no, "heading")
            length = _parse_optional_float(row[8], line_no, "length")
            width = _parse_optional_float(row[9], line_no, "width")
            height = _parse_optional_float(row[10], line_no, "height")
            if (length is None) != (width is None):
                raise ParseError(f"line {line_no}: extent needs both length and width (or neither)")
            scenes.setdefault(scene_id, []).append((line_no, agent_id, agent_type, frame, x, y, z, heading, length, width, height))
    except csv.Error as exc:  # a field longer than csv.field_size_limit()
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    if not scenes:
        raise ParseError("no data rows after header")
    return scenes

def _rows_to_columns(rows: list[tuple]) -> _CsvColumns:
    """The columns of one scene's rows from _read_canonical_rows."""
    lines, agent_ids, types, frames, x, y, z, heading, length, width, height = zip(*rows)
    values = [np.array([math.nan if v is None else v for v in col], dtype=np.float64) for col in (heading, length, width, height)]
    given = [np.array([v is not None for v in col], dtype=bool) for col in (heading, length, height)]
    return _CsvColumns(
        np.array(lines), np.array(agent_ids, dtype=object), type_codes([t.value for t in types]), np.array(frames, dtype=np.int64),
        np.array(x), np.array(y), np.array(z), *values, *given,
    )



def _reference_build_scene(scene_id, raw_rows, meta):
    by_agent = {}
    for row in raw_rows:
        by_agent.setdefault(row[1], []).append(row)
    min_frame = min(row[3] for row in raw_rows)
    headings_given = all(row[7] is not None for row in raw_rows)
    agents, tracks = [], []
    for agent_id in sorted(by_agent):
        rows = sorted(by_agent[agent_id], key=lambda r: r[3])
        frames = np.array([r[3] - min_frame for r in rows], dtype=np.int64)
        dup = np.nonzero(np.diff(frames) == 0)[0]
        if dup.size:
            raise ParseError(
                f"agent {agent_id}: non-monotone frames (duplicate frame {int(frames[dup[0]]) + min_frame})"
            )
        xs = np.array([r[4] for r in rows])
        ys = np.array([r[5] for r in rows])
        zs = np.array([0.0 if r[6] is None else r[6] for r in rows])
        heading = np.array([r[7] for r in rows]) if headings_given else None
        first_ts, track, _ = reference_complete_track(frames, xs, ys, zs, meta.dt, heading)
        extent = None
        for r in rows:
            if r[8] is not None:
                try:
                    extent = Extent(r[8], r[9], r[10])
                except ValueError as exc:
                    raise ParseError(f"line {r[0]}: agent {agent_id}: {exc}") from None
                break
        last_ts = first_ts + len(track["x"]) - 1
        agents.append(AgentMetadata(agent_id, rows[0][2], extent, first_ts, last_ts))
        tracks.append(track)
    return SceneFrame.from_tracks(
        scene_id, meta.dataset_tag(), meta.location, meta.dt, agents, tracks, heading_derived=not headings_given
    )


def reference_parse_canonical_csv_many(table_text, meta):
    """The per-agent build over the row loop."""
    groups = _read_canonical_rows(table_text)
    return [_reference_build_scene(scene_id, rows, meta) for scene_id, rows in sorted(groups.items())]


def reference_write_canonical_csv(scene, observed_only=False):
    """``ingest.write_canonical_csv`` as the row-by-row loop that its column-wise
    writer replaced."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CANONICAL_HEADER)
    cols = scene.columns
    for i, (agent_id, code, extent) in enumerate(zip(scene.agent_ids, scene.type_code.tolist(), scene.extent.tolist())):
        sl = scene.rows_for_agent(i)
        extent_cells = ["" if math.isnan(v) else repr(v) for v in extent]  # NaN: no extent, or no height
        for row in range(sl.start, sl.stop):
            if observed_only and not cols.observed[row]:
                continue
            writer.writerow(
                [
                    scene.scene_id,
                    agent_id,
                    TYPE_NAMES[code],
                    int(cols.ts[row]),
                    repr(float(cols.x[row])),
                    repr(float(cols.y[row])),
                    repr(float(cols.z[row])),
                    "" if scene.heading_derived else repr(float(cols.heading[row])),
                    *extent_cells,
                ]
            )
    return out.getvalue()


def reference_parse_frame_text(text, meta):
    records = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) < 4:
            raise ParseError(f"line {line_no}: expected at least 4 fields, got {len(fields)}")
        try:
            frame_f, id_f = float(fields[0]), float(fields[1])
            x, y = float(fields[2]), float(fields[3])
        except ValueError:
            raise ParseError(f"line {line_no}: non-numeric field in {line.strip()!r}") from None
        if frame_f != int(frame_f) or id_f != int(id_f):
            raise ParseError(f"line {line_no}: frame and id must be integral")
        records.append((int(frame_f), int(id_f), x, y))
    if not records:
        raise ParseError("no agents: input has no data lines")
    min_frame = min(r[0] for r in records)
    step = 0
    for off in sorted({r[0] - min_frame for r in records}):
        step = math.gcd(step, off)
    step = step or 1
    by_agent = {}
    for frame, agent, x, y in records:
        by_agent.setdefault(agent, []).append(((frame - min_frame) // step, x, y))
    agents, tracks = [], []
    for agent in sorted(by_agent):
        rows = sorted(by_agent[agent])
        ts = np.array([r[0] for r in rows], dtype=np.int64)
        if np.any(np.diff(ts) == 0):
            raise ParseError(f"agent {agent}: duplicate frame")
        xs = np.array([r[1] for r in rows])
        ys = np.array([r[2] for r in rows])
        first_ts, track, _ = reference_complete_track(ts, xs, ys, np.zeros(len(ts)), meta.dt)
        last_ts = first_ts + len(track["x"]) - 1
        agents.append(AgentMetadata(str(agent), AgentType.PEDESTRIAN, None, first_ts, last_ts))
        tracks.append(track)
    return SceneFrame.from_tracks(
        meta.scene_id, meta.dataset_tag(), meta.location, meta.dt, agents, tracks, heading_derived=True
    )


def extract_agent_rows(scene, agent_index):
    """Per-agent copies of the scene columns, keyed like COLUMN_NAMES minus agent_index."""
    sl = scene.rows_for_agent(agent_index)
    return {name: np.array(getattr(scene.columns, name)[sl]) for name in COLUMN_NAMES if name != "agent_index"}


def _reference_resample_agent_up(meta, rows, factor):
    old_ts = np.arange(meta.first_ts, meta.last_ts + 1, dtype=np.int64)
    new_first = meta.first_ts * factor
    new_last = meta.last_ts * factor
    new_ts = np.arange(new_first, new_last + 1, dtype=np.int64)
    knots = old_ts * factor
    out = {name: np.interp(new_ts, knots, rows[name]) for name in ("x", "y", "z")}
    out["heading"] = wrap_angle(np.interp(new_ts, knots, np.unwrap(rows["heading"])))
    observed = np.zeros(len(new_ts), dtype=bool)
    observed[new_ts % factor == 0] = rows["observed"]
    out["observed"] = observed
    return AgentMetadata(meta.agent_id, meta.agent_type, meta.extent, int(new_first), int(new_last)), out


def _reference_resample_agent_down(meta, rows, factor):
    old_ts = np.arange(meta.first_ts, meta.last_ts + 1, dtype=np.int64)
    keep = old_ts % factor == 0
    if not keep.any():
        return None
    kept_ts = old_ts[keep] // factor
    out = {name: rows[name][keep] for name in ("x", "y", "z", "heading", "observed")}
    return AgentMetadata(meta.agent_id, meta.agent_type, meta.extent, int(kept_ts[0]), int(kept_ts[-1])), out


def reference_resample_scene(scene, desired_dt):
    plan = plan_resample(scene.dt, desired_dt)
    if plan.mode == "identity":
        return scene
    new_agents, new_tracks = [], []
    for i, meta in enumerate(scene.agents):
        rows = extract_agent_rows(scene, i)
        if plan.mode == "upsample":
            resampled = _reference_resample_agent_up(meta, rows, plan.factor)
        else:
            resampled = _reference_resample_agent_down(meta, rows, plan.factor)
            if resampled is None:
                continue
        new_meta, track = resampled
        track["vx"] = reference_derivative(track["x"], desired_dt)
        track["vy"] = reference_derivative(track["y"], desired_dt)
        track["ax"] = reference_derivative(track["vx"], desired_dt)
        track["ay"] = reference_derivative(track["vy"], desired_dt)
        if scene.heading_derived:
            track["heading"], _ = reference_derive_heading(track["vx"], track["vy"])
        new_agents.append(new_meta)
        new_tracks.append(track)
    return SceneFrame.from_tracks(
        scene.scene_id, scene.dataset_tag, scene.location, desired_dt, new_agents, new_tracks, scene.heading_derived
    )


def reference_scene_validate(scene):
    violations = []
    if not 0.0 < scene.dt < math.inf:
        violations.append(f"scene {scene.scene_id}: dt {scene.dt} not finite and positive (dt-positive)")
    seen_ids = set()
    for meta in scene.agents:
        if meta.agent_id in seen_ids:
            violations.append(f"agent {meta.agent_id}: duplicate agent_id (agent-id-unique)")
        seen_ids.add(meta.agent_id)
        if meta.first_ts > meta.last_ts:
            violations.append(
                f"agent {meta.agent_id}: first_ts {meta.first_ts} > last_ts {meta.last_ts} (lifetime-order)"
            )
    cols = scene.columns
    if len(cols) == 0:
        return violations
    idx = cols.agent_index
    if idx.min() < 0 or idx.max() >= scene.n_agents:
        violations.append(f"scene {scene.scene_id}: agent_index outside [0, {scene.n_agents}) (agent-index-range)")
        return violations
    if not np.all(np.diff(idx) >= 0):
        violations.append(f"scene {scene.scene_id}: rows not grouped by agent_index (row-order)")
    for i, meta in enumerate(scene.agents):
        ts = cols.ts[idx == i]
        name = meta.agent_id
        if ts.size == 0:
            violations.append(f"agent {name}: no rows for lifetime [{meta.first_ts}, {meta.last_ts}] (gap)")
            continue
        if np.any(np.diff(ts) < 0):
            violations.append(f"agent {name}: timesteps out of order (row-order)")
            ts = np.sort(ts)
        dup = ts[:-1][np.diff(ts) == 0]
        for t in np.unique(dup):
            violations.append(f"agent {name}: duplicate row at ts {int(t)} (duplicate-row)")
        expected = np.arange(meta.first_ts, meta.last_ts + 1)
        present = np.unique(ts)
        for t in np.setdiff1d(expected, present):
            violations.append(f"agent {name}: missing row at ts {int(t)} (gap)")
        for t in np.setdiff1d(present, expected):
            violations.append(f"agent {name}: row at ts {int(t)} outside lifetime (ts-range)")
    if cols.ts.size and (cols.ts.min() < 0 or cols.ts.max() >= scene.n_timesteps):
        violations.append(f"scene {scene.scene_id}: ts outside [0, {scene.n_timesteps}) (ts-range)")
    bad_heading = ~((cols.heading > -math.pi) & (cols.heading <= math.pi))
    for row in np.nonzero(bad_heading)[0]:
        meta = scene.agents[int(idx[row])]
        violations.append(
            f"agent {meta.agent_id}: heading {float(cols.heading[row])!r} outside (-pi, pi] at ts {int(cols.ts[row])} (heading-range)"
        )
    for col_name in ("x", "y", "z", "vx", "vy", "ax", "ay"):
        col = getattr(cols, col_name)
        for row in np.nonzero(~np.isfinite(col))[0]:
            meta = scene.agents[int(idx[row])]
            violations.append(f"agent {meta.agent_id}: non-finite {col_name} at ts {int(cols.ts[row])} (non-finite)")
    return violations
