"""Independent brute-force oracles.

Everything here re-derives expected results along a different path than the
library (exhaustive scans, scalar loops, dense sampling, alternative
decompositions) so that agreement is evidence, not tautology.
"""

import math

import numpy as np

from trajkit.batching import STATE_DIM, AgentBatchElement, SceneBatchElement
from trajkit.core import wrap_angle


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
    rot = np.array([[c, s], [-s, c]])  # rotation by -yaw
    state = np.zeros((len(raw), STATE_DIM))
    state[:, 0:2] = (raw[:, 0:2] - origin) @ rot.T
    state[:, 2:4] = raw[:, 2:4] @ rot.T
    state[:, 4:6] = raw[:, 4:6] @ rot.T
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


def wasserstein_by_quantile_grid(a, b, n_grid=200001):
    """W1 approximated on a dense shared quantile grid (independent estimator)."""
    q = (np.arange(n_grid) + 0.5) / n_grid
    qa = np.quantile(np.asarray(a, dtype=float), q, method="inverted_cdf")
    qb = np.quantile(np.asarray(b, dtype=float), q, method="inverted_cdf")
    return float(np.mean(np.abs(qa - qb)))
