"""Log-replay simulation: initialize a scene from recorded data at a chosen
timestep, advance externally controlled agents pose by pose, and score the
rollout against the recording.

Controlled agents supply (x, y, heading) only; velocities and accelerations
are re-derived by finite differences over the rollout (with the agent's real
pre-init history as context). Non-controlled agents replay the log verbatim
and are held at their last state (masked invalid) past their lifetime.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .analysis import OFFROAD_TYPES, AgentCounter, _offroad_counts, _offroad_rows, _rates, _scene_collisions
from .core import AgentMetadata, SceneFrame, wrap_angle
from .ingest import SceneMetaRecord, write_canonical_csv
from .kinematics import derive_derivative
from .vecmap import VectorMap

OBS_STATE_LAYOUT = ("x", "y", "z", "vx", "vy", "ax", "ay", "heading")


@dataclass
class SimObservation:
    """States of every scene agent at one timestep; padded rows are valid=False."""

    ts: int
    agent_ids: tuple[str, ...]
    states: np.ndarray  # (A, 8) in OBS_STATE_LAYOUT order
    valid: np.ndarray   # (A,)


@dataclass
class SimState:
    """A rollout in progress; mutate only through sim_reset/sim_step."""

    scene: SceneFrame
    init_ts: int
    current_ts: int
    controlled: tuple[str, ...]
    controlled_idx: dict[str, int]
    # Provided poses per controlled agent for ts init_ts+1 .. current_ts.
    poses: dict[str, list[tuple[float, float, float]]] = field(default_factory=dict)


@dataclass
class SimMetrics:
    """Rollout scores; rates are None when undecidable (no extents / no map)."""

    collision_rate: float | None
    offroad_rate: float | None
    speed_distance: float
    accel_distance: float

    def to_dict(self) -> dict:
        return asdict(self)


def wasserstein_1d(a, b) -> float:
    """First Wasserstein distance between two empirical 1-D samples.

    Equal-size samples reduce to the mean absolute difference of the sorted
    values; unequal sizes integrate |CDF_a - CDF_b| over the pooled support.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if len(a) == 0 or len(b) == 0:
        return 0.0
    if len(a) == len(b):
        return float(np.mean(np.abs(a - b)))
    pooled = np.sort(np.concatenate([a, b]))
    deltas = np.diff(pooled)
    cdf_a = np.searchsorted(a, pooled[:-1], side="right") / len(a)
    cdf_b = np.searchsorted(b, pooled[:-1], side="right") / len(b)
    return float(np.sum(np.abs(cdf_a - cdf_b) * deltas))


def sim_reset(scene: SceneFrame, init_ts: int, controlled: Sequence[str]) -> tuple[SimState, SimObservation]:
    """Start a rollout at init_ts with the given agents under external control."""
    if not 0 <= init_ts < scene.n_timesteps:
        raise ValueError(f"init_ts {init_ts} outside scene range [0, {scene.n_timesteps})")
    by_id = {meta.agent_id: i for i, meta in enumerate(scene.agents)}
    controlled_idx: dict[str, int] = {}
    for agent_id in controlled:
        if agent_id not in by_id:
            raise ValueError(f"controlled agent {agent_id!r} not in scene")
        meta = scene.agents[by_id[agent_id]]
        if not meta.first_ts <= init_ts <= meta.last_ts:
            raise ValueError(
                f"controlled agent {agent_id!r} not alive at init_ts {init_ts} "
                f"(lifetime [{meta.first_ts}, {meta.last_ts}])"
            )
        controlled_idx[agent_id] = by_id[agent_id]
    state = SimState(
        scene=scene,
        init_ts=init_ts,
        current_ts=init_ts,
        controlled=tuple(controlled),
        controlled_idx=controlled_idx,
        poses={agent_id: [] for agent_id in controlled},
    )
    return state, _observe(state)


def sim_step(state: SimState, new_states: Mapping[str, tuple[float, float, float]]) -> tuple[SimState, SimObservation]:
    """Advance one timestep; new_states must cover exactly the controlled agents."""
    given = set(new_states)
    expected = set(state.controlled)
    if given != expected:
        missing = sorted(expected - given)
        extra = sorted(given - expected)
        raise ValueError(f"new_states mismatch: missing {missing}, unexpected {extra}")
    for agent_id, pose in new_states.items():
        x, y, heading = float(pose[0]), float(pose[1]), float(pose[2])
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(heading)):
            raise ValueError(f"agent {agent_id!r}: non-finite pose {pose!r}")
        state.poses[agent_id].append((x, y, wrap_angle(heading)))
    state.current_ts += 1
    return state, _observe(state)


def _observe(state: SimState) -> SimObservation:
    scene = state.scene
    cols = scene.columns
    ts = state.current_ts
    n = scene.n_agents
    states = np.zeros((n, len(OBS_STATE_LAYOUT)))
    valid = np.zeros(n, dtype=bool)
    for i, meta in enumerate(scene.agents):
        if meta.agent_id in state.controlled_idx:
            _, track = _controlled_track(state, i, ts, simulated=True)
            states[i] = [track[k][-1] for k in OBS_STATE_LAYOUT]
            valid[i] = True
            continue
        clamped = min(max(ts, meta.first_ts), meta.last_ts)
        row = scene.row_at(i, clamped)
        states[i] = [getattr(cols, k)[row] for k in OBS_STATE_LAYOUT]
        valid[i] = meta.first_ts <= ts <= meta.last_ts
    return SimObservation(ts=ts, agent_ids=tuple(m.agent_id for m in scene.agents), states=states, valid=valid)


def _controlled_track(state: SimState, i: int, lo: int, simulated: bool) -> tuple[int, dict[str, np.ndarray]]:
    """Track of controlled agent i from timestep lo to its end in the rollout window.

    The pose series is the agent's recording up to init_ts followed by the
    provided poses (simulated) or by the rest of its recording, clipped to its
    real lifetime (replay). Velocities and accelerations are derived over that
    series. Returns (last timestep, track).

    The derivative stencil is three samples wide, so the derivation starts at
    most two samples before lo and still matches a derivation over the whole
    series bit for bit.
    """
    scene = state.scene
    cols = scene.columns
    meta = scene.agents[i]
    base = scene.rows_for_agent(i).start - meta.first_ts  # row of timestep t is base + t
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
    vx, vy = derive_derivative(xs, scene.dt), derive_derivative(ys, scene.dt)
    track = {
        "x": xs,
        "y": ys,
        "z": np.full(len(xs), cols.z[base + state.init_ts]),
        "vx": vx,
        "vy": vy,
        "ax": derive_derivative(vx, scene.dt),
        "ay": derive_derivative(vy, scene.dt),
        "heading": np.concatenate([cols.heading[rec], provided[:, 2]]),
        "observed": np.ones(len(xs), dtype=bool),
    }
    return end, {k: v[lo - ctx :] for k, v in track.items()}


def _window_scene(state: SimState, simulated: bool) -> SceneFrame:
    """Rollout as a SceneFrame over [init_ts, current_ts].

    With simulated=True, controlled agents take their provided poses; with
    False they replay the recording (clipped to their real lifetime), which is
    the like-for-like baseline for distribution scoring. Frozen agents
    contribute their recorded rows clipped to the window either way. Both
    sides run the controlled pose series through the same derivation, so an
    exact replay produces bit-identical kinematics.
    """
    scene = state.scene
    cols = scene.columns
    lo, hi = state.init_ts, state.current_ts
    agents: list[AgentMetadata] = []
    tracks: list[dict[str, np.ndarray]] = []
    for i, meta in enumerate(scene.agents):
        if meta.agent_id in state.controlled_idx:
            end, track = _controlled_track(state, i, lo, simulated)
            agents.append(AgentMetadata(meta.agent_id, meta.agent_type, meta.extent, lo, end))
            tracks.append(track)
        else:
            a, b = max(lo, meta.first_ts), min(hi, meta.last_ts)
            if a > b:
                continue
            start = scene.rows_for_agent(i).start + (a - meta.first_ts)
            n = b - a + 1
            track = {
                k: np.array(getattr(cols, k)[start : start + n])
                for k in ("x", "y", "z", "vx", "vy", "ax", "ay", "heading", "observed")
            }
            agents.append(AgentMetadata(meta.agent_id, meta.agent_type, meta.extent, a, b))
            tracks.append(track)
    return SceneFrame.from_tracks(
        scene_id=f"{scene.scene_id}_sim",
        dataset_tag=scene.dataset_tag,
        location=scene.location,
        dt=scene.dt,
        agents=agents,
        tracks=tracks,
        heading_derived=False,
    )


def rollout_scene(state: SimState) -> SceneFrame:
    """The simulated rollout as a SceneFrame over [init_ts, current_ts]."""
    return _window_scene(state, simulated=True)


def _pooled_rate(scene: SceneFrame, counts: AgentCounter) -> float | None:
    """Any-timestep rate of counts(scene) pooled over agent types; None when
    no agent is selected."""
    entries = _rates([("", scene)], counts, per_timestep=False)[""].values()
    den = sum(e["den"] for e in entries)
    return sum(e["num"] for e in entries) / den if den else None


def sim_score(state: SimState, vmap: VectorMap | None) -> SimMetrics:
    """Collision/off-road rates of the rollout plus Wasserstein-1 distances of
    its speed and |acceleration| samples against the recorded data over the
    same window.

    The rates use the analysis collision and off-road counters over every
    rollout row, interpolated rows of log-replayed agents included.
    """
    if state.current_ts - state.init_ts + 1 < 2:
        raise ValueError("rollout must span at least 2 timesteps to score")
    sim = _window_scene(state, simulated=True)
    real = _window_scene(state, simulated=False)

    def _samples(scene: SceneFrame) -> tuple[np.ndarray, np.ndarray]:
        c = scene.columns
        return np.hypot(c.vx, c.vy), np.hypot(c.ax, c.ay)

    sim_speed, sim_accel = _samples(sim)
    real_speed, real_accel = _samples(real)

    offroad: float | None = None
    if vmap is not None and vmap.has_drivable_area:
        offroad = _pooled_rate(sim, lambda s: _offroad_counts(s, vmap, _offroad_rows(s, OFFROAD_TYPES)))

    return SimMetrics(
        collision_rate=_pooled_rate(sim, _scene_collisions),
        offroad_rate=offroad,
        speed_distance=wasserstein_1d(sim_speed, real_speed),
        accel_distance=wasserstein_1d(sim_accel, real_accel),
    )


def sim_export(state: SimState, out_path: str | Path) -> Path:
    """Write the rollout as a canonical CSV (plus metadata sidecar); re-ingesting
    it reproduces the rollout poses exactly."""
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    scene = rollout_scene(state)
    out_path.write_text(write_canonical_csv(scene), encoding="utf-8")
    meta = SceneMetaRecord(
        scene_id=scene.scene_id,
        dt=scene.dt,
        location=scene.location,
        dataset=scene.scene_tag().dataset,
        split=scene.scene_tag().split,
    )
    out_path.with_suffix(out_path.suffix + ".meta.json").write_text(meta.to_json(), encoding="utf-8")
    return out_path
