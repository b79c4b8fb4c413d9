"""Log-replay simulation: initialize a scene from recorded data at a chosen
timestep, advance externally controlled agents pose by pose, and score the
rollout against the recording.

Controlled agents supply (x, y, heading) only; velocities and accelerations
are re-derived by finite differences over the rollout (with the agent's real
pre-init history as context). Non-controlled agents replay the log verbatim
and are held at their first state before their lifetime and at their last
state after it, masked invalid.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .analysis import OFFROAD_TYPES, _offroad_counts, _offroad_rows, _rates, _scene_collisions
from .core import SceneColumns, SceneFrame, wrap_angle
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
    # (C, capacity, 3): x, y, heading of the controlled agents, in
    # `controlled` order; slot k holds timestep init_ts - 2 + k. Slots up to
    # init_ts hold the recording (at the first row before birth), slots up
    # to current_ts the provided poses, later slots are spare capacity.
    poses: np.ndarray
    _table: np.ndarray = field(init=False, repr=False)  # (rows, 8): scene columns in OBS_STATE_LAYOUT order
    _ctrl: np.ndarray = field(init=False, repr=False)   # (C,) scene index of each controlled agent
    _z: np.ndarray = field(init=False, repr=False)      # (C,) z of each controlled agent at init_ts

    def __post_init__(self):
        cols = self.scene.columns
        self._table = np.column_stack([getattr(cols, k) for k in OBS_STATE_LAYOUT])
        self._ctrl = np.fromiter(self.controlled_idx.values(), np.int64, len(self.controlled_idx))
        self._z = cols.z[self.scene.lifetime_rows(self._ctrl, self.init_ts)[0]]


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
    if not isinstance(init_ts, numbers.Integral):
        raise ValueError(f"init_ts must be an integer, got {init_ts!r}")
    init_ts = int(init_ts)
    if not 0 <= init_ts < scene.n_timesteps:
        raise ValueError(f"init_ts {init_ts} outside scene range [0, {scene.n_timesteps})")
    controlled = tuple(controlled)
    by_id = {agent_id: i for i, agent_id in enumerate(scene.agent_ids)}
    controlled_idx: dict[str, int] = {}
    for agent_id in controlled:
        if agent_id not in by_id:
            raise ValueError(f"controlled agent {agent_id!r} not in scene")
        if agent_id in controlled_idx:
            raise ValueError(f"controlled agent {agent_id!r} listed more than once")
        i = by_id[agent_id]
        if not scene.first_ts[i] <= init_ts <= scene.last_ts[i]:
            raise ValueError(
                f"controlled agent {agent_id!r} not alive at init_ts {init_ts} "
                f"(lifetime [{scene.first_ts[i]}, {scene.last_ts[i]}])"
            )
        controlled_idx[agent_id] = i
    # Capacity up to the scene's last timestep; sim_step grows it past that.
    poses = np.zeros((len(controlled_idx), scene.n_timesteps - init_ts + 2, 3))
    state = SimState(scene, init_ts, init_ts, controlled, controlled_idx, poses)
    rows, _ = scene.lifetime_rows(state._ctrl[:, None], np.arange(init_ts - 2, init_ts + 1))
    poses[:, :3] = state._table[rows][..., [0, 1, 7]]
    return state, _observe(state)


def sim_step(state: SimState, new_states: Mapping[str, tuple[float, float, float]]) -> tuple[SimState, SimObservation]:
    """Advance one timestep; new_states must cover exactly the controlled agents."""
    given = set(new_states)
    expected = set(state.controlled)
    if given != expected:
        missing = sorted(expected - given)
        extra = sorted(given - expected)
        raise ValueError(f"new_states mismatch: missing {missing}, unexpected {extra}")
    column = np.zeros((len(state.controlled), 3))
    for c, agent_id in enumerate(state.controlled):
        pose = new_states[agent_id]
        try:
            xyh = np.asarray(pose, dtype=np.float64)
        except (TypeError, ValueError):
            xyh = None
        if xyh is None or xyh.shape != (3,):
            raise ValueError(f"agent {agent_id!r}: pose must be three numbers (x, y, heading), got {pose!r}")
        if not np.isfinite(xyh).all():
            raise ValueError(f"agent {agent_id!r}: non-finite pose {pose!r}")
        column[c] = xyh
    column[:, 2] = wrap_angle(column[:, 2])
    slot = state.current_ts - state.init_ts + 3
    if slot == state.poses.shape[1]:
        state.poses = np.concatenate([state.poses, np.zeros_like(state.poses)], axis=1)
    state.poses[:, slot] = column
    state.current_ts += 1
    return state, _observe(state)


def _observe(state: SimState) -> SimObservation:
    ts = state.current_ts
    grid, _, valid = _grid(state, ts, ts, simulated=True)
    return SimObservation(ts=ts, agent_ids=state.scene.agent_ids, states=grid[:, 0], valid=valid[:, 0])


def _grid(state: SimState, lo: int, hi: int, simulated: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """States (A, T, 8) in OBS_STATE_LAYOUT order, observed flags and
    validity mask (A, T) of every scene agent over timesteps lo..hi.

    Other agents replay the log, held at their first or last state and masked
    outside their lifetime. A controlled agent follows the recording through
    init_ts, then the provided poses (simulated) or its recording clipped to
    its lifetime (replay); velocities and accelerations are derived over that
    series, z keeps its init_ts value, and every row counts as observed. The
    stencil is three samples wide, so deriving from two samples before lo (or
    from birth) gives the bits of a derivation over the whole series.
    """
    scene, ctrl = state.scene, state._ctrl
    ts = np.arange(lo - 2, hi + 1)
    rows, inside = scene.lifetime_rows(np.arange(scene.n_agents)[:, None], ts)
    if simulated:
        series = state.poses[:, lo - state.init_ts : hi - state.init_ts + 3]
        sel = ts >= scene.first_ts[ctrl][:, None]
    else:
        series = state._table[rows[ctrl]][..., [0, 1, 7]]
        sel = inside[ctrl]
    # x then y of every controlled agent as one series of segments, each
    # from the agent's first selected sample.
    n = sel.sum(axis=1)
    offsets = np.cumsum(np.concatenate([[0], n, n]))
    vel = derive_derivative(series[sel][:, :2].T.ravel(), scene.dt, offsets)
    block = np.zeros((*sel.shape, len(OBS_STATE_LAYOUT)))
    block[..., [0, 1, 7]] = series
    block[..., 2] = state._z[:, None]
    block[sel, 3:7] = np.concatenate([vel, derive_derivative(vel, scene.dt, offsets)]).reshape(4, -1).T

    grid = state._table[rows[:, 2:]]
    observed = scene.columns.observed[rows[:, 2:]]
    mask = inside[:, 2:]
    grid[ctrl] = block[:, 2:]
    observed[ctrl] = True
    mask[ctrl] = sel[:, 2:]
    return grid, observed, mask


def _window_scene(state: SimState, simulated: bool) -> SceneFrame:
    """The valid rows of the _grid over [init_ts, current_ts] as a scene.

    The replay (simulated=False) is the like-for-like baseline for
    distribution scoring: both sides run the controlled pose series through
    the same derivation, so an exact replay gives bit-identical kinematics.
    """
    scene = state.scene
    lo, hi = state.init_ts, state.current_ts
    grid, observed, mask = _grid(state, lo, hi, simulated)
    n = mask.sum(axis=1)
    kept = np.flatnonzero(n)
    first = lo + mask.argmax(axis=1)[kept]
    last = first + n[kept] - 1
    columns = SceneColumns(*np.ascontiguousarray(grid[mask].T), observed[mask])
    return scene.keep_agents(kept, first, last, columns, scene_id=f"{scene.scene_id}_sim", heading_derived=False)


def rollout_scene(state: SimState) -> SceneFrame:
    """The simulated rollout as a SceneFrame over [init_ts, current_ts]."""
    return _window_scene(state, simulated=True)


def _pooled_rate(scene: SceneFrame, counts: Callable[[SceneFrame], tuple[np.ndarray, np.ndarray]]) -> float | None:
    """Share of the selected agents with an event (None if none is), by _rates of counts(scene), the per-agent (event rows, selected rows)."""
    num, den = _rates(scene, *counts(scene), False).sum(axis=1).tolist()
    return num / den if den else None


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
    sim_cols, real_cols = sim.columns, _window_scene(state, simulated=False).columns
    offroad: float | None = None
    if vmap is not None and vmap.has_drivable_area:
        offroad = _pooled_rate(sim, lambda s: _offroad_counts(s, vmap, _offroad_rows(s, OFFROAD_TYPES)))

    return SimMetrics(
        collision_rate=_pooled_rate(sim, _scene_collisions),
        offroad_rate=offroad,
        speed_distance=wasserstein_1d(np.hypot(sim_cols.vx, sim_cols.vy), np.hypot(real_cols.vx, real_cols.vy)),
        accel_distance=wasserstein_1d(np.hypot(sim_cols.ax, sim_cols.ay), np.hypot(real_cols.ax, real_cols.ay)),
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
