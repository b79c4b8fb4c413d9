"""Kinematic derivation: finite-difference derivatives, heading recovery,
gap imputation, and integer-ratio scene resampling.

Derivatives use a central-difference stencil with one-sided endpoints and are
always recomputed after imputation or resampling so the kinematic chain stays
self-consistent with the position columns.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import AgentMetadata, SceneFrame, wrap_angle

log = logging.getLogger(__name__)

# Below the position-noise scale of supported datasets; headings are held
# through slower motion instead of being recomputed from noise.
DEFAULT_SPEED_FLOOR = 0.05


class ResampleRatioError(ValueError):
    """Raised when desired_dt is not an integer multiple or divisor of native_dt."""


@dataclass(frozen=True)
class ResamplePlan:
    """How to get from a scene's native timestep to a desired one."""

    native_dt: float
    desired_dt: float
    mode: str  # "upsample" | "downsample" | "identity"
    factor: int


def plan_resample(native_dt: float, desired_dt: float, tol: float = 1e-9) -> ResamplePlan:
    if not (0.0 < native_dt < math.inf and 0.0 < desired_dt < math.inf):
        raise ValueError(f"timesteps must be positive and finite, got {native_dt} and {desired_dt}")
    if abs(native_dt - desired_dt) <= tol:
        return ResamplePlan(native_dt, desired_dt, "identity", 1)
    if native_dt > desired_dt:
        ratio = native_dt / desired_dt
        factor = round(ratio)
        if factor >= 1 and abs(native_dt - factor * desired_dt) <= tol:
            return ResamplePlan(native_dt, desired_dt, "upsample", factor)
    else:
        ratio = desired_dt / native_dt
        factor = round(ratio)
        if factor >= 1 and abs(desired_dt - factor * native_dt) <= tol:
            return ResamplePlan(native_dt, desired_dt, "downsample", factor)
    raise ResampleRatioError(
        f"cannot resample dt={native_dt} to dt={desired_dt}: ratio is not a positive integer"
    )


def derive_derivative(series: np.ndarray, dt: float) -> np.ndarray:
    """Finite-difference derivative of a uniformly sampled series.

    Central differences at interior points, one-sided at the ends. A
    single-sample series is degenerate and yields a zero derivative.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    s = np.asarray(series, dtype=np.float64)
    n = len(s)
    if n == 0:
        return np.zeros(0)
    if n == 1:
        log.debug("derivative of single-sample series is degenerate, returning 0")
        return np.zeros(1)
    out = np.empty(n)
    out[0] = (s[1] - s[0]) / dt
    out[-1] = (s[-1] - s[-2]) / dt
    if n > 2:
        out[1:-1] = (s[2:] - s[:-2]) / (2.0 * dt)
    return out


def derive_heading(
    vx: np.ndarray, vy: np.ndarray, speed_floor: float = DEFAULT_SPEED_FLOOR
) -> tuple[np.ndarray, bool]:
    """Headings from velocity, holding the last well-defined value through slow motion.

    Where speed >= speed_floor the heading is atan2(vy, vx); below the floor
    the previous defined heading carries forward, and a leading low-speed
    prefix takes the first defined heading. Returns (headings, degenerate);
    degenerate is True when the agent never moves above the floor, in which
    case all headings are 0.
    """
    vx = np.asarray(vx, dtype=np.float64)
    vy = np.asarray(vy, dtype=np.float64)
    if vx.shape != vy.shape:
        raise ValueError(f"vx and vy must have equal length, got {vx.shape} and {vy.shape}")
    speed = np.hypot(vx, vy)
    defined = speed >= speed_floor
    if not defined.any():
        return np.zeros(len(vx)), True
    heading = np.zeros(len(vx))
    heading[defined] = wrap_angle(np.arctan2(vy[defined], vx[defined]))
    # Forward-fill from defined entries; backfill the leading prefix.
    defined_idx = np.nonzero(defined)[0]
    fill_src = np.maximum.accumulate(np.where(defined, np.arange(len(vx)), -1))
    fill_src[fill_src < 0] = defined_idx[0]
    return heading[fill_src], False


def impute_linear(
    ts: np.ndarray,
    values: dict[str, np.ndarray],
    angular: tuple[str, ...] = ("heading",),
) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """Fill interior timestep gaps of one agent by per-axis linear interpolation.

    ``ts`` holds the observed integer timesteps (strictly increasing);
    ``values`` maps column name to an array aligned with ts. Angular columns
    are interpolated along the shortest arc and re-wrapped. Returns
    (full_ts, full_values, observed) where observed is False exactly on the
    imputed rows. No extrapolation happens beyond first/last.
    """
    ts = np.asarray(ts, dtype=np.int64)
    if ts.size == 0:
        raise ValueError("need at least one observed row to impute")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("observed timesteps must be strictly increasing")
    full_ts = np.arange(ts[0], ts[-1] + 1, dtype=np.int64)
    observed = np.isin(full_ts, ts)
    full_values: dict[str, np.ndarray] = {}
    for name, arr in values.items():
        arr = np.asarray(arr, dtype=np.float64)
        if observed.all():
            full_values[name] = arr.copy()
        elif name in angular:
            unwrapped = np.unwrap(arr)
            full_values[name] = wrap_angle(np.interp(full_ts, ts, unwrapped))
        else:
            full_values[name] = np.interp(full_ts, ts, arr)
    return full_ts, full_values, observed


def complete_track(
    ts: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    dt: float,
    heading: np.ndarray | None = None,
    speed_floor: float = DEFAULT_SPEED_FLOOR,
) -> tuple[int, dict[str, np.ndarray], bool]:
    """Impute one agent's gaps and derive the full kinematic state from positions.

    Returns (first_ts, columns, heading_derived) where columns holds x, y, z,
    vx, vy, ax, ay, heading, observed aligned to [first_ts, last_ts]. When
    ``heading`` is given it is kept (interpolated at imputed rows); otherwise
    it is derived from the velocities.
    """
    values = {"x": x, "y": y, "z": z}
    if heading is not None:
        values["heading"] = wrap_angle(np.asarray(heading, dtype=np.float64))
    full_ts, full, observed = impute_linear(ts, values)
    full["vx"] = derive_derivative(full["x"], dt)
    full["vy"] = derive_derivative(full["y"], dt)
    full["ax"] = derive_derivative(full["vx"], dt)
    full["ay"] = derive_derivative(full["vy"], dt)
    heading_derived = heading is None
    if heading_derived:
        full["heading"], _ = derive_heading(full["vx"], full["vy"], speed_floor)
    full["observed"] = observed
    return int(full_ts[0]), full, heading_derived


def _resample_agent_up(
    meta: AgentMetadata, rows: dict[str, np.ndarray], factor: int
) -> tuple[AgentMetadata, dict[str, np.ndarray]]:
    old_ts = np.arange(meta.first_ts, meta.last_ts + 1, dtype=np.int64)
    new_first = meta.first_ts * factor
    new_last = meta.last_ts * factor
    new_ts = np.arange(new_first, new_last + 1, dtype=np.int64)
    knots = old_ts * factor
    out: dict[str, np.ndarray] = {}
    for name in ("x", "y", "z"):
        out[name] = np.interp(new_ts, knots, rows[name])
    unwrapped = np.unwrap(rows["heading"])
    out["heading"] = wrap_angle(np.interp(new_ts, knots, unwrapped))
    on_grid = new_ts % factor == 0
    observed = np.zeros(len(new_ts), dtype=bool)
    observed[on_grid] = rows["observed"]
    out["observed"] = observed
    new_meta = AgentMetadata(meta.agent_id, meta.agent_type, meta.extent, int(new_first), int(new_last))
    return new_meta, out


def _resample_agent_down(
    meta: AgentMetadata, rows: dict[str, np.ndarray], factor: int
) -> tuple[AgentMetadata, dict[str, np.ndarray]] | None:
    old_ts = np.arange(meta.first_ts, meta.last_ts + 1, dtype=np.int64)
    keep = old_ts % factor == 0
    if not keep.any():
        return None
    kept_ts = old_ts[keep] // factor
    out = {name: rows[name][keep] for name in ("x", "y", "z", "heading", "observed")}
    new_meta = AgentMetadata(meta.agent_id, meta.agent_type, meta.extent, int(kept_ts[0]), int(kept_ts[-1]))
    return new_meta, out


def resample_scene(scene: SceneFrame, desired_dt: float) -> SceneFrame:
    """Return the scene resampled to desired_dt (integer-ratio only).

    Upsampling linearly interpolates factor-1 new rows between consecutive
    frames (observed=False); downsampling keeps the frames that fall on the
    coarser scene grid (old ts divisible by factor), dropping agents whose
    lifetime contains none. Velocities and accelerations are recomputed from
    the resampled positions; headings are recomputed too when they were
    derived rather than dataset-given.
    """
    plan = plan_resample(scene.dt, desired_dt)
    if plan.mode == "identity":
        return scene

    from .core import extract_agent_rows  # local to avoid cycle noise at import time

    new_agents: list[AgentMetadata] = []
    new_tracks: list[dict[str, np.ndarray]] = []
    for i, meta in enumerate(scene.agents):
        rows = extract_agent_rows(scene, i)
        if plan.mode == "upsample":
            resampled = _resample_agent_up(meta, rows, plan.factor)
        else:
            resampled = _resample_agent_down(meta, rows, plan.factor)
            if resampled is None:
                log.warning(
                    "agent %s dropped by downsampling: lifetime [%d, %d] has no frame on the ts%%%d grid",
                    meta.agent_id, meta.first_ts, meta.last_ts, plan.factor,
                )
                continue
        new_meta, track = resampled
        track["vx"] = derive_derivative(track["x"], desired_dt)
        track["vy"] = derive_derivative(track["y"], desired_dt)
        track["ax"] = derive_derivative(track["vx"], desired_dt)
        track["ay"] = derive_derivative(track["vy"], desired_dt)
        if scene.heading_derived:
            track["heading"], _ = derive_heading(track["vx"], track["vy"])
        new_agents.append(new_meta)
        new_tracks.append(track)

    return SceneFrame.from_tracks(
        scene_id=scene.scene_id,
        dataset_tag=scene.dataset_tag,
        location=scene.location,
        dt=desired_dt,
        agents=new_agents,
        tracks=new_tracks,
        heading_derived=scene.heading_derived,
    )
