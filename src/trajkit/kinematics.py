"""Kinematic derivation: finite-difference derivatives, heading recovery,
gap imputation, and integer-ratio scene resampling.

Derivatives use a central-difference stencil with one-sided endpoints and are
always recomputed after imputation or resampling so the kinematic chain stays
self-consistent with the position columns.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ROW_BUDGET, SceneColumns, SceneFrame, row_layout, wrap_angle

log = logging.getLogger(__name__)

# Below the position-noise scale of supported datasets; headings are held
# through slower motion instead of being recomputed from noise.
DEFAULT_SPEED_FLOOR = 0.05


class ResampleRatioError(ValueError):
    """Raised when desired_dt is not an integer multiple or divisor of native_dt,
    or when the resampled scene's timesteps or rows would not fit (int64, or
    the row budget)."""


@dataclass(frozen=True)
class ResamplePlan:
    """How to get from a scene's native timestep to a desired one."""

    native_dt: float
    desired_dt: float
    mode: str  # "upsample" | "downsample" | "identity"
    factor: int


def plan_resample(native_dt: float, desired_dt: float) -> ResamplePlan:
    """Identity within 1e-9 s; otherwise an upsample (native_dt the larger) or
    downsample by the integer factor that relates the two within 1e-9 s."""
    if not (0.0 < native_dt < math.inf and 0.0 < desired_dt < math.inf):
        raise ValueError(f"timesteps must be positive and finite, got {native_dt} and {desired_dt}")
    tol = 1e-9
    if abs(native_dt - desired_dt) <= tol:
        return ResamplePlan(native_dt, desired_dt, "identity", 1)
    big, small = max(native_dt, desired_dt), min(native_dt, desired_dt)
    ratio = big / small  # inf when beyond the float range, which no factor meets
    if ratio < math.inf and abs(big - round(ratio) * small) <= tol:
        return ResamplePlan(native_dt, desired_dt, "upsample" if native_dt > desired_dt else "downsample", round(ratio))
    raise ResampleRatioError(
        f"cannot resample dt={native_dt} to dt={desired_dt}: ratio is not a positive integer"
    )


def unwrap_segments(series: np.ndarray, offsets: np.ndarray, segments: np.ndarray | None = None) -> np.ndarray:
    """A float64 copy of series with np.unwrap applied to each segment
    series[offsets[k]:offsets[k + 1]] (of every k, or of each k in segments),
    bit for bit as one call per segment. Segments whose lengths share a power
    of two are padded with their last value into one (segments, width) block
    and unwrapped along axis 1: np.unwrap works element by element but for a
    cumsum, which adds along each row in order, so the padding after a
    segment's values leaves them as they were."""
    out = np.array(series, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    k = np.arange(len(offsets) - 1) if segments is None else np.asarray(segments, dtype=np.int64)
    starts, lengths = offsets[k], offsets[k + 1] - offsets[k]
    group = np.frexp(lengths)[1]  # floor(log2(length)) + 1
    for g in np.unique(group).tolist():
        first, n = starts[group == g], lengths[group == g][:, None]
        width = np.arange(n.max())
        rows = first[:, None] + np.minimum(width, n - 1)
        kept = width < n
        out[rows[kept]] = np.unwrap(out[rows], axis=1)[kept]
    return out


def derive_derivative(series: np.ndarray, dt: float, offsets: np.ndarray | None = None) -> np.ndarray:
    """Finite-difference derivative of a uniformly sampled series.

    Central differences at interior points, one-sided at the ends. A
    single-sample series is degenerate and yields a zero derivative. With
    ``offsets`` (ascending, from 0 to len(series)) each segment
    ``series[offsets[k]:offsets[k + 1]]`` is differentiated on its own;
    without, the whole series is one segment.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    s = np.asarray(series, dtype=np.float64)
    n = len(s)
    out = np.zeros(n)
    # Differences of huge values overflow to inf or NaN; scene_validate reports those, so numpy stays quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        out[1:-1] = (s[2:] - s[:-2]) / (2.0 * dt)
        bounds = np.array([0, n]) if offsets is None else np.asarray(offsets)
        first, last = bounds[:-1], bounds[1:] - 1
        out[first[first == last]] = 0.0
        long = first < last
        first, last = first[long], last[long]
        out[first] = (s[first + 1] - s[first]) / dt
        out[last] = (s[last] - s[last - 1]) / dt
    return out


def derive_heading(
    vx: np.ndarray, vy: np.ndarray, speed_floor: float = DEFAULT_SPEED_FLOOR, offsets: np.ndarray | None = None
) -> tuple[np.ndarray, bool | np.ndarray]:
    """Headings from velocity, holding the last well-defined value through slow motion.

    Where speed >= speed_floor the heading is atan2(vy, vx); below the floor
    the previous defined heading carries forward, and a leading low-speed
    prefix takes the first defined heading. Returns (headings, degenerate);
    degenerate is True when the agent never moves above the floor, in which
    case all headings are 0. With ``offsets`` (as for derive_derivative) each
    segment is one agent, and degenerate holds one flag per segment.
    """
    vx = np.asarray(vx, dtype=np.float64)
    vy = np.asarray(vy, dtype=np.float64)
    if vx.shape != vy.shape:
        raise ValueError(f"vx and vy must have equal length, got {vx.shape} and {vy.shape}")
    n = len(vx)
    bounds = np.array([0, n]) if offsets is None else np.asarray(offsets, dtype=np.int64)
    segment = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    defined = np.hypot(vx, vy) >= speed_floor
    heading = np.zeros(n + 1)  # row n: the 0 of an agent that never moves
    heading[:n][defined] = wrap_angle(np.arctan2(vy[defined], vx[defined]))
    # Fills by row index, so they copy values exactly: the last defined row
    # at or before each row, else the first defined row of its segment.
    rows = np.arange(n)
    first_defined = np.full(len(bounds) - 1, n)
    np.minimum.at(first_defined, segment[defined], rows[defined])
    last_defined = np.maximum.accumulate(np.where(defined, rows, -1))
    fill = np.where(last_defined >= bounds[:-1][segment], last_defined, first_defined[segment])
    return heading[fill], (bool(first_defined[0] == n) if offsets is None else first_defined == n)


def impute_linear(
    ts: np.ndarray,
    values: dict[str, np.ndarray],
    angular: tuple[str, ...] = ("heading",),
    offsets: np.ndarray | None = None,
    agent_ids: Sequence | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """Fill interior timestep gaps of one agent by per-axis linear interpolation.

    ``ts`` holds the observed integer timesteps (strictly increasing);
    ``values`` maps column name to an array aligned with ts. Angular columns
    are interpolated along the shortest arc and re-wrapped. Returns
    (full_ts, full_values, observed) where observed is False exactly on the
    imputed rows. No extrapolation happens beyond first/last. With
    ``offsets`` (as for derive_derivative) each segment is one agent, and
    the outputs hold every agent's lifetime in turn.

    ValueError, before any row is built, when the lifetimes hold more than
    ROW_BUDGET rows; it names the agent that crosses the budget, by its entry
    of agent_ids when given, else by its position.
    """
    ts = np.asarray(ts, dtype=np.int64)
    bounds = np.array([0, len(ts)]) if offsets is None else np.asarray(offsets, dtype=np.int64)
    if np.any(np.diff(bounds) <= 0):
        raise ValueError("need at least one observed row to impute")
    steps = np.diff(ts)
    steps[bounds[1:-1] - 1] = 1  # from one agent to the next is no step
    if np.any(steps <= 0):
        raise ValueError("observed timesteps must be strictly increasing")
    first, last = ts[bounds[:-1]], ts[bounds[1:] - 1]
    # Python ints: a lifetime may span more timesteps than int64 holds.
    totals = list(itertools.accumulate(b - a + 1 for a, b in zip(first.tolist(), last.tolist())))
    if totals and totals[-1] > ROW_BUDGET:
        k = next(k for k, total in enumerate(totals) if total > ROW_BUDGET)
        raise ValueError(
            f"agent {k if agent_ids is None else agent_ids[k]}: lifetime [{first[k]}, {last[k]}] brings the scene to"
            f" {totals[k]} rows, beyond the budget of {ROW_BUDGET} rows"
        )
    length = last - first + 1
    segment, full_ts = row_layout(first, last)
    # One np.interp over all agents, output rows as abscissae: an agent's knots
    # bracket only its rows, and row differences equal timestep differences, so
    # values equal per-agent calls' (np.interp returns a knot's value exactly).
    knots = np.repeat(np.cumsum(length) - length - first, np.diff(bounds)) + ts  # rows of the observed ts
    observed = np.zeros(len(segment), dtype=bool)
    observed[knots] = True
    gaps = length > np.diff(bounds)
    full_values: dict[str, np.ndarray] = {}
    for name, arr in values.items():
        arr = np.array(arr, dtype=np.float64)
        if gaps.any():
            if name in angular:
                arr = unwrap_segments(arr, bounds, np.flatnonzero(gaps))
            arr = np.interp(np.arange(len(segment)), knots, arr)
            if name in angular:
                arr[gaps[segment]] = wrap_angle(arr[gaps[segment]])
        full_values[name] = arr
    return full_ts, full_values, observed


def complete_tracks(
    offsets: np.ndarray, ts: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray, dt: float,
    heading: np.ndarray | None = None, agent_ids: Sequence | None = None,
) -> tuple[np.ndarray, np.ndarray, SceneColumns]:
    """Impute every agent's gaps and derive its kinematic state, all agents at once.

    Agent k is rows offsets[k]:offsets[k + 1], with ts strictly increasing.
    Returns (first_ts, last_ts, columns): per-agent lifetimes, and the value
    columns over every lifetime timestep, agent by agent (observed False on
    imputed rows). Velocities and accelerations come from the positions.
    A given ``heading`` is wrapped to (-pi, pi] and kept, interpolated along
    the shortest arc at imputed rows; otherwise headings come from velocities.
    Lifetimes beyond the row budget raise as in impute_linear, naming the
    agent by agent_ids.
    """
    values = {"x": x, "y": y, "z": z}
    if heading is not None:
        values["heading"] = wrap_angle(np.asarray(heading, dtype=np.float64))
    _, full, observed = impute_linear(ts, values, ("heading",), offsets, agent_ids)
    first, last = ts[offsets[:-1]], ts[np.asarray(offsets[1:]) - 1]
    out_offsets = np.concatenate([[0], np.cumsum(last - first + 1)])
    vx = derive_derivative(full["x"], dt, out_offsets)
    vy = derive_derivative(full["y"], dt, out_offsets)
    if heading is None:
        full["heading"], _ = derive_heading(vx, vy, offsets=out_offsets)
    return first, last, SceneColumns(
        x=full["x"], y=full["y"], z=full["z"], vx=vx, vy=vy,
        ax=derive_derivative(vx, dt, out_offsets), ay=derive_derivative(vy, dt, out_offsets),
        heading=full["heading"], observed=observed,
    )


def complete_track(
    ts: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    dt: float,
    heading: np.ndarray | None = None,
) -> tuple[int, dict[str, np.ndarray], bool]:
    """Impute one agent's gaps and derive the full kinematic state from positions.

    Returns (first_ts, columns, heading_derived) where columns holds x, y, z,
    vx, vy, ax, ay, heading, observed aligned to [first_ts, last_ts]. When
    ``heading`` is given it is kept (interpolated at imputed rows); otherwise
    it is derived from the velocities. The one-agent case of complete_tracks.
    """
    ts = np.asarray(ts, dtype=np.int64)
    first, _, columns = complete_tracks(np.array([0, len(ts)]), ts, x, y, z, dt, heading)
    return int(first[0]), columns.as_dict(), heading is None


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
    # ts * factor and ts % factor need the factor, and every ts scaled by it, within int64.
    if max(scene.n_timesteps - 1, 1) * plan.factor > np.iinfo(np.int64).max:
        raise ResampleRatioError(
            f"cannot resample dt={scene.dt} to dt={desired_dt}: factor {plan.factor:.3g} over {scene.n_timesteps} timesteps overflows int64"
        )

    cols = scene.columns
    # Upsampling is imputation on the finer grid, with the old rows as knots.
    keep = np.ones(len(cols), dtype=bool) if plan.mode == "upsample" else cols.ts % plan.factor == 0
    ts = cols.ts * plan.factor if plan.mode == "upsample" else cols.ts[keep] // plan.factor
    kept_rows = np.bincount(cols.agent_index[keep], minlength=scene.n_agents)
    for i in np.flatnonzero(kept_rows == 0):
        log.warning(
            "agent %s dropped by downsampling: lifetime [%d, %d] has no frame on the ts%%%d grid",
            scene.agent_ids[i], scene.first_ts[i], scene.last_ts[i], plan.factor,
        )
    kept = np.flatnonzero(kept_rows)
    offsets = np.concatenate([[0], np.cumsum(kept_rows[kept])])
    heading = None if scene.heading_derived else cols.heading[keep]
    try:
        first, last, columns = complete_tracks(
            offsets, ts, cols.x[keep], cols.y[keep], cols.z[keep], desired_dt, heading, [scene.agent_ids[k] for k in kept.tolist()]
        )
    except ValueError as exc:  # lifetimes beyond the row budget
        raise ResampleRatioError(f"cannot resample dt={scene.dt} to dt={desired_dt}: {exc}") from None
    columns.observed[columns.observed] = cols.observed[keep]  # each knot keeps its source row's flag
    return scene.keep_agents(kept, first, last, columns, dt=float(desired_dt))
