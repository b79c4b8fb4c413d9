"""Agent- and scene-centric batch construction over cached scenes.

Each agent-centric element holds one predicted agent at one timestep with a
fixed-size history/future window, zero-filled and masked where data is
missing, standardized so the predicted agent sits at the origin with heading
zero. The per-slot state layout is (x, y, vx, vy, ax, ay, sin h, cos h);
heading as sin/cos avoids wrap discontinuities inside padded arrays.
"""

from __future__ import annotations

import io
import json
import math
import zipfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import AgentType, SceneFrame, SceneTag, wrap_angle
from .ingest import SceneCache
from .kinematics import resample_scene

STATE_DIM = 8
STATE_LAYOUT = ("x", "y", "vx", "vy", "ax", "ay", "sin_h", "cos_h")


class EmptyIndexError(ValueError):
    """No batch elements satisfied the window and filter constraints."""


def seconds_to_steps(seconds: float, dt: float) -> int:
    """Convert a duration to whole steps, rounding half up."""
    return int(math.floor(seconds / dt + 0.5))


@dataclass(frozen=True)
class WindowSpec:
    """History/future requirements in seconds: (minimum available, padded-to maximum)."""

    history: tuple[float, float]
    future: tuple[float, float]

    def __post_init__(self):
        for name, (lo, hi) in (("history", self.history), ("future", self.future)):
            if not (0.0 <= lo <= hi < math.inf):
                raise ValueError(f"{name} window must be finite with 0 <= min <= max, got {(lo, hi)}")


@dataclass(frozen=True)
class FilterSpec:
    """Restricts which agents become predicted agents and how far neighbors reach."""

    agent_types: frozenset[AgentType] = frozenset(AgentType)
    max_neighbor_dist: float | None = None
    dataset_tags: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.agent_types:
            raise ValueError("allowed agent-type set must not be empty")
        if self.max_neighbor_dist is not None and self.max_neighbor_dist < 0.0:
            raise ValueError("max_neighbor_dist must be >= 0")


@dataclass(eq=False)
class AgentBatchElement:
    """One predicted agent at one timestep, in its standardized frame.

    ``translation``/``rotation`` map world to standardized coordinates:
    p_std = R(-rotation) @ (p_world - translation).
    """

    scene_id: str
    dataset_tag: str
    agent_id: str
    agent_type: AgentType
    current_ts: int
    dt: float
    history: np.ndarray        # (H+1, STATE_DIM)
    history_mask: np.ndarray   # (H+1,)
    future: np.ndarray         # (F, STATE_DIM)
    future_mask: np.ndarray    # (F,)
    neighbor_ids: tuple[str, ...]
    neighbor_types: tuple[AgentType, ...]
    neighbor_histories: np.ndarray  # (N, H+1, STATE_DIM)
    neighbor_masks: np.ndarray      # (N, H+1)
    translation: np.ndarray    # (2,)
    rotation: float

    def to_world_points(self, points_std: np.ndarray) -> np.ndarray:
        """Invert the standardization for an array of (x, y) points."""
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        rot = np.array([[c, -s], [s, c]])
        return points_std @ rot.T + self.translation

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AgentBatchElement):
            return NotImplemented
        scalar = (
            self.scene_id == other.scene_id
            and self.dataset_tag == other.dataset_tag
            and self.agent_id == other.agent_id
            and self.agent_type == other.agent_type
            and self.current_ts == other.current_ts
            and self.dt == other.dt
            and self.neighbor_ids == other.neighbor_ids
            and self.neighbor_types == other.neighbor_types
            and self.rotation == other.rotation
        )
        if not scalar:
            return False
        pairs = (
            (self.history, other.history),
            (self.history_mask, other.history_mask),
            (self.future, other.future),
            (self.future_mask, other.future_mask),
            (self.neighbor_histories, other.neighbor_histories),
            (self.neighbor_masks, other.neighbor_masks),
            (self.translation, other.translation),
        )
        return all(np.array_equal(a, b) for a, b in pairs)


@dataclass(eq=False)
class SceneBatchElement:
    """All qualifying agents of one scene timestep, in world coordinates."""

    scene_id: str
    dataset_tag: str
    current_ts: int
    dt: float
    agent_ids: tuple[str, ...]
    agent_types: tuple[AgentType, ...]
    histories: np.ndarray      # (A, H+1, STATE_DIM)
    history_masks: np.ndarray  # (A, H+1)
    futures: np.ndarray        # (A, F, STATE_DIM)
    future_masks: np.ndarray   # (A, F)


@dataclass
class _SceneContext:
    scene: SceneFrame
    tag: str
    h_steps: int   # padded history length H (window holds H+1 slots)
    f_steps: int
    h_min: int
    f_min: int
    first_ts: np.ndarray = field(init=False)  # (agents,) lifetime bounds
    last_ts: np.ndarray = field(init=False)
    row0: np.ndarray = field(init=False)      # row of (agent j, ts) is row0[j] + ts
    states: np.ndarray = field(init=False)    # (rows, 7): x, y, vx, vy, ax, ay, heading

    def __post_init__(self):
        cols = self.scene.columns
        self.first_ts = np.array([m.first_ts for m in self.scene.agents], dtype=np.int64)
        self.last_ts = np.array([m.last_ts for m in self.scene.agents], dtype=np.int64)
        self.row0 = self.scene._agent_offsets[:-1] - self.first_ts
        self.states = np.column_stack([cols.x, cols.y, cols.vx, cols.vy, cols.ax, cols.ay, cols.heading])


@dataclass
class ElementIndex:
    """Deterministically ordered batch elements over a set of cached scenes."""

    centric: str
    window: WindowSpec
    filter: FilterSpec
    entries: list[tuple]
    contexts: dict[tuple[str, str], _SceneContext]

    def __len__(self) -> int:
        return len(self.entries)


def _qualifying_ts(scene: SceneFrame, agent_index: int, h_min: int, f_min: int) -> np.ndarray:
    """Global timesteps where the agent is observed at the anchor step and its
    data covers h_min steps behind and f_min ahead.

    Coverage is lifetime-based: imputation and resampling never extrapolate,
    so every in-lifetime step interpolates real observations and the lifetime
    endpoints are themselves observed. Anchoring at an imputed row is not
    allowed; on upsampled scenes the anchors are the original frames.
    """
    meta = scene.agents[agent_index]
    sl = scene.rows_for_agent(agent_index)
    obs = scene.columns.observed[sl]
    n = len(obs)
    t = np.arange(n)
    ok = obs & (t >= h_min) & (t + f_min <= n - 1)
    return meta.first_ts + t[ok]


def build_index(
    cache: SceneCache,
    tags: Sequence[str],
    centric: str = "agent",
    window: WindowSpec = WindowSpec((0.0, 0.0), (0.0, 0.0)),
    filt: FilterSpec | None = None,
    desired_dt: float | None = None,
) -> ElementIndex:
    """Enumerate all (scene, agent, ts) elements satisfying the window and filter.

    Agent-centric: one entry per qualifying (scene, agent, ts). Scene-centric:
    one entry per (scene, ts) with at least one qualifying agent. Scenes are
    resampled to desired_dt first when given. Entries are ordered
    lexicographically by (dataset tag, scene, agent, ts); two builds over the
    same cache produce identical orderings.
    """
    if centric not in ("agent", "scene"):
        raise ValueError(f"centric must be 'agent' or 'scene', got {centric!r}")
    filt = filt or FilterSpec()

    contexts: dict[tuple[str, str], _SceneContext] = {}
    triples: list[tuple[str, str, str, int, int]] = []  # (tag, scene_id, agent_id, agent_index, ts)
    n_scenes = 0
    for entry in cache.resolve(tags):
        scene = cache.load_path(entry.path)
        if filt.dataset_tags is not None:
            full = scene.scene_tag()
            if not any(SceneTag.parse(t).matches(full) for t in filt.dataset_tags):
                continue
        if desired_dt is not None:
            scene = resample_scene(scene, desired_dt)
        n_scenes += 1
        dt = scene.dt
        ctx = _SceneContext(
            scene=scene,
            tag=entry.tag,
            h_steps=seconds_to_steps(window.history[1], dt),
            f_steps=seconds_to_steps(window.future[1], dt),
            h_min=seconds_to_steps(window.history[0], dt),
            f_min=seconds_to_steps(window.future[0], dt),
        )
        contexts[(entry.tag, scene.scene_id)] = ctx
        for agent_index, meta in enumerate(scene.agents):
            if meta.agent_type not in filt.agent_types:
                continue
            for ts in _qualifying_ts(scene, agent_index, ctx.h_min, ctx.f_min):
                triples.append((entry.tag, scene.scene_id, meta.agent_id, agent_index, int(ts)))

    triples.sort(key=lambda t: (t[0], t[1], t[2], t[4]))
    if centric == "agent":
        entries = [(tag, sid, aidx, ts) for tag, sid, _, aidx, ts in triples]
    else:
        grouped: dict[tuple[str, str, int], list[int]] = {}
        for tag, sid, _, aidx, ts in triples:
            grouped.setdefault((tag, sid, ts), []).append(aidx)
        entries = [
            (tag, sid, ts, tuple(idxs))
            for (tag, sid, ts), idxs in sorted(grouped.items())
        ]
    if not entries:
        raise EmptyIndexError(
            f"no elements over {n_scenes} scene(s): window requires "
            f">= {window.history[0]}s observed history and >= {window.future[0]}s observed future, "
            f"allowed types {sorted(str(t) for t in filt.agent_types)}"
        )
    return ElementIndex(centric=centric, window=window, filter=filt, entries=entries, contexts=contexts)


def _window(ctx: _SceneContext, agents, ts_values: np.ndarray, origin: np.ndarray, yaw: float) -> tuple[np.ndarray, np.ndarray]:
    """States (N, T, STATE_DIM) and validity mask (N, T) of N agents over the
    timesteps ts_values, in the frame at (origin, yaw); slots outside an
    agent's lifetime are zero and False."""
    agents = np.asarray(agents, dtype=np.int64)[:, None]
    first = ctx.first_ts[agents]
    mask = (ts_values >= first) & (ts_values <= ctx.last_ts[agents])
    raw = ctx.states[ctx.row0[agents] + np.where(mask, ts_values, first)]
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, s], [-s, c]])  # rotation by -yaw
    # Rotate each agent's (T, 2) block as its own matmul: a flattened
    # (N*T, 2) product can round differently in the last bit.
    state = np.empty((*mask.shape, STATE_DIM))
    state[..., 0:2] = (raw[..., 0:2] - origin) @ rot.T
    state[..., 2:4] = raw[..., 2:4] @ rot.T
    state[..., 4:6] = raw[..., 4:6] @ rot.T
    h_std = wrap_angle(raw[..., 6] - yaw)
    state[..., 6] = np.sin(h_std)
    state[..., 7] = np.cos(h_std)
    state[~mask] = 0.0
    return state, mask


def _build_agent_element(ctx: _SceneContext, agent_index: int, ts: int, filt: FilterSpec) -> AgentBatchElement:
    scene = ctx.scene
    meta = scene.agents[agent_index]
    cols = scene.columns
    ego_row = scene.row_at(agent_index, ts)
    origin = np.array([cols.x[ego_row], cols.y[ego_row]])
    yaw = float(cols.heading[ego_row])

    present = np.flatnonzero((ctx.first_ts <= ts) & (ctx.last_ts >= ts))
    rows = ctx.row0[present] + ts
    keep = (present != agent_index) & cols.observed[rows]
    candidates, rows = present[keep], rows[keep]
    neighbors: list[tuple[float, str, int]] = []
    # math.hypot, not np.hypot: the two differ in the last bit on some
    # inputs, which would reorder ties and move the max_neighbor_dist cut.
    for j, x, y in zip(candidates.tolist(), cols.x[rows].tolist(), cols.y[rows].tolist()):
        dist = math.hypot(x - origin[0], y - origin[1])
        if filt.max_neighbor_dist is not None and dist > filt.max_neighbor_dist:
            continue
        neighbors.append((dist, scene.agents[j].agent_id, j))
    neighbors.sort(key=lambda n: (n[0], n[1]))

    # History and future take one call each, as the per-agent path did: a
    # one-step future rotated inside a longer range rounds differently.
    hist, hist_mask = _window(ctx, [agent_index] + [n[2] for n in neighbors], np.arange(ts - ctx.h_steps, ts + 1), origin, yaw)
    fut, fut_mask = _window(ctx, [agent_index], np.arange(ts + 1, ts + ctx.f_steps + 1), origin, yaw)
    return AgentBatchElement(
        scene_id=scene.scene_id,
        dataset_tag=ctx.tag,
        agent_id=meta.agent_id,
        agent_type=meta.agent_type,
        current_ts=ts,
        dt=scene.dt,
        history=hist[0],
        history_mask=hist_mask[0],
        future=fut[0],
        future_mask=fut_mask[0],
        neighbor_ids=tuple(n[1] for n in neighbors),
        neighbor_types=tuple(scene.agents[n[2]].agent_type for n in neighbors),
        neighbor_histories=hist[1:],
        neighbor_masks=hist_mask[1:],
        translation=origin,
        rotation=yaw,
    )


def _build_scene_element(ctx: _SceneContext, ts: int, agent_indices: tuple[int, ...]) -> SceneBatchElement:
    scene = ctx.scene
    hist, hist_mask = _window(ctx, agent_indices, np.arange(ts - ctx.h_steps, ts + 1), np.zeros(2), 0.0)
    fut, fut_mask = _window(ctx, agent_indices, np.arange(ts + 1, ts + ctx.f_steps + 1), np.zeros(2), 0.0)
    return SceneBatchElement(
        scene_id=scene.scene_id,
        dataset_tag=ctx.tag,
        current_ts=ts,
        dt=scene.dt,
        agent_ids=tuple(scene.agents[j].agent_id for j in agent_indices),
        agent_types=tuple(scene.agents[j].agent_type for j in agent_indices),
        histories=hist,
        history_masks=hist_mask,
        futures=fut,
        future_masks=fut_mask,
    )


def get_element(index: ElementIndex, i: int):
    """Materialize element i (AgentBatchElement or SceneBatchElement)."""
    if not 0 <= i < len(index.entries):
        raise IndexError(f"element index {i} out of range [0, {len(index.entries)})")
    entry = index.entries[i]
    if index.centric == "agent":
        tag, scene_id, agent_index, ts = entry
        return _build_agent_element(index.contexts[(tag, scene_id)], agent_index, ts, index.filter)
    tag, scene_id, ts, agent_indices = entry
    return _build_scene_element(index.contexts[(tag, scene_id)], ts, agent_indices)


@dataclass(eq=False)
class AgentBatch:
    """Stacked agent-centric elements, neighbor dimension padded to the batch max."""

    scene_ids: tuple[str, ...]
    dataset_tags: tuple[str, ...]
    agent_ids: tuple[str, ...]
    agent_types: tuple[AgentType, ...]
    current_ts: np.ndarray      # (B,)
    dts: np.ndarray             # (B,)
    history: np.ndarray         # (B, H+1, STATE_DIM)
    history_mask: np.ndarray    # (B, H+1)
    future: np.ndarray          # (B, F, STATE_DIM)
    future_mask: np.ndarray     # (B, F)
    neighbor_histories: np.ndarray  # (B, N_max, H+1, STATE_DIM)
    neighbor_masks: np.ndarray      # (B, N_max, H+1)
    neighbor_counts: np.ndarray     # (B,)
    neighbor_ids: tuple[tuple[str, ...], ...]
    neighbor_types: tuple[tuple[AgentType, ...], ...]
    translations: np.ndarray    # (B, 2)
    rotations: np.ndarray       # (B,)

    def __len__(self) -> int:
        return len(self.scene_ids)

    def unpad(self) -> list[AgentBatchElement]:
        """Recover the original elements exactly (inverse of collate)."""
        out = []
        for b in range(len(self)):
            n = int(self.neighbor_counts[b])
            out.append(
                AgentBatchElement(
                    scene_id=self.scene_ids[b],
                    dataset_tag=self.dataset_tags[b],
                    agent_id=self.agent_ids[b],
                    agent_type=self.agent_types[b],
                    current_ts=int(self.current_ts[b]),
                    dt=float(self.dts[b]),
                    history=self.history[b].copy(),
                    history_mask=self.history_mask[b].copy(),
                    future=self.future[b].copy(),
                    future_mask=self.future_mask[b].copy(),
                    neighbor_ids=self.neighbor_ids[b],
                    neighbor_types=self.neighbor_types[b],
                    neighbor_histories=self.neighbor_histories[b, :n].copy(),
                    neighbor_masks=self.neighbor_masks[b, :n].copy(),
                    translation=self.translations[b].copy(),
                    rotation=float(self.rotations[b]),
                )
            )
        return out


def _pad(parts: Sequence[np.ndarray], dtype=None) -> np.ndarray:
    """Stack arrays that differ only in their first dimension, zero-filling
    each up to the longest."""
    out = np.zeros((len(parts), max(len(p) for p in parts), *parts[0].shape[1:]), dtype=dtype or parts[0].dtype)
    for i, p in enumerate(parts):
        out[i, : len(p)] = p
    return out


def collate(elements: Sequence[AgentBatchElement]) -> AgentBatch:
    """Stack elements into one padded batch; padded neighbor slots are masked False.

    Element order is preserved; all elements must share window shapes.
    """
    if not elements:
        raise ValueError("cannot collate an empty element list")
    h_shape = elements[0].history.shape
    f_shape = elements[0].future.shape
    for el in elements:
        if el.history.shape != h_shape or el.future.shape != f_shape:
            raise ValueError(
                f"mixed window shapes: {el.history.shape}/{el.future.shape} vs {h_shape}/{f_shape}"
            )
    return AgentBatch(
        scene_ids=tuple(el.scene_id for el in elements),
        dataset_tags=tuple(el.dataset_tag for el in elements),
        agent_ids=tuple(el.agent_id for el in elements),
        agent_types=tuple(el.agent_type for el in elements),
        current_ts=np.array([el.current_ts for el in elements], dtype=np.int64),
        dts=np.array([el.dt for el in elements]),
        history=np.stack([el.history for el in elements]),
        history_mask=np.stack([el.history_mask for el in elements]),
        future=np.stack([el.future for el in elements]),
        future_mask=np.stack([el.future_mask for el in elements]),
        neighbor_histories=_pad([el.neighbor_histories for el in elements]),
        neighbor_masks=_pad([el.neighbor_masks for el in elements]),
        neighbor_counts=np.array([len(el.neighbor_ids) for el in elements], dtype=np.int64),
        neighbor_ids=tuple(el.neighbor_ids for el in elements),
        neighbor_types=tuple(el.neighbor_types for el in elements),
        translations=np.stack([el.translation for el in elements]),
        rotations=np.array([el.rotation for el in elements]),
    )


def augment_noise(element: AgentBatchElement, sigma: float, seed: int) -> AgentBatchElement:
    """Add i.i.d. Gaussian position noise to the valid history slots only.

    The current step is included, the future is untouched, and masks are
    unchanged. Deterministic under a fixed seed.
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 1.0, size=(element.history.shape[0], 2)) * sigma
    history = element.history.copy()
    history[:, 0:2] += noise * element.history_mask[:, None]
    return replace(
        element,
        history=history,
        history_mask=element.history_mask.copy(),
        future=element.future.copy(),
        future_mask=element.future_mask.copy(),
        neighbor_histories=element.neighbor_histories.copy(),
        neighbor_masks=element.neighbor_masks.copy(),
        translation=element.translation.copy(),
    )


# ---------------------------------------------------------------------------
# Batch export (file container + manifest for downstream frameworks)
# ---------------------------------------------------------------------------

def _write_npz_deterministic(path: Path, arrays: dict[str, np.ndarray]) -> None:
    # np.savez stamps zip entries with the current time; write entries with a
    # fixed timestamp so identical content yields identical bytes.
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.ascontiguousarray(arrays[name]))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def export_batches(index: ElementIndex, out_dir: str | Path, batch_size: int = 32) -> Path:
    """Write all elements as f32 array containers plus a JSON manifest.

    Returns the manifest path. Containers are .npz files readable by
    ``numpy.load``; dtypes and dimension names are listed in the manifest.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    batches_meta = []
    n_batches = (len(index) + batch_size - 1) // batch_size
    for b in range(n_batches):
        lo, hi = b * batch_size, min((b + 1) * batch_size, len(index))
        elements = [get_element(index, i) for i in range(lo, hi)]
        fname = f"batch_{b:05d}.npz"
        if index.centric == "agent":
            batch = collate(elements)
            arrays = {
                "history": batch.history.astype(np.float32),
                "history_mask": batch.history_mask,
                "future": batch.future.astype(np.float32),
                "future_mask": batch.future_mask,
                "neighbor_histories": batch.neighbor_histories.astype(np.float32),
                "neighbor_masks": batch.neighbor_masks,
                "neighbor_counts": batch.neighbor_counts,
                "translations": batch.translations.astype(np.float32),
                "rotations": batch.rotations.astype(np.float32),
            }
            provenance = [
                {"scene_id": el.scene_id, "agent_id": el.agent_id, "ts": el.current_ts} for el in elements
            ]
        else:
            arrays = {
                "histories": _pad([el.histories for el in elements], np.float32),
                "history_masks": _pad([el.history_masks for el in elements]),
                "futures": _pad([el.futures for el in elements], np.float32),
                "future_masks": _pad([el.future_masks for el in elements]),
                "agent_counts": np.array([len(el.agent_ids) for el in elements], dtype=np.int64),
            }
            provenance = [
                {"scene_id": el.scene_id, "agent_ids": list(el.agent_ids), "ts": el.current_ts} for el in elements
            ]
        _write_npz_deterministic(out / fname, arrays)
        batches_meta.append(
            {
                "file": fname,
                "n_elements": hi - lo,
                "elements": provenance,
                "arrays": {name: {"dtype": str(arr.dtype), "shape": list(arr.shape)} for name, arr in sorted(arrays.items())},
            }
        )
    if index.centric == "agent":
        array_dims = {
            "history": ["element", "time", "state"],
            "history_mask": ["element", "time"],
            "future": ["element", "time", "state"],
            "future_mask": ["element", "time"],
            "neighbor_histories": ["element", "neighbor", "time", "state"],
            "neighbor_masks": ["element", "neighbor", "time"],
            "neighbor_counts": ["element"],
            "translations": ["element", "xy"],
            "rotations": ["element"],
        }
    else:
        array_dims = {
            "histories": ["element", "agent", "time", "state"],
            "history_masks": ["element", "agent", "time"],
            "futures": ["element", "agent", "time", "state"],
            "future_masks": ["element", "agent", "time"],
            "agent_counts": ["element"],
        }
    manifest = {
        "format": "trajkit-batch@1",
        "centric": index.centric,
        "n_elements": len(index),
        "state_layout": list(STATE_LAYOUT),
        "state_dtype": "float32",
        "arrays": {name: {"dims": dims} for name, dims in array_dims.items()},
        "window": {"history_sec": list(index.window.history), "future_sec": list(index.window.future)},
        "batches": batches_meta,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=1), encoding="utf-8")
    return manifest_path
