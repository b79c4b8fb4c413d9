"""Agent- and scene-centric batch construction over cached scenes.

Each agent-centric element holds one predicted agent at one timestep with a
fixed-size history/future window, zero-filled and masked where data is
missing, standardized so the predicted agent sits at the origin with heading
zero. The per-slot state layout is (x, y, vx, vy, ax, ay, sin h, cos h);
heading as sin/cos avoids wrap discontinuities inside padded arrays.

One kernel builds agent-centric batches: ``get_batch`` fills the padded
arrays of a whole batch array-at-a-time, and ``get_element`` is its
one-element case. Scene-centric elements share its window gather, and
consecutive scene-centric elements of one scene share one gather.
"""

from __future__ import annotations

import copy
import functools
import io
import json
import math
import numbers
import re
import struct
import zipfile
import zlib
from dataclasses import dataclass, field, fields
from itertools import accumulate, groupby
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import TYPE_BY_CODE, AgentType, SceneFrame, _cpus, _fork_is_quiet, _Worker, rotate, wrap_angle
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

    def __post_init__(self):
        if not self.agent_types:
            raise ValueError("allowed agent-type set must not be empty")
        # Written so that NaN fails too: it would otherwise mean "no cut".
        if self.max_neighbor_dist is not None and not self.max_neighbor_dist >= 0.0:
            raise ValueError(f"max_neighbor_dist must be >= 0, got {self.max_neighbor_dist}")


@dataclass(eq=False)
class AgentBatchElement:
    """One predicted agent at one timestep, in its standardized frame.

    ``translation``/``rotation`` map world to standardized coordinates:
    p_std is p_world - translation rotated by -rotation.
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
        xy = rotate(points_std[..., 0], points_std[..., 1], math.cos(self.rotation), math.sin(self.rotation))
        return np.stack(xy, axis=-1) + self.translation

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AgentBatchElement):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True


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
    states: np.ndarray = field(init=False)  # (7, rows): x, y, vx, vy, ax, ay, heading
    id_rank: np.ndarray = field(init=False)  # (agents,): each agent's place in agent-id order

    def __post_init__(self):
        cols = self.scene.columns
        self.states = np.stack([cols.x, cols.y, cols.vx, cols.vy, cols.ax, cols.ay, cols.heading])
        ids = self.scene.agent_ids
        self.id_rank = np.empty(len(ids), dtype=np.int64)
        # Python's sort, not numpy's: a numpy string array drops trailing NULs.
        self.id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))


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
    one entry per (scene, ts) with at least one qualifying agent. Scenes come
    from cache.iter_scenes, which reads each file once, and are resampled to
    desired_dt first when given. Entries follow (tag, scene id) order, whatever
    the order of the tags or of iter_scenes (each scene's run is sorted in once),
    then (agent id, ts) for agent-centric and ts for scene-centric entries, whose
    agents are in id order; two builds over the same cache give the same order.
    """
    if centric not in ("agent", "scene"):
        raise ValueError(f"centric must be 'agent' or 'scene', got {centric!r}")
    filt = filt or FilterSpec()
    allowed = np.array([t in filt.agent_types for t in TYPE_BY_CODE])  # by type code

    contexts: dict[tuple[str, str], _SceneContext] = {}
    runs: dict[tuple[str, str], list[tuple]] = {}
    for scene in cache.iter_scenes(tags):
        tag = scene.scene_tag().render()
        if desired_dt is not None:
            scene = resample_scene(scene, desired_dt)
        ctx = contexts[tag, scene.scene_id] = _SceneContext(
            scene=scene,
            tag=tag,
            h_steps=seconds_to_steps(window.history[1], scene.dt),
            f_steps=seconds_to_steps(window.future[1], scene.dt),
        )
        h_min, f_min = seconds_to_steps(window.history[0], scene.dt), seconds_to_steps(window.future[0], scene.dt)
        # Anchors: observed rows of allowed agents whose lifetime reaches h_min
        # steps behind and f_min ahead. Imputation and resampling never
        # extrapolate, so every in-lifetime step interpolates real observations;
        # on upsampled scenes the anchors are the original (observed) frames.
        cols, j = scene.columns, scene.columns.agent_index
        ok = (
            cols.observed & allowed[scene.type_code][j]
            & (cols.ts - scene.first_ts[j] >= h_min) & (scene.last_ts[j] - cols.ts >= f_min)
        )
        j, ts = j[ok], cols.ts[ok]
        if centric == "agent":
            order = np.lexsort((ts, ctx.id_rank[j]))
            runs[tag, scene.scene_id] = [(tag, scene.scene_id, a, t) for a, t in zip(j[order].tolist(), ts[order].tolist())]
        else:
            order = np.lexsort((ctx.id_rank[j], ts))
            by_ts = groupby(zip(ts[order].tolist(), j[order].tolist()), key=lambda r: r[0])
            runs[tag, scene.scene_id] = [(tag, scene.scene_id, t, tuple(a for _, a in run)) for t, run in by_ts]
    entries = [entry for key in sorted(runs) for entry in runs[key]]
    if not entries:
        raise EmptyIndexError(
            f"no elements over {len(contexts)} scene(s): window requires "
            f">= {window.history[0]}s observed history and >= {window.future[0]}s observed future, "
            f"allowed types {sorted(str(t) for t in filt.agent_types)}"
        )
    return ElementIndex(centric=centric, window=window, filter=filt, entries=entries, contexts=contexts)


def _entry(index: ElementIndex, i: int) -> tuple:
    if not 0 <= i < len(index.entries):
        raise IndexError(f"element index {i} out of range [0, {len(index.entries)})")
    return index.entries[i]


def _window(
    ctx: _SceneContext, agents: np.ndarray, element: np.ndarray, ts_values: np.ndarray, origins: np.ndarray, yaws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """States (K, T, STATE_DIM) and validity mask (K, T) of K agents: agent k
    over the timesteps ts_values[e] (T of them) of its element e = element[k],
    in that element's frame at (origins[e], yaws[e]). Slots outside an
    agent's lifetime are zero and False."""
    rows, mask = ctx.scene.lifetime_rows(agents[:, None], ts_values[element])
    # Quantity-major (STATE_DIM, T, K), one contiguous (T, K) block per quantity:
    # an agent's cos and sin broadcast along the contiguous axis (not K short
    # inner loops), each result is written in place, and the caller receives
    # the (K, T, STATE_DIM) transpose as a view.
    raw = ctx.states.take(rows.T, axis=1)
    raw[:2] -= origins[element].T[:, None, :]
    c, s = np.array([(math.cos(yaw), math.sin(yaw)) for yaw in yaws.tolist()]).T[:, element]
    out = np.empty((STATE_DIM, *raw.shape[1:]))
    for k in range(0, 6, 2):  # position, velocity and acceleration, each rotated by -yaw
        rotate(raw[k], raw[k + 1], c, -s, out=(out[k], out[k + 1]))
    h_std = wrap_angle(raw[6] - yaws[element])
    np.sin(h_std, out=out[6])
    np.cos(h_std, out=out[7])
    out[:, ~mask.T] = 0.0
    return out.T, mask


def _neighbors(ctx: _SceneContext, egos: np.ndarray, ts: np.ndarray, origins: np.ndarray, max_dist: float | None):
    """(element, agent) pairs of every element's neighbours: agents observed
    at the element's ts other than its ego, within max_dist, ordered by
    element, then distance, then agent id."""
    scene, cols = ctx.scene, ctx.scene.columns
    everyone = np.arange(scene.n_agents)
    rows, present = scene.lifetime_rows(everyone[None, :], ts[:, None])
    el, j = np.nonzero(present & cols.observed[rows] & (everyone[None, :] != egos[:, None]))
    rows = rows[el, j]
    # math.hypot, not np.hypot: the two differ in the last bit on some
    # inputs, which would reorder ties and move the max_neighbor_dist cut.
    dx, dy = cols.x[rows] - origins[el, 0], cols.y[rows] - origins[el, 1]
    dist = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), dtype=np.float64, count=len(rows))
    if max_dist is not None:
        near = ~(dist > max_dist)
        el, j, dist = el[near], j[near], dist[near]
    order = np.lexsort((ctx.id_rank[j], dist, el))
    return el[order], j[order]


def _window_shapes(shapes: list[tuple], sources: list[tuple[str, str, float]]) -> tuple:
    """The (history, future) shape pair all elements share. ValueError on the
    first that differs, naming the first element of each of the two shapes by
    its source: (rendered tag, scene id, dt) of its scene."""
    for (h_shape, f_shape), (tag, scene_id, dt) in zip(shapes, sources):
        if (h_shape, f_shape) != shapes[0]:
            tag0, scene_id0, dt0 = sources[0]
            raise ValueError(f"mixed window shapes: {h_shape}/{f_shape} from scene {scene_id!r} of {tag} at dt {dt}"
                             f" vs {shapes[0][0]}/{shapes[0][1]} from scene {scene_id0!r} of {tag0} at dt {dt0}")
    return shapes[0]


def _context_shapes(ctxs: list[_SceneContext]) -> tuple:
    """_window_shapes of the windows of the scene contexts."""
    return _window_shapes([((ctx.h_steps + 1, STATE_DIM), (ctx.f_steps, STATE_DIM)) for ctx in ctxs],
                          [(ctx.tag, ctx.scene.scene_id, ctx.scene.dt) for ctx in ctxs])


def get_batch(index: ElementIndex, indices: Iterable[int]) -> AgentBatch:
    """Build the agent-centric batch of the elements at indices, in order.

    The result equals ``collate([get_element(index, i) for i in indices])``
    bit for bit, but is filled array-at-a-time: per scene, one neighbour
    search over all its elements and one gather each for the history and
    future windows.
    """
    if index.centric != "agent":
        raise ValueError("get_batch builds agent-centric batches; the index is scene-centric")
    entries = [_entry(index, i) for i in indices]
    if not entries:
        raise ValueError("cannot build a batch from an empty index list")
    groups: dict[tuple[str, str], list[int]] = {}
    for b, (tag, scene_id, _, _) in enumerate(entries):
        groups.setdefault((tag, scene_id), []).append(b)
    ctxs = [index.contexts[key] for key in groups]
    h_shape, f_shape = _context_shapes(ctxs)

    n = len(entries)
    egos = np.array([e[2] for e in entries], dtype=np.int64)
    current_ts = np.array([e[3] for e in entries], dtype=np.int64)
    translations, rotations = np.empty((n, 2)), np.empty(n)
    counts = np.zeros(n, dtype=np.int64)
    neighbor_ids, neighbor_types = [()] * n, [()] * n
    found = []
    for ctx, pos in zip(ctxs, groups.values()):
        pos = np.array(pos)
        cols = ctx.scene.columns
        ego_rows, _ = ctx.scene.lifetime_rows(egos[pos], current_ts[pos])
        translations[pos] = np.stack((cols.x[ego_rows], cols.y[ego_rows]), axis=-1)
        rotations[pos] = cols.heading[ego_rows]
        el, j = _neighbors(ctx, egos[pos], current_ts[pos], translations[pos], index.filter.max_neighbor_dist)
        per_element = np.bincount(el, minlength=len(pos))
        counts[pos] = per_element
        ends = np.cumsum(per_element)
        starts = ends - per_element
        found.append((ctx, pos, el, np.arange(len(el)) - starts[el], j))
        ids = [ctx.scene.agent_ids[k] for k in j.tolist()]
        types = [TYPE_BY_CODE[c] for c in ctx.scene.type_code[j].tolist()]
        for b, lo, hi in zip(pos.tolist(), starts.tolist(), ends.tolist()):
            neighbor_ids[b], neighbor_types[b] = tuple(ids[lo:hi]), tuple(types[lo:hi])

    # Only real (element, neighbour) slots are gathered; padding stays zero.
    history, history_mask = np.empty((n, *h_shape)), np.empty((n, h_shape[0]), dtype=bool)
    future, future_mask = np.empty((n, *f_shape)), np.empty((n, f_shape[0]), dtype=bool)
    neighbor_histories = np.zeros((n, int(counts.max()), *h_shape))
    neighbor_masks = np.zeros(neighbor_histories.shape[:3], dtype=bool)
    for ctx, pos, el, slot, j in found:
        ts, origins, yaws, own = current_ts[pos], translations[pos], rotations[pos], np.arange(len(pos))
        hist, hist_mask = _window(
            ctx, np.concatenate((egos[pos], j)), np.concatenate((own, el)),
            ts[:, None] + np.arange(-ctx.h_steps, 1), origins, yaws,
        )
        history[pos], history_mask[pos] = hist[: len(pos)], hist_mask[: len(pos)]
        neighbor_histories[pos[el], slot], neighbor_masks[pos[el], slot] = hist[len(pos) :], hist_mask[len(pos) :]
        future[pos], future_mask[pos] = _window(ctx, egos[pos], own, ts[:, None] + np.arange(1, ctx.f_steps + 1), origins, yaws)

    contexts = [index.contexts[(e[0], e[1])] for e in entries]
    return AgentBatch(
        scene_ids=tuple(ctx.scene.scene_id for ctx in contexts),
        dataset_tags=tuple(ctx.tag for ctx in contexts),
        agent_ids=tuple(ctx.scene.agent_ids[a] for ctx, a in zip(contexts, egos.tolist())),
        agent_types=tuple(TYPE_BY_CODE[ctx.scene.type_code[a]] for ctx, a in zip(contexts, egos.tolist())),
        current_ts=current_ts,
        dts=np.array([ctx.scene.dt for ctx in contexts]),
        history=history,
        history_mask=history_mask,
        future=future,
        future_mask=future_mask,
        neighbor_histories=neighbor_histories,
        neighbor_masks=neighbor_masks,
        neighbor_counts=counts,
        neighbor_ids=tuple(neighbor_ids),
        neighbor_types=tuple(neighbor_types),
        translations=translations,
        rotations=rotations,
    )


def _scene_elements(index: ElementIndex, indices: Iterable[int]) -> list[SceneBatchElement]:
    """The scene-centric elements at indices, in order. Each run of
    consecutive entries of one scene shares one history and one future
    gather over all their agents, in the world frame (origin 0, yaw 0)."""
    out: list[SceneBatchElement] = []
    for key, run in groupby([_entry(index, i) for i in indices], key=lambda e: e[:2]):
        run = list(run)
        ctx = index.contexts[key]
        scene = ctx.scene
        ts = np.array([e[2] for e in run])[:, None]
        counts = [len(e[3]) for e in run]
        agents = np.array([j for e in run for j in e[3]])
        element, origins, yaws = np.arange(len(run)).repeat(counts), np.zeros((len(run), 2)), np.zeros(len(run))
        hist, hist_mask = _window(ctx, agents, element, ts + np.arange(-ctx.h_steps, 1), origins, yaws)
        fut, fut_mask = _window(ctx, agents, element, ts + np.arange(1, ctx.f_steps + 1), origins, yaws)
        ids = [scene.agent_ids[j] for j in agents.tolist()]
        types = [TYPE_BY_CODE[c] for c in scene.type_code[agents].tolist()]
        ends = list(accumulate(counts))
        for (_, _, t, _), lo, hi in zip(run, [0, *ends], ends):
            out.append(
                SceneBatchElement(
                    scene_id=scene.scene_id,
                    dataset_tag=ctx.tag,
                    current_ts=t,
                    dt=scene.dt,
                    agent_ids=tuple(ids[lo:hi]),
                    agent_types=tuple(types[lo:hi]),
                    histories=hist[lo:hi],
                    history_masks=hist_mask[lo:hi],
                    futures=fut[lo:hi],
                    future_masks=fut_mask[lo:hi],
                )
            )
    return out


def get_element(index: ElementIndex, i: int):
    """Materialize element i (AgentBatchElement or SceneBatchElement); an
    agent-centric element is the one-element batch of get_batch, unpadded,
    and a scene-centric one the one-element case of the export's gather."""
    if index.centric == "agent":
        return get_batch(index, [i]).unpad()[0]
    return _scene_elements(index, [i])[0]


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


def _pad(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Stack arrays that differ only in their first dimension, zero-filling
    each up to the longest."""
    out = np.zeros((len(parts), max(len(p) for p in parts), *parts[0].shape[1:]), dtype=parts[0].dtype)
    for i, p in enumerate(parts):
        out[i, : len(p)] = p
    return out


def collate(elements: Sequence[AgentBatchElement]) -> AgentBatch:
    """Stack elements into one padded batch; padded neighbor slots are masked False.

    Element order is preserved; all elements must share window shapes.
    """
    if not elements:
        raise ValueError("cannot collate an empty element list")
    _window_shapes([(el.history.shape, el.future.shape) for el in elements], [(el.dataset_tag, el.scene_id, el.dt) for el in elements])
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
    # An infinite sigma would make the masked-out slots NaN (inf * 0), a NaN one every slot.
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be >= 0, got {sigma}" if sigma < 0.0 else f"sigma must be finite, got {sigma}")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 1.0, size=(element.history.shape[0], 2)) * sigma
    out = copy.deepcopy(element)
    out.history[:, 0:2] += noise * out.history_mask[:, None]
    return out


# ---------------------------------------------------------------------------
# Batch export (file container + manifest for downstream frameworks)
# ---------------------------------------------------------------------------

# Stored zip members dated 1980-01-01 00:00 (DOS date 33, time 0), made by
# Unix (3) with version 2.0, mode ?rw-------: the fields zipfile.writestr
# writes for such a ZipInfo, so identical content yields identical bytes.
_LOCAL = struct.Struct("<4s2B4HL2L2H")
_CENTRAL = struct.Struct("<4s4B4HL2L5H2L")
_END = struct.Struct("<4s4H2LH")


def _write_npz_deterministic(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """Write arrays as a stored .npz, members in name order, with one write.

    Raises ValueError, and writes nothing, where zipfile would switch to
    zip64: a member's size times 1.05, or an offset, past zipfile.ZIP64_LIMIT.
    A central entry is 16 bytes longer than its local header, less than the
    64-byte .npy header of its member, so the offset check covers the
    directory's size too.
    """
    limit = zipfile.ZIP64_LIMIT
    local, central, offset = [], [], 0
    for name in sorted(arrays):
        arr = np.require(arrays[name], requirements="C")
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(buf, np.lib.format.header_data_from_array_1_0(arr))
        # The member is its .npy header and the array's own bytes, passed to the
        # one join uncopied; memoryview(arr).cast("B") would reject a zero-size array.
        head, body, fname = buf.getvalue(), arr.reshape(-1).view(np.uint8), (name + ".npy").encode("ascii")
        crc, size = zlib.crc32(body, zlib.crc32(head)), len(head) + len(body)
        local += (_LOCAL.pack(b"PK\x03\x04", 20, 0, 0, 0, 0, 33, crc, size, size, len(fname), 0), fname, head, body)
        central += (
            _CENTRAL.pack(b"PK\x01\x02", 20, 3, 20, 0, 0, 0, 0, 33, crc, size, size, len(fname), 0, 0, 0, 0, 0o600 << 16, offset),
            fname,
        )
        offset += _LOCAL.size + len(fname) + size
        if size * 1.05 > limit or offset > limit:
            raise ValueError(f"{path}: member {name!r} takes the archive past the {limit}-byte zip limit; lower --batch-size")
    cd = b"".join(central)
    path.write_bytes(b"".join((*local, cd, _END.pack(b"PK\x05\x06", 0, 0, len(arrays), len(arrays), len(cd), offset, 0))))


# Batches per process at least. On the batch benchmark's agent export (batches
# of 32, 2 vCPU), one batch takes about 2.4 ms to build and write, and a forked
# worker's round trip costs about three batches: a two-share export breaks even
# near 3 to 4 batches a share and saves 18% at 6 and 24% at 8.
_MIN_BATCHES = 8

# What export_batches names a container: batch_ and a zero-padded batch number.
_CONTAINER_NAME = re.compile(r"batch_([0-9]{5}|[1-9][0-9]{5,})\.npz")

# Container members and their dimension names, by format: the AgentBatch or padded SceneBatchElement field of each name, but agent_counts.
_EXPORT_DIMS = {
    "agent": {
        "history": ["element", "time", "state"],
        "history_mask": ["element", "time"],
        "future": ["element", "time", "state"],
        "future_mask": ["element", "time"],
        "neighbor_histories": ["element", "neighbor", "time", "state"],
        "neighbor_masks": ["element", "neighbor", "time"],
        "neighbor_counts": ["element"],
        "translations": ["element", "xy"],
        "rotations": ["element"],
    },
    "scene": {
        "histories": ["element", "agent", "time", "state"],
        "history_masks": ["element", "agent", "time"],
        "futures": ["element", "agent", "time", "state"],
        "future_masks": ["element", "agent", "time"],
        "agent_counts": ["element"],
    },
}


def _export_batch(index: ElementIndex, out: Path, b: int, batch_size: int) -> dict:
    """Build batch b of the export, write its container and return its manifest entry."""
    lo, hi = b * batch_size, min((b + 1) * batch_size, len(index))
    fname = f"batch_{b:05d}.npz"
    if index.centric == "agent":
        batch = get_batch(index, range(lo, hi))
        arrays = {name: getattr(batch, name) for name in _EXPORT_DIMS["agent"]}
        provenance = {"scene_ids": batch.scene_ids, "dataset_tags": batch.dataset_tags, "agent_ids": batch.agent_ids, "ts": batch.current_ts.tolist()}
    else:
        elements = _scene_elements(index, range(lo, hi))
        arrays = {name: _pad([getattr(el, name) for el in elements]) for name in _EXPORT_DIMS["scene"] if name != "agent_counts"}
        arrays["agent_counts"] = np.array([len(el.agent_ids) for el in elements], dtype=np.int64)
        provenance = {
            "scene_ids": [el.scene_id for el in elements],
            "dataset_tags": [el.dataset_tag for el in elements],
            "agent_ids": [list(el.agent_ids) for el in elements],
            "ts": [el.current_ts for el in elements],
        }
    arrays = {name: arr.astype(np.float32) if arr.dtype == np.float64 else arr for name, arr in arrays.items()}
    _write_npz_deterministic(out / fname, arrays)
    return {
        "file": fname,
        "n_elements": hi - lo,
        **provenance,
        "arrays": {name: {"dtype": str(arr.dtype), "shape": list(arr.shape)} for name, arr in sorted(arrays.items())},
    }


def export_batches(index: ElementIndex, out_dir: str | Path, batch_size: int = 32) -> Path:
    """Write all elements as f32 array containers plus a JSON manifest.

    Returns the manifest path. Containers are .npz files readable by
    ``numpy.load``, named batch_00000.npz, batch_00001.npz, ... Any other
    batch_NNNNN.npz in out_dir, left by an earlier export, is deleted once the
    manifest is written; no other file there is touched.

    The manifest (format ``trajkit-batch@2``, compact JSON with sorted keys)
    gives the state layout, the window, each member's dimension names under
    ``arrays`` and one entry per container under ``batches``: its ``file``,
    ``n_elements``, each member's stored dtype and shape under ``arrays``, and
    the provenance of its elements as parallel lists, one item per element:
    ``scene_ids``, ``dataset_tags`` (rendered), ``agent_ids`` and ``ts``.
    Agent-centric, ``agent_ids`` holds the predicted agent's id; scene-centric,
    the list of the element's agent ids, in its agent slot order. A batch_size
    that is not an integer of 1 or more, and elements of different window
    shapes (scenes of different dt), raise ValueError before out_dir is created.

    Where os.fork is at hand and quiet (core._fork_is_quiet), an export of 2 *
    _MIN_BATCHES batches or more cuts its batch numbers into contiguous shares
    of about equal count, one per CPU the process may run on, each of
    _MIN_BATCHES batches or more. One worker is forked per share after the
    first; each builds and writes its share's containers and pipes their
    manifest entries back, while this process writes the first share. Every
    container and the manifest have the bytes of an export in one process.
    A failure raises the exception of the first batch in batch order that
    could not be written; no manifest is written, every worker is killed and
    reaped, and the containers numbered after that batch that a worker may
    have written are deleted, so the files an export into an empty directory
    leaves are those an export in one process leaves.
    """
    if not isinstance(batch_size, numbers.Integral) or batch_size < 1:
        raise ValueError(f"batch_size must be an integer >= 1, got {batch_size!r}")
    batch_size = int(batch_size)
    ctxs = [index.contexts[key] for key in dict.fromkeys(entry[:2] for entry in index.entries)]
    _context_shapes(ctxs)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_batches = (len(index) + batch_size - 1) // batch_size
    n = max(1, min(_cpus(), n_batches // _MIN_BATCHES)) if _fork_is_quiet() else 1
    shares = [range(n_batches * k // n, n_batches * (k + 1) // n) for k in range(n)]

    def write(share: range) -> tuple[list[dict], Exception | None]:
        """The manifest entries of the share's batches, written in order up to
        the first that raises, and that batch's exception."""
        entries = []
        try:
            for b in share:
                entries.append(_export_batch(index, out, b, batch_size))
        except Exception as exc:
            return entries, exc
        return entries, None

    workers: dict[range, _Worker] = {}
    batches_meta = []
    try:
        for share in shares[1:]:
            try:
                workers[share] = _Worker(functools.partial(write, share))
            except OSError:  # no process to spare: this one writes the shares left
                break
        for share in shares:
            entries, fault = workers[share].receive() if share in workers else write(share)
            batches_meta += entries
            if fault is not None:
                raise fault
    except BaseException:
        for worker in workers.values():
            worker.stop()
        # A one-process export stops at the failing batch: no container after it is written.
        for share in workers:
            for b in range(max(share.start, len(batches_meta) + 1), share.stop):
                (out / f"batch_{b:05d}.npz").unlink(missing_ok=True)
        raise
    manifest = {
        "format": "trajkit-batch@2",
        "centric": index.centric,
        "n_elements": len(index),
        "state_layout": list(STATE_LAYOUT),
        "state_dtype": "float32",
        "arrays": {name: {"dims": dims} for name, dims in _EXPORT_DIMS[index.centric].items()},
        "window": {"history_sec": list(index.window.history), "future_sec": list(index.window.future)},
        "batches": batches_meta,
    }
    manifest_path = out / "manifest.json"
    # Compact separators and no indent keep json on its C encoder.
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, separators=(",", ":")), encoding="utf-8")
    written = {meta["file"] for meta in batches_meta}
    for path in out.glob("batch_*.npz"):
        if _CONTAINER_NAME.fullmatch(path.name) and path.name not in written:
            path.unlink()
    return manifest_path
