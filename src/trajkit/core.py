"""Canonical in-memory data model for scenes, agents, and columnar trajectory state.

A scene is a columnar table of per-agent, per-timestep kinematic rows plus
agent metadata. Timesteps are integer frame indices; wall-clock time is
``ts * dt``. Rows are sorted by (agent_index, ts) and are contiguous over each
agent's lifetime; interior gaps are imputed upstream and flagged
``observed=False``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Conventional split tokens; scene tags use these to tell a split token from a
# location token when parsing "dataset-x".
SPLIT_NAMES = frozenset({"train", "val", "test", "trainval", "mini"})

COLUMN_NAMES = ("agent_index", "ts", "x", "y", "z", "vx", "vy", "ax", "ay", "heading", "observed")


def wrap_angle(angle):
    """Wrap an angle (scalar or array) to (-pi, pi].

    Values already in range are returned unchanged (bit-exact), so wrapping is
    idempotent.
    """
    a = np.asarray(angle, dtype=np.float64)
    in_range = (a > -math.pi) & (a <= math.pi)
    wrapped = math.pi - np.mod(math.pi - a, TWO_PI)
    # np.mod rounds the remainder of pi's successor up to 2pi, which would give -pi.
    wrapped = np.where(wrapped == -math.pi, math.pi, wrapped)
    out = np.where(in_range, a, wrapped)
    return float(out) if a.ndim == 0 else out


class AgentType(enum.Enum):
    """Closed set of agent classes. Parse/print round-trips exactly."""

    VEHICLE = "vehicle"
    PEDESTRIAN = "pedestrian"
    BICYCLE = "bicycle"
    MOTORCYCLE = "motorcycle"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_string(cls, text: str) -> "AgentType":
        member = _AGENT_TYPES.get(text)
        if member is None:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown agent type {text!r} (valid: {valid})")
        return member


_AGENT_TYPES = {m.value: m for m in AgentType}


@dataclass(frozen=True)
class Extent:
    """Bounding-box dimensions in meters. Height is optional (planar datasets)."""

    length: float
    width: float
    height: float | None = None

    def __post_init__(self):
        if not self.length > 0.0:
            raise ValueError(f"extent length must be > 0, got {self.length}")
        if not self.width > 0.0:
            raise ValueError(f"extent width must be > 0, got {self.width}")
        if self.height is not None and not self.height > 0.0:
            raise ValueError(f"extent height must be > 0 when present, got {self.height}")


@dataclass
class AgentMetadata:
    """Identity, class, extent, and observed lifetime of one agent.

    ``extent=None`` means the dataset provided no dimensions; it is distinct
    from a zero-sized box (which is unrepresentable).
    """

    agent_id: str
    agent_type: AgentType
    extent: Extent | None
    first_ts: int
    last_ts: int

    @property
    def n_steps(self) -> int:
        return self.last_ts - self.first_ts + 1


def agent_lifetime_seconds(meta: AgentMetadata, dt: float) -> float:
    """Observed lifetime in seconds: (last_ts - first_ts + 1) * dt."""
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    return meta.n_steps * dt


@dataclass(frozen=True)
class SceneTag:
    """Dataset[-split][-location] selector, e.g. "nusc_mini-boston" or "sdd-train".

    Split tokens come from the closed set SPLIT_NAMES so that a two-token tag
    is unambiguous; locations must not collide with it. Parsing a tag's own
    rendering is the identity.
    """

    dataset: str
    split: str | None = None
    location: str | None = None

    def __post_init__(self):
        for name, value in (("dataset", self.dataset), ("split", self.split), ("location", self.location)):
            if value is not None and ("-" in value or not value):
                raise ValueError(f"tag {name} must be a non-empty token without '-': {value!r}")
        if self.split is not None and self.split not in SPLIT_NAMES:
            raise ValueError(f"split must be one of {sorted(SPLIT_NAMES)}, got {self.split!r}")
        if self.location is not None and self.location in SPLIT_NAMES:
            raise ValueError(f"location {self.location!r} collides with a split name")

    def render(self) -> str:
        parts = [self.dataset]
        if self.split is not None:
            parts.append(self.split)
        if self.location is not None:
            parts.append(self.location)
        return "-".join(parts)

    def __str__(self) -> str:
        return self.render()

    @classmethod
    def parse(cls, text: str) -> "SceneTag":
        parts = text.split("-")
        if not (1 <= len(parts) <= 3) or any(not p for p in parts):
            raise ValueError(f"cannot parse scene tag {text!r}")
        if len(parts) == 1:
            return cls(parts[0])
        if len(parts) == 2:
            if parts[1] in SPLIT_NAMES:
                return cls(parts[0], split=parts[1])
            return cls(parts[0], location=parts[1])
        return cls(parts[0], split=parts[1], location=parts[2])

    def matches(self, other: "SceneTag") -> bool:
        """True when this tag, used as a query, selects ``other`` (a full tag)."""
        if self.dataset != other.dataset:
            return False
        if self.split is not None and self.split != other.split:
            return False
        if self.location is not None and self.location != other.location:
            return False
        return True


@dataclass
class SceneColumns:
    """Parallel arrays over all rows of a scene, sorted by (agent_index, ts)."""

    agent_index: np.ndarray
    ts: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    heading: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        self.agent_index = np.asarray(self.agent_index, dtype=np.int64)
        self.ts = np.asarray(self.ts, dtype=np.int64)
        for name in ("x", "y", "z", "vx", "vy", "ax", "ay", "heading"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        self.observed = np.asarray(self.observed, dtype=bool)
        n = len(self.agent_index)
        for name in COLUMN_NAMES:
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has length {len(getattr(self, name))}, expected {n}")

    def __len__(self) -> int:
        return len(self.agent_index)

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in COLUMN_NAMES}


@dataclass(eq=False)
class SceneFrame:
    """One scene: metadata, agent list, and the columnar trajectory table.

    ``dataset_tag`` is the dataset identity including split when present
    (e.g. "sdd-train"); ``location`` is kept separate. Immutable by
    convention after construction; safe for concurrent reads.
    """

    scene_id: str
    dataset_tag: str
    location: str
    dt: float
    n_timesteps: int
    agents: list[AgentMetadata]
    columns: SceneColumns
    heading_derived: bool = True
    _agent_offsets: np.ndarray = field(init=False, repr=False)
    _first_ts: np.ndarray = field(init=False, repr=False)  # (agents,) lifetime bounds
    _last_ts: np.ndarray = field(init=False, repr=False)
    _row0: np.ndarray = field(init=False, repr=False)  # row of (agent j, ts) is _row0[j] + ts

    def __post_init__(self):
        idx = self.columns.agent_index
        self._agent_offsets = np.searchsorted(idx, np.arange(len(self.agents) + 1))
        self._first_ts = np.array([m.first_ts for m in self.agents], dtype=np.int64)
        self._last_ts = np.array([m.last_ts for m in self.agents], dtype=np.int64)
        self._row0 = self._agent_offsets[:-1] - self._first_ts

    @classmethod
    def from_tracks(
        cls,
        scene_id: str,
        dataset_tag: str,
        location: str,
        dt: float,
        agents: Sequence[AgentMetadata],
        tracks: Sequence[dict[str, np.ndarray]],
        heading_derived: bool = True,
    ) -> "SceneFrame":
        """Assemble a scene from per-agent column dicts aligned to [first_ts, last_ts].

        Each track dict must hold x, y, z, vx, vy, ax, ay, heading, observed
        arrays of length ``agents[i].n_steps``.
        """
        if len(agents) != len(tracks):
            raise ValueError("agents and tracks must be parallel")
        parts: dict[str, list[np.ndarray]] = {name: [] for name in COLUMN_NAMES}
        for i, (meta, track) in enumerate(zip(agents, tracks)):
            n = meta.n_steps
            parts["agent_index"].append(np.full(n, i, dtype=np.int64))
            parts["ts"].append(np.arange(meta.first_ts, meta.last_ts + 1, dtype=np.int64))
            for name in ("x", "y", "z", "vx", "vy", "ax", "ay", "heading", "observed"):
                arr = np.asarray(track[name])
                if len(arr) != n:
                    raise ValueError(f"agent {meta.agent_id}: track column {name} has length {len(arr)}, expected {n}")
                parts[name].append(arr)
        if parts["ts"]:
            columns = SceneColumns(**{name: np.concatenate(parts[name]) for name in COLUMN_NAMES})
            n_timesteps = int(max(meta.last_ts for meta in agents)) + 1
        else:
            columns = SceneColumns(**{name: np.array([]) for name in COLUMN_NAMES})
            n_timesteps = 0
        return cls(
            scene_id=scene_id,
            dataset_tag=dataset_tag,
            location=location,
            dt=float(dt),
            n_timesteps=n_timesteps,
            agents=list(agents),
            columns=columns,
            heading_derived=heading_derived,
        )

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def rows_for_agent(self, agent_index: int) -> slice:
        return slice(int(self._agent_offsets[agent_index]), int(self._agent_offsets[agent_index + 1]))

    def row_at(self, agent_index: int, ts: int) -> int | None:
        """Row index of (agent, ts), or None when ts is outside the lifetime.

        Relies on the contiguity invariant (one row per lifetime timestep).
        """
        meta = self.agents[agent_index]
        if ts < meta.first_ts or ts > meta.last_ts:
            return None
        return int(self._agent_offsets[agent_index]) + (ts - meta.first_ts)

    def lifetime_rows(self, agents, ts) -> tuple[np.ndarray, np.ndarray]:
        """Rows of the broadcast (agent, ts) pairs, with each ts clamped into
        that agent's lifetime, and the mask of pairs inside the lifetime
        (where clamping left ts unchanged).

        A pair outside the lifetime gets the agent's first or last row, so
        callers can gather with the rows and mask the result afterwards.
        """
        agents = np.asarray(agents, dtype=np.int64)
        clamped = np.minimum(np.maximum(ts, self._first_ts[agents]), self._last_ts[agents])
        return self._row0[agents] + clamped, clamped == ts

    def agents_present_at(self, ts: int) -> list[int]:
        return [i for i, meta in enumerate(self.agents) if meta.first_ts <= ts <= meta.last_ts]

    def scene_tag(self) -> SceneTag:
        base = SceneTag.parse(self.dataset_tag)
        return SceneTag(base.dataset, base.split, self.location if self.location else None)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SceneFrame):
            return NotImplemented
        if (
            self.scene_id != other.scene_id
            or self.dataset_tag != other.dataset_tag
            or self.location != other.location
            or self.dt != other.dt
            or self.n_timesteps != other.n_timesteps
            or self.heading_derived != other.heading_derived
            or self.agents != other.agents
        ):
            return False
        a, b = self.columns, other.columns
        return all(getattr(a, name).tobytes() == getattr(b, name).tobytes() for name in COLUMN_NAMES)


# Per-agent row rules, in the order scene_validate reports them for one agent.
_ROW_RULES = (
    "agent {name}: no rows for lifetime [{first}, {last}] (gap)",
    "agent {name}: timesteps out of order (row-order)",
    "agent {name}: duplicate row at ts {ts} (duplicate-row)",
    "agent {name}: missing row at ts {ts} (gap)",
    "agent {name}: row at ts {ts} outside lifetime (ts-range)",
)


def scene_validate(scene: SceneFrame) -> list[str]:
    """Check all SceneFrame invariants; return one description per violation.

    Never raises: a malformed scene yields messages naming the agent, the
    timestep, and the violated rule.
    """
    violations: list[str] = []
    if not 0.0 < scene.dt < math.inf:
        violations.append(f"scene {scene.scene_id}: dt {scene.dt} not finite and positive (dt-positive)")

    seen_ids: set[str] = set()
    for meta in scene.agents:
        if meta.agent_id in seen_ids:
            violations.append(f"agent {meta.agent_id}: duplicate agent_id (agent-id-unique)")
        seen_ids.add(meta.agent_id)
        if meta.first_ts > meta.last_ts:
            violations.append(
                f"agent {meta.agent_id}: first_ts {meta.first_ts} > last_ts {meta.last_ts} (lifetime-order)"
            )

    cols = scene.columns
    n_rows = len(cols)
    if n_rows == 0:
        return violations

    idx = cols.agent_index
    if idx.min() < 0 or idx.max() >= scene.n_agents:
        violations.append(f"scene {scene.scene_id}: agent_index outside [0, {scene.n_agents}) (agent-index-range)")
        return violations

    order_ok = np.all(np.diff(idx) >= 0)
    if not order_ok:
        violations.append(f"scene {scene.scene_id}: rows not grouped by agent_index (row-order)")

    # Per-agent row rules, linear in rows up to one stable sort by agent.
    first = np.array([m.first_ts for m in scene.agents], dtype=np.int64)
    last = np.array([m.last_ts for m in scene.agents], dtype=np.int64)
    order = np.argsort(idx, kind="stable")
    agent, ts = idx[order], cols.ts[order]
    same = agent[1:] == agent[:-1]
    unordered = np.unique(agent[1:][same & (ts[1:] < ts[:-1])])
    pairs, counts = np.unique(np.stack([agent, ts], axis=1), axis=0, return_counts=True)
    present, present_ts = pairs[:, 0], pairs[:, 1]
    inside = (present_ts >= first[present]) & (present_ts <= last[present])
    # One slot per lifetime timestep of every agent that has rows.
    has_rows = np.bincount(idx, minlength=scene.n_agents) > 0
    span = np.where(has_rows, np.maximum(last - first + 1, 0), 0)
    start = np.cumsum(span) - span
    slot_agent = np.repeat(np.arange(scene.n_agents), span)
    slot_ts = np.arange(len(slot_agent)) - start[slot_agent] + first[slot_agent]
    covered = np.zeros(len(slot_agent), dtype=bool)
    covered[start[present[inside]] + present_ts[inside] - first[present[inside]]] = True
    no_rows = np.flatnonzero(~has_rows)
    found = [  # (agents, ts) per rule of _ROW_RULES; the first two rules show no ts
        (no_rows, no_rows), (unordered, unordered), (present[counts > 1], present_ts[counts > 1]),
        (slot_agent[~covered], slot_ts[~covered]), (present[~inside], present_ts[~inside]),
    ]
    for a, rule, t in sorted((a, rule, t) for rule, (agents, at) in enumerate(found) for a, t in zip(agents.tolist(), at.tolist())):
        meta = scene.agents[a]
        violations.append(_ROW_RULES[rule].format(name=meta.agent_id, first=meta.first_ts, last=meta.last_ts, ts=t))

    if cols.ts.size and (cols.ts.min() < 0 or cols.ts.max() >= scene.n_timesteps):
        violations.append(
            f"scene {scene.scene_id}: ts outside [0, {scene.n_timesteps}) (ts-range)"
        )

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
            violations.append(
                f"agent {meta.agent_id}: non-finite {col_name} at ts {int(cols.ts[row])} (non-finite)"
            )

    return violations
