"""Canonical in-memory data model for scenes, agents, and columnar trajectory state.

A scene is a columnar table of per-agent, per-timestep kinematic rows plus
agent metadata. Timesteps are integer frame indices; wall-clock time is
``ts * dt``. The agents' lifetimes fix the row layout (``row_layout``): one row
per lifetime timestep, agent by agent. Interior gaps are imputed upstream and
flagged ``observed=False``.

Scene (``.tksc``) and map (``.tkmap``) files share one container, written by
``pack_container`` and read by ``read_container``: a magic, a u32 version, a u64
header length and a compact sorted-key JSON header, then the payload.
"""

from __future__ import annotations

import enum
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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
# The type names sorted; an agent's type code is its type's index here.
TYPE_NAMES = tuple(sorted(m.value for m in AgentType))
_TYPE_CODE = {m: TYPE_NAMES.index(m.value) for m in AgentType}


def row_layout(first_ts, last_ts) -> tuple[np.ndarray, np.ndarray]:
    """The agent_index and ts columns of agents with these lifetimes: a row per
    timestep of [first_ts[k], last_ts[k]], agent by agent (none if last_ts < first_ts)."""
    first = np.asarray(first_ts, dtype=np.int64)
    span = np.maximum(np.asarray(last_ts, dtype=np.int64) - first + 1, 0)
    agent = np.repeat(np.arange(len(span)), span)
    row0 = np.cumsum(span) - span - first
    return agent, np.arange(len(agent)) - row0[agent]


def load_json(text):
    """json.loads(text); a document nested too deep for the decoder raises
    ValueError, as every other document that does not decode does."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document nested too deep to decode") from None


def _checked_object(raw, kinds: dict, required: Iterable[str], what: str) -> dict:
    """raw, if it is a JSON object that holds every required key and, under
    each key of kinds that it holds, a value of that type (true and false
    pass only as bool); ValueError naming the key otherwise."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(raw).__name__}")
    for key in required:
        if key not in raw:
            raise ValueError(f"{what} lacks the key {key!r}")
    for key, kind in kinds.items():
        if key in raw and (not isinstance(raw[key], kind) or isinstance(raw[key], bool) and kind is not bool):
            raise ValueError(f"{what} key {key!r} has the wrong type: {raw[key]!r}")
    return raw


def pack_container(magic: bytes, version: int, header: dict) -> bytearray:
    """The preamble (magic, u32 version, u64 header length) and the compact,
    key-sorted JSON header of a container; the caller appends the payload."""
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return bytearray(magic + struct.pack("<IQ", version, len(text)) + text)


def read_container(f, size: int, magic: bytes, version: int, errors: tuple) -> tuple[dict, int]:
    """The JSON header of the container of size bytes that f reads from its
    start, and the offset where its payload begins. errors holds the classes
    to raise for a bad magic or version, for a file that ends too soon, and
    for a header that does not decode."""
    bad_format, truncated, undecodable = errors
    preamble_len = len(magic) + 4 + 8
    preamble = f.read(preamble_len)
    if len(preamble) < preamble_len:
        raise truncated(f"file too short ({len(preamble)} bytes) to hold the preamble")
    if preamble[: len(magic)] != magic:
        raise bad_format(f"bad magic {preamble[:len(magic)]!r}, expected {magic!r}")
    found, header_len = struct.unpack_from("<IQ", preamble, len(magic))
    if found != version:
        raise bad_format(f"unsupported version {found}, expected {version}")
    if size < preamble_len + header_len:
        raise truncated("file ends inside the JSON header")
    try:
        return load_json(f.read(header_len).decode("utf-8")), preamble_len + header_len
    except ValueError as exc:  # also UnicodeDecodeError, the int-digit limit and the nesting limit
        raise undecodable(f"unreadable JSON header: {exc}") from exc


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
    _type_code: np.ndarray = field(init=False, repr=False)  # (agents,) uint8 index into TYPE_NAMES
    _row0: np.ndarray = field(init=False, repr=False)  # row of (agent j, ts) is _row0[j] + ts

    def __post_init__(self):
        idx = self.columns.agent_index
        self._agent_offsets = np.searchsorted(idx, np.arange(len(self.agents) + 1))
        self._first_ts = np.array([m.first_ts for m in self.agents], dtype=np.int64)
        self._last_ts = np.array([m.last_ts for m in self.agents], dtype=np.int64)
        self._type_code = np.array([_TYPE_CODE[m.agent_type] for m in self.agents], dtype=np.uint8)
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
        for meta, track in zip(agents, tracks):
            for name in COLUMN_NAMES[2:]:
                if len(track[name]) != meta.n_steps:
                    raise ValueError(f"agent {meta.agent_id}: track column {name} has length {len(track[name])}, expected {meta.n_steps}")
        return cls(
            scene_id=scene_id,
            dataset_tag=dataset_tag,
            location=location,
            dt=float(dt),
            n_timesteps=int(max((meta.last_ts for meta in agents), default=-1)) + 1,
            agents=list(agents),
            columns=SceneColumns(
                *row_layout([m.first_ts for m in agents], [m.last_ts for m in agents]),
                *(np.concatenate([track[name] for track in tracks]) if tracks else [] for name in COLUMN_NAMES[2:]),
            ),
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
    # In-lifetime rows count into layout slots; np.unique sorts only the rare rest.
    has_rows = np.bincount(idx, minlength=scene.n_agents) > 0
    slot_agent, slot_ts = row_layout(first, np.where(has_rows, last, first - 1))
    inside = (ts >= first[agent]) & (ts <= last[agent])
    counts = np.bincount(np.searchsorted(slot_agent, agent[inside]) + ts[inside] - first[agent[inside]], minlength=len(slot_agent))
    pairs, repeats = np.unique(np.stack([agent[~inside], ts[~inside]], axis=1), axis=0, return_counts=True)
    outside, outside_ts = pairs.T
    found = [  # (agents, ts) per rule of _ROW_RULES; the first two rules show no ts
        (np.flatnonzero(~has_rows),) * 2, (unordered, unordered),
        (np.append(slot_agent[counts > 1], outside[repeats > 1]), np.append(slot_ts[counts > 1], outside_ts[repeats > 1])),
        (slot_agent[counts == 0], slot_ts[counts == 0]), (outside, outside_ts),
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
