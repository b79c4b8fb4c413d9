"""Canonical in-memory data model for scenes, agents, and columnar trajectory state.

A scene is two column tables: one row per agent (id, type code, lifetime,
extent) and one row per agent and lifetime timestep (the nine value columns).
Timesteps are integer frame indices; wall-clock time is ``ts * dt``. The
agents' lifetimes are the row layout: one row per lifetime timestep, agent by
agent. A scene derives ``agent_index``, ``ts`` and ``n_timesteps`` from the
lifetimes (``row_layout``), and builds its ``AgentMetadata`` records only when
they are read. Interior gaps are imputed upstream and flagged ``observed=False``.

Scene (``.tksc``) and map (``.tkmap``) files share one container, written by
``pack_container`` and read by ``read_container``: a magic, a u32 version, a u64
header length and a compact sorted-key JSON header, then the payload.
"""

from __future__ import annotations

import copy
import enum
import json
import math
import os
import pickle
import signal
import struct
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Conventional split tokens; scene tags use these to tell a split token from a
# location token when parsing "dataset-x".
SPLIT_NAMES = frozenset({"train", "val", "test", "trainval", "mini"})

COLUMN_NAMES = ("agent_index", "ts", "x", "y", "z", "vx", "vy", "ax", "ay", "heading", "observed")

# The most rows a scene may hold after completion or resampling, checked before
# any of them is allocated: about 1.1 GB of value columns.
ROW_BUDGET = 2**24


def wrap_angle(angle):
    """Wrap an angle (scalar or array) to (-pi, pi].

    Values already in range are returned unchanged (bit-exact), so wrapping is
    idempotent.
    """
    a = np.asarray(angle, dtype=np.float64)
    out = a.copy()
    far = ~((a > -math.pi) & (a <= math.pi))  # np.mod is slow: only these are wrapped
    wrapped = math.pi - np.mod(math.pi - a[far], TWO_PI)
    # np.mod rounds the remainder of pi's successor up to 2pi, which would give -pi.
    out[far] = np.where(wrapped == -math.pi, math.pi, wrapped)
    return float(out) if a.ndim == 0 else out


def rotate(x, y, c, s, out=None):
    """(x, y) rotated by the angle whose cosine and sine are c and s, in separate
    multiplies and adds: the bits of a BLAS matrix product depend on the CPU.

    With out, a pair of arrays that overlaps neither x nor y, the two results
    are written into it, with the same bits, and out is returned.
    """
    if out is None:
        return x * c - y * s, x * s + y * c
    ox, oy = out
    np.multiply(x, c, out=ox)
    np.multiply(y, s, out=oy)
    ox -= oy
    np.multiply(y, c, out=oy)
    oy += x * s
    return out


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
TYPE_BY_CODE = tuple(map(AgentType, TYPE_NAMES))  # the AgentType of each type code
_CODE_OF_NAME = {name: code for code, name in enumerate(TYPE_NAMES)}


def type_codes(names: Sequence[str]) -> np.ndarray:
    """The uint8 type code of each type name; ValueError, as
    AgentType.from_string raises it, for the first name outside the set."""
    codes = list(map(_CODE_OF_NAME.get, names))
    if None in codes:
        AgentType.from_string(names[codes.index(None)])
    return np.array(codes, dtype=np.uint8)


def row_layout(first_ts, last_ts) -> tuple[np.ndarray, np.ndarray]:
    """The agent_index and ts columns of agents with these lifetimes (each
    first_ts <= last_ts): a row per timestep of [first_ts[k], last_ts[k]], agent by agent."""
    first = np.asarray(first_ts, dtype=np.int64)
    span = np.asarray(last_ts, dtype=np.int64) - first + 1
    agent = np.repeat(np.arange(len(span)), span)
    row0 = np.cumsum(span) - span - first
    return agent, np.arange(len(agent)) - row0[agent]


def _integers(values) -> list:
    """values as a list of Python ints; ValueError if one is not an integer (a
    bool included). An integer array passes on its dtype alone."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu") and {*map(type, values)} - {int}:
        bad = [v for v in values if isinstance(v, bool) or not isinstance(v, (int, np.integer))]
        if bad:
            raise ValueError(f"agent lifetimes span non-integer timesteps such as {bad[0]!r}: each must be an int, and a bool is not one")
    # A list goes through int, not numpy, which reads -1 and 2**63 together as float64.
    return values.tolist() if isinstance(values, np.ndarray) else list(map(int, values))


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


NO_EXTENT = (math.nan, math.nan, math.nan)  # the extent column's row of an agent without one


def extent_row(extent: Extent | None) -> tuple:
    """The extent column's row of an extent, or of None for no extent."""
    return NO_EXTENT if extent is None else (extent.length, extent.width, math.nan if extent.height is None else extent.height)


@dataclass(frozen=True)
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


def agent_columns(agents: Sequence[AgentMetadata]) -> dict:
    """The agent table of records, by the names SceneFrame takes its columns."""
    return dict(
        agent_ids=[m.agent_id for m in agents], type_code=type_codes([m.agent_type.value for m in agents]),
        first_ts=[m.first_ts for m in agents], last_ts=[m.last_ts for m in agents],
        extent=[extent_row(m.extent) for m in agents],
    )


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
    """The nine value columns x ... observed, parallel arrays over a scene's
    rows (one per lifetime timestep, agent by agent).

    A SceneFrame holds its own shallow copy, to which it adds the layout
    columns agent_index and ts, derived from its agents' lifetimes and
    read-only; columns that no scene holds have them as None.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    heading: np.ndarray
    observed: np.ndarray
    agent_index: np.ndarray | None = field(default=None, init=False, repr=False)
    ts: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in COLUMN_NAMES[2:]:
            column = np.asarray(getattr(self, name), dtype=bool if name == "observed" else np.float64)
            if len(column) != len(self.x):
                raise ValueError(f"column {name} has length {len(column)}, expected {len(self.x)}")
            setattr(self, name, column)

    @classmethod
    def concat(cls, tracks: Sequence[dict[str, np.ndarray]]) -> "SceneColumns":
        """The columns of per-agent column dicts, one agent after another."""
        return cls(*(np.concatenate([track[name] for track in tracks]) if tracks else [] for name in COLUMN_NAMES[2:]))

    def __len__(self) -> int:
        return len(self.x)

    def as_dict(self) -> dict[str, np.ndarray]:
        """The nine value columns by name, as SceneColumns takes them."""
        return {name: getattr(self, name) for name in COLUMN_NAMES[2:]}


@dataclass(frozen=True, eq=False)
class SceneFrame:
    """One scene: metadata, the agent table, and the columnar trajectory table.

    ``dataset_tag`` is the dataset identity including split when present
    (e.g. "sdd-train"); ``location`` is kept separate. The agent table is the
    columns ``agent_ids``, ``type_code`` (uint8 index into TYPE_NAMES),
    ``first_ts`` and ``last_ts`` (int64) and ``extent`` ((A, 3) float64
    length, width, height; a NaN row for no extent, a NaN height for none).
    Construction checks it once: ValueError unless each lifetime starts at ts
    0 or later, ends before ts 2**63 - 1 and spans a timestep or more, all
    span the rows of ``columns``, and each extent row is NaN or a length and
    width > 0 with a height > 0 or NaN. The scene is frozen and the table and
    layout read-only; the value columns x ... observed stay writable.
    ``agents`` is the table as AgentMetadata records, built on first read.
    """

    scene_id: str
    dataset_tag: str
    location: str
    dt: float
    agent_ids: tuple[str, ...]
    type_code: np.ndarray
    first_ts: np.ndarray
    last_ts: np.ndarray
    extent: np.ndarray
    columns: SceneColumns
    heading_derived: bool = True
    agent_offsets: np.ndarray = field(init=False, repr=False)  # agent j holds rows agent_offsets[j]:agent_offsets[j + 1]
    _row0: np.ndarray = field(init=False, repr=False)  # row of (agent j, ts) is _row0[j] + ts

    def __post_init__(self):
        agent_ids = tuple(self.agent_ids)
        n = len(agent_ids)
        # Python ints: a caller's lifetimes may lie beyond int64, and no row is built before they pass.
        first, last = _integers(self.first_ts), _integers(self.last_ts)
        type_code = np.array(self.type_code, dtype=np.uint8)
        if not len(first) == len(last) == len(type_code) == n or type_code.max(initial=0) >= len(TYPE_NAMES):
            raise ValueError(f"agent table of {n} ids needs as many lifetimes and type codes, each below {len(TYPE_NAMES)}")
        extent = np.array(self.extent, dtype=np.float64).reshape(n, 3)  # ValueError unless n rows of 3
        spans = [b - a + 1 for a, b in zip(first, last)]
        if min(first, default=0) < 0 or min(spans, default=1) < 1 or max(last, default=0) >= 2**63 - 1 or sum(spans) != len(self.columns):
            raise ValueError(
                f"agent lifetimes span {sum(spans)} rows (shortest {min(spans, default=1)}, earliest from ts {min(first, default=0)},"
                f" latest to ts {max(last, default=0)}); each must start at ts 0 or later, end before ts 2**63 - 1 and span a"
                f" timestep or more, and all must span the {len(self.columns)} rows"
            )
        length, width, height = extent.T
        bad = np.flatnonzero(~(np.isnan(extent).all(axis=1) | (length > 0.0) & (width > 0.0) & ~(height <= 0.0)))
        if len(bad):
            raise ValueError(f"agent {agent_ids[bad[0]]}: extent {extent[bad[0]].tolist()} is neither all NaN nor a box")
        first_ts, last_ts = np.array(first, dtype=np.int64), np.array(last, dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(spans, dtype=np.int64)])
        # The layout belongs to this scene: another scene built over the same columns gets its own.
        columns = copy.copy(self.columns)
        columns.agent_index, columns.ts = row_layout(first_ts, last_ts)
        derived = {
            "agent_ids": agent_ids,
            "type_code": type_code,
            "first_ts": first_ts,
            "last_ts": last_ts,
            "extent": extent,
            "agent_offsets": offsets,
            "_row0": offsets[:-1] - first_ts,
            "columns": columns,
        }
        for name, value in derived.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        columns.agent_index.flags.writeable = columns.ts.flags.writeable = False

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
        """Assemble a scene from agent records and per-agent column dicts aligned to [first_ts, last_ts].

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
            **agent_columns(agents),
            columns=SceneColumns.concat(tracks),
            heading_derived=heading_derived,
        )

    @cached_property
    def agents(self) -> tuple[AgentMetadata, ...]:
        """The agent table as frozen records, built on first read."""
        extents = [None if math.isnan(length) else Extent(length, width, None if math.isnan(height) else height)
                   for length, width, height in self.extent.tolist()]
        types = map(TYPE_BY_CODE.__getitem__, self.type_code.tolist())
        return tuple(map(AgentMetadata, self.agent_ids, types, extents, self.first_ts.tolist(), self.last_ts.tolist()))

    def keep_agents(self, kept, first_ts, last_ts, columns: SceneColumns, **changes) -> "SceneFrame":
        """The scene of the agents at the indices kept, in that order, with the
        lifetimes first_ts and last_ts and the value columns columns; changes
        set other fields, as in dataclasses.replace."""
        kept = np.asarray(kept, dtype=np.intp)
        ids = [self.agent_ids[k] for k in kept.tolist()]
        return replace(self, agent_ids=ids, type_code=self.type_code[kept], first_ts=first_ts, last_ts=last_ts,
                       extent=self.extent[kept], columns=columns, **changes)

    @property
    def n_agents(self) -> int:
        return len(self.agent_ids)

    @property
    def n_timesteps(self) -> int:
        """max(last_ts) + 1, or 0 when the scene has no agents."""
        return int(self.last_ts.max(initial=-1)) + 1

    def rows_for_agent(self, agent_index: int) -> slice:
        return slice(int(self.agent_offsets[agent_index]), int(self.agent_offsets[agent_index + 1]))

    def row_at(self, agent_index: int, ts: int) -> int | None:
        """Row index of (agent, ts), or None when ts is outside the lifetime.

        Relies on the contiguity invariant (one row per lifetime timestep).
        """
        # .item(): a Python int compares and adds faster than a numpy scalar.
        if not self.first_ts.item(agent_index) <= ts <= self.last_ts.item(agent_index):
            return None
        return self._row0.item(agent_index) + ts

    def lifetime_rows(self, agents, ts) -> tuple[np.ndarray, np.ndarray]:
        """Rows of the broadcast (agent, ts) pairs, with each ts clamped into
        that agent's lifetime, and the mask of pairs inside the lifetime
        (where clamping left ts unchanged).

        A pair outside the lifetime gets the agent's first or last row, so
        callers can gather with the rows and mask the result afterwards.
        """
        agents = np.asarray(agents, dtype=np.int64)
        clamped = np.minimum(np.maximum(ts, self.first_ts[agents]), self.last_ts[agents])
        return self._row0[agents] + clamped, clamped == ts

    def agents_present_at(self, ts: int) -> list[int]:
        return np.flatnonzero((self.first_ts <= ts) & (ts <= self.last_ts)).tolist()

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
            or self.heading_derived != other.heading_derived
            or self.agent_ids != other.agent_ids
            or not all(np.array_equal(getattr(self, name), getattr(other, name)) for name in ("type_code", "first_ts", "last_ts"))
            or not np.array_equal(self.extent, other.extent, equal_nan=True)
        ):
            return False
        # Equal lifetimes give equal layouts, so the value columns decide.
        a, b = self.columns, other.columns
        return all(getattr(a, name).tobytes() == getattr(b, name).tobytes() for name in COLUMN_NAMES[2:])


def scene_validate(scene: SceneFrame) -> list[str]:
    """Check the invariants a SceneFrame's construction leaves open: a finite,
    positive dt, unique agent ids, headings in (-pi, pi] and finite cells.
    Return one description per violation.

    Construction already fixes the rows by the lifetimes, so no scene can hold
    a row outside its agent's lifetime, a repeated or missing row, or an
    inverted lifetime. Never raises: a malformed scene yields messages naming
    the agent, the timestep, and the violated rule.
    """
    violations: list[str] = []
    if not 0.0 < scene.dt < math.inf:
        violations.append(f"scene {scene.scene_id}: dt {scene.dt} not finite and positive (dt-positive)")

    seen_ids: set[str] = set()
    for agent_id in scene.agent_ids:
        if agent_id in seen_ids:
            violations.append(f"agent {agent_id}: duplicate agent_id (agent-id-unique)")
        seen_ids.add(agent_id)

    cols = scene.columns
    idx = cols.agent_index
    bad_heading = ~((cols.heading > -math.pi) & (cols.heading <= math.pi))
    for row in np.nonzero(bad_heading)[0]:
        violations.append(
            f"agent {scene.agent_ids[idx[row]]}: heading {float(cols.heading[row])!r} outside (-pi, pi] at ts {int(cols.ts[row])} (heading-range)"
        )

    for col_name in ("x", "y", "z", "vx", "vy", "ax", "ay"):
        col = getattr(cols, col_name)
        for row in np.nonzero(~np.isfinite(col))[0]:
            violations.append(
                f"agent {scene.agent_ids[idx[row]]}: non-finite {col_name} at ts {int(cols.ts[row])} (non-finite)"
            )

    return violations


# ---------------------------------------------------------------------------
# Forked workers
# ---------------------------------------------------------------------------


def _fork_is_quiet() -> bool:
    """Whether os.fork exists and would raise no DeprecationWarning: from
    Python 3.12 it warns while any other thread runs in the process, as
    numpy's BLAS pool may."""
    if not hasattr(os, "fork"):
        return False
    if sys.version_info < (3, 12):
        return True
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no /proc: the threads cannot be counted as CPython counts them
        return False


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _share_count(n_items: int, minimum: int) -> int:
    """How many processes share n_items: one per CPU this process may run on,
    no more than one per minimum items, and one where forking is not quiet."""
    return max(1, min(_cpus(), n_items // minimum)) if _fork_is_quiet() else 1


class _Worker:
    """A forked process that pickles job()'s result back through a pipe and
    leaves by os._exit, whatever job does or raises."""

    def __init__(self, job):
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(r)
                data = pickle.dumps(job(), pickle.HIGHEST_PROTOCOL)  # whole before a byte is sent
                with os.fdopen(w, "wb") as pipe:
                    pipe.write(data)
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        self.pid, self.fd, self.result = pid, r, None

    def receive(self):
        """job()'s result, read to the end of the pipe; the worker is then
        reaped. ChildProcessError names the exit code or signal of a worker
        that ended without sending it."""
        with os.fdopen(self.fd, "rb") as pipe:
            self.fd = None
            data = pipe.read()
        _, status = os.waitpid(self.pid, 0)
        pid, self.pid = self.pid, None
        code = os.waitstatus_to_exitcode(status)
        if code:
            how = f"exit code {code}" if code > 0 else f"signal {-code} ({signal.strsignal(-code)})"
            raise ChildProcessError(f"worker process {pid} ended without its result: {how}")
        self.result = pickle.loads(data)
        return self.result

    def stop(self) -> None:
        """Kill the worker unless it was reaped, reap it and close its pipe."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
