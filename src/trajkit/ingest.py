"""Parsers for external trajectory formats, synthetic scene generation, and the
columnar on-disk scene cache.

The canonical CSV is the single interchange format
(``scene_id,agent_id,agent_type,frame,x,y,z,heading,length,width,height``);
adapters for licensed datasets are expected to be written externally as
converters to it. Cache files are one binary blob per scene with a CRC32
footer plus one JSON index per dataset directory.
"""

from __future__ import annotations

import csv
import fcntl
import io
import json
import logging
import math
import os
import struct
import uuid
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    COLUMN_NAMES,
    AgentMetadata,
    AgentType,
    Extent,
    SceneFrame,
    SceneTag,
    scene_validate,
    wrap_angle,
)
# complete_track stays importable here: the traced benchmark run (bench/spans.py) wraps it by this path.
from .kinematics import complete_track, complete_tracks  # noqa: F401

log = logging.getLogger(__name__)

CANONICAL_HEADER = ("scene_id", "agent_id", "agent_type", "frame", "x", "y", "z", "heading", "length", "width", "height")

CACHE_MAGIC = b"TKSC1\x00"
CACHE_VERSION = 1
_COLUMN_DTYPES = {name: ("u1" if name == "observed" else "i8" if name in ("agent_index", "ts") else "f8") for name in COLUMN_NAMES}


class ParseError(ValueError):
    """Malformed input data; message carries the offending line when known."""


class ValidationError(ValueError):
    """A parsed scene violated SceneFrame invariants."""

    def __init__(self, scene_id: str, violations: list[str]):
        self.violations = violations
        super().__init__(f"scene {scene_id}: {len(violations)} invariant violation(s): " + "; ".join(violations[:5]))


class CacheError(Exception):
    """Base class for scene-cache failures."""


class CacheVersionError(CacheError):
    """Bad magic bytes or unsupported format version."""


class CacheTruncatedError(CacheError):
    """File shorter (or longer) than its directory says it should be."""


class CacheChecksumError(CacheError):
    """CRC32 footer does not match the file contents."""


class UnknownTagError(KeyError):
    """A requested scene tag matched nothing in the cache."""


@dataclass
class SceneMetaRecord:
    """Sidecar metadata describing one scene source."""

    scene_id: str
    dt: float
    location: str
    dataset: str
    split: str | None = None

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")

    def dataset_tag(self) -> str:
        return SceneTag(self.dataset, split=self.split).render()

    @classmethod
    def from_json(cls, text: str) -> "SceneMetaRecord":
        raw = json.loads(text)
        return cls(
            scene_id=raw["scene_id"],
            dt=float(raw["dt"]),
            location=raw.get("location", ""),
            dataset=raw["dataset"],
            split=raw.get("split") or None,
        )

    def to_json(self) -> str:
        return json.dumps(
            {"scene_id": self.scene_id, "dt": self.dt, "location": self.location, "dataset": self.dataset, "split": self.split},
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# Canonical CSV
# ---------------------------------------------------------------------------

def _parse_float(cell: str, line_no: int, column: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"line {line_no}: malformed numeric cell {cell!r} in column {column}") from None


def _parse_optional_float(cell: str, line_no: int, column: str) -> float | None:
    cell = cell.strip()
    if not cell:
        return None
    return _parse_float(cell, line_no, column)


def _read_canonical_rows(table_text: str) -> dict[str, list[tuple]]:
    """Raw rows grouped by scene_id; each row is (line_no, agent_id, type, frame, x, y, z, heading, l, w, h)."""
    reader = csv.reader(io.StringIO(table_text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input: missing canonical header") from None
    header = tuple(h.strip() for h in header)
    if header != CANONICAL_HEADER:
        raise ParseError(f"line 1: header {header!r} does not match canonical schema {CANONICAL_HEADER!r}")
    scenes: dict[str, list[tuple]] = {}
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(CANONICAL_HEADER):
            raise ParseError(f"line {line_no}: expected {len(CANONICAL_HEADER)} fields, got {len(row)}")
        scene_id = row[0].strip()
        agent_id = row[1].strip()
        try:
            agent_type = AgentType.from_string(row[2].strip())
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from None
        frame_cell = row[3].strip()
        try:
            frame = int(frame_cell)
        except ValueError:
            raise ParseError(f"line {line_no}: frame {frame_cell!r} is not an integer") from None
        if not -(2**63) <= frame < 2**63:
            raise ParseError(f"line {line_no}: frame {frame_cell!r} does not fit in int64")
        x = _parse_float(row[4].strip(), line_no, "x")
        y = _parse_float(row[5].strip(), line_no, "y")
        z = _parse_optional_float(row[6], line_no, "z")
        z = 0.0 if z is None else z
        heading = _parse_optional_float(row[7], line_no, "heading")
        length = _parse_optional_float(row[8], line_no, "length")
        width = _parse_optional_float(row[9], line_no, "width")
        height = _parse_optional_float(row[10], line_no, "height")
        if (length is None) != (width is None):
            raise ParseError(f"line {line_no}: extent needs both length and width (or neither)")
        scenes.setdefault(scene_id, []).append((line_no, agent_id, agent_type, frame, x, y, z, heading, length, width, height))
    if not scenes:
        raise ParseError("no data rows after header")
    return scenes


def _agent_tracks(agent_ids: Sequence, frames: Sequence[int], lines: Sequence[int]) -> tuple:
    """Rows ordered by (agent id, frame): (sorted distinct ids, row order, ordered
    frame offsets from the smallest frame, agent offsets into the ordered rows,
    agent and ordered row of the first repeated frame, or len(ids) and len(rows)).
    An offset beyond int64 wraps negative: ParseError naming the first such line."""
    frames = np.array(frames, dtype=np.int64)
    ts = frames - frames.min()
    if np.any(ts < 0):
        row = int(np.argmax(ts < 0))
        raise ParseError(f"line {lines[row]}: frame {frames[row]} is more than 2**63 - 1 frames after {frames.min()}")
    ids, agent = np.unique(np.array(agent_ids, dtype=object), return_inverse=True)
    order = np.lexsort((ts, agent))
    agent, ts = agent[order], ts[order]
    repeats = 1 + np.flatnonzero((agent[1:] == agent[:-1]) & (ts[1:] == ts[:-1]))
    repeat = int(repeats[0]) if repeats.size else len(order)
    offsets = np.searchsorted(agent, np.arange(len(ids) + 1))
    return ids.tolist(), order, ts, offsets, int(np.append(agent, len(ids))[repeat]), repeat


def _build_scene(scene_id: str, raw_rows: list[tuple], meta: SceneMetaRecord) -> SceneFrame:
    lines, agent_ids, types, frames, x, y, z, heading, length, width, height = zip(*raw_rows)
    ids, order, ts, offsets, repeat_agent, repeat = _agent_tracks(agent_ids, frames, lines)
    # An agent's extent comes from its first row (in frame order) that has one.
    has_extent = np.array([v is not None for v in length], dtype=bool)[order]
    first_with = np.minimum.reduceat(np.where(has_extent, np.arange(len(order)), len(order)), offsets[:-1])
    extent_rows = np.append(order, -1)[first_with]
    # Agents are checked in order, a repeated frame before the extent.
    extents = [None if r < 0 else Extent(length[r], width[r], height[r]) for r in extent_rows[:repeat_agent].tolist()]
    if repeat_agent < len(ids):
        raise ParseError(f"agent {ids[repeat_agent]}: non-monotone frames (duplicate frame {frames[order[repeat]]})")
    headings_given = all(h is not None for h in heading)
    first, last, columns = complete_tracks(
        offsets, ts, np.array(x)[order], np.array(y)[order], np.array(z)[order], meta.dt,
        np.array(heading, dtype=np.float64)[order] if headings_given else None,
    )
    agents = [AgentMetadata(agent_id, types[r], extent, f, l) for agent_id, r, extent, f, l
              in zip(ids, order[offsets[:-1]].tolist(), extents, first.tolist(), last.tolist())]
    return SceneFrame(
        scene_id, meta.dataset_tag(), meta.location, float(meta.dt), int(last.max()) + 1, agents, columns, not headings_given
    )


def parse_canonical_csv_many(table_text: str, meta: SceneMetaRecord) -> list[SceneFrame]:
    """Parse a canonical CSV that may hold several scenes (grouped by scene_id)."""
    groups = _read_canonical_rows(table_text)
    return [_build_scene(scene_id, rows, meta) for scene_id, rows in sorted(groups.items())]


def parse_canonical_csv(table_text: str, meta: SceneMetaRecord) -> SceneFrame:
    """Parse a single-scene canonical CSV into a SceneFrame.

    Rows may arrive in any order (they are re-sorted); duplicate frames for an
    agent are rejected. Velocities and accelerations are always derived from
    positions; headings are kept only when every row provides one.
    """
    groups = _read_canonical_rows(table_text)
    if len(groups) != 1:
        raise ParseError(f"expected a single scene, found scene_ids {sorted(groups)}")
    scene_id, rows = next(iter(groups.items()))
    return _build_scene(scene_id, rows, meta)


def write_canonical_csv(scene: SceneFrame, observed_only: bool = False) -> str:
    """Render a scene back to canonical CSV (poses round-trip exactly)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CANONICAL_HEADER)
    cols = scene.columns
    for i, meta in enumerate(scene.agents):
        sl = scene.rows_for_agent(i)
        ext = meta.extent
        for row in range(sl.start, sl.stop):
            if observed_only and not cols.observed[row]:
                continue
            writer.writerow(
                [
                    scene.scene_id,
                    meta.agent_id,
                    str(meta.agent_type),
                    int(cols.ts[row]),
                    repr(float(cols.x[row])),
                    repr(float(cols.y[row])),
                    repr(float(cols.z[row])),
                    "" if scene.heading_derived else repr(float(cols.heading[row])),
                    "" if ext is None else repr(float(ext.length)),
                    "" if ext is None else repr(float(ext.width)),
                    "" if ext is None or ext.height is None else repr(float(ext.height)),
                ]
            )
    return out.getvalue()


# ---------------------------------------------------------------------------
# Frame-text (simplified pedestrian frame lists: "frame id x y")
# ---------------------------------------------------------------------------

def parse_frame_text(text: str, meta: SceneMetaRecord) -> SceneFrame:
    """Parse whitespace-delimited "frame id x y" lines into a pedestrian scene.

    Positions are assumed pre-projected to meters. Dataset frame numbers may
    skip at a fixed stride; frames are folded onto a contiguous grid starting
    at ts 0, with one grid step lasting meta.dt seconds.
    """
    records = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) < 4:
            raise ParseError(f"line {line_no}: expected at least 4 fields, got {len(fields)}")
        try:
            frame_f, id_f = float(fields[0]), float(fields[1])
            x, y = float(fields[2]), float(fields[3])
        except ValueError:
            raise ParseError(f"line {line_no}: non-numeric field in {line.strip()!r}") from None
        if not (frame_f.is_integer() and id_f.is_integer()):
            raise ParseError(f"line {line_no}: frame and id must be integral")
        if not -(2**63) <= frame_f < 2**63:
            raise ParseError(f"line {line_no}: frame {fields[0]!r} does not fit in int64")
        records.append((line_no, int(frame_f), int(id_f), x, y))
    if not records:
        raise ParseError("no agents: input has no data lines")

    lines, frames, agent_ids, x, y = zip(*records)
    ids, order, ts, offsets, repeat_agent, _ = _agent_tracks(agent_ids, frames, lines)
    if repeat_agent < len(ids):
        raise ParseError(f"agent {ids[repeat_agent]}: duplicate frame")
    ts //= np.gcd.reduce(ts) or 1  # frames may skip at a fixed stride
    first, last, columns = complete_tracks(
        offsets, ts, np.array(x)[order], np.array(y)[order], np.zeros(len(order)), meta.dt
    )
    agents = [AgentMetadata(str(a), AgentType.PEDESTRIAN, None, f, l) for a, f, l in zip(ids, first.tolist(), last.tolist())]
    return SceneFrame(meta.scene_id, meta.dataset_tag(), meta.location, float(meta.dt), int(last.max()) + 1, agents, columns)


# ---------------------------------------------------------------------------
# Synthetic scenes (analytic ground truth for tests and demos)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Straight:
    """Constant-velocity motion along a fixed heading."""

    speed: float
    heading: float = 0.0
    spacing: float = 5.0

    def __post_init__(self):
        if not self.speed > 0.0:
            raise ValueError("speed must be positive")


@dataclass(frozen=True)
class Circle:
    """Uniform circular motion (counterclockwise for positive angular_rate)."""

    radius: float
    angular_rate: float

    def __post_init__(self):
        if not self.radius > 0.0 or not self.angular_rate > 0.0:
            raise ValueError("radius and angular_rate must be positive")


@dataclass(frozen=True)
class StopAndGo:
    """Longitudinal motion from rest through (acceleration, steps) segments.

    Steps past the profile coast at the final speed with zero acceleration.
    """

    segments: tuple[tuple[float, int], ...]
    spacing: float = 5.0

    def __post_init__(self):
        for accel, steps in self.segments:
            if steps <= 0:
                raise ValueError("segment step counts must be positive")


SynthSpec = Straight | Circle | StopAndGo

_SYNTH_EXTENT = Extent(4.0, 2.0, 1.5)


def _synth_agent(spec: SynthSpec, k: int, n_agents: int, n_timesteps: int, dt: float) -> dict[str, np.ndarray]:
    t = np.arange(n_timesteps, dtype=np.float64) * dt
    track: dict[str, np.ndarray] = {"observed": np.ones(n_timesteps, dtype=bool)}
    if isinstance(spec, Straight):
        c, s = math.cos(spec.heading), math.sin(spec.heading)
        track["x"] = spec.speed * t * c
        track["y"] = spec.speed * t * s + k * spec.spacing
        track["vx"] = np.full(n_timesteps, spec.speed * c)
        track["vy"] = np.full(n_timesteps, spec.speed * s)
        track["ax"] = np.zeros(n_timesteps)
        track["ay"] = np.zeros(n_timesteps)
        track["heading"] = np.full(n_timesteps, wrap_angle(spec.heading))
    elif isinstance(spec, Circle):
        phase = 2.0 * math.pi * k / max(n_agents, 1)
        theta = spec.angular_rate * t + phase
        r, w = spec.radius, spec.angular_rate
        track["x"] = r * np.cos(theta)
        track["y"] = r * np.sin(theta)
        track["vx"] = -r * w * np.sin(theta)
        track["vy"] = r * w * np.cos(theta)
        track["ax"] = -r * w * w * np.cos(theta)
        track["ay"] = -r * w * w * np.sin(theta)
        track["heading"] = wrap_angle(theta + math.pi / 2.0)
    elif isinstance(spec, StopAndGo):
        accel = np.zeros(n_timesteps)
        cursor = 0
        for a, steps in spec.segments:
            end = min(cursor + steps, n_timesteps)
            accel[cursor:end] = a
            cursor = end
            if cursor >= n_timesteps:
                break
        v = np.zeros(n_timesteps)
        x = np.zeros(n_timesteps)
        for i in range(1, n_timesteps):
            v[i] = v[i - 1] + accel[i - 1] * dt
            x[i] = x[i - 1] + v[i - 1] * dt + 0.5 * accel[i - 1] * dt * dt
        track["x"] = x
        track["y"] = np.full(n_timesteps, k * spec.spacing)
        track["vx"] = v
        track["vy"] = np.zeros(n_timesteps)
        track["ax"] = accel
        track["ay"] = np.zeros(n_timesteps)
        track["heading"] = np.zeros(n_timesteps)
    else:
        raise TypeError(f"unknown synth spec {spec!r}")
    track["z"] = np.zeros(n_timesteps)
    return track


def synth_scene(
    spec: SynthSpec,
    n_agents: int,
    n_timesteps: int,
    dt: float,
    scene_id: str = "synth-0",
    dataset: str = "synth",
    location: str = "flat",
    agent_type: AgentType = AgentType.VEHICLE,
) -> SceneFrame:
    """Analytically exact scene for the given motion spec.

    All kinematic columns (including velocities, accelerations, and headings)
    are closed-form, so derived metrics can be checked against closed forms.
    """
    if n_agents < 1 or n_timesteps < 1:
        raise ValueError("need at least one agent and one timestep")
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    agents = [
        AgentMetadata(f"a{k}", agent_type, _SYNTH_EXTENT, 0, n_timesteps - 1)
        for k in range(n_agents)
    ]
    tracks = [_synth_agent(spec, k, n_agents, n_timesteps, dt) for k in range(n_agents)]
    return SceneFrame.from_tracks(
        scene_id=scene_id,
        dataset_tag=dataset,
        location=location,
        dt=dt,
        agents=agents,
        tracks=tracks,
        heading_derived=False,
    )


# ---------------------------------------------------------------------------
# Binary scene cache
# ---------------------------------------------------------------------------

def scene_to_bytes(scene: SceneFrame) -> bytes:
    header = {
        "scene_id": scene.scene_id,
        "dataset_tag": scene.dataset_tag,
        "location": scene.location,
        "dt": scene.dt,
        "n_timesteps": scene.n_timesteps,
        "heading_derived": scene.heading_derived,
        "n_rows": len(scene.columns),
        "agents": [
            {
                "agent_id": m.agent_id,
                "agent_type": str(m.agent_type),
                "extent": None if m.extent is None else [m.extent.length, m.extent.width, m.extent.height],
                "first_ts": m.first_ts,
                "last_ts": m.last_ts,
            }
            for m in scene.agents
        ],
        "columns": [{"name": name, "dtype": _COLUMN_DTYPES[name]} for name in COLUMN_NAMES],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf = bytearray()
    buf += CACHE_MAGIC
    buf += struct.pack("<I", CACHE_VERSION)
    buf += struct.pack("<Q", len(header_bytes))
    buf += header_bytes
    for name in COLUMN_NAMES:
        arr = getattr(scene.columns, name)
        buf += np.ascontiguousarray(arr, dtype=np.dtype(_COLUMN_DTYPES[name]).newbyteorder("<")).tobytes()
    buf += struct.pack("<I", zlib.crc32(bytes(buf)) & 0xFFFFFFFF)
    return bytes(buf)


def scene_from_bytes(data: bytes) -> SceneFrame:
    head_len = len(CACHE_MAGIC) + 4 + 8
    if len(data) < head_len:
        raise CacheTruncatedError(f"file too short ({len(data)} bytes) to hold the cache preamble")
    if data[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise CacheVersionError(f"bad magic {data[:len(CACHE_MAGIC)]!r}, expected {CACHE_MAGIC!r}")
    (version,) = struct.unpack_from("<I", data, len(CACHE_MAGIC))
    if version != CACHE_VERSION:
        raise CacheVersionError(f"unsupported cache version {version}, expected {CACHE_VERSION}")
    (header_len,) = struct.unpack_from("<Q", data, len(CACHE_MAGIC) + 4)
    pos = head_len + header_len
    if len(data) < pos:
        raise CacheTruncatedError("file ends inside the JSON header")
    try:
        header = json.loads(data[head_len:pos].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CacheError(f"unreadable cache header: {exc}") from exc

    try:
        return _scene_from_header(header, data, pos)
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheError(f"cache header does not match the scene schema: {exc!r}") from exc


def _scene_from_header(header: dict, data: bytes, pos: int) -> SceneFrame:
    """Decode the column payload at pos as the header directs; a header lacking
    a key or holding a wrong-typed value raises KeyError, TypeError or ValueError."""
    n_rows = int(header["n_rows"])
    expected = pos
    for col in header["columns"]:
        expected += n_rows * np.dtype(col["dtype"]).itemsize
    expected += 4
    if len(data) != expected:
        raise CacheTruncatedError(f"file is {len(data)} bytes, directory expects {expected}")
    (crc_stored,) = struct.unpack_from("<I", data, len(data) - 4)
    crc_actual = zlib.crc32(data[:-4]) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise CacheChecksumError(f"CRC mismatch: stored {crc_stored:#010x}, computed {crc_actual:#010x}")

    columns: dict[str, np.ndarray] = {}
    for col in header["columns"]:
        dtype = np.dtype(col["dtype"]).newbyteorder("<")
        nbytes = n_rows * dtype.itemsize
        arr = np.frombuffer(data[pos : pos + nbytes], dtype=dtype).astype(dtype.newbyteorder("="), copy=True)
        columns[col["name"]] = arr.astype(bool) if col["name"] == "observed" else arr
        pos += nbytes

    agents = []
    for raw in header["agents"]:
        ext = raw["extent"]
        extent = None if ext is None else Extent(ext[0], ext[1], ext[2])
        agents.append(
            AgentMetadata(raw["agent_id"], AgentType.from_string(raw["agent_type"]), extent, int(raw["first_ts"]), int(raw["last_ts"]))
        )
    from .core import SceneColumns

    return SceneFrame(
        scene_id=header["scene_id"],
        dataset_tag=header["dataset_tag"],
        location=header["location"],
        dt=float(header["dt"]),
        n_timesteps=int(header["n_timesteps"]),
        agents=agents,
        columns=SceneColumns(**columns),
        heading_derived=bool(header["heading_derived"]),
    )


def _replace_file(path: Path, data: bytes) -> None:
    """Write data under a temporary name unique to this call, then rename it
    over path: readers see the old file or the new one, never a torn one."""
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _plain_name(name: str, what: str) -> str:
    """name, if it can name one file or directory inside the cache."""
    if name in ("", ".", "..") or "/" in name or "\0" in name:
        raise ValueError(f"{what} {name!r} cannot name a cache file: it must be a plain name without '/'")
    return name


def _index_entry(scene: SceneFrame, path: Path) -> dict:
    return {"scene_id": scene.scene_id, "path": path.name, "n_agents": scene.n_agents, "n_timesteps": scene.n_timesteps}


@dataclass(frozen=True)
class CacheEntry:
    tag: str
    scene_id: str
    path: Path
    n_agents: int
    n_timesteps: int


class SceneCache:
    """Directory of cached scenes: one .tksc file per scene, one index per dataset."""

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._memo: dict[Path, SceneFrame] = {}

    def _dataset_dir(self, dataset: str) -> Path:
        return self.cache_dir / _plain_name(dataset, "dataset")

    def _index_path(self, dataset: str) -> Path:
        return self._dataset_dir(dataset) / "index.json"

    def _load_index(self, dataset: str) -> dict[str, dict[str, dict]]:
        """Index entries by scene tag, then by scene id."""
        path = self._index_path(dataset)
        if not path.exists():
            return {}
        raw = json.loads(path.read_text(encoding="utf-8"))
        return {render: {e["scene_id"]: e for e in entries} for render, entries in raw.get("scenes", {}).items()}

    def _store_index(self, dataset: str, index: dict[str, dict[str, dict]]) -> None:
        scenes = {render: [entries[scene_id] for scene_id in sorted(entries)] for render, entries in index.items()}
        payload = json.dumps({"version": 1, "scenes": scenes}, sort_keys=True, indent=1)
        _replace_file(self._index_path(dataset), payload.encode("utf-8"))

    @contextmanager
    def _index_lock(self, dataset: str):
        """Exclusive lock for an index read-modify-write. It is taken on the
        dataset directory itself: a lock file would add a file to the cache."""
        fd = os.open(self._dataset_dir(dataset), os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # releases the lock

    def write(self, scene: SceneFrame) -> Path:
        return self.write_many([scene])[0]

    def write_many(self, scenes: Iterable[SceneFrame]) -> list[Path]:
        """Write the scene files, then update each dataset's index once. Every
        id is checked before anything is written."""
        scenes = list(scenes)
        paths = [self._dataset_dir(s.scene_tag().dataset) / f"{_plain_name(s.scene_id, 'scene id')}.tksc" for s in scenes]
        for scene, path in zip(scenes, paths):
            path.parent.mkdir(parents=True, exist_ok=True)
            _replace_file(path, scene_to_bytes(scene))
            self._memo.pop(path.resolve(), None)

        for dataset in dict.fromkeys(path.parent.name for path in paths):
            with self._index_lock(dataset):
                index = self._load_index(dataset)
                for scene, path in zip(scenes, paths):
                    if path.parent.name == dataset:
                        index.setdefault(scene.scene_tag().render(), {})[scene.scene_id] = _index_entry(scene, path)
                self._store_index(dataset, index)
        return paths

    def locate(self, scene_id: str) -> Path | None:
        """Cached file of the scene with this id, looked up in the dataset
        indexes; when several datasets hold it, the first in sorted order wins."""
        for ddir in sorted(p for p in self.cache_dir.iterdir() if p.is_dir()):
            for _, entries in sorted(self._load_index(ddir.name).items()):
                if scene_id in entries:
                    return ddir / entries[scene_id]["path"]
        return None

    def load_path(self, path: str | Path) -> SceneFrame:
        resolved = Path(path).resolve()
        if resolved in self._memo:
            return self._memo[resolved]
        scene = scene_from_bytes(resolved.read_bytes())
        # Every caller shares the memoized arrays, so none may write to them.
        for column in scene.columns.as_dict().values():
            column.flags.writeable = False
        self._memo[resolved] = scene
        return scene

    def resolve(self, tags: Iterable[str]) -> list[CacheEntry]:
        out: list[CacheEntry] = []
        for text in tags:
            query = SceneTag.parse(text)
            scenes = self._load_index(query.dataset)
            matched = []
            for render, entries in sorted(scenes.items()):
                if not query.matches(SceneTag.parse(render)):
                    continue
                for e in entries.values():
                    matched.append(
                        CacheEntry(render, e["scene_id"], self._dataset_dir(query.dataset) / e["path"], e["n_agents"], e["n_timesteps"])
                    )
            if not matched:
                raise UnknownTagError(f"tag {text!r} matched no cached scenes")
            out.extend(matched)
        seen: set[Path] = set()
        unique = [e for e in out if not (e.path in seen or seen.add(e.path))]
        return sorted(unique, key=lambda e: (e.tag, e.scene_id))

    def iter_scenes(self, tags: Iterable[str]) -> Iterator[SceneFrame]:
        for entry in self.resolve(tags):
            yield self.load_path(entry.path)

    def rebuild_index(self, dataset: str) -> None:
        """Regenerate a dataset's index from its scene files (idempotent)."""
        ddir = self._dataset_dir(dataset)
        scenes: dict[str, dict[str, dict]] = {}
        with self._index_lock(dataset):
            for path in sorted(ddir.glob("*.tksc")):
                scene = scene_from_bytes(path.read_bytes())
                scenes.setdefault(scene.scene_tag().render(), {})[scene.scene_id] = _index_entry(scene, path)
            self._store_index(dataset, scenes)


def cache_write(scene: SceneFrame, cache_dir: str | Path) -> Path:
    """Write one scene into the cache directory, updating its dataset index."""
    return SceneCache(cache_dir).write(scene)


def cache_load(path: str | Path) -> SceneFrame:
    """Load one scene file written by cache_write (bit-exact round trip)."""
    return scene_from_bytes(Path(path).read_bytes())


def ingest_scenes(scenes: Iterable[SceneFrame], cache_dir: str | Path) -> list[Path]:
    """Validate a batch of parsed scenes, then cache them all; an invalid
    scene leaves the cache unchanged."""
    scenes = list(scenes)
    for scene in scenes:
        violations = scene_validate(scene)
        if violations:
            raise ValidationError(scene.scene_id, violations)
    return SceneCache(cache_dir).write_many(scenes)
