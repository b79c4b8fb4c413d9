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
import io
import json
import logging
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

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
from .kinematics import complete_track

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
        x = _parse_float(row[4].strip(), line_no, "x")
        y = _parse_float(row[5].strip(), line_no, "y")
        z = _parse_optional_float(row[6], line_no, "z")
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


def _build_scene(scene_id: str, raw_rows: list[tuple], meta: SceneMetaRecord) -> SceneFrame:
    by_agent: dict[str, list[tuple]] = {}
    for row in raw_rows:
        by_agent.setdefault(row[1], []).append(row)

    min_frame = min(row[3] for row in raw_rows)
    headings_given = all(row[7] is not None for row in raw_rows)

    agents: list[AgentMetadata] = []
    tracks: list[dict[str, np.ndarray]] = []
    for agent_id in sorted(by_agent):
        rows = sorted(by_agent[agent_id], key=lambda r: r[3])
        frames = np.array([r[3] - min_frame for r in rows], dtype=np.int64)
        dup = np.nonzero(np.diff(frames) == 0)[0]
        if dup.size:
            raise ParseError(
                f"agent {agent_id}: non-monotone frames (duplicate frame {int(frames[dup[0]]) + min_frame})"
            )
        xs = np.array([r[4] for r in rows])
        ys = np.array([r[5] for r in rows])
        zs = np.array([0.0 if r[6] is None else r[6] for r in rows])
        heading = np.array([r[7] for r in rows]) if headings_given else None
        first_ts, track, heading_derived = complete_track(frames, xs, ys, zs, meta.dt, heading)
        extent = None
        for r in rows:
            if r[8] is not None:
                extent = Extent(r[8], r[9], r[10])
                break
        agent_type = rows[0][2]
        last_ts = first_ts + len(track["x"]) - 1
        agents.append(AgentMetadata(agent_id, agent_type, extent, first_ts, last_ts))
        tracks.append(track)

    scene = SceneFrame.from_tracks(
        scene_id=scene_id,
        dataset_tag=meta.dataset_tag(),
        location=meta.location,
        dt=meta.dt,
        agents=agents,
        tracks=tracks,
        heading_derived=not headings_given,
    )
    return scene


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
    records: list[tuple[int, int, float, float]] = []
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
        if frame_f != int(frame_f) or id_f != int(id_f):
            raise ParseError(f"line {line_no}: frame and id must be integral")
        records.append((int(frame_f), int(id_f), x, y))
    if not records:
        raise ParseError("no agents: input has no data lines")

    min_frame = min(r[0] for r in records)
    offsets = sorted({r[0] - min_frame for r in records})
    step = 0
    for off in offsets:
        step = math.gcd(step, off)
    if step == 0:
        step = 1

    by_agent: dict[int, list[tuple[int, float, float]]] = {}
    for frame, agent, x, y in records:
        by_agent.setdefault(agent, []).append(((frame - min_frame) // step, x, y))

    agents: list[AgentMetadata] = []
    tracks: list[dict[str, np.ndarray]] = []
    for agent in sorted(by_agent):
        rows = sorted(by_agent[agent])
        ts = np.array([r[0] for r in rows], dtype=np.int64)
        if np.any(np.diff(ts) == 0):
            raise ParseError(f"agent {agent}: duplicate frame")
        xs = np.array([r[1] for r in rows])
        ys = np.array([r[2] for r in rows])
        first_ts, track, _ = complete_track(ts, xs, ys, np.zeros(len(ts)), meta.dt)
        last_ts = first_ts + len(track["x"]) - 1
        agents.append(AgentMetadata(str(agent), AgentType.PEDESTRIAN, None, first_ts, last_ts))
        tracks.append(track)

    return SceneFrame.from_tracks(
        scene_id=meta.scene_id,
        dataset_tag=meta.dataset_tag(),
        location=meta.location,
        dt=meta.dt,
        agents=agents,
        tracks=tracks,
        heading_derived=True,
    )


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
        return self.cache_dir / dataset

    def _index_path(self, dataset: str) -> Path:
        return self._dataset_dir(dataset) / "index.json"

    def _load_index(self, dataset: str) -> dict[str, list[dict]]:
        path = self._index_path(dataset)
        if not path.exists():
            return {}
        raw = json.loads(path.read_text(encoding="utf-8"))
        return raw.get("scenes", {})

    def _store_index(self, dataset: str, scenes: dict[str, list[dict]]) -> None:
        for entries in scenes.values():
            entries.sort(key=lambda e: e["scene_id"])
        payload = json.dumps({"version": 1, "scenes": scenes}, sort_keys=True, indent=1)
        path = self._index_path(dataset)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, path)

    def write(self, scene: SceneFrame) -> Path:
        tag = scene.scene_tag()
        ddir = self._dataset_dir(tag.dataset)
        ddir.mkdir(parents=True, exist_ok=True)
        path = ddir / f"{scene.scene_id}.tksc"
        path.write_bytes(scene_to_bytes(scene))
        self._memo.pop(path.resolve(), None)

        scenes = self._load_index(tag.dataset)
        entries = scenes.setdefault(tag.render(), [])
        entries[:] = [e for e in entries if e["scene_id"] != scene.scene_id]
        entries.append(
            {
                "scene_id": scene.scene_id,
                "path": path.name,
                "n_agents": scene.n_agents,
                "n_timesteps": scene.n_timesteps,
            }
        )
        self._store_index(tag.dataset, scenes)
        return path

    def load_path(self, path: str | Path) -> SceneFrame:
        resolved = Path(path).resolve()
        if resolved in self._memo:
            return self._memo[resolved]
        scene = scene_from_bytes(resolved.read_bytes())
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
                for e in entries:
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
        scenes: dict[str, list[dict]] = {}
        for path in sorted(ddir.glob("*.tksc")):
            scene = scene_from_bytes(path.read_bytes())
            render = scene.scene_tag().render()
            scenes.setdefault(render, []).append(
                {"scene_id": scene.scene_id, "path": path.name, "n_agents": scene.n_agents, "n_timesteps": scene.n_timesteps}
            )
        self._store_index(dataset, scenes)


def cache_write(scene: SceneFrame, cache_dir: str | Path) -> Path:
    """Write one scene into the cache directory, updating its dataset index."""
    return SceneCache(cache_dir).write(scene)


def cache_load(path: str | Path) -> SceneFrame:
    """Load one scene file written by cache_write (bit-exact round trip)."""
    return scene_from_bytes(Path(path).read_bytes())


def ingest_scenes(scenes: Iterable[SceneFrame], cache_dir: str | Path) -> list[Path]:
    """Validate and cache a batch of parsed scenes."""
    cache = SceneCache(cache_dir)
    paths = []
    for scene in scenes:
        violations = scene_validate(scene)
        if violations:
            raise ValidationError(scene.scene_id, violations)
        paths.append(cache.write(scene))
    return paths
