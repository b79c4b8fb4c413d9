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
import itertools
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
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    COLUMN_NAMES,
    AgentMetadata,
    AgentType,
    Extent,
    SceneColumns,
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


# Sidecar keys and the JSON types they take; the first three are required.
_META_KINDS = {"scene_id": str, "dt": (int, float), "dataset": str, "location": str, "split": (str, type(None))}


@dataclass
class SceneMetaRecord:
    """Sidecar metadata describing one scene source."""

    scene_id: str
    dt: float
    location: str
    dataset: str
    split: str | None = None

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")

    def dataset_tag(self) -> str:
        return SceneTag(self.dataset, split=self.split).render()

    @classmethod
    def from_json(cls, text: str) -> "SceneMetaRecord":
        """Record from a JSON object; ValueError names a required key that is
        missing, a key whose value has the wrong type, or a dt that is not
        finite and > 0."""
        raw = _checked_object(json.loads(text), _META_KINDS, ("scene_id", "dt", "dataset"), "scene metadata")
        try:
            dt = float(raw["dt"])
        except OverflowError:
            raise ValueError("dt must be finite and > 0, got an integer beyond the float range") from None
        return cls(
            scene_id=raw["scene_id"],
            dt=dt,
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

class _CsvColumns(NamedTuple):
    """One scene's canonical CSV rows as columns, in file order. An optional
    cell left blank reads NaN (z reads 0.0) and False in its mask."""

    lines: np.ndarray
    agent_ids: np.ndarray
    types: np.ndarray
    frames: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    heading: np.ndarray
    length: np.ndarray
    width: np.ndarray
    height: np.ndarray
    has_heading: np.ndarray
    has_extent: np.ndarray
    has_height: np.ndarray


class _CellError(Exception):
    """A table _convert_cells rejects. The message names the first row's cell,
    so with the row's line in front it is that row's ParseError message."""


def _read_cells(table_text: str) -> tuple[list[list[str]], np.ndarray, ParseError | None]:
    """The 11 cell columns of the data rows, each row's line number, and the
    read error where reading stopped (a wrong field count or a csv.Error) or
    None; ParseError for a missing or wrong header.

    A plain text (no quote or CR, the canonical header, 11 cells on every
    further line, each within csv.field_size_limit(); a final LF ends the
    last line) is split on LF and comma. Any other text is read by
    csv.reader, blank lines skipped; a row's line is the physical line that
    ends it, as a quoted cell may hold newlines."""
    n_cells = len(CANONICAL_HEADER)
    if '"' not in table_text and "\r" not in table_text:
        header, _, body = table_text.partition("\n")
        body = body[:-1] if body.endswith("\n") else body
        rows = body.split("\n")
        n = len(rows)
        if (
            tuple(h.strip() for h in header.split(",")) == CANONICAL_HEADER
            and list(map(str.count, rows, itertools.repeat(","))).count(n_cells - 1) == n
        ):
            limit = csv.field_size_limit()
            long_line = len(body) > limit and max(map(len, rows)) > limit
            del rows
            cells = body.replace("\n", ",").split(",")
            if not long_line or max(map(len, cells)) <= limit:
                return [cells[k::n_cells] for k in range(n_cells)], np.arange(2, n + 2), None
    reader = csv.reader(io.StringIO(table_text, newline=""))
    rows, lines, error = [], [], None
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("empty input: missing canonical header")
        header = tuple(h.strip() for h in header)
        if header != CANONICAL_HEADER:
            raise ParseError(f"line 1: header {header!r} does not match canonical schema {CANONICAL_HEADER!r}")
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != n_cells:
                error = ParseError(f"line {reader.line_num}: expected {n_cells} fields, got {len(row)}")
                break
            rows.append(row)
            lines.append(reader.line_num)
    except csv.Error as exc:  # a field longer than csv.field_size_limit()
        error = ParseError(f"line {reader.line_num}: {exc}")
    return [list(col) for col in zip(*rows)] or [[] for _ in CANONICAL_HEADER], np.array(lines, dtype=np.int64), error


def _floats(cells: list[str], column: str) -> np.ndarray:
    try:
        return np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        raise _CellError(f"malformed numeric cell {cells[0].strip()!r} in column {column}") from None


def _optional_column(cells: list[str], column: str) -> tuple[np.ndarray, np.ndarray]:
    """Values of a column, NaN where a cell is blank, and which cells are not."""
    given = list(map(bool, cells))
    try:
        present = np.fromiter(map(float, itertools.compress(cells, given)), dtype=np.float64)
    except ValueError:  # a cell of spaces or a tab is blank; strip only when a cell fails
        cells = list(map(str.strip, cells))
        given = list(map(bool, cells))
        present = _floats(list(itertools.compress(cells, given)), column)
    mask = np.array(given, dtype=bool)
    values = np.full(len(cells), np.nan)
    values[mask] = present
    return values, mask


def _convert_cells(cols: list[list[str]], lines: np.ndarray) -> _CsvColumns:
    """The rows of _read_cells as one table, the text cells stripped; _CellError
    if a cell does not convert or only one extent cell is given. A row's cells
    are checked in schema order, the extent pair last."""
    try:
        types = {cell: AgentType.from_string(cell.strip()) for cell in set(cols[2])}
    except ValueError as exc:
        raise _CellError(str(exc)) from None
    try:  # int() and float() ignore the whitespace a strip removes
        frames = np.fromiter(map(int, cols[3]), dtype=np.int64, count=len(lines))
    except ValueError:
        raise _CellError(f"frame {cols[3][0].strip()!r} is not an integer") from None
    except OverflowError:
        raise _CellError(f"frame {cols[3][0].strip()!r} does not fit in int64") from None
    x, y = _floats(cols[4], "x"), _floats(cols[5], "y")
    (z, has_z), (heading, has_heading), (length, has_extent), (width, has_width), (height, has_height) = map(
        _optional_column, cols[6:], CANONICAL_HEADER[6:]
    )
    if not np.array_equal(has_extent, has_width):
        raise _CellError("extent needs both length and width (or neither)")
    z[~has_z] = 0.0
    agent_ids = {cell: cell.strip() for cell in set(cols[1])}
    return _CsvColumns(
        lines, np.array(list(map(agent_ids.__getitem__, cols[1])), dtype=object),
        np.array(list(map(types.__getitem__, cols[2])), dtype=object),
        frames, x, y, z, heading, length, width, height, has_heading, has_extent, has_height,
    )


def _first_row_error(cols: list[list[str]], lines: np.ndarray) -> ParseError:
    """The error of the first row of a table _convert_cells rejects: halve the
    rows until that row fails alone (about 2n rows converted in all) and put
    its line in front of the message."""
    lo, hi = 0, len(lines)
    while True:
        mid = max((lo + hi) // 2, lo + 1)
        try:
            _convert_cells([col[lo:mid] for col in cols], lines[lo:mid])
            lo = mid
        except _CellError as exc:
            if mid == lo + 1:
                return ParseError(f"line {lines[lo]}: {exc}")
            hi = mid


def _read_canonical(table_text: str) -> dict[str, _CsvColumns]:
    """Scenes by scene_id, each in file order; ParseError names the first
    malformed line, as a bad cell before the line where reading stopped
    wins over the read error."""
    cols, lines, error = _read_cells(table_text)
    try:
        table = _convert_cells(cols, lines)
    except _CellError:
        raise _first_row_error(cols, lines) from None
    if error is not None:
        raise error
    if not len(lines):
        raise ParseError("no data rows after header")
    scene_ids = {cell: cell.strip() for cell in set(cols[0])}
    distinct = sorted(set(scene_ids.values()))
    if len(distinct) == 1:
        return {distinct[0]: table}
    rank = {scene_id: k for k, scene_id in enumerate(distinct)}
    cell_rank = {cell: rank[scene_id] for cell, scene_id in scene_ids.items()}
    scene_of = np.fromiter(map(cell_rank.__getitem__, cols[0]), dtype=np.intp, count=len(lines))
    order = np.argsort(scene_of, kind="stable")
    bounds = np.searchsorted(scene_of[order], np.arange(len(distinct) + 1)).tolist()
    return {sid: table._make(col[order[lo:hi]] for col in table) for sid, lo, hi in zip(distinct, bounds, bounds[1:])}


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
    ids = sorted(set(agent_ids))
    rank = dict(zip(ids, range(len(ids))))
    agent = np.fromiter(map(rank.__getitem__, agent_ids), dtype=np.intp, count=len(frames))
    order = np.lexsort((ts, agent))
    agent, ts = agent[order], ts[order]
    repeats = 1 + np.flatnonzero((agent[1:] == agent[:-1]) & (ts[1:] == ts[:-1]))
    repeat = int(repeats[0]) if repeats.size else len(order)
    offsets = np.searchsorted(agent, np.arange(len(ids) + 1))
    return ids, order, ts, offsets, int(np.append(agent, len(ids))[repeat]), repeat


def _build_scene(scene_id: str, cols: _CsvColumns, meta: SceneMetaRecord) -> SceneFrame:
    ids, order, ts, offsets, repeat_agent, repeat = _agent_tracks(cols.agent_ids, cols.frames, cols.lines)
    # An agent's extent comes from its first row (in frame order) that has one.
    first_with = np.minimum.reduceat(np.where(cols.has_extent[order], np.arange(len(order)), len(order)), offsets[:-1])
    extent_rows = np.append(order, -1)[first_with]
    # Agents are checked in order, a repeated frame before the extent.
    extents = [
        None if r < 0 else Extent(float(cols.length[r]), float(cols.width[r]), float(cols.height[r]) if cols.has_height[r] else None)
        for r in extent_rows[:repeat_agent].tolist()
    ]
    if repeat_agent < len(ids):
        raise ParseError(f"agent {ids[repeat_agent]}: non-monotone frames (duplicate frame {cols.frames[order[repeat]]})")
    headings_given = bool(cols.has_heading.all())
    first, last, columns = complete_tracks(
        offsets, ts, cols.x[order], cols.y[order], cols.z[order], meta.dt, cols.heading[order] if headings_given else None
    )
    agents = [AgentMetadata(agent_id, cols.types[r], extent, f, l) for agent_id, r, extent, f, l
              in zip(ids, order[offsets[:-1]].tolist(), extents, first.tolist(), last.tolist())]
    return SceneFrame(
        scene_id, meta.dataset_tag(), meta.location, float(meta.dt), int(last.max()) + 1, agents, columns, not headings_given
    )


def parse_canonical_csv_many(table_text: str, meta: SceneMetaRecord) -> list[SceneFrame]:
    """Parse a canonical CSV that may hold several scenes (grouped by scene_id).

    A plain text (no quote or CR, no blank line, 11 cells on every line) is
    split on LF and comma; any other text is read by csv.reader. Either way
    the cells are converted a column at a time, and ParseError names the
    first malformed line in file order."""
    return [_build_scene(scene_id, cols, meta) for scene_id, cols in sorted(_read_canonical(table_text).items())]


def parse_canonical_csv(table_text: str, meta: SceneMetaRecord) -> SceneFrame:
    """Parse a single-scene canonical CSV into a SceneFrame.

    Rows may arrive in any order (they are re-sorted); duplicate frames for an
    agent are rejected. Velocities and accelerations are always derived from
    positions; headings are kept only when every row provides one. The text
    is read as parse_canonical_csv_many reads it.
    """
    groups = _read_canonical(table_text)
    if len(groups) != 1:
        raise ParseError(f"expected a single scene, found scene_ids {sorted(groups)}")
    scene_id, cols = next(iter(groups.items()))
    return _build_scene(scene_id, cols, meta)


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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: a ts beyond int64 or infinite
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
        extent = None
        if raw["extent"] is not None:
            length, width, height = raw["extent"]  # ValueError unless exactly three values
            extent = Extent(length, width, height)
        agents.append(
            AgentMetadata(raw["agent_id"], AgentType.from_string(raw["agent_type"]), extent, int(raw["first_ts"]), int(raw["last_ts"]))
        )
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


_ENTRY_KINDS = {"scene_id": str, "path": str, "n_agents": int, "n_timesteps": int}


def _checked_entry(entry) -> dict:
    """entry, if it holds each key _index_entry writes, with its type, and a
    path that names a file inside the dataset directory."""
    _checked_object(entry, _ENTRY_KINDS, _ENTRY_KINDS, "index entry")
    _plain_name(entry["path"], "index path")
    return entry


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

    def _dataset_dir(self, dataset: str) -> Path:
        return self.cache_dir / _plain_name(dataset, "dataset")

    def _index_path(self, dataset: str) -> Path:
        return self._dataset_dir(dataset) / "index.json"

    def _load_index(self, dataset: str) -> dict[str, dict[str, dict]]:
        """Index entries by scene tag, then by scene id; CacheError when the
        index is not shaped as _store_index writes it."""
        path = self._index_path(dataset)
        if not path.exists():
            return {}
        try:
            raw = _checked_object(json.loads(path.read_text(encoding="utf-8")), {"scenes": dict}, (), "cache index")
            scenes = raw.get("scenes", {})
            _checked_object(scenes, dict.fromkeys(scenes, list), (), "cache index scenes")
            return {render: {e["scene_id"]: _checked_entry(e) for e in entries} for render, entries in scenes.items()}
        except ValueError as exc:
            raise CacheError(f"malformed cache index {path}: {exc}") from exc

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
        """Decode the scene file at path; every call reads it afresh."""
        scene = scene_from_bytes(Path(path).read_bytes())
        # Every metric of an analysis run shares one loaded scene, so none may write to its columns.
        for column in scene.columns.as_dict().values():
            column.flags.writeable = False
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
