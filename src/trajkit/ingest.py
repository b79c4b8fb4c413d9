"""Parsers for external trajectory formats, synthetic scene generation, and the
columnar on-disk scene cache.

The canonical CSV is the single interchange format
(``scene_id,agent_id,agent_type,frame,x,y,z,heading,length,width,height``);
adapters for licensed datasets are expected to be written externally as
converters to it. Cache files are one binary blob per scene with a CRC32
footer, one directory per dataset; the directory listing is the index. A
version-3 scene file's JSON header holds the scene's fields and its agent
table as one list per column, and its payload the columns x ... observed;
the scene derives agent_index, ts and n_timesteps from the lifetimes, so
none of them is stored.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import struct
import uuid
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    COLUMN_NAMES,
    NO_EXTENT,
    TYPE_NAMES,
    AgentType,
    Extent,
    SceneColumns,
    SceneFrame,
    SceneTag,
    _checked_object,
    extent_row,
    load_json,
    pack_container,
    read_container,
    scene_validate,
    type_codes,
    wrap_angle,
)
# complete_track stays importable here: the traced benchmark run (bench/spans.py) wraps it by this path.
from .kinematics import complete_track, complete_tracks  # noqa: F401

CANONICAL_HEADER = ("scene_id", "agent_id", "agent_type", "frame", "x", "y", "z", "heading", "length", "width", "height")

CACHE_MAGIC = b"TKSC1\x00"
CACHE_VERSION = 3
_COLUMN_DTYPES = {name: np.dtype("u1" if name == "observed" else "<f8") for name in COLUMN_NAMES[2:]}


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
    """File shorter (or longer) than its header says it should be."""


class CacheChecksumError(CacheError):
    """CRC32 footer does not match the file contents."""


class UnknownTagError(KeyError):
    """A requested scene tag matched nothing in the cache."""


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
        raw = _checked_object(load_json(text), _META_KINDS, ("scene_id", "dt", "dataset"), "scene metadata")
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
        return json.dumps(asdict(self), sort_keys=True)


# ---------------------------------------------------------------------------
# Canonical CSV
# ---------------------------------------------------------------------------

class _CsvColumns(NamedTuple):
    """One scene's canonical CSV rows as columns, in file order: types holds
    type codes. An optional cell left blank reads NaN (z reads 0.0) and False
    in its mask."""

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
    distinct = list(set(cols[2]))
    try:
        types = dict(zip(distinct, type_codes([cell.strip() for cell in distinct]).tolist()))
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
        np.fromiter(map(types.__getitem__, cols[2]), dtype=np.uint8, count=len(lines)),
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


def _complete_scene(scene_id, meta, ids, type_code, extent, offsets, ts, x, y, z, heading=None) -> SceneFrame:
    """The scene of rows ordered by agent, then frame; ParseError for a lifetime past the row budget."""
    try:
        first, last, columns = complete_tracks(offsets, ts, x, y, z, meta.dt, heading, ids)
    except ValueError as exc:  # lifetimes beyond the row budget
        raise ParseError(str(exc)) from None
    return SceneFrame(
        scene_id, meta.dataset_tag(), meta.location, float(meta.dt), agent_ids=ids, type_code=type_code,
        first_ts=first, last_ts=last, extent=extent, columns=columns, heading_derived=heading is None,
    )


def _build_scene(scene_id: str, cols: _CsvColumns, meta: SceneMetaRecord) -> SceneFrame:
    ids, order, ts, offsets, repeat_agent, repeat = _agent_tracks(cols.agent_ids, cols.frames, cols.lines)
    # An agent's extent comes from its first row (in frame order) that has one.
    first_with = np.minimum.reduceat(np.where(cols.has_extent[order], np.arange(len(order)), len(order)), offsets[:-1])
    extent_rows = np.append(order, -1)[first_with]
    # Agents are checked in order, a repeated frame before the extent.
    extent = []
    for agent_id, r in zip(ids, extent_rows[:repeat_agent].tolist()):
        try:
            extent.append(
                extent_row(None if r < 0 else Extent(float(cols.length[r]), float(cols.width[r]), float(cols.height[r]) if cols.has_height[r] else None))
            )
        except ValueError as exc:
            raise ParseError(f"line {cols.lines[r]}: agent {agent_id}: {exc}") from None
    if repeat_agent < len(ids):
        raise ParseError(f"agent {ids[repeat_agent]}: non-monotone frames (duplicate frame {cols.frames[order[repeat]]})")
    heading = cols.heading[order] if cols.has_heading.all() else None
    return _complete_scene(
        scene_id, meta, ids, cols.types[order[offsets[:-1]]], extent, offsets, ts, cols.x[order], cols.y[order], cols.z[order], heading
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
    cols = scene.columns
    rows = cols.observed if observed_only else slice(None)
    names = [TYPE_NAMES[code] for code in scene.type_code.tolist()]
    extents = [["" if math.isnan(v) else repr(v) for v in e] for e in scene.extent.tolist()]  # NaN: no extent, or no height
    heading = itertools.repeat("") if scene.heading_derived else map(repr, cols.heading[rows].tolist())
    xyz = (map(repr, c[rows].tolist()) for c in (cols.x, cols.y, cols.z))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CANONICAL_HEADER)
    writer.writerows(
        [scene.scene_id, scene.agent_ids[a], names[a], ts, x, y, z, h, *extents[a]]
        for a, ts, x, y, z, h in zip(cols.agent_index[rows].tolist(), cols.ts[rows].tolist(), *xyz, heading)
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
    return _complete_scene(
        meta.scene_id, meta, tuple(map(str, ids)), type_codes([AgentType.PEDESTRIAN.value] * len(ids)), [NO_EXTENT] * len(ids),
        offsets, ts, np.array(x)[order], np.array(y)[order], np.zeros(len(order)),
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

_SYNTH_EXTENT = (4.0, 2.0, 1.5)  # length, width and height of every synthetic agent


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
    tracks = [_synth_agent(spec, k, n_agents, n_timesteps, dt) for k in range(n_agents)]
    return SceneFrame(
        scene_id, dataset, location, float(dt), agent_ids=[f"a{k}" for k in range(n_agents)],
        type_code=type_codes([agent_type.value] * n_agents), first_ts=[0] * n_agents, last_ts=[n_timesteps - 1] * n_agents,
        extent=[_SYNTH_EXTENT] * n_agents, columns=SceneColumns.concat(tracks), heading_derived=False,
    )


# ---------------------------------------------------------------------------
# Binary scene cache
# ---------------------------------------------------------------------------

def scene_to_bytes(scene: SceneFrame) -> bytes:
    """The scene's file: its header and value columns, which its lifetimes lay out."""
    header = {
        "scene_id": scene.scene_id,
        "dataset_tag": scene.dataset_tag,
        "location": scene.location,
        "dt": float(scene.dt),
        "heading_derived": scene.heading_derived,
        "n_rows": len(scene.columns),
        "agent_ids": scene.agent_ids,
        "agent_types": np.asarray(TYPE_NAMES)[scene.type_code].tolist(),
        "first_ts": scene.first_ts.tolist(),
        "last_ts": scene.last_ts.tolist(),
        "extent": np.where(np.isnan(scene.extent), None, scene.extent).tolist(),
    }
    buf = pack_container(CACHE_MAGIC, CACHE_VERSION, header)
    for name, dtype in _COLUMN_DTYPES.items():
        buf += np.ascontiguousarray(getattr(scene.columns, name), dtype=dtype).tobytes()
    buf += struct.pack("<I", zlib.crc32(buf) & 0xFFFFFFFF)
    return bytes(buf)


# The keys of a scene file's header, every one required, and the JSON types they
# take: the agent table is one list per column, extent a row per agent with null for NaN.
_HEADER_KINDS = {
    "scene_id": str, "dataset_tag": str, "location": str, "dt": float, "heading_derived": bool, "n_rows": int,
    "agent_ids": list, "agent_types": list, "first_ts": list, "last_ts": list, "extent": list,
}


def _read_header(header) -> SceneTag:
    """The tag of a scene file's header. ValueError unless it holds every key
    of _HEADER_KINDS with a value of that type, a dt finite and > 0, ids and
    type names that are strings, no id twice, and extent rows of three
    numbers or nulls, none NaN; SceneFrame checks lifetimes and extent boxes."""
    _checked_object(header, _HEADER_KINDS, _HEADER_KINDS, "cache header")
    if not 0.0 < header["dt"] < math.inf:
        raise ValueError(f"cache header dt must be finite and > 0, got {header['dt']}")
    for key in ("agent_ids", "agent_types"):
        if {*map(type, header[key])} - {str}:
            raise ValueError(f"cache header {key} holds {next(v for v in header[key] if type(v) is not str)!r}, not a string")
    ids = header["agent_ids"]
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        raise ValueError(f"cache header agent_ids lists the agent id {next(i for i in ids if i in seen or seen.add(i))!r} more than once")
    cells = [c for row in header["extent"] if type(row) is list and len(row) == 3 for c in row]
    if len(cells) < 3 * len(header["extent"]) or {*map(type, cells)} - {int, float, type(None)} or any(c != c for c in cells):
        raise ValueError("cache header extent must hold a row of three numbers or nulls per agent, none of them NaN")
    base = SceneTag.parse(header["dataset_tag"])
    return SceneTag(base.dataset, base.split, header["location"] or None)  # as SceneFrame.scene_tag renders it


# What read_container raises for a scene file: bad magic or version, too short, header that does not decode.
_CACHE_ERRORS = (CacheVersionError, CacheTruncatedError, CacheError)
_SCHEMA_ERROR = "cache header does not match the scene schema: {!r}"


def scene_from_bytes(data: bytes) -> SceneFrame:
    header, pos = read_container(io.BytesIO(data), len(data), CACHE_MAGIC, CACHE_VERSION, _CACHE_ERRORS)
    try:
        _read_header(header)
    except ValueError as exc:
        raise CacheError(_SCHEMA_ERROR.format(exc)) from exc
    return _scene_from_header(header, data, pos)


def _scene_from_header(header, data: bytes, pos: int) -> SceneFrame:
    """Decode the column payload at pos as the header, which _read_header has
    checked, directs; CacheError for a header SceneFrame refuses."""
    n_rows = header["n_rows"]
    expected = pos + n_rows * sum(dtype.itemsize for dtype in _COLUMN_DTYPES.values()) + 4
    if len(data) != expected:
        raise CacheTruncatedError(f"file is {len(data)} bytes, its header expects {expected}")
    (crc_stored,) = struct.unpack_from("<I", data, len(data) - 4)
    crc_actual = zlib.crc32(memoryview(data)[:-4]) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise CacheChecksumError(f"CRC mismatch: stored {crc_stored:#010x}, computed {crc_actual:#010x}")

    columns: dict[str, np.ndarray] = {}
    for name, dtype in _COLUMN_DTYPES.items():
        raw = np.frombuffer(data, dtype, count=n_rows, offset=pos)
        if name == "observed":
            bad = np.flatnonzero(raw > 1)
            if len(bad):
                raise CacheError(f"observed column holds {raw[bad[0]].item()!r} at row {bad[0]}, not 0 or 1")
        columns[name] = raw.astype(bool if name == "observed" else dtype.newbyteorder("="))
        pos += raw.nbytes

    try:
        return SceneFrame(
            header["scene_id"], header["dataset_tag"], header["location"], header["dt"], agent_ids=header["agent_ids"],
            type_code=type_codes(header["agent_types"]), first_ts=header["first_ts"], last_ts=header["last_ts"],
            extent=header["extent"], columns=SceneColumns(**columns), heading_derived=header["heading_derived"],
        )
    except (ValueError, OverflowError) as exc:  # OverflowError: an extent integer beyond the float range
        raise CacheError(_SCHEMA_ERROR.format(exc)) from exc


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


@contextlib.contextmanager
def _naming(path: Path) -> Iterator[None]:
    """Re-raise a CacheError as its class, or a ValueError as a CacheError, naming the scene file."""
    try:
        yield
    except (CacheError, ValueError) as exc:
        raise (type(exc) if isinstance(exc, CacheError) else CacheError)(f"scene file {path}: {exc}") from exc


@dataclass(frozen=True)
class CacheEntry:
    tag: str
    scene_id: str
    path: Path
    n_agents: int


class SceneCache:
    """Directory of cached scenes: one directory per dataset holding one
    ``<scene_id>.tksc`` file per scene. The directory is the index: each
    file's header carries the scene's tag, and nothing else is written.
    Files of another format version raise CacheVersionError; such a cache is
    rebuilt by ingesting its sources again."""

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    def _dataset_dir(self, dataset: str) -> Path:
        return self.cache_dir / _plain_name(dataset, "dataset")

    def write(self, scene: SceneFrame) -> Path:
        return self.write_many([scene])[0]

    def write_many(self, scenes: Iterable[SceneFrame]) -> list[Path]:
        """Replace each scene's file atomically. Every id is checked before
        anything is written."""
        scenes = list(scenes)
        paths = [self._dataset_dir(s.scene_tag().dataset) / f"{_plain_name(s.scene_id, 'scene id')}.tksc" for s in scenes]
        for scene, path in zip(scenes, paths):
            path.parent.mkdir(parents=True, exist_ok=True)
            _replace_file(path, scene_to_bytes(scene))
        return paths

    def locate(self, scene_id: str) -> Path | None:
        """Cached file of the scene with this id, found by its file name; when
        several datasets hold it, the first in sorted order wins."""
        name = f"{_plain_name(scene_id, 'scene id')}.tksc"
        for ddir in sorted(p for p in self.cache_dir.iterdir() if p.is_dir()):
            if (ddir / name).is_file():
                return ddir / name
        return None

    def load_path(self, path: str | Path) -> SceneFrame:
        """Decode the scene file at path, read-only, afresh on every call; a
        CacheError names the file, and refuses a misnamed file as a query does."""
        return self._read_file(Path(path), lambda tag: True)[2]

    @staticmethod
    def _read_file(path: Path, decode: Callable[[SceneTag], bool]) -> tuple[SceneTag, dict, SceneFrame | None]:
        """(tag, header, scene if decode(tag) else None) of the scene file at path,
        opened once: its header is read and checked, then for a scene to decode the
        whole file is read from that same open file, so a file that a concurrent
        writer replaces is never decoded under its old tag. A CacheError names the file."""
        with _naming(path), open(path, "rb") as f:
            header, pos = read_container(f, os.fstat(f.fileno()).st_size, CACHE_MAGIC, CACHE_VERSION, _CACHE_ERRORS)
            tag = _read_header(header)
            if header["scene_id"] != path.stem:
                raise CacheError(f"header names scene {header['scene_id']!r}, not {path.stem!r}: a scene file is named <scene id>.tksc")
            if not decode(tag):
                return tag, header, None
            f.seek(0)
            scene = _scene_from_header(header, f.read(), pos)
        for column in scene.columns.as_dict().values():  # the metrics of an analysis run share one loaded scene
            column.flags.writeable = False
        return tag, header, scene

    def _walk(self, tags: Iterable[str], decode: bool) -> Iterator[tuple[SceneTag, Path, dict, SceneFrame | None]]:
        """(tag, path, header, scene if decode else None) of each file the tags
        select, in iter_scenes' order, each .tksc file of a queried dataset read
        once; once a dataset is read, UnknownTagError for its first query that
        matched none of its files."""
        queries: dict[str, dict[str, SceneTag]] = {}
        for text in tags:
            query = SceneTag.parse(text)
            queries.setdefault(query.dataset, {})[text] = query
        for dataset, named in queries.items():
            selects = lambda tag: any(query.matches(tag) for query in named.values())  # noqa: E731
            read = []
            for path in sorted(self._dataset_dir(dataset).glob("*.tksc")):
                tag, header, scene = self._read_file(path, lambda tag: decode and selects(tag))
                read.append(tag)
                if selects(tag):
                    yield tag, path, header, scene
                del scene  # not held past the next file's decode
            for text, query in named.items():
                if not any(map(query.matches, read)):
                    raise UnknownTagError(f"tag {text!r} matched no cached scenes")

    def resolve(self, tags: Iterable[str]) -> list[CacheEntry]:
        """Entries of the scenes the tags select, sorted by (tag, scene id), read
        from the file headers alone. A file whose header names another dataset
        is not listed; other files (a leftover index.json, an interrupted
        write's .tmp) are ignored."""
        return sorted((CacheEntry(tag.render(), header["scene_id"], path, len(header["agent_ids"]))
                       for tag, path, header, _ in self._walk(tags, decode=False)), key=lambda e: (e.tag, e.scene_id))

    def iter_scenes(self, tags: Iterable[str]) -> Iterator[SceneFrame]:
        """The scenes resolve lists, read-only as load_path's, one file at a
        time: dataset by dataset in the order the tags first name them, in
        sorted file order within one. A selected file is decoded from the bytes
        its tag was read from and dropped before the next file is opened; an
        unselected one is read up to its header. A fault surfaces when the
        iteration reaches it: a CacheError naming its file, an UnknownTagError
        once its query's dataset is read."""
        return map(itemgetter(3), self._walk(tags, decode=True))


def cache_write(scene: SceneFrame, cache_dir: str | Path) -> Path:
    """Write one scene's file into its dataset's directory of the cache."""
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
