"""Parsers for external trajectory formats, synthetic scene generation, and the
columnar on-disk scene cache.

The canonical CSV is the single interchange format
(``scene_id,agent_id,agent_type,frame,x,y,z,heading,length,width,height``);
adapters for licensed datasets are expected to be written externally as
converters to it. Cache files are one binary blob per scene with a CRC32
footer, one directory per dataset; the directory listing is the index. A
version-2 scene file's JSON header holds the agents' lifetimes, and its
payload the columns x ... observed; the lifetimes give agent_index and ts
(``core.row_layout``), so they are not stored.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import logging
import math
import os
import struct
import uuid
import zlib
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
    _checked_object,
    load_json,
    pack_container,
    read_container,
    row_layout,
    scene_validate,
    wrap_angle,
)
# complete_track stays importable here: the traced benchmark run (bench/spans.py) wraps it by this path.
from .kinematics import complete_track, complete_tracks  # noqa: F401

log = logging.getLogger(__name__)

CANONICAL_HEADER = ("scene_id", "agent_id", "agent_type", "frame", "x", "y", "z", "heading", "length", "width", "height")

CACHE_MAGIC = b"TKSC1\x00"
CACHE_VERSION = 2
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

def _file_layout(agents: Sequence[AgentMetadata], n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """row_layout of the agents' lifetimes once each is seen to span a timestep or more, and all n_rows; ValueError otherwise."""
    spans = [m.last_ts - m.first_ts + 1 for m in agents]
    if min(spans, default=1) < 1 or sum(spans) != n_rows:
        raise ValueError(f"agent lifetimes span {sum(spans)} rows (shortest {min(spans, default=1)}), not the {n_rows} rows stored")
    return row_layout([m.first_ts for m in agents], [m.last_ts for m in agents])


def scene_to_bytes(scene: SceneFrame) -> bytes:
    """The scene's file; ValueError when its rows do not follow its agents' lifetimes."""
    if not all(map(np.array_equal, _file_layout(scene.agents, len(scene.columns)), (scene.columns.agent_index, scene.columns.ts))):
        raise ValueError(f"scene {scene.scene_id}: rows do not follow the agents' lifetimes (one row per timestep, agent by agent)")
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
    }
    buf = pack_container(CACHE_MAGIC, CACHE_VERSION, header)
    for name, dtype in _COLUMN_DTYPES.items():
        buf += np.ascontiguousarray(getattr(scene.columns, name), dtype=dtype).tobytes()
    buf += struct.pack("<I", zlib.crc32(buf) & 0xFFFFFFFF)
    return bytes(buf)


# What read_container raises for a scene file: bad magic or version, too short, header that does not decode.
_CACHE_ERRORS = (CacheVersionError, CacheTruncatedError, CacheError)


def scene_from_bytes(data: bytes) -> SceneFrame:
    header, pos = read_container(io.BytesIO(data), len(data), CACHE_MAGIC, CACHE_VERSION, _CACHE_ERRORS)
    try:
        return _scene_from_header(header, data, pos)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: a ts beyond int64 or infinite
        raise CacheError(f"cache header does not match the scene schema: {exc!r}") from exc


def _scene_from_header(header: dict, data: bytes, pos: int) -> SceneFrame:
    """Decode the column payload at pos as the header directs; a header lacking
    a key or holding a wrong-typed value raises KeyError, TypeError or ValueError."""
    n_rows = int(header["n_rows"])
    expected = pos + n_rows * sum(dtype.itemsize for dtype in _COLUMN_DTYPES.values()) + 4
    if len(data) != expected:
        raise CacheTruncatedError(f"file is {len(data)} bytes, its header expects {expected}")
    (crc_stored,) = struct.unpack_from("<I", data, len(data) - 4)
    crc_actual = zlib.crc32(memoryview(data)[:-4]) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise CacheChecksumError(f"CRC mismatch: stored {crc_stored:#010x}, computed {crc_actual:#010x}")

    dt = float(header["dt"])
    if not 0.0 < dt < math.inf:
        raise CacheError(f"cache header dt must be finite and > 0, got {dt}")
    columns: dict[str, np.ndarray] = {}
    for name, dtype in _COLUMN_DTYPES.items():
        raw = np.frombuffer(data, dtype, count=n_rows, offset=pos)
        if name == "observed":
            bad = np.flatnonzero(raw > 1)
            if len(bad):
                raise CacheError(f"observed column holds {raw[bad[0]].item()!r} at row {bad[0]}, not 0 or 1")
        columns[name] = raw.astype(bool if name == "observed" else dtype.newbyteorder("="))
        pos += raw.nbytes

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
        dt=dt,
        n_timesteps=int(header["n_timesteps"]),
        agents=agents,
        columns=SceneColumns(*_file_layout(agents, n_rows), **columns),
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


@dataclass(frozen=True)
class CacheEntry:
    tag: str
    scene_id: str
    path: Path
    n_agents: int
    n_timesteps: int


# Header keys an entry of SceneCache.resolve reads, and the JSON types they take.
_ENTRY_HEADER_KINDS = {"scene_id": str, "dataset_tag": str, "location": str, "n_timesteps": int, "agents": list}


def _header_entry(path: Path) -> CacheEntry:
    """The entry of the scene file at path, read from its preamble and JSON
    header alone: no payload, no CRC."""
    try:
        with open(path, "rb") as f:
            header, _ = read_container(f, os.fstat(f.fileno()).st_size, CACHE_MAGIC, CACHE_VERSION, _CACHE_ERRORS)
        _checked_object(header, _ENTRY_HEADER_KINDS, _ENTRY_HEADER_KINDS, "cache header")
        base = SceneTag.parse(header["dataset_tag"])
        tag = SceneTag(base.dataset, base.split, header["location"] or None)  # as SceneFrame.scene_tag renders it
    except (CacheError, ValueError) as exc:
        raise CacheError(f"scene file {path}: {exc}") from exc
    return CacheEntry(tag.render(), header["scene_id"], path, len(header["agents"]), header["n_timesteps"])


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
        """Decode the scene file at path; every call reads it afresh."""
        scene = scene_from_bytes(Path(path).read_bytes())
        # Every metric of an analysis run shares one loaded scene, so none may write to its columns.
        for column in scene.columns.as_dict().values():
            column.flags.writeable = False
        return scene

    def resolve(self, tags: Iterable[str]) -> list[CacheEntry]:
        """Entries of the scenes the tags select, sorted by (tag, scene id).
        Every .tksc file of a queried dataset's directory is read, header
        only; a file whose header names another dataset is not listed, and
        other files (a leftover index.json, an interrupted write's .tmp) are
        ignored. CacheError when a scene file's header does not read."""
        out: list[CacheEntry] = []
        for text in tags:
            query = SceneTag.parse(text)
            entries = map(_header_entry, sorted(self._dataset_dir(query.dataset).glob("*.tksc")))
            matched = [e for e in entries if query.matches(SceneTag.parse(e.tag))]
            if not matched:
                raise UnknownTagError(f"tag {text!r} matched no cached scenes")
            out.extend(matched)
        seen: set[Path] = set()
        unique = [e for e in out if not (e.path in seen or seen.add(e.path))]
        return sorted(unique, key=lambda e: (e.tag, e.scene_id))

    def iter_scenes(self, tags: Iterable[str]) -> Iterator[SceneFrame]:
        for entry in self.resolve(tags):
            yield self.load_path(entry.path)


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
