import contextlib
import csv
import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trajkit
from trajkit import ingest
from trajkit.cli import main
from trajkit.core import AgentType, scene_validate
from trajkit.ingest import (
    CacheChecksumError,
    CacheError,
    CacheTruncatedError,
    CacheVersionError,
    Circle,
    ParseError,
    SceneCache,
    SceneMetaRecord,
    StopAndGo,
    Straight,
    UnknownTagError,
    ValidationError,
    cache_load,
    cache_write,
    ingest_scenes,
    parse_canonical_csv,
    parse_canonical_csv_many,
    parse_frame_text,
    scene_from_bytes,
    scene_to_bytes,
    synth_scene,
    write_canonical_csv,
)

from conftest import UNDECODABLE_HEADERS, random_scene, replace_header, rewrite_json_header
from oracles import _read_canonical_rows, _rows_to_columns, reference_write_canonical_csv
from test_completion import random_csv

HEADER = "scene_id,agent_id,agent_type,frame,x,y,z,heading,length,width,height"


def _meta(**overrides) -> SceneMetaRecord:
    base = dict(scene_id="s0", dt=0.1, location="nowhere", dataset="toy", split=None)
    base.update(overrides)
    return SceneMetaRecord(**base)


def _csv(rows) -> str:
    return HEADER + "\n" + "\n".join(rows) + "\n"


class TestCanonicalCsv:
    def test_minimal_two_agents(self):
        text = _csv(
            [
                "s0,a,vehicle,0,0.0,0.0,,,,,",
                "s0,a,vehicle,1,1.0,0.0,,,,,",
                "s0,a,vehicle,2,2.0,0.0,,,,,",
                "s0,b,pedestrian,0,0.0,5.0,,,,,",
                "s0,b,pedestrian,1,0.0,5.5,,,,,",
                "s0,b,pedestrian,2,0.0,6.0,,,,,",
            ]
        )
        scene = parse_canonical_csv(text, _meta())
        assert scene_validate(scene) == []
        assert scene.n_agents == 2
        assert scene.columns.observed.all()
        a = scene.rows_for_agent(0)
        assert np.allclose(scene.columns.vx[a], 10.0)  # 1 m per 0.1 s
        assert scene.heading_derived

    def test_gap_imputed(self):
        text = _csv(
            [
                "s0,a,vehicle,0,0.0,0.0,,,,,",
                "s0,a,vehicle,1,1.0,0.0,,,,,",
                "s0,a,vehicle,3,3.0,0.0,,,,,",
            ]
        )
        scene = parse_canonical_csv(text, _meta())
        sl = scene.rows_for_agent(0)
        assert np.array_equal(scene.columns.ts[sl], [0, 1, 2, 3])
        assert np.array_equal(scene.columns.observed[sl], [True, True, False, True])
        assert scene.columns.x[sl][2] == pytest.approx(2.0)
        assert scene_validate(scene) == []

    def test_malformed_numeric_cell_names_line(self):
        text = _csv(['s0,a,vehicle,0,"12,3",0.0,,,,,'])
        with pytest.raises(ParseError, match="line 2"):
            parse_canonical_csv(text, _meta())

    def test_unknown_agent_type_names_line(self):
        text = _csv(["s0,a,hovercraft,0,0.0,0.0,,,,,"])
        with pytest.raises(ParseError, match="line 2.*hovercraft"):
            parse_canonical_csv(text, _meta())

    def test_duplicate_frame_is_non_monotone(self):
        text = _csv(["s0,a,vehicle,1,0.0,0.0,,,,,", "s0,a,vehicle,1,1.0,0.0,,,,,"])
        with pytest.raises(ParseError, match="non-monotone.*a"):
            parse_canonical_csv(text, _meta())

    def test_header_mismatch(self):
        with pytest.raises(ParseError, match="header"):
            parse_canonical_csv("a,b,c\n1,2,3\n", _meta())

    @pytest.mark.parametrize("text, message", [
        ("", "empty input: missing canonical header"),
        (HEADER + "\n", "no data rows after header"),
    ], ids=["empty", "header-only"])
    def test_input_without_data_rows(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_canonical_csv(text, _meta())
        assert str(info.value) == message

    def test_extent_needs_both_dims(self):
        text = _csv(["s0,a,vehicle,0,0.0,0.0,,,4.5,,"])
        with pytest.raises(ParseError, match="extent"):
            parse_canonical_csv(text, _meta())

    @pytest.mark.parametrize("cells, named", [
        ("-1,2.0,", "extent length must be > 0, got -1.0"),
        ("0,2.0,", "extent length must be > 0, got 0.0"),
        ("nan,2.0,", "extent length must be > 0, got nan"),
        ("4.5,0,", "extent width must be > 0, got 0.0"),
        ("4.5,2.0,-1", "extent height must be > 0 when present, got -1.0"),
    ])
    def test_bad_extent_names_line_and_agent(self, cells, named):
        # Agent b's extent comes from its first row in frame order that has one: line 4.
        text = _csv(["s0,a,vehicle,0,0.0,0.0,,,4.5,2.0,", "s0,b,vehicle,1,1.0,0.0,,,,,", f"s0,b,vehicle,0,0.0,0.0,,,{cells}"])
        with pytest.raises(ParseError) as info:
            parse_canonical_csv(text, _meta())
        assert str(info.value) == f"line 4: agent b: {named}"

    def test_oversized_field_names_line(self):
        text = _csv(["s0,a,vehicle,0,0.0,0.0,,,,,", "s0," + "b" * (csv.field_size_limit() + 1) + ",vehicle,0,0.0,0.0,,,,,"])
        with pytest.raises(ParseError, match=r"^line 3: field larger than field limit"):
            parse_canonical_csv(text, _meta())

    def test_error_after_a_multiline_cell_names_its_physical_line(self):
        text = _csv(['s0,"a\nb",vehicle,0,0.0,0.0,,,,,', "s0,c,vehicle,0,zero,0.0,,,,,"])
        with pytest.raises(ParseError, match=r"^line 4: malformed numeric cell 'zero' in column x"):
            parse_canonical_csv(text, _meta())

    def test_row_order_insensitive(self):
        rows = [
            "s0,a,vehicle,2,2.0,0.0,,,,,",
            "s0,b,vehicle,0,0.0,5.0,,,,,",
            "s0,a,vehicle,0,0.0,0.0,,,,,",
            "s0,b,vehicle,1,1.0,5.0,,,,,",
            "s0,a,vehicle,1,1.0,0.0,,,,,",
        ]
        rng = np.random.default_rng(0)
        scenes = []
        for _ in range(5):
            shuffled = list(rows)
            rng.shuffle(shuffled)
            scenes.append(parse_canonical_csv(_csv(shuffled), _meta()))
        assert all(s == scenes[0] for s in scenes)

    def test_crlf_line_endings(self):
        text = _csv(["s0,a,vehicle,0,0.0,0.0,,,,,", "s0,a,vehicle,1,1.0,0.0,,,,,"]).replace("\n", "\r\n")
        scene = parse_canonical_csv(text, _meta())
        assert scene.n_agents == 1 and scene_validate(scene) == []

    def test_frames_renumbered_to_zero(self):
        text = _csv(["s0,a,vehicle,100,0.0,0.0,,,,,", "s0,a,vehicle,101,1.0,0.0,,,,,"])
        scene = parse_canonical_csv(text, _meta())
        assert scene.agents[0].first_ts == 0

    def test_heading_kept_only_when_complete(self):
        with_heading = _csv(
            ["s0,a,vehicle,0,0.0,0.0,,1.0,,,", "s0,a,vehicle,1,0.0,1.0,,1.5,,,"]
        )
        scene = parse_canonical_csv(with_heading, _meta())
        assert not scene.heading_derived
        assert np.allclose(scene.columns.heading, [1.0, 1.5])

        partial = _csv(["s0,a,vehicle,0,0.0,0.0,,1.0,,,", "s0,a,vehicle,1,0.0,1.0,,,,,"])
        scene = parse_canonical_csv(partial, _meta())
        assert scene.heading_derived

    def test_extent_parsed(self):
        text = _csv(["s0,a,vehicle,0,0.0,0.0,,,4.5,2.0,1.7", "s0,a,vehicle,1,1.0,0.0,,,4.5,2.0,1.7"])
        scene = parse_canonical_csv(text, _meta())
        ext = scene.agents[0].extent
        assert (ext.length, ext.width, ext.height) == (4.5, 2.0, 1.7)

    def test_multi_scene_file(self):
        text = _csv(
            [
                "s0,a,vehicle,0,0.0,0.0,,,,,",
                "s0,a,vehicle,1,1.0,0.0,,,,,",
                "s1,a,vehicle,0,0.0,0.0,,,,,",
                "s1,a,vehicle,1,2.0,0.0,,,,,",
            ]
        )
        scenes = parse_canonical_csv_many(text, _meta())
        assert [s.scene_id for s in scenes] == ["s0", "s1"]
        with pytest.raises(ParseError, match="single scene"):
            parse_canonical_csv(text, _meta())

    def test_nan_cell_parses_then_fails_validation(self):
        text = _csv(["s0,a,vehicle,0,nan,0.0,,,,,", "s0,a,vehicle,1,1.0,0.0,,,,,"])
        scene = parse_canonical_csv(text, _meta())
        assert scene_validate(scene) != []
        with pytest.raises(ValidationError):
            ingest_scenes([scene], "/tmp/unused-cache-dir")

    def test_fuzz_round_trip_validates(self):
        rng = np.random.default_rng(42)
        for i in range(10):
            scene = random_scene(rng, scene_id=f"fz{i}")
            text = write_canonical_csv(scene, observed_only=True)
            re = parse_canonical_csv(text, _meta(scene_id=f"fz{i}"))
            assert scene_validate(re) == []
            # poses of observed rows survive the text round trip bit-exactly
            obs = scene.columns.observed
            assert np.array_equal(re.columns.x[re.columns.observed], scene.columns.x[obs])
            assert np.array_equal(re.columns.y[re.columns.observed], scene.columns.y[obs])


    @pytest.mark.parametrize("frame", ["99999999999999999999999", "-9223372036854775809"])
    def test_frame_beyond_int64_names_line(self, frame):
        text = _csv(["s0,a,vehicle,0,0.0,0.0,,,,,", f"s0,a,vehicle,{frame},1.0,0.0,,,,,"])
        with pytest.raises(ParseError, match="line 3.*int64"):
            parse_canonical_csv(text, _meta())

    def test_frames_spanning_more_than_int64_name_line(self):
        text = _csv(["s0,a,vehicle,-9223372036854775808,0.0,0.0,,,,,", "s0,b,vehicle,9223372036854775807,1.0,0.0,,,,,"])
        with pytest.raises(ParseError, match="line 3: frame 9223372036854775807 is more than"):
            parse_canonical_csv(text, _meta())

    def test_int64_extreme_frames_parse(self):
        text = _csv(["s0,a,vehicle,9223372036854775806,0.0,0.0,,,,,", "s0,a,vehicle,9223372036854775807,1.0,0.0,,,,,"])
        scene = parse_canonical_csv(text, _meta())
        assert (scene.agents[0].first_ts, scene.agents[0].last_ts) == (0, 1)


def _row_loop_parse(text: str, meta: SceneMetaRecord) -> list:
    """parse_canonical_csv_many with every text read by the reference row loop."""
    groups = _read_canonical_rows(text)
    return [ingest._build_scene(scene_id, _rows_to_columns(rows), meta) for scene_id, rows in sorted(groups.items())]


def _split_read(text: str) -> bool:
    """Whether the reader splits text itself, without csv.reader."""
    calls, reader = [], csv.reader
    with pytest.MonkeyPatch.context() as mp, contextlib.suppress(ParseError):
        mp.setattr(csv, "reader", lambda *args, **kwargs: calls.append(args) or reader(*args, **kwargs))
        ingest._read_cells(text)
    return not calls


def _scene_bytes_or_error(parse, text: str):
    """scene_to_bytes of every scene parse gives, or the class and message of what it raised."""
    with np.errstate(all="ignore"):  # the random CSVs hold NaN and infinite poses
        try:
            return [scene_to_bytes(scene) for scene in parse(text, _meta())]
        except (ParseError, ValueError) as exc:
            return type(exc), str(exc)


# Mutations of one line of a clean CSV. The first six are valid CSV that only
# csv.reader reads (a quote, CR or blank line); the rest change a cell or a
# line, and of those a wrong field count or an over-long cell also leaves the
# text to csv.reader.
_DECLINED = ("quoted", "quoted_comma", "crlf", "cr", "blank", "trailing_blank")
_NOT_PLAIN = _DECLINED + ("missing", "extra", "over_limit")
_MUTATIONS = _DECLINED + (
    "nul", "whitespace", "missing", "extra", "agent_type", "frame", "float", "int64", "half_extent", "over_limit",
    "blank_cell",
)


def _mutate(rng, text: str, kind: str) -> str:
    header, *lines = text[:-1].split("\n")
    k = int(rng.integers(len(lines)))
    cells = lines[k].split(",")
    c = int(rng.integers(len(cells)))
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "cr":
        return text.replace("\n", "\r")
    if kind == "trailing_blank":
        return text + rng.choice(["\n", "\n \n"])
    if kind == "blank":
        lines.insert(k, rng.choice(["", " ", "\t"]))
        return "\n".join([header, *lines]) + "\n"
    if kind == "quoted":
        cells[c] = f'"{cells[c]}"'
    elif kind == "quoted_comma":
        cells[1] = f'"{cells[1]},x"'
    elif kind == "nul":
        cells[c] += "\x00"
    elif kind == "whitespace":
        cells[c] = f" {cells[c]}\t"
    elif kind == "missing":
        del cells[c]
    elif kind == "extra":
        cells.insert(c, "1")
    elif kind == "agent_type":
        cells[2] = rng.choice(["truck", ""])
    elif kind == "frame":
        cells[3] = rng.choice(["1.5", "x", ""])
    elif kind == "float":
        cells[int(rng.integers(4, 11))] = rng.choice(["abc", "1.5e", "--1"])
    elif kind == "int64":
        cells[3] = rng.choice(["9223372036854775808", "-9223372036854775809"])
    elif kind == "half_extent":
        cells[8:10] = ["2.5", ""] if rng.random() < 0.5 else ["", "1.5"]
    elif kind == "over_limit":
        cells[c] = "9" * (csv.field_size_limit() + 1)
    elif kind == "blank_cell":
        cells[int(rng.integers(6, 11))] = rng.choice([" ", "  ", "\t", " \t "])
    lines[k] = ",".join(cells)
    return "\n".join([header, *lines]) + "\n"


class TestColumnRead:
    """The reader of parse_canonical_csv_many against the reference row loop
    on the random CSVs of test_completion, clean and mutated: equal scene
    bytes or the same error class and message."""

    @pytest.mark.parametrize("faults", [False, True])
    def test_clean_texts_are_read_by_columns(self, faults):
        rng = np.random.default_rng(300 + faults)
        for _ in range(60):
            text = random_csv(rng, faults)
            assert _split_read(text)
            assert _scene_bytes_or_error(parse_canonical_csv_many, text) == _scene_bytes_or_error(_row_loop_parse, text)

    @pytest.mark.parametrize("kind", _MUTATIONS)
    def test_mutated_texts_match_row_loop(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        outcomes = set()
        for _ in range(25):
            text = _mutate(rng, random_csv(rng, False), kind)
            want = _scene_bytes_or_error(_row_loop_parse, text)
            assert _scene_bytes_or_error(parse_canonical_csv_many, text) == want
            assert _split_read(text) == (kind not in _NOT_PLAIN)
            outcomes.add(isinstance(want, tuple))
        if kind in ("missing", "extra", "agent_type", "frame", "int64", "half_extent", "over_limit"):
            assert outcomes == {True}
        elif kind in _DECLINED:
            assert outcomes == {False}
        elif kind == "blank_cell":  # a blank length or width can leave half an extent
            assert False in outcomes

    def test_interleaved_scenes_split_by_columns(self):
        rows = [f"s{k % 3},a{k % 2},vehicle,{k},{k}.0,0.0,,,,," for k in range(12)] + [" s1 ,a0,vehicle,99,1.0,0.0,,,,,"]
        text = _csv(rows)
        groups = ingest._read_canonical(text)
        assert sorted(groups) == ["s0", "s1", "s2"]
        assert groups["s1"].lines.tolist() == [3, 6, 9, 12, 14]
        assert _scene_bytes_or_error(parse_canonical_csv_many, text) == _scene_bytes_or_error(_row_loop_parse, text)

    def test_bad_cell_before_read_error_wins(self):
        for rows, message in [
            (["s0,a,vehicle,0,x,0.0,,,,,", "s0,a,vehicle,1,1.0,0.0,,,,"], "line 2: malformed numeric cell 'x' in column x"),
            (["s0,a,vehicle,0,0.0,0.0,,,,,", 's0,a,"vehicle,1,1.0,0.0,,,,,'], "line 3: expected 11 fields, got 3"),
            (["s0,a,truck,0,0.0,0.0,,,,,", "9" * (csv.field_size_limit() + 1)], "line 2: unknown agent type 'truck'"),
            (["s0,a,vehicle,0,0.0,0.0,,,,,", "s0,a,vehicle,1,1.0,0.0,,,,,,", "s0,a,vehicle,x,1.0,0.0,,,,,"],
             "line 3: expected 11 fields, got 12"),
        ]:
            text = _csv(rows)
            want = _scene_bytes_or_error(_row_loop_parse, text)
            assert want[0] is ParseError and want[1].startswith(message)
            assert _scene_bytes_or_error(parse_canonical_csv_many, text) == want

    def test_error_path_converts_linearly_many_rows(self, monkeypatch):
        n = 50_000
        rows = [f"s0,a{k % 100},vehicle,{k // 100},{k}.5,0.25,,,,," for k in range(n - 1)] + ["s0,a0,vehicle,999,1.0,0.0,,,2.5,,"]
        text = _csv(rows)
        with pytest.raises(ParseError) as want:
            _read_canonical_rows(text)
        converted = []
        convert = ingest._convert_cells
        monkeypatch.setattr(ingest, "_convert_cells", lambda cols, lines: converted.append(len(lines)) or convert(cols, lines))
        with pytest.raises(ParseError) as got:
            parse_canonical_csv_many(text, _meta())
        assert str(got.value) == str(want.value) == f"line {n + 1}: extent needs both length and width (or neither)"
        assert converted[0] == n and sum(converted) <= 3 * n
        assert converted[-1] == 1 and len(converted) <= n.bit_length() + 2  # halving, not a row-by-row scan


class TestWriteCanonicalCsv:
    def test_equals_the_row_loop(self):
        # random_csv gives scenes with and without headings, extents and heights,
        # and some NaN and infinite poses; the ids with a comma and quotes make
        # the writer quote them.
        rng = np.random.default_rng(310)
        headings = set()
        for k in range(30):
            with np.errstate(all="ignore"):
                scenes = parse_canonical_csv_many(random_csv(rng, False), _meta())
            for scene in scenes:
                scene = dataclasses.replace(scene, agent_ids=[f'{a},"{k}"' for a in scene.agent_ids])
                headings.add(scene.heading_derived)
                for observed_only in (False, True):
                    assert write_canonical_csv(scene, observed_only) == reference_write_canonical_csv(scene, observed_only)
        assert headings == {False, True}


class TestFrameText:
    def test_two_lines_speed(self):
        scene = parse_frame_text("0 1 0.0 0.0\n1 1 1.0 0.0\n", _meta(dt=0.4))
        assert scene.n_agents == 1
        assert scene.agents[0].agent_type is AgentType.PEDESTRIAN
        assert np.allclose(scene.columns.vx, 2.5)

    def test_empty_input(self):
        with pytest.raises(ParseError, match="no agents"):
            parse_frame_text("\n\n", _meta())

    def test_interleaved_ids(self):
        text = "0 1 0.0 0.0\n0 2 5.0 0.0\n1 1 1.0 0.0\n2 2 6.0 0.0\n"
        scene = parse_frame_text(text, _meta(dt=0.4))
        by_id = {m.agent_id: m for m in scene.agents}
        assert (by_id["1"].first_ts, by_id["1"].last_ts) == (0, 1)
        assert (by_id["2"].first_ts, by_id["2"].last_ts) == (0, 2)

    def test_frame_stride_folding(self):
        text = "6 1 0.0 0.0\n12 1 1.0 0.0\n18 1 2.0 0.0\n"
        scene = parse_frame_text(text, _meta(dt=0.4))
        assert np.array_equal(scene.columns.ts, [0, 1, 2])
        assert scene_validate(scene) == []

    def test_non_numeric_field_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_frame_text("0 1 0.0 0.0\n1 1 x 0.0\n", _meta())

    def test_fractional_frame_rejected(self):
        with pytest.raises(ParseError, match="integral"):
            parse_frame_text("0.5 1 0.0 0.0\n", _meta())

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1 0.0 0.0\ninf 1 1.0 0.0\n", "line 2: frame and id must be integral"),
            ("0 1 0.0 0.0\nnan 1 1.0 0.0\n", "line 2: frame and id must be integral"),
            ("0 1 0.0 0.0\n1 -inf 1.0 0.0\n", "line 2: frame and id must be integral"),
            ("0 1 0.0 0.0\n1 1 1.0 0.0\n1e300 1 2.0 0.0\n", "line 3: frame '1e300' does not fit in int64"),
            ("-9.3e18 1 0.0 0.0\n", "line 1: frame '-9.3e18' does not fit in int64"),
            ("-9e18 1 0.0 0.0\n9e18 1 1.0 0.0\n", "line 2: frame 9000000000000000000 is more than"),
        ],
        ids=["inf-frame", "nan-frame", "inf-id", "1e300-frame", "below-int64", "span-beyond-int64"],
    )
    def test_frame_not_finite_or_beyond_int64_names_line(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_frame_text(text, _meta())

    @pytest.mark.parametrize("line", ["1", "1 1", "1 1 1.0"])
    def test_too_few_fields_names_line(self, line):
        with pytest.raises(ParseError) as info:
            parse_frame_text(f"0 1 0.0 0.0\n{line}\n", _meta())
        assert str(info.value) == f"line 2: expected at least 4 fields, got {len(line.split())}"

    def test_extra_fields_ignored(self):
        scene = parse_frame_text("0 1 0.0 0.0 99 98\n1 1 1.0 0.0 99 98\n", _meta())
        assert scene.n_agents == 1


class TestSynthScene:
    def test_straight(self):
        scene = synth_scene(Straight(10.0), 1, 11, 0.1)
        assert scene.columns.x[-1] - scene.columns.x[0] == pytest.approx(10.0, abs=1e-9)
        speed = np.hypot(scene.columns.vx, scene.columns.vy)
        assert np.allclose(speed, 10.0, atol=1e-9)
        assert scene_validate(scene) == []

    def test_circle_closed_form(self):
        r, w, dt = 10.0, 0.1, 0.1
        scene = synth_scene(Circle(r, w), 1, 50, dt)
        speed = np.hypot(scene.columns.vx, scene.columns.vy)
        accel = np.hypot(scene.columns.ax, scene.columns.ay)
        assert np.allclose(speed, r * w, rtol=1e-12)
        assert np.allclose(accel, r * w * w, rtol=1e-12)
        dh = np.diff(np.unwrap(scene.columns.heading))
        assert np.allclose(dh, w * dt, rtol=1e-9)

    def test_stop_and_go_plateau_thresholds(self):
        g = 9.81
        scene = synth_scene(StopAndGo(((0.0, 10), (0.5 * g, 20), (0.0, 30))), 1, 60, 0.1)
        mag = np.hypot(scene.columns.ax, scene.columns.ay)
        exceed = mag > 0.4 * g
        assert exceed.sum() == 20
        assert np.array_equal(np.nonzero(exceed)[0], np.arange(10, 30))
        assert scene_validate(scene) == []

    def test_multi_agent_offsets(self):
        scene = synth_scene(Straight(5.0), 3, 10, 0.1)
        assert scene.n_agents == 3
        ys = [scene.columns.y[scene.rows_for_agent(i)][0] for i in range(3)]
        assert ys == [0.0, 5.0, 10.0]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            synth_scene(Straight(0.0), 1, 10, 0.1)
        with pytest.raises(ValueError):
            synth_scene(Circle(-1.0, 0.1), 1, 10, 0.1)
        with pytest.raises(ValueError):
            synth_scene(Straight(1.0), 0, 10, 0.1)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_stop_and_go_rejects_a_non_positive_step_count(self, steps):
        with pytest.raises(ValueError, match="segment step counts must be positive"):
            StopAndGo(((1.0, 5), (0.0, steps)))

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan])
    def test_non_positive_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be > 0"):
            synth_scene(Straight(1.0), 1, 10, dt)

    def test_unknown_spec_rejected(self):
        with pytest.raises(TypeError, match="unknown synth spec 'zigzag'"):
            synth_scene("zigzag", 1, 10, 0.1)


class TestCache:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(20):
            scene = random_scene(rng, scene_id=f"rt{i}")
            path = cache_write(scene, tmp_path)
            assert cache_load(path) == scene

    def test_file_stores_nine_columns(self, tmp_path):
        # agent_index and ts are not stored: the lifetimes in the header give them.
        scene = random_scene(np.random.default_rng(2), n_agents=5)
        data = cache_write(scene, tmp_path).read_bytes()
        (header_len,) = struct.unpack_from("<Q", data, 10)
        assert len(data) == 18 + header_len + 65 * len(scene.columns) + 4
        assert "columns" not in json.loads(data[18 : 18 + header_len])

    @pytest.mark.parametrize("n_timesteps", [0, 5, -3, 100, 10**6])
    def test_header_n_timesteps_is_not_read(self, tmp_path, n_timesteps):
        # The scene derives n_timesteps from its lifetimes; a header key of that name is not read.
        scene = synth_scene(Straight(1.0), 3, 100, 0.1)
        path = cache_write(scene, tmp_path)
        data = path.read_bytes()
        assert "n_timesteps" not in json.loads(data[18 : 18 + struct.unpack_from("<Q", data, 10)[0]])
        path.write_bytes(rewrite_json_header(data, lambda h: h.update(n_timesteps=n_timesteps), crc=True))
        again = cache_load(path)
        assert again == scene and again.n_timesteps == 100
        assert scene_to_bytes(again) == data

    def test_truncated_by_one_byte(self, tmp_path):
        scene = synth_scene(Straight(1.0), 1, 5, 0.1)
        path = cache_write(scene, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(CacheTruncatedError):
            cache_load(path)

    def test_magic_altered(self, tmp_path):
        scene = synth_scene(Straight(1.0), 1, 5, 0.1)
        path = cache_write(scene, tmp_path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CacheVersionError):
            cache_load(path)

    def test_version_mismatch(self, tmp_path):
        scene = synth_scene(Straight(1.0), 1, 5, 0.1)
        path = cache_write(scene, tmp_path)
        data = bytearray(path.read_bytes())
        data[6] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(CacheVersionError):
            cache_load(path)

    def test_payload_corruption_fails_checksum(self, tmp_path):
        scene = synth_scene(Straight(1.0), 1, 5, 0.1)
        path = cache_write(scene, tmp_path)
        data = bytearray(path.read_bytes())
        data[-20] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CacheChecksumError):
            cache_load(path)

    def test_header_keys_are_the_reader_schema(self):
        # The writer's keys and JSON types are the ones the reader checks; extent says "none" with null.
        scene = dataclasses.replace(random_scene(np.random.default_rng(3), n_agents=3),
                                    extent=[[4.0, 2.0, 1.5], [4.0, 2.0, math.nan], [math.nan] * 3])
        data = scene_to_bytes(scene)
        header = json.loads(data[18 : 18 + struct.unpack_from("<Q", data, 10)[0]])
        assert set(header) == set(ingest._HEADER_KINDS)
        assert all(isinstance(header[key], kind) for key, kind in ingest._HEADER_KINDS.items())
        assert header["extent"] == [[4.0, 2.0, 1.5], [4.0, 2.0, None], [None, None, None]]
        again = scene_from_bytes(data)
        assert again == scene and scene_to_bytes(again) == data

    def test_write_is_deterministic(self):
        scene = synth_scene(Circle(5.0, 0.2), 2, 20, 0.1)
        assert scene_to_bytes(scene) == scene_to_bytes(scene)

    def test_index_resolution(self, tmp_path):
        cache = SceneCache(tmp_path)
        cache.write(synth_scene(Straight(1.0), 1, 5, 0.1, scene_id="sA", dataset="dsa", location="loc1"))
        cache.write(synth_scene(Straight(1.0), 1, 5, 0.1, scene_id="sB", dataset="dsa", location="loc2"))
        assert [e.scene_id for e in cache.resolve(["dsa"])] == ["sA", "sB"]
        assert [e.scene_id for e in cache.resolve(["dsa-loc2"])] == ["sB"]
        with pytest.raises(UnknownTagError):
            cache.resolve(["dsb"])
        with pytest.raises(UnknownTagError):
            cache.resolve(["dsa-loc3"])

    def test_rewrite_same_scene_keeps_one_entry(self, tmp_path):
        cache = SceneCache(tmp_path)
        scene = synth_scene(Straight(1.0), 1, 5, 0.1, dataset="dsa")
        cache.write(scene)
        cache.write(scene)
        assert len(cache.resolve(["dsa"])) == 1

    def test_rewrite_under_another_location_moves_the_tag(self, tmp_path):
        cache = SceneCache(tmp_path)
        cache.write(synth_scene(Straight(1.0), 1, 5, 0.1, scene_id="s1", dataset="d", location="boston"))
        path = cache.write(synth_scene(Straight(1.0), 2, 5, 0.1, scene_id="s1", dataset="d", location="pittsburgh"))
        with pytest.raises(UnknownTagError):
            cache.resolve(["d-boston"])
        (entry,) = cache.resolve(["d-pittsburgh"])
        assert (entry.tag, entry.path, entry.n_agents) == ("d-pittsburgh", path, cache_load(path).n_agents)
        assert [e.tag for e in cache.resolve(["d"])] == ["d-pittsburgh"]

    def test_entries_come_from_the_file_headers(self, tmp_path):
        cache = SceneCache(tmp_path)
        scenes = [
            synth_scene(Straight(1.0), 3, 7, 0.1, scene_id="sA", dataset="dsa", location="loc1"),
            synth_scene(Straight(1.0), 2, 9, 0.1, scene_id="sB", dataset="dsa-train", location=""),
        ]
        cache.write_many(scenes)
        entries = cache.resolve(["dsa"])
        assert [(e.tag, e.scene_id, e.n_agents) for e in entries] == [("dsa-loc1", "sA", 3), ("dsa-train", "sB", 2)]
        assert cache.resolve(["dsa-train", "dsa"]) == entries  # overlapping queries list a file once
        for entry, scene in zip(entries, scenes):
            assert entry.tag == scene.scene_tag().render()
            assert entry.path == tmp_path / "dsa" / f"{scene.scene_id}.tksc"

    def test_file_naming_another_dataset_is_not_listed(self, tmp_path):
        cache = SceneCache(tmp_path)
        path = cache.write(synth_scene(Straight(1.0), 1, 5, 0.1, scene_id="sA", dataset="dsa"))
        (tmp_path / "dsb").mkdir()
        (tmp_path / "dsb" / "sA.tksc").write_bytes(path.read_bytes())
        with pytest.raises(UnknownTagError):
            cache.resolve(["dsb"])
        assert [e.path for e in cache.resolve(["dsa"])] == [path]

    @pytest.mark.parametrize("read", [
        lambda cache: cache.resolve(["dsa"]),
        lambda cache: list(cache.iter_scenes(["dsa"])),
    ], ids=["resolve", "iter_scenes"])
    def test_file_not_named_by_its_scene_id_is_refused(self, tmp_path, read):
        # s1.tksc, a copy of it named zz.tksc, and tmp.tksc holding another scene whose id is s1.
        cache = SceneCache(tmp_path / "cache")
        path = cache.write(synth_scene(Straight(1.0), 1, 5, 0.1, scene_id="s1", dataset="dsa"))
        copy, renamed = path.with_name("zz.tksc"), path.with_name("tmp.tksc")
        copy.write_bytes(path.read_bytes())
        SceneCache(tmp_path / "other").write(synth_scene(Straight(2.0), 2, 5, 0.1, scene_id="s1", dataset="dsa")).rename(renamed)
        for bad, stem in ((renamed, "tmp"), (copy, "zz")):
            with pytest.raises(CacheError) as info:
                read(cache)
            assert type(info.value) is CacheError
            assert str(info.value) == f"scene file {bad}: header names scene 's1', not {stem!r}: a scene file is named <scene id>.tksc"
            bad.unlink()
        assert [s.scene_id for s in cache.iter_scenes(["dsa"])] == ["s1"]

    def test_other_files_are_ignored(self, tmp_path):
        cache = SceneCache(tmp_path)
        path = cache.write(synth_scene(Straight(1.0), 1, 5, 0.1, scene_id="sA", dataset="dsa"))
        for name in ("index.json", f".sA.tksc.{'0' * 32}.tmp", "notes.txt"):
            (tmp_path / "dsa" / name).write_bytes(b"\x00garbage")
        assert [e.path for e in cache.resolve(["dsa"])] == [path]

    @pytest.mark.parametrize("damage", [
        lambda data: b"",
        lambda data: data[:3],
        lambda data: data[:12],
        lambda data: data[:30],
        lambda data: data[:10] + struct.pack("<Q", 2**62) + data[18:],
        lambda data: replace_header(data, UNDECODABLE_HEADERS["deep"], crc=True),
    ], ids=["empty", "in-magic", "in-preamble", "in-header", "huge-header-length", "deep-header"])
    def test_unreadable_header_raises_even_if_not_queried(self, tmp_path, damage):
        cache = SceneCache(tmp_path)
        cache.write(synth_scene(Straight(1.0), 1, 5, 0.1, scene_id="sA", dataset="dsa", location="loc1"))
        path = cache.write(synth_scene(Straight(1.0), 1, 5, 0.1, scene_id="sB", dataset="dsa", location="loc2"))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(CacheError):
            cache.resolve(["dsa-loc1"])

    @staticmethod
    def _split_cache(tmp_path) -> SceneCache:
        cache = SceneCache(tmp_path)
        cache.write_many([
            synth_scene(Straight(1.0), 1, 5, 0.1, scene_id="sA", dataset="dsa-train", location="loc1"),
            synth_scene(Straight(1.0), 2, 6, 0.1, scene_id="sB", dataset="dsa-val", location="loc2"),
            synth_scene(Straight(1.0), 3, 7, 0.1, scene_id="sC", dataset="dsa", location="loc1"),
            synth_scene(Straight(1.0), 1, 8, 0.1, scene_id="sD", dataset="dsb", location=""),
        ])
        return cache

    @pytest.mark.parametrize("tags", [
        ["dsa"], ["dsa-train"], ["dsa-loc1"], ["dsa-val-loc2"], ["dsa-train", "dsa"], ["dsa-loc1", "dsa-train-loc1", "dsb"], ["dsb", "dsa-val"],
    ], ids=["dataset", "split", "location", "split-location", "overlapping", "overlapping-location", "two-datasets"])
    def test_iter_scenes_yields_what_resolve_lists(self, tmp_path, tags):
        # iter_scenes streams dataset by dataset in the order the tags first name them, files in sorted
        # order within one; resolve lists the same scenes sorted by (tag, scene id).
        cache = self._split_cache(tmp_path)
        entries = cache.resolve(tags)
        scenes = list(cache.iter_scenes(tags))
        by_tag = sorted(scenes, key=lambda s: (s.scene_tag().render(), s.scene_id))
        assert [(s.scene_tag().render(), s.scene_id) for s in by_tag] == [(e.tag, e.scene_id) for e in entries]
        assert by_tag == [cache.load_path(e.path) for e in entries]
        datasets = list(dict.fromkeys(tag.split("-")[0] for tag in tags))  # in the order the tags first name them
        streamed = sorted(entries, key=lambda e: (datasets.index(e.path.parent.name), e.path))
        assert [(s.scene_tag().render(), s.scene_id) for s in scenes] == [(e.tag, e.scene_id) for e in streamed]
        assert not any(column.flags.writeable for s in scenes for column in s.columns.as_dict().values())

    @pytest.mark.parametrize("tags", [["dsa", "dsc"], ["dsa-test", "dsa"], ["dsb", "dsa-loc3"]])
    def test_iter_scenes_raises_unknown_tag_as_resolve_does(self, tmp_path, tags):
        cache = self._split_cache(tmp_path)
        with pytest.raises(UnknownTagError) as listed:
            cache.resolve(tags)
        with pytest.raises(UnknownTagError) as iterated:
            list(cache.iter_scenes(tags))  # raised once the query's dataset is read, not before the first scene
        assert str(iterated.value) == str(listed.value)

    def test_broken_payload_of_another_split_does_not_stop_a_split_query(self, tmp_path):
        cache = self._split_cache(tmp_path)
        path = tmp_path / "dsa" / "sB.tksc"
        data = bytearray(path.read_bytes())
        data[-40] ^= 0xFF  # the payload and its CRC no longer agree
        path.write_bytes(bytes(data))
        assert [s.scene_id for s in cache.iter_scenes(["dsa-train"])] == ["sA"]
        with pytest.raises(CacheChecksumError):
            list(cache.iter_scenes(["dsa"]))

    @pytest.mark.parametrize("damage, error", [
        (lambda data: data[:6] + struct.pack("<I", 2) + data[10:], CacheVersionError),
        (lambda data: data[:-40] + bytes([data[-40] ^ 0xFF]) + data[-39:], CacheChecksumError),
        (lambda data: rewrite_json_header(data, lambda h: h.update(scene_id=7), crc=True), CacheError),
    ], ids=["version-2", "payload", "header-schema"])
    @pytest.mark.parametrize("read", [
        lambda cache, path: next(cache.iter_scenes(["dsa"])),
        lambda cache, path: cache.load_path(path),
    ], ids=["iter_scenes", "load_path"])
    def test_a_fault_names_its_file_and_keeps_its_class(self, tmp_path, damage, error, read):
        cache = SceneCache(tmp_path)
        path = cache.write(synth_scene(Straight(1.0), 1, 5, 0.1, scene_id="sA", dataset="dsa"))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(CacheError) as info:
            read(cache, path)
        assert type(info.value) is error and str(info.value).startswith(f"scene file {path}: ")

    def test_header_read_reads_no_payload(self, tmp_path):
        cache = SceneCache(tmp_path)
        path = cache.write(synth_scene(Straight(1.0), 4, 500, 0.1, scene_id="sA", dataset="dsa"))
        data = bytearray(path.read_bytes())
        data[-40] ^= 0xFF  # the payload and its CRC no longer agree
        path.write_bytes(bytes(data))
        (entry,) = cache.resolve(["dsa"])
        assert entry.n_agents == 4
        with pytest.raises(CacheChecksumError):
            cache.load_path(entry.path)

    @pytest.mark.parametrize("edit, named", [
        (lambda h: h.pop("dataset_tag"), "dataset_tag"),
        (lambda h: h.update(location=None), "location"),
        (lambda h: h.update(agent_ids={}), "agent_ids"),
        (lambda h: h.update(scene_id=7), "scene_id"),
        (lambda h: h.update(location="a-b"), "a-b"),
    ], ids=["no-dataset_tag", "null-location", "object-agents", "int-scene_id", "dash-location"])
    def test_header_of_the_wrong_shape_raises(self, tmp_path, edit, named):
        cache = SceneCache(tmp_path)
        path = cache.write(synth_scene(Straight(1.0), 1, 5, 0.1, scene_id="sA", dataset="dsa"))
        path.write_bytes(rewrite_json_header(path.read_bytes(), edit, crc=True))
        with pytest.raises(CacheError, match=named):
            cache.resolve(["dsa"])

    def test_locate_by_file_name(self, tmp_path):
        cache = SceneCache(tmp_path)
        path = cache.write(synth_scene(Straight(1.0), 1, 5, 0.1, scene_id="sA", dataset="dsb"))
        (tmp_path / "dsa").mkdir()
        (tmp_path / "dsa" / "index.json").write_text("{}")
        assert cache.locate("sA") == path
        path.unlink()
        assert cache.locate("sA") is None
        with pytest.raises(ValueError, match="plain name"):
            cache.locate("../sA")

    def test_cached_scene_is_read_only(self, tmp_path):
        cache = SceneCache(tmp_path)
        path = cache.write(synth_scene(Straight(1.0), 2, 5, 0.1, dataset="dsa"))
        scene = cache.load_path(path)
        before = scene.columns.x.copy()
        with pytest.raises(ValueError, match="read-only"):
            scene.columns.x[:] = 999
        for name, column in scene.columns.as_dict().items():
            assert not column.flags.writeable, name
        again = cache.load_path(path)
        assert np.array_equal(again.columns.x, before)
        assert again == cache_load(path)

    @pytest.mark.parametrize(
        "dt", ["0", "-0.1", "1e999", "-1e999", "NaN", "1" + "0" * 400, "-1" + "0" * 400],
        ids=["zero", "negative", "inf", "-inf", "nan", "int-beyond-float", "-int-beyond-float"],
    )
    def test_meta_record_rejects_dt_not_finite_and_positive(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            SceneMetaRecord.from_json(f'{{"scene_id": "s0", "dt": {dt}, "dataset": "toy"}}')

    def test_meta_record_json_round_trip(self):
        meta = _meta(split="train")
        again = SceneMetaRecord.from_json(meta.to_json())
        assert again == meta
        assert json.loads(meta.to_json())["split"] == "train"


class TestStreamingReader:
    def test_draining_iter_scenes_holds_one_file_at_a_time(self, tmp_path):
        # Each selected file is read, decoded and dropped before the next is opened,
        # so the traced peak of a drain does not grow with the scene count.
        rng = np.random.default_rng(41)
        scenes = [random_scene(rng, n_agents=16, n_timesteps=200, scene_id=f"s{k:02d}") for k in range(32)]
        peaks = {}
        for n in (4, 32):
            cache = SceneCache(tmp_path / f"cache{n}")
            paths = cache.write_many(scenes[:n])
            tracemalloc.start()
            try:
                for _ in cache.iter_scenes(["rand"]):
                    pass
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        one_file = max(path.stat().st_size for path in paths)
        assert peaks[32] - peaks[4] <= one_file, (peaks, one_file)

    @pytest.mark.parametrize("read", [
        lambda cache, path: list(cache.iter_scenes(["dsa"])),
        lambda cache, path: [cache.load_path(path)],
    ], ids=["iter_scenes", "load_path"])
    def test_a_file_replaced_after_its_header_is_read_decodes_as_read(self, tmp_path, monkeypatch, read):
        # A writer replaces s1.tksc (atomically, another location and other agents) right after its
        # header is read: the payload comes from the file that was opened, never from the new one.
        cache = SceneCache(tmp_path)
        old = synth_scene(Straight(1.0), 2, 50, 0.1, scene_id="s1", dataset="dsa", location="loc1")
        new = synth_scene(Circle(5.0, 0.2), 3, 40, 0.1, scene_id="s1", dataset="dsa", location="loc2")
        path = cache.write(old)
        read_header, checked = ingest._read_header, []

        def replaced_after_first_read(header):
            if not checked:
                SceneCache(tmp_path).write(new)
            checked.append(header["scene_id"])
            return read_header(header)

        monkeypatch.setattr(ingest, "_read_header", replaced_after_first_read)
        assert read(cache, path) == [old]
        assert checked == ["s1"] and cache_load(path) == new


class TestCacheIds:
    @pytest.mark.parametrize("scene_id", ["../../escaped", "..", ".", "", "a/b", "nul\0byte"])
    def test_scene_id_must_be_a_plain_name(self, tmp_path, scene_id):
        cache = SceneCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="plain name"):
            cache.write(synth_scene(Straight(1.0), 1, 5, 0.1, scene_id=scene_id, dataset="dsa"))
        assert list(tmp_path.rglob("*")) == [tmp_path / "cache"]

    def test_dataset_must_be_a_plain_name(self, tmp_path):
        with pytest.raises(ValueError, match="plain name"):
            ingest_scenes([synth_scene(Straight(1.0), 1, 5, 0.1, scene_id="ok", dataset="..")], tmp_path / "cache")
        assert list(tmp_path.rglob("*")) == [tmp_path / "cache"]

    def test_ids_checked_before_any_write(self, tmp_path):
        scenes = [synth_scene(Straight(1.0), 1, 5, 0.1, scene_id=name, dataset="dsa") for name in ("ok", "../bad")]
        with pytest.raises(ValueError):
            SceneCache(tmp_path / "cache").write_many(scenes)
        assert list(tmp_path.rglob("*")) == [tmp_path / "cache"]


class TestWriteMany:
    def _scenes(self):
        return [
            synth_scene(Straight(1.0 + k), 1, 5, 0.1, scene_id=f"s{k:02d}", dataset=dataset, location=f"loc{k % 2}")
            for k, dataset in enumerate(["dsa", "dsb", "dsa", "dsa", "dsb"])
        ]

    def _record_writes(self, monkeypatch):
        replaced = []
        real = ingest._replace_file

        def recording(path, data):
            replaced.append((path.name, data))
            real(path, data)

        monkeypatch.setattr(ingest, "_replace_file", recording)
        return replaced

    def test_write_many_writes_only_the_scene_files(self, tmp_path, monkeypatch):
        one_by_one = SceneCache(tmp_path / "seq")
        for scene in self._scenes():
            one_by_one.write(scene)
        replaced = self._record_writes(monkeypatch)
        paths = ingest_scenes(self._scenes(), tmp_path / "many")
        assert [p.name for p in paths] == [name for name, _ in replaced] == [f"s{k:02d}.tksc" for k in range(5)]
        files = sorted(p.relative_to(tmp_path / "many") for p in (tmp_path / "many").rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(tmp_path / "seq") for p in (tmp_path / "seq").rglob("*") if p.is_file())
        for rel in files:
            assert (tmp_path / "many" / rel).read_bytes() == (tmp_path / "seq" / rel).read_bytes()
        cache = SceneCache(tmp_path / "many")
        assert sorted(e.scene_id for e in cache.resolve(["dsa", "dsb"])) == [f"s{k:02d}" for k in range(5)]

    def test_write_bytes_do_not_grow_with_the_dataset(self, tmp_path, monkeypatch):
        big = SceneCache(tmp_path / "big")
        big.write_many(synth_scene(Straight(1.0), 1, 3, 0.1, scene_id=f"f{k:03d}", dataset="dsa") for k in range(299))
        scene = synth_scene(Straight(2.0), 2, 5, 0.1, scene_id="s", dataset="dsa")
        replaced = self._record_writes(monkeypatch)
        SceneCache(tmp_path / "small").write(scene)
        into_small = list(replaced)
        replaced.clear()
        big.write(scene)
        assert replaced == into_small == [("s.tksc", scene_to_bytes(scene))]
        assert len(big.resolve(["dsa"])) == 300

    def test_invalid_scene_leaves_cache_unchanged(self, tmp_path, monkeypatch):
        cache = SceneCache(tmp_path / "cache")
        cache.write(synth_scene(Straight(1.0), 1, 5, 0.1, scene_id="old", dataset="dsa"))
        before = {p: p.read_bytes() for p in (tmp_path / "cache").rglob("*") if p.is_file()}
        scenes = self._scenes()
        scenes[3] = dataclasses.replace(scenes[3], dt=0.0)
        replaced = self._record_writes(monkeypatch)
        with pytest.raises(ValidationError, match="s03"):
            ingest_scenes(scenes, tmp_path / "cache")
        assert replaced == []
        assert {p: p.read_bytes() for p in (tmp_path / "cache").rglob("*") if p.is_file()} == before


# Builds n one-agent scenes, reports ready, waits for the go file, then
# writes them all into one dataset of the cache.
_WRITER = """
import sys, time
from pathlib import Path
import numpy as np
from trajkit.core import AgentMetadata, AgentType, SceneFrame
from trajkit.ingest import SceneCache

cache_dir, name, n = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
track = {k: np.zeros(3) for k in ("x", "y", "z", "vx", "vy", "ax", "ay", "heading")}
track["observed"] = np.ones(3, dtype=bool)
agents = [AgentMetadata("a", AgentType.VEHICLE, None, 0, 2)]
scenes = [SceneFrame.from_tracks(f"{name}-{k:03d}", "race", "", 0.1, agents, [track]) for k in range(n)]
cache = SceneCache(cache_dir)
(cache_dir.parent / f"ready-{name}").touch()
while not (cache_dir.parent / "go").exists():
    time.sleep(0.001)
for scene in scenes:
    cache.write(scene)
"""


class TestConcurrentWriters:
    N_SCENES = 40

    def test_two_processes_lose_no_index_entries(self, tmp_path):
        cache_dir = tmp_path / "cache"
        names = ("p", "q")
        env = dict(os.environ, PYTHONPATH=str(Path(trajkit.__file__).parents[1]))
        procs = [
            subprocess.Popen([sys.executable, "-c", _WRITER, str(cache_dir), name, str(self.N_SCENES)], env=env)
            for name in names
        ]
        try:
            deadline = time.monotonic() + 60.0
            while not all((tmp_path / f"ready-{name}").exists() for name in names):
                assert all(p.poll() is None for p in procs), "a writer exited before writing"
                assert time.monotonic() < deadline, "writers did not start"
                time.sleep(0.01)
            (tmp_path / "go").touch()
            codes = [p.wait(timeout=60.0) for p in procs]
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
        assert codes == [0, 0]
        written = sorted(f"{name}-{k:03d}" for name in names for k in range(self.N_SCENES))
        assert [e.scene_id for e in SceneCache(cache_dir).resolve(["race"])] == written
        assert sorted(p.name for p in (cache_dir / "race").iterdir()) == [f"{s}.tksc" for s in written]

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        cache = SceneCache(tmp_path)
        old = synth_scene(Straight(1.0), 1, 5, 0.1, scene_id="s", dataset="dsa")
        path = cache.write(old)

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(ingest.os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            cache.write(synth_scene(Straight(2.0), 2, 9, 0.1, scene_id="s", dataset="dsa"))
        monkeypatch.undo()
        assert cache_load(path) == old
        assert sorted(p.name for p in (tmp_path / "dsa").iterdir()) == ["s.tksc"]
        assert [e.n_agents for e in cache.resolve(["dsa"])] == [1]


def _set_at(*keys):
    """An edit of a .tksc JSON header that sets the value at keys."""
    def edit(header, value):
        for key in keys[:-1]:
            header = header[key]
        header[keys[-1]] = value
    return edit


_AGENT_KEYS = ("agent_ids", "agent_types", "first_ts", "last_ts", "extent")

# Every key of a header set whole, each agent list's entry, an extent cell, an unknown key, and an agent dropped.
SCENE_HEADER_EDITS = {
    **{key: _set_at(key) for key in ingest._HEADER_KINDS},
    "agent_ids[0]": _set_at("agent_ids", 0),
    "agent_types[1]": _set_at("agent_types", 1),
    "first_ts[0]": _set_at("first_ts", 0),
    "last_ts[1]": _set_at("last_ts", 1),
    "extent[0]": _set_at("extent", 0),
    "extent[1][2]": _set_at("extent", 1, 2),
    "n_timesteps": _set_at("n_timesteps"),
    "agent_dropped": lambda header, value: [header[key].pop() for key in _AGENT_KEYS],
}


_NOT_AN_EXTENT_ROW = "ValueError('cache header extent must hold a row of three numbers or nulls per agent, none of them NaN')"


class TestSceneFormatFuzz:
    """Corrupt .tksc files raise CacheError subclasses only, and no numpy
    warning escapes (the suite turns warnings into errors)."""

    DATA = scene_to_bytes(random_scene(np.random.default_rng(0), n_agents=3, n_timesteps=12))

    @staticmethod
    def _load(data: bytes) -> None:
        try:
            scene_from_bytes(data)
        except CacheError:
            pass

    def test_every_truncation(self):
        for cut in range(len(self.DATA)):
            with pytest.raises(CacheError):
                scene_from_bytes(self.DATA[:cut])

    @given(st.lists(st.integers(0, 8 * len(DATA) - 1), min_size=1, max_size=3))
    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    def test_bit_flips(self, bits):
        data = bytearray(self.DATA)
        for bit in bits:
            data[bit // 8] ^= 1 << (bit % 8)
        self._load(bytes(data))

    @given(
        st.sampled_from(sorted(SCENE_HEADER_EDITS)),
        st.one_of(
            st.integers(-3, 40), st.integers(2**62, 2**70), st.floats(), st.booleans(), st.none(),
            st.text(max_size=3), st.lists(st.integers(0, 9), max_size=3),
        ),
    )
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    def test_header_edits(self, key, value):
        # The checksum is recomputed, so only the header's own checks stand.
        self._load(rewrite_json_header(self.DATA, lambda h: SCENE_HEADER_EDITS[key](h, value), crc=True))

    @pytest.mark.parametrize("extent, error", [
        ([math.nan, 1, 1], _NOT_AN_EXTENT_ROW),
        ([None, 1, 1], "ValueError('agent a1: extent [nan, 1.0, 1.0] is neither all NaN nor a box')"),
        ([1, 1, 0], "ValueError('agent a1: extent [1.0, 1.0, 0.0] is neither all NaN nor a box')"),
        ([1, 1, math.nan], _NOT_AN_EXTENT_ROW),
        ([1, 2], _NOT_AN_EXTENT_ROW),
        (["a", 1, 1], _NOT_AN_EXTENT_ROW),
    ], ids=["nan-length", "null-length", "zero-height", "nan-height", "two-values", "string-length"])
    def test_header_extent_that_is_not_a_box(self, extent, error):
        # NaN stands for "none" only inside the scene's extent column; a file says none with null.
        data = rewrite_json_header(self.DATA, lambda h: h["extent"].__setitem__(1, extent), crc=True)
        with pytest.raises(CacheError) as info:
            scene_from_bytes(data)
        assert str(info.value) == f"cache header does not match the scene schema: {error}"

    @pytest.mark.parametrize("value", [2, 3, 128, 255])
    @pytest.mark.parametrize("row", [0, 5, -1])
    def test_observed_byte_other_than_0_or_1(self, row, value):
        # observed is the last column: one u1 per row, just before the CRC.
        n_rows = len(scene_from_bytes(self.DATA).columns)
        data = bytearray(self.DATA[:-4])
        data[len(data) - n_rows + row % n_rows] = value
        data += struct.pack("<I", zlib.crc32(bytes(data)) & 0xFFFFFFFF)
        with pytest.raises(CacheError, match=f"observed column holds {value} at row {row % n_rows}"):
            scene_from_bytes(bytes(data))

    @pytest.mark.parametrize("dt", [float("inf"), float("nan"), 0.0, -0.1])
    def test_header_dt_not_finite_and_positive(self, dt):
        with pytest.raises(CacheError, match="dt must be finite and > 0"):
            scene_from_bytes(rewrite_json_header(self.DATA, lambda h: h.update(dt=dt), crc=True))

    @pytest.mark.parametrize("header", sorted(UNDECODABLE_HEADERS))
    def test_header_that_does_not_decode(self, tmp_path, header):
        path = cache_write(synth_scene(Straight(1.0), 1, 5, 0.1), tmp_path)
        path.write_bytes(replace_header(path.read_bytes(), UNDECODABLE_HEADERS[header], crc=True))
        with pytest.raises(CacheError, match="unreadable JSON header"):
            cache_load(path)

    def test_cli_analyze_on_a_corrupt_scene_exits_2(self, tmp_path, capsys):
        cache = SceneCache(tmp_path / "cache")
        path = cache.write(synth_scene(Straight(1.0), 2, 20, 0.1))
        data = bytearray(path.read_bytes())
        data[-30] ^= 0x10
        path.write_bytes(bytes(data))
        code = main(["analyze", "--cache", str(tmp_path / "cache"), "--tags", "synth", "--metrics", "speed", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2 and "CRC mismatch" in err and "Traceback" not in err


class TestCacheHeaderSchema:
    """A CRC-valid .tksc whose header breaks the schema raises CacheError, not KeyError."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.pop("location"),
            lambda h: h.pop("n_rows"),
            lambda h: h.pop("first_ts"),
        ],
        ids=["no-location", "no-n_rows", "agent-without-first_ts"],
    )
    def test_schema_violation_raises_cache_error(self, tmp_path, edit):
        path = cache_write(synth_scene(Straight(1.0), 1, 5, 0.1), tmp_path)
        path.write_bytes(rewrite_json_header(path.read_bytes(), edit, crc=True))
        with pytest.raises(CacheError, match="schema"):
            cache_load(path)
