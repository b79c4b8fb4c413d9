import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import trajkit
from trajkit import ingest
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
    scene_to_bytes,
    synth_scene,
    write_canonical_csv,
)

from conftest import random_scene, rewrite_json_header

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

    def test_extent_needs_both_dims(self):
        text = _csv(["s0,a,vehicle,0,0.0,0.0,,,4.5,,"])
        with pytest.raises(ParseError, match="extent"):
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


class TestCache:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(20):
            scene = random_scene(rng, scene_id=f"rt{i}")
            path = cache_write(scene, tmp_path)
            assert cache_load(path) == scene

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

    def test_rebuild_index_idempotent(self, tmp_path):
        cache = SceneCache(tmp_path)
        cache.write(synth_scene(Straight(1.0), 1, 5, 0.1, scene_id="sA", dataset="dsa"))
        cache.write(synth_scene(Straight(2.0), 1, 5, 0.1, scene_id="sB", dataset="dsa"))
        index_path = tmp_path / "dsa" / "index.json"
        before = index_path.read_bytes()
        cache.rebuild_index("dsa")
        assert index_path.read_bytes() == before

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

    def test_meta_record_json_round_trip(self):
        meta = _meta(split="train")
        again = SceneMetaRecord.from_json(meta.to_json())
        assert again == meta
        assert json.loads(meta.to_json())["split"] == "train"


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

    def _count_index_writes(self, monkeypatch):
        replaced = []
        real = ingest._replace_file

        def counting(path, data):
            replaced.append(path.name)
            real(path, data)

        monkeypatch.setattr(ingest, "_replace_file", counting)
        return replaced

    def test_one_index_write_per_dataset(self, tmp_path, monkeypatch):
        one_by_one = SceneCache(tmp_path / "seq")
        one_by_one.write(self._scenes()[3])
        for scene in self._scenes():
            one_by_one.write(scene)
        replaced = self._count_index_writes(monkeypatch)
        cache = SceneCache(tmp_path / "many")
        cache.write(self._scenes()[3])
        paths = ingest_scenes(self._scenes(), tmp_path / "many")
        assert replaced.count("index.json") == 1 + 2
        assert [p.name for p in paths] == [f"s{k:02d}.tksc" for k in range(5)]
        for dataset in ("dsa", "dsb"):
            assert (tmp_path / "many" / dataset / "index.json").read_bytes() == (tmp_path / "seq" / dataset / "index.json").read_bytes()
        assert sorted(e.scene_id for e in cache.resolve(["dsa", "dsb"])) == [f"s{k:02d}" for k in range(5)]

    def test_invalid_scene_leaves_cache_unchanged(self, tmp_path, monkeypatch):
        cache = SceneCache(tmp_path / "cache")
        cache.write(synth_scene(Straight(1.0), 1, 5, 0.1, scene_id="old", dataset="dsa"))
        before = {p: p.read_bytes() for p in (tmp_path / "cache").rglob("*") if p.is_file()}
        scenes = self._scenes()
        scenes[3].dt = 0.0
        replaced = self._count_index_writes(monkeypatch)
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
        assert sorted(p.name for p in (cache_dir / "race").iterdir()) == sorted([f"{s}.tksc" for s in written] + ["index.json"])

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        cache = SceneCache(tmp_path)
        old = synth_scene(Straight(1.0), 1, 5, 0.1, scene_id="s", dataset="dsa")
        path = cache.write(old)
        index = (tmp_path / "dsa" / "index.json").read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(ingest.os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            cache.write(synth_scene(Straight(2.0), 2, 9, 0.1, scene_id="s", dataset="dsa"))
        monkeypatch.undo()
        assert cache_load(path) == old
        assert sorted(p.name for p in (tmp_path / "dsa").iterdir()) == ["index.json", "s.tksc"]
        assert (tmp_path / "dsa" / "index.json").read_bytes() == index


class TestCacheHeaderSchema:
    """A CRC-valid .tksc whose header breaks the schema raises CacheError, not KeyError."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.pop("location"),
            lambda h: h.pop("n_rows"),
            lambda h: h["agents"][0].pop("first_ts"),
            lambda h: h.update(columns=7),
        ],
        ids=["no-location", "no-n_rows", "agent-without-first_ts", "columns-not-a-list"],
    )
    def test_schema_violation_raises_cache_error(self, tmp_path, edit):
        path = cache_write(synth_scene(Straight(1.0), 1, 5, 0.1), tmp_path)
        path.write_bytes(rewrite_json_header(path.read_bytes(), edit, crc=True))
        with pytest.raises(CacheError, match="schema"):
            cache_load(path)
