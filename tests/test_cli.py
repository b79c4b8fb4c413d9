import copy
import json
import logging
import math
import os
import shutil
import signal
import struct
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import trajkit
from trajkit import analysis, batching
from trajkit.analysis import METRIC_NAMES
from trajkit.cli import main
from trajkit.ingest import (
    CacheError, ParseError, SceneCache, SceneMetaRecord, Straight, cache_load, parse_canonical_csv, parse_frame_text, scene_to_bytes,
    synth_scene,
)
from trajkit.kinematics import ResampleRatioError, resample_scene
from trajkit.vecmap import VectorMap, map_serialize

from conftest import UNDECODABLE_HEADERS, no_child_left, replace_header, rewrite_json_header, set_cpus, straight_lane

HEADER = "scene_id,agent_id,agent_type,frame,x,y,z,heading,length,width,height"


@pytest.fixture
def workspace(tmp_path):
    cache_dir = tmp_path / "cache"
    SceneCache(cache_dir).write(synth_scene(Straight(10.0), 1, 100, 0.1))
    return tmp_path, cache_dir


def _write_inputs(tmp_path, rows=None):
    rows = rows or [
        "s0,a,vehicle,0,0.0,0.0,,,,,",
        "s0,a,vehicle,1,1.0,0.0,,,,,",
        "s0,a,vehicle,2,2.0,0.0,,,,,",
        "s0,b,vehicle,0,0.0,5.0,,,,,",
        "s0,b,vehicle,1,1.0,5.0,,,,,",
        "s0,b,vehicle,2,2.0,5.0,,,,,",
    ]
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    meta_path = tmp_path / "meta.json"
    meta_path.write_text(json.dumps({"scene_id": "s0", "dt": 0.1, "location": "loc", "dataset": "toy"}))
    return csv_path, meta_path


def _map_file(tmp_path, lanes=None):
    lanes = lanes or [straight_lane("L1", 0.0, length=500.0), straight_lane("L2", 10.0, length=500.0)]
    path = tmp_path / "map.tkmap"
    path.write_bytes(map_serialize(VectorMap("toy:flat", lanes)))
    return path


class TestIngestCommand:
    def test_valid_csv(self, tmp_path, capsys):
        csv_path, meta_path = _write_inputs(tmp_path)
        cache = tmp_path / "cache"
        code = main(["ingest", "--input", str(csv_path), "--format", "canonical-csv", "--meta", str(meta_path), "--cache", str(cache)])
        assert code == 0
        assert (cache / "toy" / "s0.tksc").exists()
        assert "ingested 1 scenes, 2 agents" in capsys.readouterr().out

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        csv_path, meta_path = _write_inputs(tmp_path, rows=['s0,a,vehicle,0,"12,3",0.0,,,,,'])
        code = main(["ingest", "--input", str(csv_path), "--format", "canonical-csv", "--meta", str(meta_path), "--cache", str(tmp_path / "c")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_format_exit_64(self, tmp_path):
        csv_path, meta_path = _write_inputs(tmp_path)
        code = main(["ingest", "--input", str(csv_path), "--format", "parquet", "--meta", str(meta_path), "--cache", str(tmp_path / "c")])
        assert code == 64

    def test_validation_failure_exit_3(self, tmp_path):
        rows = ["s0,a,vehicle,0,nan,0.0,,,,,", "s0,a,vehicle,1,1.0,0.0,,,,,"]
        csv_path, meta_path = _write_inputs(tmp_path, rows=rows)
        code = main(["ingest", "--input", str(csv_path), "--format", "canonical-csv", "--meta", str(meta_path), "--cache", str(tmp_path / "c")])
        assert code == 3

    def test_frame_text_format(self, tmp_path):
        data = tmp_path / "peds.txt"
        data.write_text("0 1 0.0 0.0\n1 1 1.0 0.0\n")
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps({"scene_id": "e0", "dt": 0.4, "location": "univ", "dataset": "eth"}))
        code = main(["ingest", "--input", str(data), "--format", "frame-text", "--meta", str(meta), "--cache", str(tmp_path / "c")])
        assert code == 0

    @pytest.mark.parametrize("warnings", ["default", "error"])
    def test_overflowing_position_prints_the_validation_line_alone_exit_3(self, tmp_path, warnings):
        # A velocity from a position of 1e308 overflows to inf; validation reports it and numpy warns of nothing.
        meta = SceneMetaRecord.from_json(json.dumps({"scene_id": "s0", "dt": 0.1, "dataset": "toy"}))
        (tmp_path / "meta.json").write_text(meta.to_json())
        env = dict(os.environ, PYTHONPATH=str(Path(trajkit.__file__).parents[1]))

        def ingest(name, text):
            (tmp_path / f"{name}.txt").write_text(text)
            argv = ["ingest", "--input", str(tmp_path / f"{name}.txt"), "--format", "frame-text", "--meta", str(tmp_path / "meta.json"),
                    "--cache", str(tmp_path / name)]
            done = subprocess.run([sys.executable, "-W", warnings, "-m", "trajkit.cli", *argv], capture_output=True, text=True, env=env, timeout=120)
            return done.returncode, done.stderr

        assert ingest("huge", "0 1 0.0 0.0\n1 1 1e308 0.0\n") == (3, (
            "validation error: scene s0: 4 invariant violation(s): agent 1: non-finite vx at ts 0 (non-finite); agent 1: non-finite vx"
            " at ts 1 (non-finite); agent 1: non-finite ax at ts 0 (non-finite); agent 1: non-finite ax at ts 1 (non-finite)\n"
        ))
        finite = "0 1 0.0 0.0\n1 1 1.5 0.25\n2 1 4.0 -1.0\n3 1 1e300 -2.0\n1 2 2.0 2.0\n3 2 2.5 1.0\n"
        assert ingest("finite", finite) == (0, "")
        assert (tmp_path / "finite" / "toy" / "s0.tksc").read_bytes() == scene_to_bytes(parse_frame_text(finite, meta))

    def test_missing_cache_flag_exit_64(self, tmp_path, monkeypatch):
        monkeypatch.delenv("TRAJKIT_CACHE", raising=False)
        csv_path, meta_path = _write_inputs(tmp_path)
        code = main(["ingest", "--input", str(csv_path), "--format", "canonical-csv", "--meta", str(meta_path)])
        assert code == 64

    def test_cache_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRAJKIT_CACHE", str(tmp_path / "envcache"))
        csv_path, meta_path = _write_inputs(tmp_path)
        code = main(["ingest", "--input", str(csv_path), "--format", "canonical-csv", "--meta", str(meta_path)])
        assert code == 0
        assert (tmp_path / "envcache" / "toy" / "s0.tksc").exists()

    def test_cache_env_var_read_at_each_call(self, tmp_path, monkeypatch):
        csv_path, meta_path = _write_inputs(tmp_path)
        argv = ["ingest", "--input", str(csv_path), "--format", "canonical-csv", "--meta", str(meta_path)]
        for name in ("first", "second"):
            monkeypatch.setenv("TRAJKIT_CACHE", str(tmp_path / name))
            assert main(argv) == 0
        assert (tmp_path / "first" / "toy" / "s0.tksc").exists()
        assert (tmp_path / "second" / "toy" / "s0.tksc").exists()

    def test_empty_cache_flag_exit_64_with_env_var_set(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRAJKIT_CACHE", str(tmp_path / "envcache"))
        csv_path, meta_path = _write_inputs(tmp_path)
        code = main(["ingest", "--input", str(csv_path), "--format", "canonical-csv", "--meta", str(meta_path), "--cache", ""])
        assert code == 64
        assert not (tmp_path / "envcache").exists()

    def test_oversized_csv_field_exit_2(self, tmp_path, capsys):
        csv_path, meta_path = _write_inputs(tmp_path, rows=["s0," + "a" * 200_000 + ",vehicle,0,0.0,0.0,,,,,"])
        code = main(["ingest", "--input", str(csv_path), "--format", "canonical-csv", "--meta", str(meta_path), "--cache", str(tmp_path / "c")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: line 2: field larger than field limit") and "Traceback" not in err

    def test_missing_input_exit_5(self, tmp_path):
        _, meta_path = _write_inputs(tmp_path)
        code = main(["ingest", "--input", str(tmp_path / "nope.csv"), "--format", "canonical-csv", "--meta", str(meta_path), "--cache", str(tmp_path / "c")])
        assert code == 5


    def _ingest(self, tmp_path, rows, dataset="toy"):
        csv_path, meta_path = _write_inputs(tmp_path, rows=rows)
        meta_path.write_text(json.dumps({"scene_id": "s0", "dt": 0.1, "location": "loc", "dataset": dataset}))
        cache = tmp_path / "inner" / "cache"
        code = main(["ingest", "--input", str(csv_path), "--format", "canonical-csv", "--meta", str(meta_path), "--cache", str(cache)])
        return code, cache

    def test_scene_id_cannot_leave_the_cache_exit_2(self, tmp_path, capsys):
        rows = ["s0,a,vehicle,0,0.0,0.0,,,,,", "../../escaped,a,vehicle,0,0.0,0.0,,,,,"]
        code, cache = self._ingest(tmp_path, rows)
        assert code == 2
        assert "plain name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["in.csv", "meta.json"]

    def test_dataset_cannot_leave_the_cache_exit_2(self, tmp_path):
        code, cache = self._ingest(tmp_path, ["s0,a,vehicle,0,0.0,0.0,,,,,"], dataset="..")
        assert code == 2
        assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["in.csv", "meta.json"]

    def test_frame_beyond_int64_exit_2(self, tmp_path, capsys):
        code, _ = self._ingest(tmp_path, ["s0,a,vehicle,0,0.0,0.0,,,,,", "s0,a,vehicle,99999999999999999999999,1.0,0.0,,,,,"])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_heading_just_above_pi_wraps_and_ingests(self, tmp_path):
        h = repr(float(np.nextafter(np.pi, 4.0)))
        code, cache = self._ingest(tmp_path, [f"s0,a,vehicle,{f},{f}.0,0.0,,{h},,," for f in range(3)])
        assert code == 0
        (entry,) = SceneCache(cache).resolve(["toy"])
        assert np.all(cache_load(entry.path).columns.heading == np.pi)

    def test_multi_scene_file_with_invalid_scene_writes_nothing_exit_3(self, tmp_path):
        rows = ["s0,a,vehicle,0,0.0,0.0,,,,,", "s1,a,vehicle,0,nan,0.0,,,,,", "s2,a,vehicle,0,0.0,0.0,,,,,"]
        code, cache = self._ingest(tmp_path, rows)
        assert code == 3
        assert not cache.exists() or not any(cache.rglob("*"))


class TestAnalyzeCommand:
    def test_two_metrics(self, workspace, capsys):
        tmp_path, cache_dir = workspace
        out = tmp_path / "report"
        code = main(["analyze", "--cache", str(cache_dir), "--tags", "synth", "--metrics", "speed,path_efficiency", "--out", str(out)])
        assert code == 0
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert csvs == ["path_efficiency__synth__vehicle.csv", "speed__synth__vehicle.csv"]

    def test_offroad_without_map_unavailable(self, workspace):
        tmp_path, cache_dir = workspace
        out = tmp_path / "report"
        code = main(["analyze", "--cache", str(cache_dir), "--tags", "synth", "--metrics", "offroad", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "rates.json").read_text())
        assert payload["unavailable"] == ["offroad"]

    def test_offroad_with_map(self, workspace):
        tmp_path, cache_dir = workspace
        map_path = _map_file(tmp_path, lanes=[straight_lane("L1", 0.0, length=200.0, half_width=3.0)])
        out = tmp_path / "report"
        code = main(["analyze", "--cache", str(cache_dir), "--tags", "synth", "--metrics", "offroad", "--map", str(map_path), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "rates.json").read_text())
        assert payload["rates"]["offroad"]["synth"]["vehicle"]["rate"] == 0.0

    def test_unknown_metric_exit_64_lists_names(self, workspace, capsys):
        tmp_path, cache_dir = workspace
        code = main(["analyze", "--cache", str(cache_dir), "--tags", "synth", "--metrics", "bogus", "--out", str(tmp_path / "o")])
        assert code == 64
        assert "speed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tags", "--metrics"])
    @pytest.mark.parametrize("names", [",", "", ",,"])
    def test_list_naming_nothing_exit_64(self, workspace, capsys, flag, names):
        tmp_path, cache_dir = workspace
        argv = {"--tags": "synth", "--metrics": "speed", flag: names}
        code = main(["analyze", "--cache", str(cache_dir), *(a for kv in argv.items() for a in kv), "--out", str(tmp_path / "o")])
        assert code == 64
        assert f"{flag} names nothing" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_tag_exit_2(self, workspace):
        tmp_path, cache_dir = workspace
        code = main(["analyze", "--cache", str(cache_dir), "--tags", "nope", "--metrics", "speed", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_config_file_respected(self, workspace):
        tmp_path, cache_dir = workspace
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"stationary_threshold": 50.0}))
        out = tmp_path / "report"
        code = main(["analyze", "--cache", str(cache_dir), "--tags", "synth", "--metrics", "stationary", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "rates.json").read_text())
        assert payload["config"]["stationary_threshold"] == 50.0

    def test_idempotent_outputs(self, workspace):
        tmp_path, cache_dir = workspace
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["analyze", "--cache", str(cache_dir), "--tags", "synth", "--metrics", "speed,harsh_accel", "--out", str(out)]) == 0
            outs.append(out)
        for p1 in sorted(outs[0].iterdir()):
            assert p1.read_bytes() == (outs[1] / p1.name).read_bytes()


class TestMapCommand:
    def test_closest_lane_on_centerline(self, tmp_path, capsys):
        map_path = _map_file(tmp_path)
        code = main(["map", "--map", str(map_path), "closest-lane", "--point", "5.0,0.0,0.0"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("L1 ") and out.endswith("0.0")

    def test_stats(self, tmp_path, capsys):
        map_path = _map_file(tmp_path)
        code = main(["map", "--map", str(map_path), "stats"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lane_length_km"] == pytest.approx(1.0)

    def test_corrupt_map_exit_2(self, tmp_path):
        bad = tmp_path / "bad.tkmap"
        bad.write_bytes(b"not a map at all")
        code = main(["map", "--map", str(bad), "stats"])
        assert code == 2

    @pytest.mark.parametrize("count", [0, -1, 2.5])
    def test_bad_point_count_exit_2(self, tmp_path, capsys, count):
        def edit(header):
            header["lanes"][0]["n_center"] = count

        bad = tmp_path / "bad.tkmap"
        bad.write_bytes(rewrite_json_header(_map_file(tmp_path).read_bytes(), edit, crc=False))
        assert main(["map", "--map", str(bad), "stats"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "point count" in err and "Traceback" not in err

    def test_bad_point_exit_64(self, tmp_path):
        map_path = _map_file(tmp_path)
        assert main(["map", "--map", str(map_path), "closest-lane", "--point", "x,y"]) == 64

    @pytest.mark.parametrize("point", ["-5,3", "-5.5,-3", "-.5,2,-1", "-5e1,3"])
    def test_negative_point_as_separate_argument(self, tmp_path, capsys, point):
        map_path = _map_file(tmp_path)
        assert main(["map", "--map", str(map_path), "closest-lane", f"--point={point}"]) == 0
        joined = capsys.readouterr()
        assert main(["map", "--map", str(map_path), "closest-lane", "--point", point]) == 0
        assert capsys.readouterr() == joined

    def test_negative_infinity_as_separate_argument_exit_2(self, tmp_path, capsys):
        map_path = _map_file(tmp_path)
        assert main(["map", "--map", str(map_path), "closest-lane", "--point", "-inf,0"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_single_negative_number_exit_64(self, tmp_path, capsys):
        map_path = _map_file(tmp_path)
        assert main(["map", "--map", str(map_path), "closest-lane", "--point", "-5"]) == 64
        assert "--point expects x,y" in capsys.readouterr().err

    @pytest.mark.parametrize("warnings", ["default", "error"])
    def test_far_point_prints_the_answer_alone(self, tmp_path, warnings):
        # Every squared distance from this point overflows to inf; numpy warns of none of them.
        env = dict(os.environ, PYTHONPATH=str(Path(trajkit.__file__).parents[1]))
        argv = ["map", "--map", str(_map_file(tmp_path)), "closest-lane", "--point", "1e308,-1e308"]
        done = subprocess.run([sys.executable, "-W", warnings, "-m", "trajkit.cli", *argv], capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "L1 inf\n", "")

    @pytest.mark.parametrize("point", ["nan,0", "0,nan", "inf,0", "-inf,0", "0,inf,0"])
    def test_non_finite_point_exit_2(self, tmp_path, capsys, point):
        map_path = _map_file(tmp_path)
        assert main(["map", "--map", str(map_path), "closest-lane", f"--point={point}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err


class TestBatchCommand:
    def test_manifest_reports_50_elements(self, workspace):
        tmp_path, cache_dir = workspace
        out = tmp_path / "batches"
        code = main(
            ["batch", "--cache", str(cache_dir), "--tags", "synth", "--centric", "agent",
             "--history", "1,3", "--future", "4,4", "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_elements"] == 50

    def test_re_export_deletes_stale_containers_only(self, workspace):
        tmp_path, cache_dir = workspace
        out = tmp_path / "batches"
        argv = ["batch", "--cache", str(cache_dir), "--tags", "synth", "--history", "1,3", "--future", "4,4", "--out", str(out)]
        assert main([*argv, "--batch-size", "4"]) == 0
        assert len(list(out.glob("batch_*.npz"))) == 13
        kept = ["notes.txt", "batch_1.npz", "batch_00000.npy", "batch_000001.npz", "xbatch_00005.npz"]
        for name in kept:
            (out / name).write_text("mine")
        assert main([*argv, "--batch-size", "64"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [b["file"] for b in manifest["batches"]] == ["batch_00000.npz"]
        assert sorted(p.name for p in out.iterdir()) == sorted(["batch_00000.npz", "manifest.json", *kept])
        assert all((out / name).read_text() == "mine" for name in kept)

    def test_impossible_future_exit_4(self, workspace):
        tmp_path, cache_dir = workspace
        code = main(
            ["batch", "--cache", str(cache_dir), "--tags", "synth",
             "--history", "1,3", "--future", "60,60", "--out", str(tmp_path / "b")]
        )
        assert code == 4

    def test_bad_resample_ratio_exit_2(self, workspace):
        tmp_path, cache_dir = workspace
        code = main(
            ["batch", "--cache", str(cache_dir), "--tags", "synth",
             "--history", "1,3", "--future", "4,4", "--dt", "0.25", "--out", str(tmp_path / "b")]
        )
        assert code == 2

    def test_resample_ratio_beyond_the_float_range_exit_2(self, workspace, capsys):
        tmp_path, cache_dir = workspace
        code = main(
            ["batch", "--cache", str(cache_dir), "--tags", "synth",
             "--history", "1,3", "--future", "4,4", "--dt", "5e-324", "--out", str(tmp_path / "b")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "ratio is not a positive integer" in err and "Traceback" not in err

    @pytest.mark.parametrize("dt", ["1e-300", "1e300"])
    def test_resample_factor_beyond_int64_exit_2(self, workspace, capsys, dt):
        tmp_path, cache_dir = workspace
        code = main(
            ["batch", "--cache", str(cache_dir), "--tags", "synth",
             "--history", "1,3", "--future", "4,4", "--dt", dt, "--out", str(tmp_path / "b")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "overflows int64" in err and "Traceback" not in err

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_batch_size_below_one_exit_64(self, workspace, size):
        tmp_path, cache_dir = workspace
        code = main(
            ["batch", "--cache", str(cache_dir), "--tags", "synth",
             "--history", "1,3", "--future", "4,4", "--batch-size", size, "--out", str(tmp_path / "b")]
        )
        assert code == 64
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize(
        "window",
        [
            ["--history", "0,inf", "--future", "4,4"],
            ["--history", "1,3", "--future", "inf,inf"],
            ["--history", "1,3", "--future", "4,4", "--dt", "inf"],
        ],
    )
    def test_non_finite_seconds_exit_2(self, workspace, window):
        tmp_path, cache_dir = workspace
        code = main(["batch", "--cache", str(cache_dir), "--tags", "synth", *window, "--out", str(tmp_path / "b")])
        assert code == 2
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("names", [",", "", ",,"])
    def test_tags_naming_nothing_exit_64(self, workspace, capsys, names):
        tmp_path, cache_dir = workspace
        code = main(["batch", "--cache", str(cache_dir), "--tags", names, "--history", "1,3", "--future", "4,4", "--out", str(tmp_path / "b")])
        assert code == 64
        assert "--tags names nothing" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_container_past_the_zip64_limit_exit_2(self, workspace, capsys, monkeypatch):
        tmp_path, cache_dir = workspace
        # future, first in name order, holds 32 x 40 x 8 float32 values: 40 kB, past a 4 kB limit.
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 4096)
        out = tmp_path / "b"
        code = main(["batch", "--cache", str(cache_dir), "--tags", "synth", "--history", "1,3", "--future", "4,4", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "member 'future'" in err and "lower --batch-size" in err
        assert not (out / "batch_00000.npz").exists() and not (out / "manifest.json").exists()

    @pytest.mark.parametrize("size", ["1", "7", "1000"])
    @pytest.mark.parametrize("centric", ["agent", "scene"])
    def test_mixed_window_shapes_exit_2_before_any_file(self, tmp_path, capsys, centric, size):
        # One window of 0..1 s is 11 steps of history at dt 0.1 and 6 at dt 0.2.
        cache_dir, out = tmp_path / "cache", tmp_path / "b"
        SceneCache(cache_dir).write_many([synth_scene(Straight(10.0), 2, 40, dt, scene_id=f"dt{dt}") for dt in (0.1, 0.2)])
        code = main(["batch", "--cache", str(cache_dir), "--tags", "synth", "--centric", centric,
                     "--history", "0,1", "--future", "0,1", "--batch-size", size, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        want = ("error: mixed window shapes: (6, 8)/(5, 8) from scene 'dt0.2' of synth-flat at dt 0.2"
                " vs (11, 8)/(10, 8) from scene 'dt0.1' of synth-flat at dt 0.1")
        assert len(err) == 1 and err[0] == want, err
        assert not out.exists()

    def test_bad_window_exit_64(self, workspace):
        tmp_path, cache_dir = workspace
        code = main(
            ["batch", "--cache", str(cache_dir), "--tags", "synth",
             "--history", "1", "--future", "4,4", "--out", str(tmp_path / "b")]
        )
        assert code == 64


class TestSimReplayCommand:
    def test_replay_metrics_zero_distance(self, workspace):
        tmp_path, cache_dir = workspace
        out = tmp_path / "sim"
        code = main(["sim-replay", "--cache", str(cache_dir), "--scene", "synth-0", "--init-ts", "10", "--steps", "10", "--out", str(out)])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["speed_distance"] == 0.0
        assert (out / "rollout.csv").exists()

    def test_steps_beyond_scene_exit_2(self, workspace):
        tmp_path, cache_dir = workspace
        code = main(["sim-replay", "--cache", str(cache_dir), "--scene", "synth-0", "--init-ts", "95", "--steps", "10", "--out", str(tmp_path / "sim")])
        assert code == 2

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_steps_below_one_exit_64_before_the_scene_is_read(self, workspace, capsys, steps):
        tmp_path, cache_dir = workspace
        (path,) = cache_dir.glob("*/synth-0.tksc")
        data = bytearray(path.read_bytes())
        data[-40] ^= 0xFF  # the payload and its CRC no longer agree
        path.write_bytes(bytes(data))
        argv = ["sim-replay", "--cache", str(cache_dir), "--scene", "synth-0", "--init-ts", "10", f"--steps={steps}", "--out", str(tmp_path / "sim")]
        assert main(argv) == 64
        assert capsys.readouterr().err == "usage error: --steps must be >= 1\n"

    def test_unknown_scene_exit_2(self, workspace):
        tmp_path, cache_dir = workspace
        code = main(["sim-replay", "--cache", str(cache_dir), "--scene", "ghost", "--init-ts", "0", "--steps", "5", "--out", str(tmp_path / "sim")])
        assert code == 2

    def test_scene_found_by_file_name(self, workspace):
        tmp_path, cache_dir = workspace
        argv = ["sim-replay", "--cache", str(cache_dir), "--scene", "ghost", "--init-ts", "0", "--steps", "5"]
        SceneCache(cache_dir).write(synth_scene(Straight(10.0), 1, 40, 0.1, scene_id="ghost", dataset="aaa"))
        assert main([*argv, "--out", str(tmp_path / "sim")]) == 0
        # A removed scene file is not found: nothing else lists it.
        (cache_dir / "aaa" / "ghost.tksc").unlink()
        assert main([*argv, "--out", str(tmp_path / "sim2")]) == 2

    def test_first_dataset_in_sorted_order_wins(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = SceneCache(cache_dir)
        cache.write(synth_scene(Straight(20.0), 1, 40, 0.1, scene_id="twin", dataset="zeta"))
        cache.write(synth_scene(Straight(10.0), 1, 40, 0.1, scene_id="twin", dataset="alpha"))
        assert cache.locate("twin") == cache_dir / "alpha" / "twin.tksc"
        assert cache.locate("ghost") is None
        out = tmp_path / "sim"
        assert main(["sim-replay", "--cache", str(cache_dir), "--scene", "twin", "--init-ts", "1", "--steps", "2", "--out", str(out)]) == 0
        last = (out / "rollout.csv").read_text().strip().splitlines()[-1].split(",")
        assert float(last[4]) == pytest.approx(3.0)  # 10 m/s for 0.3 s: alpha's scene, not zeta's

    def test_unwritable_out_exit_5(self, workspace):
        tmp_path, cache_dir = workspace
        blocker = tmp_path / "blocked"
        blocker.write_text("i am a file")
        code = main(["sim-replay", "--cache", str(cache_dir), "--scene", "synth-0", "--init-ts", "10", "--steps", "10", "--out", str(blocker)])
        assert code == 5

    def test_replay_idempotent(self, workspace):
        tmp_path, cache_dir = workspace
        outs = []
        for name in ("sim1", "sim2"):
            out = tmp_path / name
            assert main(["sim-replay", "--cache", str(cache_dir), "--scene", "synth-0", "--init-ts", "10", "--steps", "10", "--out", str(out)]) == 0
            outs.append(out)
        for p1 in sorted(outs[0].iterdir()):
            assert p1.read_bytes() == (outs[1] / p1.name).read_bytes()


class TestUsage:
    def test_no_command_exit_64(self):
        assert main([]) == 64

    def test_verbosity_is_set_on_every_call(self, tmp_path):
        # The root logger has handlers here, as after a first call in any process: each call still sets the level.
        map_path, root = _map_file(tmp_path), logging.getLogger()
        before = root.level
        try:
            for flags, level in (([], logging.WARNING), (["-vv"], logging.DEBUG), (["-v"], logging.INFO), ([], logging.WARNING)):
                assert main([*flags, "map", "--map", str(map_path), "stats"]) == 0
                assert root.level == level, flags
        finally:
            root.setLevel(before)

    def test_unknown_command_exit_64(self):
        assert main(["frobnicate"]) == 64

    @pytest.mark.parametrize("flag, value, message", [
        ("--history", "1", "--history expects two comma-separated numbers, got '1'"),
        ("--future", "a,b", "--future expects numbers, got 'a,b'"),
        ("--history", "1,2,3", "--history expects two comma-separated numbers, got '1,2,3'"),
        ("--point", "1", "--point expects x,y[,z], got '1'"),
        ("--point", "a,b", "--point expects numbers, got 'a,b'"),
    ])
    def test_number_flag_messages_exit_64(self, workspace, capsys, flag, value, message):
        tmp_path, cache_dir = workspace
        if flag == "--point":
            argv = ["map", "--map", str(_map_file(tmp_path)), "closest-lane", "--point", value]
        else:
            window = {"--history": "1,3", "--future": "4,4", flag: value}
            argv = ["batch", "--cache", str(cache_dir), "--tags", "synth", "--history", window["--history"], "--future", window["--future"],
                    "--out", str(tmp_path / "b")]
        assert main(argv) == 64
        assert capsys.readouterr().err == f"usage error: {message}\n"


_NOT_AN_EXTENT_ROW = "scene file {path}: cache header extent must hold a row of three numbers or nulls per agent, none of them NaN"


class TestMalformedHeaders:
    def test_scene_header_without_location_exit_2(self, workspace, capsys):
        tmp_path, cache_dir = workspace
        (path,) = cache_dir.glob("*/synth-0.tksc")
        path.write_bytes(rewrite_json_header(path.read_bytes(), lambda h: h.pop("location"), crc=True))
        code = main(["sim-replay", "--cache", str(cache_dir), "--scene", "synth-0", "--init-ts", "10", "--steps", "10", "--out", str(tmp_path / "sim")])
        assert code == 2
        assert "location" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "batch"])
    def test_scene_file_not_named_by_its_scene_id_exit_2(self, workspace, capsys, command):
        # A copy of the scene file under another name would list the scene twice.
        tmp_path, cache_dir = workspace
        (path,) = cache_dir.glob("*/synth-0.tksc")
        copy = path.with_name("zz.tksc")
        copy.write_bytes(path.read_bytes())
        assert main(_CACHE_READERS[command](str(cache_dir), str(tmp_path / "out"))) == 2
        assert capsys.readouterr().err == f"error: scene file {copy}: header names scene 'synth-0', not 'zz': a scene file is named <scene id>.tksc\n"

    def test_sim_replay_of_a_file_not_named_by_its_scene_id_exit_2(self, workspace, capsys):
        # sim-replay finds zz.tksc by its name; its header names synth-0, so the load refuses it as a query does.
        tmp_path, cache_dir = workspace
        (path,) = cache_dir.glob("*/synth-0.tksc")
        copy = path.with_name("zz.tksc")
        copy.write_bytes(path.read_bytes())
        out = tmp_path / "sim"
        assert main(["sim-replay", "--cache", str(cache_dir), "--scene", "zz", "--init-ts", "10", "--steps", "10", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: scene file {copy}: header names scene 'synth-0', not 'zz': a scene file is named <scene id>.tksc\n"
        assert not out.exists()

    def test_map_directory_without_lanes_exit_2(self, tmp_path, capsys):
        path = _map_file(tmp_path)
        path.write_bytes(rewrite_json_header(path.read_bytes(), lambda h: h.pop("lanes"), crc=False))
        assert main(["map", "--map", str(path), "stats"]) == 2
        assert "lanes" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "sim-replay"])
    def test_deep_scene_header_exit_2(self, workspace, capsys, command):
        tmp_path, cache_dir = workspace
        (path,) = cache_dir.glob("*/synth-0.tksc")
        path.write_bytes(replace_header(path.read_bytes(), UNDECODABLE_HEADERS["deep"], crc=True))
        assert main(_CACHE_READERS[command](str(cache_dir), str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert "nested too deep" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "batch", "sim-replay"])
    @pytest.mark.parametrize("edit", [
        lambda h: [h[key].pop() for key in ("agent_ids", "agent_types", "first_ts", "last_ts", "extent")],
        lambda h: h["first_ts"].__setitem__(0, h["first_ts"][0] + 5),
        lambda h: h.update(first_ts=[t - 50 for t in h["first_ts"]], last_ts=[t - 50 for t in h["last_ts"]]),
    ], ids=["agent-dropped", "first_ts-shifted", "lifetimes-negative"])
    def test_header_that_disagrees_with_the_payload_exit_2(self, workspace, capsys, command, edit):
        tmp_path, cache_dir = workspace
        path = SceneCache(cache_dir).write(synth_scene(Straight(10.0), 3, 100, 0.1))
        path.write_bytes(rewrite_json_header(path.read_bytes(), edit, crc=True))
        assert main(_CACHE_READERS[command](str(cache_dir), str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert "agent lifetimes span" in err and "Traceback" not in err

    @pytest.mark.parametrize("agent_id", [5, None, ["a0"]])
    def test_non_string_agent_id_exit_2(self, workspace, capsys, agent_id):
        # Unchecked, an id of another type reaches the sort of the batch index and fails there.
        tmp_path, cache_dir = workspace
        path = SceneCache(cache_dir).write(synth_scene(Straight(10.0), 2, 100, 0.1))
        path.write_bytes(rewrite_json_header(path.read_bytes(), lambda h: h["agent_ids"].__setitem__(0, agent_id), crc=True))
        assert main(_CACHE_READERS["batch"](str(cache_dir), str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"cache header agent_ids holds {agent_id!r}, not a string" in err and "Traceback" not in err

    def test_lifetime_ending_at_the_last_int64_timestep_exit_2(self, workspace, capsys):
        # Its n_timesteps, 2**63, and its run of timesteps before the first start would wrap in int64.
        tmp_path, cache_dir = workspace
        path = SceneCache(cache_dir).write(synth_scene(Straight(10.0), 1, 20, 0.1, scene_id="late"))
        path.write_bytes(rewrite_json_header(path.read_bytes(), lambda h: h.update(first_ts=[2**63 - 20], last_ts=[2**63 - 1]), crc=True))
        argv = ["analyze", "--cache", str(cache_dir), "--tags", "synth", "--metrics", "simultaneous", "--out", str(tmp_path / "out")]
        with pytest.raises(CacheError, match="does not match the scene schema"):
            cache_load(path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "end before ts 2**63 - 1" in err and "Traceback" not in err

    def test_dataset_beyond_int64_timesteps_exit_2(self, workspace, capsys):
        # Two valid scenes, each living at ts 2**62 ... 2**62 + 5: their per-timestep counts would wrap int64.
        tmp_path, cache_dir = workspace
        for k in range(2):
            path = SceneCache(cache_dir).write(synth_scene(Straight(10.0), 1, 6, 0.1, scene_id=f"late-{k}"))
            path.write_bytes(rewrite_json_header(path.read_bytes(), lambda h: h.update(first_ts=[2**62], last_ts=[2**62 + 5]), crc=True))
            assert cache_load(path).n_timesteps == 2**62 + 6
        argv = ["analyze", "--cache", str(cache_dir), "--tags", "synth", "--metrics", "simultaneous", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "dataset synth: its scenes span" in err and "Traceback" not in err

    @pytest.mark.parametrize("edit", [lambda h: h.update(map_id=5), lambda h: h["traffic_lights"].append(["L1", 1.5, "red"])],
                             ids=["map_id-int", "light-ts-float"])
    def test_map_directory_value_of_the_wrong_type_exit_2(self, tmp_path, capsys, edit):
        path = _map_file(tmp_path)
        path.write_bytes(rewrite_json_header(path.read_bytes(), edit, crc=False))
        assert main(["map", "--map", str(path), "stats"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "must be a" in err and "Traceback" not in err

    @pytest.mark.parametrize("extent, named", [
        ([math.nan, 1, 1], _NOT_AN_EXTENT_ROW),
        ([None, 1, 1], "does not match the scene schema: ValueError('agent a0: extent [nan, 1.0, 1.0] is neither"),
        ([1, 1, 0], "does not match the scene schema: ValueError('agent a0: extent [1.0, 1.0, 0.0] is neither"),
        ([1, 2], _NOT_AN_EXTENT_ROW),
        (["a", 1, 1], _NOT_AN_EXTENT_ROW),
    ], ids=["nan-length", "null-length", "zero-height", "two-values", "string-length"])
    def test_header_extent_that_is_not_a_box_exit_2(self, workspace, capsys, extent, named):
        # The header read that resolve makes refuses what is not three numbers or nulls; decode refuses what is no box.
        tmp_path, cache_dir = workspace
        (path,) = cache_dir.glob("*/synth-0.tksc")
        path.write_bytes(rewrite_json_header(path.read_bytes(), lambda h: h["extent"].__setitem__(0, extent), crc=True))
        assert main(_CACHE_READERS["analyze"](str(cache_dir), str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and named.format(path=path) in err and "Traceback" not in err

    @pytest.mark.parametrize("n_timesteps", [0, 5, -3, 10**6])
    def test_header_n_timesteps_is_not_read(self, workspace, n_timesteps):
        # The scene's n_timesteps comes from its lifetimes (ts 0 to 99 here), whatever a header stores.
        tmp_path, cache_dir = workspace
        (path,) = cache_dir.glob("*/synth-0.tksc")
        analyze = ["analyze", "--cache", str(cache_dir), "--tags", "synth", "--metrics", ",".join(METRIC_NAMES), "--out"]
        assert main([*analyze, str(tmp_path / "before")]) == 0
        path.write_bytes(rewrite_json_header(path.read_bytes(), lambda h: h.update(n_timesteps=n_timesteps), crc=True))
        assert main([*analyze, str(tmp_path / "after")]) == 0
        before = sorted((tmp_path / "before").iterdir())
        assert [p.read_bytes() for p in before] == [(tmp_path / "after" / p.name).read_bytes() for p in before]
        replay = ["sim-replay", "--cache", str(cache_dir), "--scene", "synth-0", "--out", str(tmp_path / "sim")]
        assert main([*replay, "--init-ts", "90", "--steps", "9"]) == 0
        assert main([*replay, "--init-ts", "90", "--steps", "10"]) == 2

    @pytest.mark.parametrize("command", ["analyze", "batch", "sim-replay"])
    @pytest.mark.parametrize("version", [1, 2])
    def test_older_version_scene_file_exit_2(self, workspace, capsys, version, command):
        # Version 1 stored agent_index and ts, version 2 a header object per agent; the preamble is all the reader looks at.
        tmp_path, cache_dir = workspace
        (path,) = cache_dir.glob("*/synth-0.tksc")
        data = path.read_bytes()
        path.write_bytes(data[:6] + struct.pack("<I", version) + data[10:])
        assert main(_CACHE_READERS[command](str(cache_dir), str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert f"unsupported version {version}, expected 3" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "batch", "sim-replay"])
    def test_corrupt_payload_names_the_scene_file_exit_2(self, workspace, capsys, command):
        tmp_path, cache_dir = workspace
        (path,) = cache_dir.glob("*/synth-0.tksc")
        data = bytearray(path.read_bytes())
        data[-40] ^= 0xFF  # the payload and its CRC no longer agree
        path.write_bytes(bytes(data))
        assert main(_CACHE_READERS[command](str(cache_dir), str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: scene file {path}: CRC mismatch: stored 0x")

    @pytest.mark.parametrize("key, value", [("dataset_tag", 5), ("location", 7), ("dt", "0.1"), ("heading_derived", "no")])
    def test_header_value_of_the_wrong_type_exit_2(self, workspace, capsys, key, value):
        # sim-replay finds its file by name, so no header read by resolve stands before the decode.
        tmp_path, cache_dir = workspace
        (path,) = cache_dir.glob("*/synth-0.tksc")
        path.write_bytes(rewrite_json_header(path.read_bytes(), lambda h: h.update({key: value}), crc=True))
        with pytest.raises(CacheError, match=f"cache header key '{key}' has the wrong type"):
            cache_load(path)
        assert main(_CACHE_READERS["sim-replay"](str(cache_dir), str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"cache header key '{key}' has the wrong type: {value!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "batch", "sim-replay"])
    def test_repeated_agent_id_exit_2(self, workspace, capsys, command):
        # Were the file read, analyze would count two agents of three, batch would export elements under an
        # ambiguous id, and sim-replay would stop on a controlled agent listed twice.
        tmp_path, cache_dir = workspace
        path = SceneCache(cache_dir).write(synth_scene(Straight(10.0), 3, 100, 0.1))
        path.write_bytes(rewrite_json_header(path.read_bytes(), lambda h: h["agent_ids"].__setitem__(1, "a0"), crc=True))
        with pytest.raises(CacheError, match="agent_ids lists the agent id 'a0' more than once"):
            cache_load(path)
        assert main(_CACHE_READERS[command](str(cache_dir), str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "cache header agent_ids lists the agent id 'a0' more than once" in err and "Traceback" not in err

    def test_deep_map_directory_exit_2(self, tmp_path, capsys):
        path = _map_file(tmp_path)
        path.write_bytes(replace_header(path.read_bytes(), UNDECODABLE_HEADERS["deep"], crc=False))
        assert main(["map", "--map", str(path), "stats"]) == 2
        err = capsys.readouterr().err
        assert "nested too deep" in err and "Traceback" not in err

    @pytest.mark.parametrize("cut", [3, 30], ids=["in-preamble", "in-header"])
    def test_truncated_scene_file_exit_2(self, workspace, capsys, cut):
        # analyze reads every scene file's header of a queried dataset, so one whose tag is not queried fails too.
        tmp_path, cache_dir = workspace
        path = SceneCache(cache_dir).write(synth_scene(Straight(5.0), 1, 20, 0.1, scene_id="other", location="elsewhere"))
        path.write_bytes(path.read_bytes()[:cut])
        argv = ["analyze", "--cache", str(cache_dir), "--tags", "synth-flat", "--metrics", "speed", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "other.tksc" in err
        assert "Traceback" not in err


# Each command that reads the cache.
_CACHE_READERS = {
    "analyze": lambda cache, out: ["analyze", "--cache", cache, "--tags", "synth", "--metrics", "speed", "--out", out],
    "batch": lambda cache, out: ["batch", "--cache", cache, "--tags", "synth", "--history", "1,3", "--future", "4,4", "--out", out],
    "sim-replay": lambda cache, out: ["sim-replay", "--cache", cache, "--scene", "synth-0", "--init-ts", "10", "--steps", "10", "--out", out],
}


def _edit_entry(edit):
    def rewrite(index):
        (entries,) = index["scenes"].values()
        edit(entries[0])
        return json.dumps(index)
    return rewrite


def _output_files(out):
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


class TestLateFault:
    """The cache streams dataset by dataset, so a fault in the second tag's
    dataset surfaces after the first tag's scenes are yielded; analyze and
    batch drain the stream before they write, so they still write nothing."""

    @staticmethod
    def _flip_last_payload(cache_dir):
        path = sorted((cache_dir / "late").glob("*.tksc"))[-1]
        data = bytearray(path.read_bytes())
        data[-40] ^= 0xFF  # the payload and its CRC no longer agree
        path.write_bytes(bytes(data))
        return f"error: scene file {path}: CRC mismatch: stored 0x"

    @pytest.mark.parametrize("command", ["analyze", "batch"])
    @pytest.mark.parametrize("bad", ["late-test", "late"], ids=["unknown-split", "flipped-payload"])
    def test_exit_2_and_no_output(self, workspace, capsys, command, bad):
        tmp_path, cache_dir = workspace
        SceneCache(cache_dir).write_many([synth_scene(Straight(10.0), 1, 100, 0.1, scene_id=f"late-{k}", dataset="late") for k in range(2)])
        want = self._flip_last_payload(cache_dir) if bad == "late" else "error: \"tag 'late-test' matched no cached scenes\""
        out = tmp_path / "out"
        argv = _CACHE_READERS[command](str(cache_dir), str(out))
        argv[argv.index("--tags") + 1] = f"synth,{bad}"
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(want), err
        assert not out.exists() or _output_files(out) == {}


class TestMalformedSceneDt:
    @pytest.mark.parametrize("command", ["analyze", "batch"])
    @pytest.mark.parametrize("dt", [float("inf"), 0.0, -0.1])
    def test_exit_2(self, workspace, capsys, command, dt):
        tmp_path, cache_dir = workspace
        (path,) = cache_dir.glob("*/synth-0.tksc")
        path.write_bytes(rewrite_json_header(path.read_bytes(), lambda h: h.update(dt=dt), crc=True))
        assert main(_CACHE_READERS[command](str(cache_dir), str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert "dt must be finite and > 0" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


class TestMalformedIndex:
    """The cache no longer writes an index.json; one left in a dataset
    directory by an older version, well formed or not, is ignored."""

    OLD_INDEX = {"version": 1, "scenes": {"synth-flat": [{"scene_id": "synth-0", "path": "synth-0.tksc", "n_agents": 1, "n_timesteps": 100}]}}
    CASES = {
        "list": lambda index: "[]",
        "scenes_list": lambda index: '{"scenes": []}',
        "entry_without_path": _edit_entry(lambda e: e.pop("path")),
        "path_outside_cache": _edit_entry(lambda e: e.update(path="../../etc/passwd")),
        "not_json": lambda index: "\x00not json{",
    }

    @pytest.mark.parametrize("command", sorted(_CACHE_READERS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_changes_no_output(self, workspace, command, case):
        tmp_path, cache_dir = workspace
        argv, out = _CACHE_READERS[command](str(cache_dir), str(tmp_path / "out")), tmp_path / "out"
        assert main(argv) == 0
        clean = _output_files(out)
        shutil.rmtree(out)
        (cache_dir / "synth" / "index.json").write_text(self.CASES[case](copy.deepcopy(self.OLD_INDEX)))
        assert main(argv) == 0
        assert _output_files(out) == clean

    def test_well_formed_index_still_reads(self, workspace):
        tmp_path, cache_dir = workspace
        (cache_dir / "synth" / "index.json").write_text(json.dumps(self.OLD_INDEX))
        for command, argv in sorted(_CACHE_READERS.items()):
            assert main(argv(str(cache_dir), str(tmp_path / command))) == 0, command



class TestMalformedMeta:
    @pytest.mark.parametrize("meta, named", [
        ([], "object"),
        ({"dt": 0.1, "dataset": "toy"}, "scene_id"),
        ({"scene_id": "s0", "dt": 0.1}, "dataset"),
        ({"scene_id": "s0", "dataset": "toy"}, "dt"),
        ({"scene_id": "s0", "dt": [0.1], "dataset": "toy"}, "dt"),
        ({"scene_id": 5, "dt": 0.1, "dataset": "toy"}, "scene_id"),
        ({"scene_id": "s0", "dt": 0.1, "dataset": "toy", "location": None}, "location"),
        ({"scene_id": "s0", "dt": 0.1, "dataset": "toy", "split": 3}, "split"),
        pytest.param(UNDECODABLE_HEADERS["deep"].decode(), "nested too deep", id="deep"),  # text: json.dumps of it recurses too
    ])
    def test_exit_2_naming_the_key(self, tmp_path, capsys, meta, named):
        csv_path, meta_path = _write_inputs(tmp_path)
        meta_path.write_text(meta if isinstance(meta, str) else json.dumps(meta))
        code = main(["ingest", "--input", str(csv_path), "--format", "canonical-csv", "--meta", str(meta_path), "--cache", str(tmp_path / "c")])
        assert code == 2
        assert named in capsys.readouterr().err

    def test_infinite_dt_exit_2_cache_unchanged(self, workspace, capsys):
        tmp_path, cache_dir = workspace
        before = {p: p.read_bytes() for p in cache_dir.rglob("*") if p.is_file()}
        csv_path, meta_path = _write_inputs(tmp_path)
        meta_path.write_text('{"scene_id": "s0", "dt": 1e999, "location": "loc", "dataset": "synth"}')
        code = main(["ingest", "--input", str(csv_path), "--format", "canonical-csv", "--meta", str(meta_path), "--cache", str(cache_dir)])
        assert code == 2
        assert "dt must be finite" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in cache_dir.rglob("*") if p.is_file()} == before


class TestMalformedConfig:
    @pytest.mark.parametrize("config, named", [
        ([], "object"),
        ({"stationary_threshold": "abc"}, "stationary_threshold"),
        ({"density_min_agents": None}, "density_min_agents"),
        ({"offroad_types": 3}, "offroad_types"),
        ({"offroad_types": ["vehicle", 3]}, "offroad_types"),
        ({"per_timestep_rates": "yes"}, "per_timestep_rates"),
        ({"histogram_bins": []}, "histogram_bins"),
        ({"histogram_bins": {"speed": 5}}, "histogram_bins"),
        ({"histogram_bins": {"speed": [0, "1"]}}, "histogram_bins"),
        pytest.param(UNDECODABLE_HEADERS["deep"].decode(), "nested too deep", id="deep"),  # text: json.dumps of it recurses too
    ])
    def test_exit_2_naming_the_field(self, workspace, capsys, config, named):
        tmp_path, cache_dir = workspace
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config if isinstance(config, str) else json.dumps(config))
        code = main(["analyze", "--cache", str(cache_dir), "--tags", "synth", "--metrics", "stationary", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("metric, edges", [
        ("speed", "[0, NaN, 10]"),
        ("accel", "[0, 5, 5, 10]"),
        ("jerk", "[0, 10, 5]"),  # not among the --metrics run: the config is checked whole
        ("density", "[1.5]"),
        ("ego_distance", "[Infinity, Infinity]"),
    ])
    def test_bad_bin_edges_exit_2_naming_the_metric(self, workspace, capsys, metric, edges):
        tmp_path, cache_dir = workspace
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "o"
        cfg_path.write_text(f'{{"histogram_bins": {{"{metric}": {edges}}}}}')
        code = main(["analyze", "--cache", str(cache_dir), "--tags", "synth", "--metrics", "speed", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: histogram_bins '{metric}' must hold 2 or more edges"), err
        assert not out.exists()

    def test_unknown_bins_name_exit_2_naming_it(self, workspace, capsys):
        tmp_path, cache_dir = workspace
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "o"
        cfg_path.write_text('{"histogram_bins": {"sped": [0, 100]}}')  # a misspelt speed
        code = main(["analyze", "--cache", str(cache_dir), "--tags", "synth", "--metrics", "speed", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: histogram_bins 'sped' names no histogram; valid names: speed,"), err
        assert not out.exists()


# Runs trajkit's CLI with its address space capped at 1 GiB (about 0.1 GiB goes to
# Python and numpy), so an input that asks for more fails instead of taking the
# machine's memory.
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from trajkit.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _capped_main(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(trajkit.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv], capture_output=True, text=True, env=env, timeout=120)
    return done.returncode, done.stderr


class TestRowBudget:
    """Completion and resampling check the rows a scene would hold against
    core.ROW_BUDGET before allocating any: exit 2, one line naming the agent."""

    def _ingest(self, tmp_path, name, text, fmt):
        (tmp_path / name).write_text(text)
        (tmp_path / "meta.json").write_text(json.dumps({"scene_id": "s0", "dt": 0.1, "dataset": "toy"}))
        return _capped_main(["ingest", "--input", str(tmp_path / name), "--format", fmt, "--meta", str(tmp_path / "meta.json"),
                             "--cache", str(tmp_path / "cache")])

    def test_frame_text_gap(self, tmp_path):
        code, err = self._ingest(tmp_path, "in.txt", "0 1 0 0\n1000000000000 1 1 1\n1 2 0 0\n", "frame-text")
        assert code == 2 and err.splitlines() == [
            "error: agent 1: lifetime [0, 1000000000000] brings the scene to 1000000000001 rows, beyond the budget of 16777216 rows"
        ]

    @pytest.mark.parametrize("frame", [10**9, 10**12])
    def test_canonical_csv_gap(self, tmp_path, frame):
        text = f"{HEADER}\ns0,b,vehicle,5,0.0,0.0,,,,,\ns0,a,vehicle,0,0.0,0.0,,,,,\ns0,a,vehicle,{frame},1.0,0.0,,,,,\n"
        code, err = self._ingest(tmp_path, "in.csv", text, "canonical-csv")
        assert code == 2 and err.splitlines() == [
            f"error: agent a: lifetime [0, {frame}] brings the scene to {frame + 1} rows, beyond the budget of 16777216 rows"
        ]
        assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").rglob("*.tksc"))

    def test_batch_resampled_by_a_tiny_dt(self, workspace):
        # dt 0.1 to 1e-17 is an upsampling factor of 1e16, which fits int64 over the scene's 100 timesteps.
        tmp_path, cache_dir = workspace
        code, err = _capped_main(["batch", "--cache", str(cache_dir), "--tags", "synth", "--history", "0,1", "--future", "0,1",
                                  "--dt", "1e-17", "--out", str(tmp_path / "out")])
        assert code == 2 and err.splitlines() == [
            "error: cannot resample dt=0.1 to dt=1e-17: agent a0: lifetime [0, 990000000000000000] brings the scene to"
            " 990000000000000001 rows, beyond the budget of 16777216 rows"
        ]

    def test_library_callers_get_their_error_class(self):
        # Each ask fails at once if the budget check is gone: 10**12 rows or more cannot be allocated.
        meta = SceneMetaRecord("s0", 0.1, "", "toy")
        with pytest.raises(ParseError, match="agent 1: lifetime"):
            parse_frame_text("0 1 0 0\n1000000000000 1 1 1\n1 2 0 0\n", meta)
        with pytest.raises(ParseError, match="agent a: lifetime"):
            parse_canonical_csv(f"{HEADER}\ns0,a,vehicle,0,0.0,0.0,,,,,\ns0,a,vehicle,1000000000000,1.0,0.0,,,,,\n", meta)
        with pytest.raises(ResampleRatioError, match="agent a0: lifetime"):
            resample_scene(synth_scene(Straight(1.0), 1, 30, 0.1), 1e-17)

    def test_the_budget_is_far_above_every_real_input(self, tmp_path):
        from trajkit.core import ROW_BUDGET
        assert ROW_BUDGET == 16777216
        code, err = self._ingest(tmp_path, "in.txt", "0 1 0 0\n100000 1 1 1\n", "frame-text")  # 100,001 rows: completed
        assert code == 0, err


def _die(how):
    if how == "exit":
        os._exit(7)
    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerDeath:
    """A forked worker that ends without its result is an i/o error, exit 5,
    for analyze and batch alike; no child is left behind."""

    DEATHS = [("exit", "exit code 7"), ("kill", f"signal {int(signal.SIGKILL)} ")]

    @pytest.mark.parametrize("how, named", DEATHS)
    def test_analyze(self, tmp_path, monkeypatch, capsys, forks, how, named):
        cache = SceneCache(tmp_path / "cache")
        cache.write_many(synth_scene(Straight(10.0), 1, 30, 0.1, scene_id=f"s{k:02d}") for k in range(2 * analysis._MIN_SHARE))
        parent, count = os.getpid(), analysis._Counts.count
        monkeypatch.setattr(analysis._Counts, "count", lambda *args: count(*args) if os.getpid() == parent else _die(how))
        set_cpus(monkeypatch, 2)
        code = main(["analyze", "--cache", str(cache.cache_dir), "--tags", "synth", "--metrics", "speed", "--out", str(tmp_path / "report")])
        err = capsys.readouterr().err.splitlines()
        assert code == 5 and len(err) == 1 and err[0].startswith("i/o error: ") and named in err[0], err
        assert len(forks) == 1 and no_child_left()
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("how, named", DEATHS)
    def test_batch(self, workspace, monkeypatch, capsys, forks, how, named):
        tmp_path, cache_dir = workspace
        parent, build = os.getpid(), batching.get_batch
        monkeypatch.setattr(batching, "get_batch", lambda *args: build(*args) if os.getpid() == parent else _die(how))
        set_cpus(monkeypatch, 2)
        out = tmp_path / "batches"
        code = main(["batch", "--cache", str(cache_dir), "--tags", "synth", "--history", "1,3", "--future", "4,4",
                     "--batch-size", "1", "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 5 and len(err) == 1 and err[0].startswith("i/o error: ") and named in err[0], err
        assert len(forks) == 1 and no_child_left()
        # The caller wrote its share, batches 0 to 24 of 50; the worker's share is gone.
        assert sorted(p.name for p in out.iterdir()) == [f"batch_{b:05d}.npz" for b in range(25)]
