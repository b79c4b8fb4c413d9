"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from trajkit.analysis import AnalysisConfig, run_analysis
from trajkit.batching import WindowSpec, build_index, get_element, seconds_to_steps
from trajkit.core import scene_validate, wrap_angle
from trajkit.ingest import (
    Circle,
    SceneCache,
    SceneMetaRecord,
    StopAndGo,
    Straight,
    cache_load,
    cache_write,
    parse_canonical_csv,
    parse_frame_text,
    synth_scene,
    write_canonical_csv,
)
from trajkit.simulation import sim_export, sim_reset, sim_score, sim_step
from trajkit.vecmap import PolygonArea, VectorMap, map_deserialize, map_serialize
from trajkit.analysis import obb_corners, obb_intersect

from conftest import convex_polygon, random_lane_map, random_scene, straight_lane
from oracles import (
    brute_closest_lanes,
    brute_lanes_within,
    crossing_number_inside,
    enumerate_qualifying,
    obb_margin,
    obb_overlap_by_sampling,
)

GRAVITY = 9.81


@contextmanager
def criterion(number: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL [{time.perf_counter() - started:.1f}s]")
        raise
    print(f"criterion {number} ({name}): PASS [{time.perf_counter() - started:.1f}s]")


def test_criterion_1_kinematics_closed_forms():
    with criterion(1, "kinematics oracle suite"):
        t0 = time.perf_counter()

        straight = synth_scene(Straight(10.0), 2, 100, 0.1)
        speed = np.hypot(straight.columns.vx, straight.columns.vy)
        assert np.all(np.abs(speed - 10.0) <= 1e-6 * 10.0)

        r, w, dt = 12.0, 0.08, 0.1
        circle = synth_scene(Circle(r, w), 2, 200, dt)
        speed = np.hypot(circle.columns.vx, circle.columns.vy)
        accel = np.hypot(circle.columns.ax, circle.columns.ay)
        assert np.all(np.abs(speed - r * w) <= 1e-6 * r * w)
        assert np.all(np.abs(accel - r * w * w) <= 1e-6 * r * w * w)

        # quarter-circle heading change: delta h at the end is exactly the swept angle
        n = 91
        w_quarter = (math.pi / 2) / ((n - 1) * dt)
        quarter = synth_scene(Circle(r, w_quarter), 1, n, dt)
        sl = quarter.rows_for_agent(0)
        dh = wrap_angle(quarter.columns.heading[sl][-1] - quarter.columns.heading[sl][0])
        assert abs(dh - math.pi / 2) <= 1e-6 * (math.pi / 2)

        stop_go = synth_scene(StopAndGo(((0.0, 20), (0.5 * GRAVITY, 30), (0.0, 50))), 1, 100, dt)
        mag = np.hypot(stop_go.columns.ax, stop_go.columns.ay)
        assert np.all(np.abs(mag[20:50] - 0.5 * GRAVITY) <= 1e-6 * 0.5 * GRAVITY)
        assert np.all(mag[:20] == 0.0) and np.all(mag[50:] == 0.0)

        for scene in (straight, circle, quarter, stop_go):
            assert scene_validate(scene) == []

        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"kinematics suite took {elapsed:.1f}s, budget 5s"


def test_criterion_2_geometry_oracle_equivalence():
    with criterion(2, "geometry oracle equivalence"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240)

        mismatches = 0
        for _ in range(100):
            vmap = random_lane_map(rng, n_lanes=int(rng.integers(2, 25)))
            points = rng.uniform(-250.0, 250.0, size=(1000, 2))
            expected = brute_closest_lanes(vmap, points)
            radius = float(rng.uniform(1.0, 60.0))
            expected_sets = brute_lanes_within(vmap, points, radius)
            for p, (lane, dist), want_set in zip(points, expected, expected_sets):
                got_lane, got_dist = vmap.closest_lane_with_distance(p)
                if got_lane != lane or got_dist != dist:
                    mismatches += 1
                if vmap.lanes_within(p, radius) != want_set:
                    mismatches += 1
        assert mismatches == 0

        areas = []
        for _ in range(5):
            ring = convex_polygon(rng, rng.uniform(-40, 40, 2), rng.uniform(5, 25))
            hole = 0.35 * (ring - ring.mean(axis=0)) + ring.mean(axis=0)
            areas.append(PolygonArea(ring, [hole]))
        vmap = VectorMap("rand:flat", [straight_lane("L1", 500.0)], road_areas=areas)
        pip_mismatches = 0
        for px, py in rng.uniform(-80.0, 80.0, size=(10_000, 2)):
            want = any(crossing_number_inside(px, py, a.rings()) for a in areas)
            if vmap.point_in_drivable_area((px, py)) != want:
                pip_mismatches += 1
        assert pip_mismatches == 0

        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"geometry suite took {elapsed:.1f}s, budget 60s"


def test_criterion_3_collision_oracle():
    with criterion(3, "collision oracle"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(777)
        checked = mismatches = 0
        while checked < 10_000:
            box_a = (
                float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)),
                float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0.5, 6)), float(rng.uniform(0.5, 3)),
            )
            box_b = (
                float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)),
                float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0.5, 6)), float(rng.uniform(0.5, 3)),
            )
            if abs(obb_margin(box_a, box_b)) <= 0.01:
                continue  # marginal: gap/penetration within 1 cm
            got = obb_intersect(obb_corners(*box_a), obb_corners(*box_b))
            want = obb_overlap_by_sampling(box_a, box_b, n_side=100)
            if got != want:
                mismatches += 1
            checked += 1
        assert mismatches == 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"collision suite took {elapsed:.1f}s, budget 60s"


def test_criterion_4_round_trips(tmp_path):
    with criterion(4, "round trips"):
        rng = np.random.default_rng(4004)

        for i in range(100):
            scene = random_scene(rng, n_agents=int(rng.integers(1, 6)), n_timesteps=int(rng.integers(5, 40)), scene_id=f"rt{i}")
            path = cache_write(scene, tmp_path / "cache")
            assert cache_load(path) == scene

        for i in range(100):
            vmap = random_lane_map(rng, n_lanes=int(rng.integers(1, 10)), pts_per_lane=int(rng.integers(2, 40)))
            data = map_serialize(vmap)
            again = map_deserialize(data)
            for lane_id, lane in vmap.lanes.items():
                err = np.abs(again.lanes[lane_id].centerline.points - lane.centerline.points).max()
                assert err <= 1e-3
                assert again.lanes[lane_id].successors == lane.successors
            assert again.map_id == vmap.map_id
            assert again.traffic_light_frame == vmap.traffic_light_frame
            assert map_serialize(again) == data

        for i in range(100):
            base = random_scene(rng, n_agents=3, n_timesteps=20, gap_prob=0.0, scene_id=f"sim{i}")
            meta = SceneMetaRecord(base.scene_id, base.dt, base.location, "rand")
            scene = parse_canonical_csv(write_canonical_csv(base, observed_only=True), meta)
            init = 2
            controlled = [m.agent_id for m in scene.agents if m.first_ts <= init and m.last_ts >= 12]
            state, _ = sim_reset(scene, init, controlled)
            cols = scene.columns
            for ts in range(init + 1, 13):
                poses = {}
                for agent_id in controlled:
                    j = next(k for k, m in enumerate(scene.agents) if m.agent_id == agent_id)
                    row = scene.row_at(j, ts)
                    poses[agent_id] = (cols.x[row], cols.y[row], cols.heading[row])
                state, _ = sim_step(state, poses)
            out = sim_export(state, tmp_path / f"sim{i}.csv")
            re = parse_canonical_csv(out.read_text(), SceneMetaRecord("x", scene.dt, scene.location, "rand"))
            from trajkit.simulation import rollout_scene

            roll = rollout_scene(state)
            for k, m in enumerate(roll.agents):
                j = next(q for q, mm in enumerate(re.agents) if mm.agent_id == m.agent_id)
                s_roll, s_re = roll.rows_for_agent(k), re.rows_for_agent(j)
                assert np.array_equal(re.columns.x[s_re], roll.columns.x[s_roll])
                assert np.array_equal(re.columns.y[s_re], roll.columns.y[s_roll])
                assert np.array_equal(re.columns.heading[s_re], roll.columns.heading[s_roll])


def test_criterion_5_batching_semantics(tmp_path):
    with criterion(5, "batching semantics"):
        cache = SceneCache(tmp_path / "cache")
        scene = synth_scene(Straight(10.0), 1, 100, 0.1)
        cache.write(scene)
        window = WindowSpec((1.0, 3.0), (4.0, 4.0))
        index = build_index(cache, ["synth"], "agent", window)
        oracle = enumerate_qualifying(scene, 10, 40)
        assert len(index) == len(oracle) == 50

        rng = np.random.default_rng(5005)
        rand_cache = SceneCache(tmp_path / "rcache")
        for i in range(5):
            rand_cache.write(random_scene(rng, n_agents=4, n_timesteps=60, gap_prob=0.2, scene_id=f"s{i}"))
        window = WindowSpec((0.4, 1.2), (0.3, 0.8))
        index = build_index(rand_cache, ["rand"], "agent", window)
        assert len(index) > 0
        for i in range(len(index)):
            el = get_element(index, i)
            assert abs(el.history[-1, 0]) <= 1e-9
            assert abs(el.history[-1, 1]) <= 1e-9
            assert abs(el.history[-1, 6]) <= 1e-9  # sin of standardized heading
            h_min = seconds_to_steps(window.history[0], el.dt)
            f_min = seconds_to_steps(window.future[0], el.dt)
            assert int(el.history_mask[:-1].sum()) >= h_min
            assert int(el.future_mask.sum()) >= f_min


def test_criterion_6_threshold_constants(tmp_path):
    with criterion(6, "threshold constants"):
        cfg = AnalysisConfig()
        assert cfg.harsh_accel_threshold == 3.924

        cache = SceneCache(tmp_path / "cache")
        cache.write(synth_scene(StopAndGo(((0.0, 5), (0.5 * GRAVITY, 10), (0.0, 25))), 1, 40, 0.1, scene_id="half-g", dataset="halfg"))
        cache.write(synth_scene(StopAndGo(((0.0, 5), (0.3 * GRAVITY, 10), (0.0, 25))), 1, 40, 0.1, scene_id="third-g", dataset="thirdg"))
        rates = run_analysis(cache, ["halfg"], ["harsh_accel"], cfg).rates["harsh_accel"]
        assert rates["halfg"]["vehicle"]["rate"] == 1.0
        rates = run_analysis(cache, ["thirdg"], ["harsh_accel"], cfg).rates["harsh_accel"]
        assert rates["thirdg"]["vehicle"]["rate"] == 0.0


def test_criterion_7_metric_invariants(tmp_path):
    with criterion(7, "metric invariants"):
        cache = SceneCache(tmp_path / "cache")
        rng = np.random.default_rng(7007)
        for i in range(4):
            cache.write(random_scene(rng, n_agents=4, n_timesteps=40, scene_id=f"s{i}"))
        report = run_analysis(
            cache,
            ["rand"],
            ["population", "simultaneous", "density", "speed", "accel", "jerk", "stationary",
             "heading_deltas", "path_efficiency", "collision", "harsh_accel"],
        )
        for metric, datasets in report.rates.items():
            for types in datasets.values():
                for entry in types.values():
                    assert 0.0 <= entry["rate"] <= 1.0
        for h in report.histograms:
            assert int(h.counts.sum()) == h.n_samples

        # path efficiency <= 100 (+1e-9) and half circle = 2/pi
        eff_cache = SceneCache(tmp_path / "eff")
        n, dt = 629, 0.1
        w = math.pi / ((n - 1) * dt)
        eff_cache.write(synth_scene(Circle(10.0, w), 1, n, dt))
        hists = run_analysis(eff_cache, ["synth"], ["path_efficiency"]).histograms
        assert hists[0].n_overflow == 0
        scene = next(iter(eff_cache.iter_scenes(["synth"])))
        sl = scene.rows_for_agent(0)
        xs, ys = scene.columns.x[sl], scene.columns.y[sl]
        path = np.sum(np.hypot(np.diff(xs), np.diff(ys)))
        eff = 100.0 * math.hypot(xs[-1] - xs[0], ys[-1] - ys[0]) / path
        assert abs(eff - 63.66) <= 0.01

        # replay Wasserstein distance is 0 (+-1e-12)
        base = synth_scene(Circle(20.0, 0.05), 3, 60, 0.1, scene_id="replay")
        meta = SceneMetaRecord(base.scene_id, base.dt, base.location, "rand")
        scene = parse_canonical_csv(write_canonical_csv(base, observed_only=True), meta)
        state, _ = sim_reset(scene, 5, [m.agent_id for m in scene.agents])
        cols = scene.columns
        for ts in range(6, scene.n_timesteps):
            poses = {}
            for j, m in enumerate(scene.agents):
                row = scene.row_at(j, ts)
                poses[m.agent_id] = (cols.x[row], cols.y[row], cols.heading[row])
            state, _ = sim_step(state, poses)
        metrics = sim_score(state, None)
        assert abs(metrics.speed_distance) <= 1e-12
        assert abs(metrics.accel_distance) <= 1e-12


def test_criterion_8_eth_ucy_reproduction():
    data_dir = os.environ.get("TRAJKIT_ETH_UCY_DIR")
    if not data_dir:
        pytest.skip(
            "criterion 8 (optional): set TRAJKIT_ETH_UCY_DIR to a directory of ETH/UCY "
            "frame-text annotation files (frame id x y per line) to run the reproduction"
        )
    with criterion(8, "ETH/UCY reproduction"):
        root = Path(data_dir)
        files = sorted(root.rglob("*.txt"))
        assert files, f"no .txt annotation files under {root}"
        total_agents = 0
        eth_stationary = {"num": 0, "den": 0}
        cfg = AnalysisConfig()
        for path in files:
            dataset = "eth" if "eth" in path.name.lower() or "hotel" in path.name.lower() else "ucy"
            meta = SceneMetaRecord(path.stem, 0.4, path.stem, dataset)
            scene = parse_frame_text(path.read_text(), meta)
            total_agents += scene.n_agents
            if dataset == "eth":
                cols = scene.columns
                for i in range(scene.n_agents):
                    sl = scene.rows_for_agent(i)
                    obs = cols.observed[sl]
                    xs, ys = cols.x[sl][obs], cols.y[sl][obs]
                    disp = np.hypot(xs - xs[0], ys - ys[0]).max()
                    eth_stationary["den"] += 1
                    if disp < cfg.stationary_threshold:
                        eth_stationary["num"] += 1
        assert abs(total_agents - 1536) <= 0.02 * 1536
        eth_rate = eth_stationary["num"] / eth_stationary["den"]
        assert abs(eth_rate - 0.04) <= 0.03
