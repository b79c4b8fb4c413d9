import builtins
import collections
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from trajkit import analysis, core, ingest, simulation
from trajkit.analysis import (
    HARSH_ACCEL_DEFAULT,
    METRIC_NAMES,
    AnalysisConfig,
    Histogram,
    MetricReport,
    _OFFROAD_BLOCK,
    _TYPE_NAMES,
    _agent_counts,
    _offroad_counts,
    _offroad_rows,
    _run_sums,
    _scene_collisions,
    emit_report,
    obb_corners,
    obb_intersect,
    run_analysis,
)
from trajkit.core import AgentMetadata, AgentType, Extent, SceneFrame
from trajkit.ingest import Circle, SceneCache, StopAndGo, Straight, synth_scene
from trajkit.kinematics import complete_track
from trajkit.vecmap import VectorMap

from conftest import count_scene_file_reads, no_child_left, random_scene, set_cpus, square_area, straight_lane
from oracles import (
    REFERENCE_METRICS,
    SCENE_POOLED_METRICS,
    bincount_simultaneous_agents,
    crossing_number_inside,
    obb_margin,
    obb_overlap_by_sampling,
    reference_obb_corners,
    reference_obb_intersect,
    reference_histogram_counts,
    reference_offroad_counts,
    reference_rates,
    reference_report,
    reference_scene_collisions,
)

DYNAMICS = ["speed", "accel", "jerk"]
# The per-scene metric functions run_analysis calls.
SCENE_METRICS = ("agent_population", "simultaneous_agents", "agent_density", "ego_agent_distances", "dynamics_distributions",
                 "stationary_fraction", "heading_deltas", "path_efficiency", "collision_rate", "harsh_accel_rate", "offroad_rate")

def _track(x, y, heading=None, observed=None):
    n = len(x)
    return {
        "x": np.asarray(x, dtype=float),
        "y": np.asarray(y, dtype=float),
        "z": np.zeros(n),
        "vx": np.zeros(n),
        "vy": np.zeros(n),
        "ax": np.zeros(n),
        "ay": np.zeros(n),
        "heading": np.zeros(n) if heading is None else np.asarray(heading, dtype=float),
        "observed": np.ones(n, dtype=bool) if observed is None else np.asarray(observed, dtype=bool),
    }


def _scene_from_tracks(tracks, types=None, extents=None, scene_id="s0", dataset="toy"):
    agents = []
    for k, t in enumerate(tracks):
        n = len(t["x"])
        agent_type = types[k] if types else AgentType.VEHICLE
        extent = extents[k] if extents else Extent(4.0, 2.0)
        agents.append(AgentMetadata(f"a{k}", agent_type, extent, 0, n - 1))
    return SceneFrame.from_tracks(scene_id, dataset, "nowhere", 0.1, agents, tracks)


def _renamed(scene, *agent_ids):
    """The scene with its first agents given these ids."""
    return dataclasses.replace(scene, agent_ids=(*agent_ids, *scene.agent_ids[len(agent_ids):]))


def _cache_of(path, scenes):
    """A scene cache at path holding the scenes."""
    cache = SceneCache(path)
    cache.write_many(scenes)
    return cache


class TestHistogram:
    def test_counts_equal_samples(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(5.0, 10.0, size=1000)  # many out of [0, 10]
        h = Histogram.from_samples("m", "d", "all", samples, np.linspace(0.0, 10.0, 11))
        assert h.n_samples == 1000
        assert h.n_underflow == int((samples < 0).sum())
        assert h.n_overflow == int((samples > 10).sum())

    def test_nonfinite_dropped(self):
        h = Histogram.from_samples("m", "d", "all", [1.0, np.nan, np.inf, 2.0], [0.0, 5.0])
        assert h.n_samples == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_counts_equal_clipped_reference(self, seed):
        rng = np.random.default_rng(seed)
        edges = np.cumsum(rng.uniform(0.1, 2.0, size=int(rng.integers(2, 40))))
        samples = rng.normal(edges.mean(), np.ptp(edges), size=int(rng.integers(0, 500)))
        samples[rng.random(len(samples)) < 0.1] = rng.choice([np.nan, np.inf, -np.inf, edges[0], edges[-1]])
        for bins in (edges, edges[:2]):  # one bin takes both underflow and overflow
            h = Histogram.from_samples("m", "d", "all", samples, bins)
            counts, under, over = reference_histogram_counts(samples, bins)
            assert h.counts.tobytes() == counts.astype(np.int64).tobytes()
            assert (h.n_underflow, h.n_overflow) == (under, over)

    def test_edges_validation(self):
        with pytest.raises(ValueError):
            Histogram.from_samples("m", "d", "all", [1.0], [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("edges", [[0.0, np.nan, 10.0], [np.inf, np.inf], [-np.inf, -np.inf], [0.0, 10.0, 5.0], [1.0]])
    def test_edges_each_greater_than_the_last(self, edges):
        # The difference test it replaced let NaN and two equal infinities through.
        with pytest.raises(ValueError, match="must hold 2 or more edges, each greater than the one before"):
            Histogram.from_samples("m", "d", "all", [1.0], edges)
        with pytest.raises(ValueError, match="histogram_bins 'speed' must hold"):
            AnalysisConfig(histogram_bins={"speed": edges})

    def test_a_run_checks_each_bin_list_once(self, tmp_path, monkeypatch):
        # run_analysis checks the config's edges as it starts; binning a scene takes them as checked.
        rng = np.random.default_rng(7)
        cache = _cache_of(tmp_path / "cache", [random_scene(rng, scene_id=f"s{k}") for k in range(3)])
        cfg, checked, check = AnalysisConfig(), [], analysis._checked_edges
        monkeypatch.setattr(analysis, "_checked_edges", lambda values, *what: checked.append(type(values)) or check(values, *what))
        run_analysis(cache, ["rand"], METRIC_NAMES, cfg)
        assert sum(kind is not analysis._Edges for kind in checked) == len(cfg.histogram_bins)
        assert checked.count(analysis._Edges) > 3 * 10

    def test_unknown_bins_name_rejected(self):
        with pytest.raises(ValueError, match="histogram_bins 'sped' names no histogram; valid names: speed, accel"):
            AnalysisConfig(histogram_bins={**AnalysisConfig().histogram_bins, "sped": [0.0, 100.0]})


class TestConfig:
    def test_defaults(self):
        cfg = AnalysisConfig()
        assert cfg.harsh_accel_threshold == 3.924
        assert cfg.harsh_accel_threshold == HARSH_ACCEL_DEFAULT
        assert cfg.stationary_threshold == 1.0
        assert cfg.density_min_agents == 2

    def test_json_round_trip(self):
        cfg = AnalysisConfig(stationary_threshold=2.0, per_timestep_rates=True)
        again = AnalysisConfig.from_json(json.dumps(cfg.to_dict()))
        assert again.to_dict() == cfg.to_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            AnalysisConfig(stationary_threshold=0.0)

    @pytest.mark.parametrize("field, message", [
        ("harsh_accel_threshold", "harsh_accel_threshold must be > 0"),
        ("density_min_agents", "density_min_agents must be >= 1"),
    ])
    def test_zero_bound_rejected(self, field, message):
        with pytest.raises(ValueError) as info:
            AnalysisConfig(**{field: 0})
        assert str(info.value) == message

    @pytest.mark.parametrize("text", ["{}", '{"offroad_types": ["bicycle"], "histogram_bins": {"speed": [0, 1, 2]}}'])
    def test_to_dict_is_asdict_without_aliasing(self, text):
        cfg = AnalysisConfig.from_json(text)
        before = dataclasses.asdict(cfg)
        out = cfg.to_dict()
        assert out == {**before, "offroad_types": list(cfg.offroad_types)}
        out["histogram_bins"]["speed"].append(99.0)
        out["histogram_bins"]["extra"] = [0.0, 1.0]
        out["offroad_types"].append("unknown")
        assert dataclasses.asdict(cfg) == before


class TestPopulation:
    def test_type_proportions(self, cache):
        scene = _scene_from_tracks(
            [_track([0, 1], [0, 0]) for _ in range(4)],
            types=[AgentType.VEHICLE] * 3 + [AgentType.PEDESTRIAN],
        )
        cache.write(scene)
        pop = run_analysis(cache, ["toy"], ["population"]).population
        assert pop["toy"]["unique_agents"] == 4
        assert pop["toy"]["type_fractions"] == {"pedestrian": 0.25, "vehicle": 0.75}

    def test_disjoint_scenes_add(self, cache):
        s1 = _scene_from_tracks([_track([0, 1], [0, 0])], scene_id="s1")
        s2 = _scene_from_tracks([_track([0, 1], [0, 0]), _track([5, 6], [0, 0])], scene_id="s2")
        s2 = _renamed(s2, "b0", "b1")
        cache.write(s1)
        cache.write(s2)
        assert run_analysis(cache, ["toy"], ["population"]).population["toy"]["unique_agents"] == 3

    def test_shared_id_counts_once(self, cache):
        s1 = _scene_from_tracks([_track([0, 1], [0, 0])], scene_id="s1")
        s2 = _scene_from_tracks([_track([0, 1], [0, 0])], scene_id="s2")
        cache.write(s1)
        cache.write(s2)
        assert run_analysis(cache, ["toy"], ["population"]).population["toy"]["unique_agents"] == 1


class TestSimultaneous:
    def _scene(self, spans):
        tracks, agents = [], []
        for k, (a, b) in enumerate(spans):
            n = b - a + 1
            t = _track(np.zeros(n), np.zeros(n))
            tracks.append(t)
            agents.append(AgentMetadata(f"a{k}", AgentType.VEHICLE, None, a, b))
        return SceneFrame.from_tracks("s0", "toy", "nowhere", 0.1, agents, tracks)

    def test_disjoint_lifetimes(self, cache):
        cache.write(self._scene([(0, 4), (5, 9)]))
        hists = run_analysis(cache, ["toy"], ["simultaneous"]).histograms
        per_max = next(h for h in hists if h.name == "simultaneous_scene_max")
        assert per_max.counts[1] == 1  # one scene whose max is 1

    def test_overlap(self, cache):
        cache.write(self._scene([(0, 4), (3, 9)]))
        hists = run_analysis(cache, ["toy"], ["simultaneous"]).histograms
        per_max = next(h for h in hists if h.name == "simultaneous_scene_max")
        assert per_max.counts[2] == 1

    def test_matches_brute_sweep(self, cache):
        rng = np.random.default_rng(6)
        scene = random_scene(rng, n_agents=6, n_timesteps=40)
        cache.write(scene)
        hists = run_analysis(cache, ["rand"], ["simultaneous"]).histograms
        per_ts = next(h for h in hists if h.name == "simultaneous_per_ts")
        # O(agents * ts) recount
        counts = [
            sum(1 for m in scene.agents if m.first_ts <= ts <= m.last_ts)
            for ts in range(scene.n_timesteps)
        ]
        want, _ = np.histogram(counts, bins=per_ts.edges)
        assert np.array_equal(per_ts.counts, want)

    @pytest.mark.parametrize("edges", [None, [0.5, 1.5, 2.5]], ids=["default", "narrow"])
    def test_matches_bincount_form(self, tmp_path, edges):
        # Lifetime-endpoint runs against one count per timestep, on 200 scenes
        # in 20 datasets; the narrow edges fold counts into both boundary bins.
        rng = np.random.default_rng(21)
        cfg = AnalysisConfig()
        if edges is not None:
            cfg.histogram_bins["simultaneous"] = edges
        scenes = [
            random_scene(rng, n_agents=int(rng.integers(1, 8)), n_timesteps=int(rng.integers(3, 60)), scene_id=f"s{k}", dataset=f"d{k % 20:02d}")
            for k in range(200)
        ]
        # No agent at ts 0 ... 2 or 5 ... 7.
        scenes.append(dataclasses.replace(self._scene([(3, 4), (8, 9), (8, 12)]), scene_id="s200", dataset_tag="d00"))
        datasets = {f"d{k:02d}": scenes[k::20] for k in range(20)}
        got = run_analysis(_cache_of(tmp_path / "cache", scenes), list(datasets), ["simultaneous"], cfg).histograms
        want = sorted(bincount_simultaneous_agents(datasets, cfg), key=lambda h: (h.name, h.dataset))
        assert [(h.name, h.dataset) for h in got] == [(h.name, h.dataset) for h in want]
        for g, w in zip(got, want):
            assert g.counts.dtype == np.int64 and np.array_equal(g.counts, w.counts), (g.name, g.dataset)
            assert (g.n_underflow, g.n_overflow) == (w.n_underflow, w.n_overflow)
        per_ts = [h for h in got if h.name == "simultaneous_per_ts"]
        assert sum(h.n_samples for h in per_ts) == sum(s.n_timesteps for s in scenes)

    def test_lifetime_far_from_ts_zero(self, cache):
        # One agent at ts 2**45 ... 2**45 + 19: a count per timestep would need 256 TiB.
        start = 2**45
        cache.write(SceneFrame.from_tracks(
            "s0", "toy", "nowhere", 0.1, [AgentMetadata("a0", AgentType.VEHICLE, None, start, start + 19)], [_track(np.zeros(20), np.zeros(20))]
        ))
        tracemalloc.start()
        try:
            per_ts, per_max = run_analysis(cache, ["toy"], ["simultaneous"]).histograms
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert per_ts.n_samples == start + 20
        assert (per_ts.counts[0], per_ts.counts[1]) == (start, 20)
        assert per_max.n_samples == per_max.counts[1] == 1
        assert peak < 1 << 20

    def test_dataset_beyond_int64_timesteps(self, tmp_path):
        # Each scene lives at ts 2**62 ... 2**62 + 5; together they span 2**63 + 12 timesteps.
        start = 2**62
        scenes = [
            SceneFrame.from_tracks(f"s{k}", "toy", "nowhere", 0.1, [AgentMetadata("a0", AgentType.VEHICLE, None, start, start + 5)],
                                   [_track(np.zeros(6), np.zeros(6))])
            for k in range(2)
        ]
        with pytest.raises(ValueError, match=r"dataset toy: its scenes span 9223372036854775820 timesteps"):
            run_analysis(_cache_of(tmp_path / "both", scenes), ["toy"], ["simultaneous"])
        per_ts, _ = run_analysis(_cache_of(tmp_path / "one", scenes[:1]), ["toy"], ["simultaneous"]).histograms
        assert per_ts.n_samples == start + 6 and (per_ts.counts[0], per_ts.counts[1]) == (start, 6)


class TestDensity:
    def test_four_corner_square(self, cache):
        tracks = [
            _track([0.0, 0.0], [0.0, 0.0]),
            _track([10.0, 10.0], [0.0, 0.0]),
            _track([10.0, 10.0], [10.0, 10.0]),
            _track([0.0, 0.0], [10.0, 10.0]),
        ]
        cache.write(_scene_from_tracks(tracks))
        report = run_analysis(cache, ["toy"], ["density"])
        hists, tallies = report.histograms, report.tallies
        h = hists[0]
        # all samples are 4 agents / 100 m^2
        bin_idx = np.searchsorted(h.edges, 0.04, side="right") - 1
        assert h.counts[bin_idx] == h.n_samples == 2
        assert tallies["density_skipped_degenerate"] == 0

    def test_collinear_skipped(self, cache):
        tracks = [_track([0.0, 0.0], [0.0, 0.0]), _track([5.0, 5.0], [0.0, 0.0])]
        cache.write(_scene_from_tracks(tracks))
        report = run_analysis(cache, ["toy"], ["density"])
        hists, tallies = report.histograms, report.tallies
        assert hists[0].n_samples == 0
        assert tallies["density_skipped_degenerate"] == 2

    def test_matches_direct_recompute(self, cache):
        rng = np.random.default_rng(13)
        scene = random_scene(rng, n_agents=5, n_timesteps=30, gap_prob=0.0)
        cache.write(scene)
        cfg = AnalysisConfig()
        hists = run_analysis(cache, ["rand"], ["density"], cfg).histograms
        samples = []
        for ts in range(scene.n_timesteps):
            pts = []
            for i, m in enumerate(scene.agents):
                r = scene.row_at(i, ts)
                if r is not None:
                    pts.append((scene.columns.x[r], scene.columns.y[r]))
            if len(pts) < cfg.density_min_agents:
                continue
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            area = (max(xs) - min(xs)) * (max(ys) - min(ys))
            if area > 0:
                samples.append(len(pts) / area)
        want, _ = np.histogram(np.clip(samples, 0, 2), bins=hists[0].edges)
        assert np.array_equal(hists[0].counts, want)


class TestEgoDistances:
    def test_fixed_distance(self, cache):
        scene = _renamed(_scene_from_tracks([_track(np.zeros(5), np.zeros(5)), _track(np.full(5, 10.0), np.zeros(5))]), "ego")
        cache.write(scene)
        report = run_analysis(cache, ["toy"], ["ego_distances"])
        hists, tallies = report.histograms, report.tallies
        h = hists[0]
        assert h.n_samples == 5
        bin_idx = np.searchsorted(h.edges, 10.0, side="right") - 1
        assert h.counts[bin_idx] == 5

    def test_no_other_agents(self, cache):
        scene = _renamed(_scene_from_tracks([_track(np.zeros(5), np.zeros(5))]), "ego")
        cache.write(scene)
        hists = run_analysis(cache, ["toy"], ["ego_distances"]).histograms
        assert hists[0].n_samples == 0

    def test_missing_ego_tallied(self, cache):
        cache.write(_scene_from_tracks([_track(np.zeros(5), np.zeros(5))]))
        report = run_analysis(cache, ["toy"], ["ego_distances"])
        hists, tallies = report.histograms, report.tallies
        assert tallies["ego_distance_scenes_missing_ego"] == 1


class TestDynamics:
    def test_straight_speed(self, cache):
        cache.write(synth_scene(Straight(10.0), 1, 50, 0.1))
        hists = run_analysis(cache, ["synth"], DYNAMICS).histograms
        speed = next(h for h in hists if h.name == "speed" and h.agent_type == "vehicle")
        bin_idx = np.searchsorted(speed.edges, 10.0, side="right") - 1
        assert speed.counts[bin_idx] == speed.n_samples == 50

    def test_circle_centripetal(self, cache):
        r, w = 10.0, 0.1
        cache.write(synth_scene(Circle(r, w), 1, 50, 0.1))
        scene = next(iter(cache.iter_scenes(["synth"])))
        accel = np.hypot(scene.columns.ax, scene.columns.ay)
        assert np.allclose(accel, r * w * w, rtol=1e-9)
        hists = run_analysis(cache, ["synth"], DYNAMICS).histograms
        a_hist = next(h for h in hists if h.name == "accel")
        bin_idx = np.searchsorted(a_hist.edges, r * w * w, side="right") - 1
        assert a_hist.counts[bin_idx] == a_hist.n_samples

    def test_stationary_speed_zero(self, cache):
        cache.write(_scene_from_tracks([_track(np.zeros(10), np.zeros(10))]))
        hists = run_analysis(cache, ["toy"], DYNAMICS).histograms
        speed = next(h for h in hists if h.name == "speed")
        assert speed.counts[0] == speed.n_samples == 10


class TestStationary:
    def test_all_static(self, cache):
        cache.write(_scene_from_tracks([_track(np.zeros(10), np.zeros(10)) for _ in range(3)]))
        rates = run_analysis(cache, ["toy"], ["stationary"]).rates["stationary"]
        assert rates["toy"]["all"]["rate"] == 1.0

    def test_all_movers(self, cache):
        cache.write(synth_scene(Straight(10.0), 3, 50, 0.1))
        rates = run_analysis(cache, ["synth"], ["stationary"]).rates["stationary"]
        assert rates["synth"]["all"]["rate"] == 0.0
        assert rates["synth"]["all"]["den"] == 3

    def test_threshold_strict(self, cache):
        # displacement exactly 1.0 m is not < 1.0 -> not stationary
        cache.write(_scene_from_tracks([_track([0.0, 1.0], [0.0, 0.0])]))
        rates = run_analysis(cache, ["toy"], ["stationary"]).rates["stationary"]
        assert rates["toy"]["all"]["rate"] == 0.0


class TestHeadingDeltas:
    def test_straight_mover_all_zero(self, cache):
        cache.write(synth_scene(Straight(10.0), 1, 50, 0.1))
        hists = run_analysis(cache, ["synth"], ["heading_deltas"]).histograms
        dh = next(h for h in hists if h.name == "heading_delta")
        mid = np.searchsorted(dh.edges, 0.0, side="right") - 1
        assert dh.counts[mid] == dh.n_samples

    def test_quarter_circle_final_delta(self, cache):
        # 90 degrees of turn: omega * dt * (n - 1) = pi/2
        n, dt = 91, 0.1
        w = (math.pi / 2) / ((n - 1) * dt)
        cache.write(synth_scene(Circle(10.0, w), 1, n, dt))
        scene = next(iter(cache.iter_scenes(["synth"])))
        sl = scene.rows_for_agent(0)
        h = scene.columns.heading[sl]
        from trajkit.core import wrap_angle

        final = wrap_angle(h[-1] - h[0])
        assert final == pytest.approx(math.pi / 2, rel=1e-9)

    def test_u_turn_wraps_to_pi(self, cache):
        n, dt = 91, 0.1
        w = math.pi / ((n - 1) * dt)
        cache.write(synth_scene(Circle(10.0, w), 1, n, dt))
        scene = next(iter(cache.iter_scenes(["synth"])))
        sl = scene.rows_for_agent(0)
        from trajkit.core import wrap_angle

        final = wrap_angle(scene.columns.heading[sl][-1] - scene.columns.heading[sl][0])
        assert final == pytest.approx(math.pi, rel=1e-9)

    def test_cumulative_option(self, cache):
        n, dt = 91, 0.1
        w = (2 * math.pi) / ((n - 1) * dt)  # full loop
        cache.write(synth_scene(Circle(10.0, w), 1, n, dt))
        cfg = AnalysisConfig(cumulative_heading=True)
        hists = run_analysis(cache, ["synth"], ["heading_deltas"], cfg).histograms
        dh = next(h for h in hists if h.name == "heading_delta")
        assert dh.n_overflow > 0  # cumulative delta reaches 2*pi, beyond the wrapped range


class TestPathEfficiency:
    def test_straight_line_100(self, cache):
        cache.write(synth_scene(Straight(10.0), 1, 50, 0.1))
        hists = run_analysis(cache, ["synth"], ["path_efficiency"]).histograms
        h = hists[0]
        assert h.counts[-1] == h.n_samples  # last bin [99, 100]

    def test_half_circle_two_over_pi(self, cache):
        n = 629
        dt = 0.1
        w = math.pi / ((n - 1) * dt)
        cache.write(synth_scene(Circle(10.0, w), 1, n, dt))
        scene = next(iter(cache.iter_scenes(["synth"])))
        sl = scene.rows_for_agent(0)
        xs, ys = scene.columns.x[sl], scene.columns.y[sl]
        path = np.sum(np.hypot(np.diff(xs), np.diff(ys)))
        eff = 100.0 * math.hypot(xs[-1] - xs[0], ys[-1] - ys[0]) / path
        assert eff == pytest.approx(200.0 / math.pi, abs=0.01)

    def test_closed_loop_zero(self, cache):
        n = 629
        dt = 0.1
        w = 2 * math.pi / ((n - 1) * dt)
        cache.write(synth_scene(Circle(10.0, w), 1, n, dt))
        hists = run_analysis(cache, ["synth"], ["path_efficiency"]).histograms
        assert hists[0].counts[0] == 1  # first bin [0, 1)

    def test_static_agent_defined_100(self, cache):
        cache.write(_scene_from_tracks([_track(np.zeros(10), np.zeros(10))]))
        report = run_analysis(cache, ["toy"], ["path_efficiency"])
        hists, tallies = report.histograms, report.tallies
        assert tallies["path_efficiency_zero_path_agents"] == 1
        assert hists[0].counts[-1] == 1

    def test_endpoint_distance_uses_math_hypot(self, cache):
        # math.hypot rounds this endpoint distance one ulp above np.hypot, which
        # measures the path, so the straight two-row agent reads just over 100%.
        dx, dy = 90.0 / 7.0, 26.0 / 3.0
        assert math.hypot(dx, dy) > np.hypot(dx, dy)
        cache.write(_scene_from_tracks([_track([0.0, dx], [0.0, dy])]))
        hists = run_analysis(cache, ["toy"], ["path_efficiency"]).histograms
        assert hists[0].n_overflow == 1

    def test_never_exceeds_100(self, cache):
        rng = np.random.default_rng(19)
        for i in range(5):
            cache.write(random_scene(rng, scene_id=f"s{i}"))
        hists = run_analysis(cache, ["rand"], ["path_efficiency"]).histograms
        for h in hists:
            assert h.n_overflow == 0


class TestObb:
    def test_corners_axis_aligned(self):
        c = obb_corners(0.0, 0.0, 0.0, 4.0, 2.0)
        assert np.allclose(sorted(c[:, 0]), [-2, -2, 2, 2])
        assert np.allclose(sorted(c[:, 1]), [-1, -1, 1, 1])

    def test_deep_overlap(self):
        a = obb_corners(0.0, 0.0, 0.0, 4.0, 2.0)
        b = obb_corners(1.0, 0.0, 0.0, 4.0, 2.0)
        assert obb_intersect(a, b)

    def test_far_apart(self):
        a = obb_corners(0.0, 0.0, 0.0, 4.0, 2.0)
        b = obb_corners(10.0, 0.0, 0.0, 4.0, 2.0)
        assert not obb_intersect(a, b)

    def test_rotation_matters(self):
        # long thin boxes crossing like an X intersect; parallel do not
        a = obb_corners(0.0, 0.0, 0.0, 10.0, 0.5)
        b = obb_corners(0.0, 2.0, 0.0, 10.0, 0.5)
        assert not obb_intersect(a, b)
        c = obb_corners(0.0, 0.0, math.pi / 2, 10.0, 0.5)
        assert obb_intersect(a, c)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            box_a = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 2 * math.pi), rng.uniform(1, 6), rng.uniform(0.5, 3))
            box_b = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 2 * math.pi), rng.uniform(1, 6), rng.uniform(0.5, 3))
            ca, cb = obb_corners(*box_a), obb_corners(*box_b)
            assert obb_intersect(ca, cb) == obb_intersect(cb, ca)

    def test_matches_sampling_oracle_non_marginal(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 300:
            box_a = (rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(0, 2 * math.pi), rng.uniform(1, 6), rng.uniform(0.5, 3))
            box_b = (rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(0, 2 * math.pi), rng.uniform(1, 6), rng.uniform(0.5, 3))
            if abs(obb_margin(box_a, box_b)) <= 0.01:
                continue
            got = obb_intersect(obb_corners(*box_a), obb_corners(*box_b))
            want = obb_overlap_by_sampling(box_a, box_b, n_side=60)
            assert got == want
            checked += 1


class TestCollisionRate:
    def test_deep_overlap_counts(self, cache):
        tracks = [_track([0.0, 0.0], [0.0, 0.0]), _track([1.0, 1.0], [0.0, 0.0])]
        cache.write(_scene_from_tracks(tracks))
        rates = run_analysis(cache, ["toy"], ["collision"]).rates["collision"]
        assert rates["toy"]["vehicle"]["rate"] == 1.0

    def test_distant_boxes_do_not(self, cache):
        tracks = [_track([0.0, 0.0], [0.0, 0.0]), _track([10.0, 10.0], [0.0, 0.0])]
        cache.write(_scene_from_tracks(tracks))
        rates = run_analysis(cache, ["toy"], ["collision"]).rates["collision"]
        assert rates["toy"]["vehicle"]["rate"] == 0.0

    def test_extent_less_excluded_and_tallied(self, cache):
        tracks = [_track([0.0, 0.0], [0.0, 0.0]), _track([1.0, 1.0], [0.0, 0.0]), _track([0.5, 0.5], [0.0, 0.0])]
        scene = _scene_from_tracks(tracks, extents=[Extent(4.0, 2.0), Extent(4.0, 2.0), None])
        cache.write(scene)
        report = run_analysis(cache, ["toy"], ["collision"])
        rates, tallies = report.rates["collision"], report.tallies
        assert rates["toy"]["vehicle"]["den"] == 2
        assert tallies["collision_agents_without_extent"] == 1

    def test_per_timestep_variant(self, cache):
        # overlap on both timesteps for both agents
        tracks = [_track([0.0, 0.0], [0.0, 0.0]), _track([1.0, 1.0], [0.0, 0.0])]
        cache.write(_scene_from_tracks(tracks))
        rates = run_analysis(cache, ["toy"], ["collision"], AnalysisConfig(per_timestep_rates=True)).rates["collision"]
        entry = rates["toy"]["vehicle"]
        assert entry["den"] == 4 and entry["num"] == 4


_HEADINGS = (0.0, math.pi / 2, -math.pi / 2, math.pi)


def _grid_boxes(rng, n):
    """(cx, cy, yaw, length, width) of n boxes on a 0.5 m grid, with lengths
    and widths of whole and half metres, so neighbours touch and share
    centres; half the headings are 0, +-pi/2 or pi."""
    x, y = rng.integers(-8, 9, size=(2, n)) * 0.5
    yaw = np.where(rng.random(n) < 0.5, rng.choice(_HEADINGS, n), rng.uniform(-math.pi, math.pi, n))
    return x, y, yaw, rng.choice([1.0, 2.0, 3.5], n), rng.choice([0.5, 1.0, 2.0], n)


class TestObbStack:
    """Stacked obb_corners/obb_intersect equal their one-box calls and the
    per-box code they replaced, byte for byte and verdict for verdict."""

    def test_stacked_corners_equal_per_box_bytes(self):
        boxes = _grid_boxes(np.random.default_rng(8), 2000)
        stacked = obb_corners(*boxes)
        assert stacked.shape == (2000, 4, 2)
        per_box = np.array([obb_corners(*b) for b in zip(*(v.tolist() for v in boxes))])
        reference = np.array([reference_obb_corners(*b) for b in zip(*(v.tolist() for v in boxes))])
        assert stacked.tobytes() == per_box.tobytes() == reference.tobytes()

    def test_stacked_intersect_equals_per_box(self):
        rng = np.random.default_rng(9)
        a, b = obb_corners(*_grid_boxes(rng, 3000)), obb_corners(*_grid_boxes(rng, 3000))
        got = obb_intersect(a, b)
        assert got.dtype == bool and got.shape == (3000,)
        assert got.any() and not got.all()
        assert got.tolist() == [obb_intersect(p, q) for p, q in zip(a, b)]
        assert got.tolist() == [reference_obb_intersect(p, q) for p, q in zip(a, b)]

    def test_touching_pairs_overlap_in_a_stack(self):
        x, y, _, length, width = _grid_boxes(np.random.default_rng(10), 500)
        yaw = np.zeros(500)
        a = obb_corners(x, y, yaw, length, width)
        for dx, dy in ((length, 0.0), (0.0, width), (length, width), (-length, width), (0.0, 0.0)):
            b = obb_corners(x + dx, y + dy, yaw, length, width)
            assert obb_intersect(a, b).all() and obb_intersect(b, a).all()
            assert all(obb_intersect(p, q) and reference_obb_intersect(p, q) for p, q in zip(a, b))
        assert not obb_intersect(a, obb_corners(x + length + 0.01, y, yaw, length, width)).any()

    def test_rotated_touching_pairs_equal_per_box(self):
        # Boxes moved by their own length or width along their axes touch
        # up to rounding, so a verdict here turns on the projections' last bit.
        rng = np.random.default_rng(11)
        x, y = rng.uniform(-20.0, 20.0, size=(2, 2000))
        yaw, length, width = rng.uniform(-math.pi, math.pi, 2000), rng.uniform(1.0, 5.0, 2000), rng.uniform(0.5, 2.0, 2000)
        c, s = np.cos(yaw), np.sin(yaw)
        a = obb_corners(x, y, yaw, length, width)
        for dx, dy in ((length * c, length * s), (-width * s, width * c)):
            b = obb_corners(x + dx, y + dy, yaw, length, width)
            got = obb_intersect(a, b)
            assert got.tolist() == [reference_obb_intersect(p, q) for p, q in zip(a, b)]
            assert got.any() and not got.all()

    def test_one_box_shapes(self):
        a, b = obb_corners(0.0, 0.0, 0.0, 4.0, 2.0), obb_corners(1.0, 0.0, 0.0, 4.0, 2.0)
        assert a.shape == (4, 2)
        assert obb_intersect(a, b) is True
        assert obb_intersect(a, obb_corners(9.0, 0.0, 0.0, 4.0, 2.0)) is False
        assert obb_intersect(a[None], b[None]).tolist() == [True]
        assert obb_intersect(np.zeros((0, 4, 2)), np.zeros((0, 4, 2))).shape == (0,)


def _grid_scene(rng, scene_id, boxed=0.7, n_agents=14, n_ts=10):
    """A crowded scene on the grid of _grid_boxes with headings from
    _HEADINGS only: lifetimes of 1 to 5 steps, so timesteps hold 0, 1 or
    many boxes, and extent-less agents (a 1 - boxed share) among boxed ones."""
    agents, tracks = [], []
    for k in range(n_agents):
        first = int(rng.integers(0, n_ts))
        last = min(first + int(rng.integers(0, 5)), n_ts - 1)
        x, y, _, length, width = _grid_boxes(rng, last - first + 1)
        tracks.append(_track(x, y, rng.choice(_HEADINGS, len(x))))
        extent = Extent(float(length[0]), float(width[0])) if rng.random() < boxed else None
        agent_type = AgentType.PEDESTRIAN if k % 3 == 0 else AgentType.VEHICLE
        agents.append(AgentMetadata(f"a{k}", agent_type, extent, first, last))
    return SceneFrame.from_tracks(scene_id, "grid", "nowhere", 0.1, agents, tracks)


def _assert_collisions_match_reference(scene):
    got, want = _scene_collisions(scene), reference_scene_collisions(scene)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    return got


class TestCollisionKernel:
    """The offset sweep of _scene_collisions against the per-pair loop in
    oracles.py."""

    def test_grid_scenes_match_reference(self):
        rng = np.random.default_rng(12)
        boxes_per_ts, events = [], 0
        for seed in range(40):
            scene = _grid_scene(rng, f"g{seed}", boxed=0.0 if seed == 0 else 0.7)
            events += int(_assert_collisions_match_reference(scene)[0].sum())
            boxed = np.array([m.extent is not None for m in scene.agents])[scene.columns.agent_index]
            boxes_per_ts += np.bincount(scene.columns.ts[boxed], minlength=scene.n_timesteps).tolist()
        assert events > 0
        assert {0, 1} <= set(boxes_per_ts) and max(boxes_per_ts) >= 5

    @pytest.mark.parametrize("per_timestep", [False, True])
    def test_report_bytes_match_reference(self, tmp_path, monkeypatch, per_timestep):
        rng = np.random.default_rng(13)
        cache = SceneCache(tmp_path / "cache")
        for s in range(8):
            cache.write(_grid_scene(rng, f"g{s}", boxed=0.0 if s == 0 else 0.7))
        cfg = AnalysisConfig(per_timestep_rates=per_timestep)
        got = emit_report(run_analysis(cache, ["grid"], ["collision"], cfg), tmp_path / "got")
        monkeypatch.setattr(analysis, "_scene_collisions", reference_scene_collisions)
        want = emit_report(run_analysis(cache, ["grid"], ["collision"], cfg), tmp_path / "want")
        assert [p.read_bytes() for p in got] == [p.read_bytes() for p in want]
        rates = json.loads(got[-1].read_text())["rates"]["collision"]["grid"]
        assert any(0 < e["num"] < e["den"] for e in rates.values())

    @pytest.mark.parametrize(
        "xy_b, hit",
        [
            ((2.0, 0.0), True),    # edge to edge
            ((2.0, 1.0), True),    # corner to corner
            ((0.0, 0.0), True),    # same centre
            ((2.01, 0.0), False),  # 1 cm apart
        ],
    )
    def test_touching_boxes(self, xy_b, hit):
        tracks = [_track([0.0], [0.0]), _track([xy_b[0]], [xy_b[1]])]
        events, rows = _assert_collisions_match_reference(_scene_from_tracks(tracks, extents=[Extent(2.0, 1.0)] * 2))
        assert rows.tolist() == [1, 1] and events.tolist() == [int(hit)] * 2

    def test_corner_touch_at_the_prefilter_bound(self):
        # Equal boxes at heading 0 that touch corner to corner: the centre
        # distance equals the sum of circumscribed radii, so the prefilter
        # keeps the pair only if it measures that distance as math.hypot does.
        rng = np.random.default_rng(14)
        dims = rng.uniform(0.5, 6.0, size=(1000, 2))
        agents, tracks = [], []
        for k, (length, width) in enumerate(dims.tolist()):
            for j, (x, y) in enumerate(((0.0, 0.0), (length, width))):
                agents.append(AgentMetadata(f"a{k}_{j}", AgentType.VEHICLE, Extent(length, width), k, k))
                tracks.append(_track([x], [y]))
        events, rows = _assert_collisions_match_reference(SceneFrame.from_tracks("s0", "toy", "nowhere", 0.1, agents, tracks))
        assert np.array_equal(events, rows) and rows.sum() == 2000

    def test_distance_stage_at_the_radius_sum(self, monkeypatch):
        # One pair per timestep: at, one ULP inside or one ULP outside the sum
        # of circumscribed radii along an axis; on a random diagonal nudged by
        # one ULP, where d2 and math.hypot round apart; and one pair so far
        # apart that its squared distance overflows. With every box test a
        # hit, a pair collides exactly when math.hypot(dx, dy) <= rsum.
        rng = np.random.default_rng(15)
        agents, tracks, want = [], [], []
        for k, (la, wa, lb, wb, angle) in enumerate(rng.uniform(0.5, 6.0, size=(601, 5)).tolist()):
            rsum = 0.5 * math.hypot(la, wa) + 0.5 * math.hypot(lb, wb)
            toward = (-math.inf, rsum, math.inf)[k % 3]
            if k == 600:
                xy_b = (1e200, 0.0)
            elif k % 6 < 3:
                d = math.nextafter(rsum, toward)
                xy_b = (d, 0.0) if k % 2 else (0.0, d)
            else:
                xy_b = (math.nextafter(rsum * math.cos(angle), toward), rsum * math.sin(angle))
            for j, (extent, (x, y)) in enumerate(((Extent(la, wa), (0.0, 0.0)), (Extent(lb, wb), xy_b))):
                agents.append(AgentMetadata(f"a{k}_{j}", AgentType.VEHICLE, extent, k, k))
                tracks.append(_track([x], [y]))
            want += [int(math.hypot(0.0 - xy_b[0], 0.0 - xy_b[1]) <= rsum)] * 2
        scene = SceneFrame.from_tracks("s0", "toy", "nowhere", 0.1, agents, tracks)
        _assert_collisions_match_reference(scene)
        monkeypatch.setattr(analysis, "obb_intersect", lambda a, b: np.ones(len(a), dtype=bool))
        events, rows = _scene_collisions(scene)
        assert events.tolist() == want and rows.sum() == 1202
        assert 500 < sum(want) < 1000

    def test_extent_less_agents_between_boxes(self):
        # a and c overlap only with each other, with extent-less b between
        # them in every timestep; d's box is far away.
        tracks = [_track([0.0, 0.0], [0.0, 0.0]), _track([0.5, 0.5], [0.0, 0.0]), _track([1.0, 1.0], [0.0, 0.0]), _track([9.0, 9.0], [0.0, 0.0])]
        extents = [Extent(2.0, 1.0), None, Extent(2.0, 1.0), Extent(2.0, 1.0)]
        events, rows = _assert_collisions_match_reference(_scene_from_tracks(tracks, extents=extents))
        assert events.tolist() == [2, 0, 2, 0] and rows.tolist() == [2, 0, 2, 2]

    def test_no_extents(self):
        tracks = [_track([0.0, 0.0], [0.0, 0.0]), _track([0.0, 0.0], [0.0, 0.0])]
        events, rows = _assert_collisions_match_reference(_scene_from_tracks(tracks, extents=[None, None]))
        assert events.tolist() == rows.tolist() == [0, 0]

    def test_nan_position_is_tested_not_skipped(self):
        # Validation keeps NaN out of cached scenes; on a scene built in
        # memory a NaN distance still reaches the box test, as in the loop.
        tracks = [_track([0.0], [0.0]), _track([math.nan], [0.0])]
        events, _ = _assert_collisions_match_reference(_scene_from_tracks(tracks))
        assert events.tolist() == [1, 1]

    @pytest.mark.parametrize("heading", [math.inf, -math.inf, math.nan])
    def test_non_finite_heading_names_the_agent(self, heading):
        # Far apart, so no pair reaches the box test: the check comes first.
        tracks = [_track([0.0, 0.0], [0.0, 0.0]), _track([90.0, 90.0], [0.0, 0.0], heading=[0.0, heading])]
        with pytest.raises(ValueError, match=r"agent 'a1': non-finite heading .* at ts 1$"):
            _scene_collisions(_scene_from_tracks(tracks))


class TestHarshAccel:
    def test_half_g_plateau_flagged(self, cache):
        g = 9.81
        cache.write(synth_scene(StopAndGo(((0.0, 5), (0.5 * g, 10), (0.0, 20))), 1, 35, 0.1))
        rates = run_analysis(cache, ["synth"], ["harsh_accel"]).rates["harsh_accel"]
        assert rates["synth"]["vehicle"]["rate"] == 1.0

    def test_constant_velocity_not_flagged(self, cache):
        cache.write(synth_scene(Straight(30.0), 1, 35, 0.1))
        rates = run_analysis(cache, ["synth"], ["harsh_accel"]).rates["harsh_accel"]
        assert rates["synth"]["vehicle"]["rate"] == 0.0

    def test_exact_threshold_not_counted(self, cache):
        cache.write(synth_scene(StopAndGo(((3.924, 10),)), 1, 20, 0.1))
        rates = run_analysis(cache, ["synth"], ["harsh_accel"]).rates["harsh_accel"]
        assert rates["synth"]["vehicle"]["rate"] == 0.0

    def test_point_3_g_not_counted(self, cache):
        g = 9.81
        cache.write(synth_scene(StopAndGo(((0.3 * g, 10),)), 1, 20, 0.1))
        rates = run_analysis(cache, ["synth"], ["harsh_accel"]).rates["harsh_accel"]
        assert rates["synth"]["vehicle"]["rate"] == 0.0


class TestOffroad:
    def _map(self):
        return VectorMap("toy:flat", [straight_lane("L1", 0.0, length=100.0, half_width=3.0)])

    def test_in_lane_zero(self, cache):
        cache.write(synth_scene(Straight(5.0), 1, 20, 0.1))  # along y=0 inside the lane polygon
        rates = run_analysis(cache, ["synth"], ["offroad"], vmap=self._map()).rates["offroad"]
        assert rates["synth"]["vehicle"]["rate"] == 0.0

    def test_far_outside_counted(self, cache):
        scene = _scene_from_tracks([_track([50.0, 50.0], [50.0, 50.0])])
        cache.write(scene)
        rates = run_analysis(cache, ["toy"], ["offroad"], vmap=self._map()).rates["offroad"]
        assert rates["toy"]["vehicle"]["rate"] == 1.0

    def test_pedestrians_excluded_by_default(self, cache):
        scene = _scene_from_tracks([_track([50.0, 50.0], [50.0, 50.0])], types=[AgentType.PEDESTRIAN])
        cache.write(scene)
        rates = run_analysis(cache, ["toy"], ["offroad"], vmap=self._map()).rates["offroad"]
        assert rates["toy"] == {}

    def test_no_map_unavailable(self, cache):
        cache.write(synth_scene(Straight(5.0), 1, 20, 0.1))
        rates = run_analysis(cache, ["synth"], ["offroad"]).rates.get("offroad")
        assert rates is None

    def test_corner_clipping_matches_oracle(self, cache):
        vmap = self._map()
        rng = np.random.default_rng(3)
        xs = rng.uniform(-10, 110, size=30)
        ys = rng.uniform(-6, 6, size=30)
        tracks = [_track(xs, ys)]
        cache.write(_scene_from_tracks(tracks))
        rates = run_analysis(cache, ["toy"], ["offroad"], vmap=vmap).rates["offroad"]
        rings = [vmap.drivable_polygons()[0].rings()[0]]
        want_any_off = any(not crossing_number_inside(x, y, rings) for x, y in zip(xs, ys))
        assert (rates["toy"]["vehicle"]["rate"] == 1.0) == want_any_off


    @pytest.mark.parametrize("offset", [-1, 0, 1, _OFFROAD_BLOCK + 1, None])
    def test_counts_match_per_point_reference(self, offset):
        # _OFFROAD_BLOCK + offset random selected rows (None: every observed one), on and off
        # bounded lanes and a road area with a hole.
        rng = np.random.default_rng(0)
        scene = random_scene(rng, n_agents=16, n_timesteps=120)
        lanes = [straight_lane(f"L{k}", y, half_width=2.0) for k, y in enumerate((-30.0, -5.0, 0.0, 20.0))]
        vmap = VectorMap("toy:flat", lanes, road_areas=[square_area(-60.0, -60.0, 50.0, holes=[[(-40.0, -40.0), (-30.0, -40.0), (-35.0, -30.0)]])])
        rows = scene.columns.observed & _offroad_rows(scene, [str(t) for t in AgentType])
        if offset is not None:
            keep = rng.choice(np.flatnonzero(rows), _OFFROAD_BLOCK + offset, replace=False)
            rows = np.zeros_like(rows)
            rows[keep] = True
        got, want = _offroad_counts(scene, vmap, rows), reference_offroad_counts(scene, vmap, rows)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert 0 < got[0].sum() < got[1].sum()


class TestOffroadWithoutDrivableArea:
    """A map of centerline-only lanes has no drivable area, whatever the data holds."""

    def _map(self):
        return VectorMap("toy:flat", [straight_lane("L1", 0.0)])

    @pytest.mark.parametrize("agent_type", [AgentType.PEDESTRIAN, AgentType.VEHICLE])
    def test_unavailable_and_tallied(self, cache, agent_type):
        cache.write(_scene_from_tracks([_track([50.0, 50.0], [50.0, 50.0])], types=[agent_type]))
        report = run_analysis(cache, ["toy"], ["offroad"], vmap=self._map())
        assert (report.rates.get("offroad"), report.tallies) == (None, {"offroad_unsupported_map": 1})

    def test_pedestrians_only_report_lists_offroad(self, cache):
        cache.write(_scene_from_tracks([_track([0.0, 1.0], [0.0, 0.0])], types=[AgentType.PEDESTRIAN]))
        report = run_analysis(cache, ["toy"], ["offroad"], vmap=self._map())
        assert report.unavailable == ["offroad"]
        assert "offroad" not in report.rates
        assert report.tallies == {"offroad_unsupported_map": 1}


def _analysis_scene(rng, scene_id, dataset, ego_id):
    """A random cached-scene stand-in for the analysis catalogue: up to 60% of
    rows imputed, agents with one row, with one observed row, standing still
    or on a coarse grid (degenerate density rectangles), lifetimes long
    enough for blocked summation, some agents without extent, and an agent
    named ego_id when one is given."""
    dt = float(rng.choice([0.1, 0.04, 0.5]))
    n_ts = int(rng.integers(3, 320))
    gap = rng.uniform(0.0, 0.6)
    n_agents = int(rng.integers(1, 8))
    ego_slot = int(rng.integers(n_agents)) if ego_id is not None else -1
    agents, tracks = [], []
    for k in range(n_agents):
        kind = rng.choice(["walk", "walk", "one_row", "one_observed", "still", "grid"])
        first = int(rng.integers(0, n_ts))
        last = first if kind == "one_row" else int(rng.integers(first, n_ts))
        ts_all = np.arange(first, last + 1)
        keep = rng.random(len(ts_all)) > gap
        keep[0] = keep[-1] = True
        ts_obs = ts_all[keep]
        start = rng.uniform(-40.0, 40.0, size=2)
        if kind == "still":
            pos = np.tile(start, (len(ts_obs), 1))
        else:
            pos = start + np.cumsum(rng.normal(0.0, rng.choice([0.01, 0.3, 2.0]), size=(len(ts_obs), 2)), axis=0)
            if kind == "grid":
                pos = np.round(pos / 5.0) * 5.0
        first_ts, track, _ = complete_track(ts_obs, pos[:, 0], pos[:, 1], np.zeros(len(ts_obs)), dt)
        if kind == "one_observed":
            track["observed"] = np.zeros(len(track["x"]), dtype=bool)
            track["observed"][rng.integers(len(track["x"]))] = True
        extent = None if rng.random() < 0.2 else Extent(float(rng.uniform(1.0, 5.0)), float(rng.uniform(0.5, 2.5)))
        agent_id = ego_id if k == ego_slot else f"a{k}"
        agent_type = AgentType(str(rng.choice([t.value for t in AgentType])))
        agents.append(AgentMetadata(agent_id, agent_type, extent, first_ts, first_ts + len(track["x"]) - 1))
        tracks.append(track)
    return SceneFrame.from_tracks(scene_id, dataset, "nowhere", dt, agents, tracks)


class TestArrayPassEquivalence:
    """run_analysis reports, byte for byte, what the per-agent and
    per-timestep reference loops in oracles.py report."""

    METRICS = [m for m in METRIC_NAMES if m != "offroad"]

    def _emit(self, analyze, cache, tags, cfg, out, patch):
        """Report files by name, and the sorted samples of every histogram
        (a sample can change in its last bit without changing a count)."""
        samples = {}
        from_samples = Histogram.from_samples

        def recording(name, dataset, agent_type, values, edges, weights=None):
            values = np.asarray(values, dtype=np.float64)
            # A sample of weight w stands for w equal samples; run_analysis bins one scene at a time.
            samples.setdefault((name, dataset, agent_type), []).append(values if weights is None else np.repeat(values, weights))
            return from_samples(name, dataset, agent_type, values, edges, weights)

        patch.setattr(Histogram, "from_samples", recording)
        emit_report(analyze(cache, tags, self.METRICS, cfg, ego_id="ego"), out)
        sorted_samples = {key: np.sort(np.concatenate(parts)).tobytes() for key, parts in samples.items()}
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}, sorted_samples

    @pytest.mark.parametrize("seed", range(10))
    def test_report_bytes_match_reference(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        cache = SceneCache(tmp_path / "cache")
        for dataset in ("rand", "mix"):
            for s in range(int(rng.integers(1, 4))):
                ego_id = "ego" if rng.random() < 0.6 else None
                cache.write(_analysis_scene(rng, f"{dataset}{s}", dataset, ego_id))
        for cumulative in (False, True):
            for per_timestep in (False, True):
                cfg = AnalysisConfig(
                    cumulative_heading=cumulative,
                    per_timestep_rates=per_timestep,
                    density_min_agents=int(rng.integers(1, 4)),
                    stationary_threshold=float(rng.choice([0.5, 1.0, 5.0])),
                )
                tag = f"c{int(cumulative)}p{int(per_timestep)}"
                with monkeypatch.context() as patch:
                    got, got_samples = self._emit(run_analysis, cache, ["rand", "mix"], cfg, tmp_path / f"got-{tag}", patch)
                with monkeypatch.context() as patch:
                    want, want_samples = self._emit(reference_report, cache, ["rand", "mix"], cfg, tmp_path / f"want-{tag}", patch)
                assert list(got) == list(want)
                for name in want:
                    assert got[name] == want[name], (tag, name)
                assert got_samples == want_samples

    def test_reference_is_patched_in(self, tmp_path, monkeypatch):
        """The comparison above runs the reference, not the library twice."""
        cache = SceneCache(tmp_path / "cache")
        cache.write(_analysis_scene(np.random.default_rng(0), "s0", "rand", "ego"))
        calls = []
        fns = {name: lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k) for name, fn in REFERENCE_METRICS.items()}
        for name in SCENE_METRICS:
            monkeypatch.setattr(analysis, name, lambda *a, **k: pytest.fail("the reference report ran a library metric"))
        reference_report(cache, ["rand"], self.METRICS, AnalysisConfig(), **fns)
        assert sorted(set(calls)) == sorted(REFERENCE_METRICS)


def _few_observed_scene(scene_id, dataset, two_rows):
    """Agents with fewer than 2 observed rows (one row; one observed row of
    three), and with two_rows also agents with exactly 2 observed rows."""
    tracks = [_track([0.0], [0.0]), _track([0.0, 1.0, 2.0], [5.0, 5.0, 5.0], observed=[False, True, False])]
    types = [AgentType.PEDESTRIAN, AgentType.BICYCLE]
    if two_rows:
        tracks += [_track([0.0, 1.0, 3.0, 4.0], [9.0, 9.5, 9.0, 9.0], observed=[True, False, False, True]), _track([7.0, 7.0], [1.0, 1.0])]
        types += [AgentType.VEHICLE, AgentType.UNKNOWN]
    return _scene_from_tracks(tracks, types, scene_id=scene_id, dataset=dataset)


class TestTypeCodePooling:
    """Binning each scene's samples by type code reports, byte for byte, what
    the per-dataset pooling by type name, the per-agent rate walk and the
    per-agent path sums in oracles.py report. The "mix" dataset holds all five types,
    so its samples are sorted by code and cut; "few" has no agent with 2
    observed rows, so it has no path_efficiency histogram."""

    METRICS = [m for m in METRIC_NAMES if m not in ("density", "ego_distances", "simultaneous")]
    VMAP = VectorMap("toy:flat", [straight_lane("L1", 0.0, length=200.0, half_width=3.0)])

    @pytest.fixture
    def mixed(self, tmp_path):
        rng = np.random.default_rng(16)
        cache = SceneCache(tmp_path / "cache")
        scenes = [random_scene(rng, n_agents=8, n_timesteps=60, dataset="mix", scene_id=f"mix{s}") for s in range(3)]
        scenes.append(_few_observed_scene("mix-few", "mix", two_rows=True))
        scenes.append(_few_observed_scene("few0", "few", two_rows=False))
        cache.write_many(scenes)
        assert {str(m.agent_type) for s in scenes[:3] for m in s.agents} == set(_TYPE_NAMES)
        return cache

    def _emit(self, cache, cfg, out, metrics=None, analyze=run_analysis):
        paths = emit_report(analyze(cache, ["mix", "few"], metrics or self.METRICS, cfg, vmap=self.VMAP), out)
        return {p.name: p.read_bytes() for p in paths}

    @pytest.mark.parametrize("per_timestep", [False, True])
    @pytest.mark.parametrize("cumulative", [False, True])
    def test_report_bytes_match_scene_pooling(self, tmp_path, monkeypatch, mixed, per_timestep, cumulative):
        cfg = AnalysisConfig(per_timestep_rates=per_timestep, cumulative_heading=cumulative, offroad_types=("vehicle", "pedestrian"))
        got = self._emit(mixed, cfg, tmp_path / "got")
        want = self._emit(mixed, cfg, tmp_path / "want", analyze=functools.partial(reference_report, **SCENE_POOLED_METRICS))
        assert list(got) == list(want)
        for name in want:
            assert got[name] == want[name], name
        assert {f"speed__mix__{t}.csv" for t in _TYPE_NAMES} <= set(got)
        assert {f"path_efficiency__mix__{t}.csv" for t in ("vehicle", "unknown")} <= set(got)
        assert "speed__few__pedestrian.csv" in got and not any(n.startswith("path_efficiency__few") for n in got)
        rates = json.loads(got["rates.json"])["rates"]
        assert sorted(rates["offroad"]["mix"]) == ["pedestrian", "vehicle"]

    def test_reference_is_patched_in(self, tmp_path, monkeypatch, mixed):
        calls = []
        fns = {name: lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k) for name, fn in SCENE_POOLED_METRICS.items()}
        for name in SCENE_METRICS:
            monkeypatch.setattr(analysis, name, lambda *a, **k: pytest.fail("the reference report ran a library metric"))
        reference_report(mixed, ["mix"], self.METRICS, AnalysisConfig(), vmap=self.VMAP, **fns)
        assert sorted(set(calls)) == sorted(SCENE_POOLED_METRICS)

    def test_scene_order_does_not_change_the_report(self, tmp_path, monkeypatch, mixed):
        # Agent ids recur across the mix scenes with other types: population
        # keeps each id's type in the smallest (tag, scene id), whatever the order.
        scenes = list(mixed.iter_scenes(["mix"]))
        types = {}
        for scene in scenes:
            for agent_id, code in zip(scene.agent_ids, scene.type_code.tolist()):
                types.setdefault(agent_id, []).append(_TYPE_NAMES[code])
        assert any(len(set(t)) > 1 for t in types.values())
        cfg = AnalysisConfig(per_timestep_rates=True, cumulative_heading=True)
        forward = self._emit(mixed, cfg, tmp_path / "forward", METRIC_NAMES)
        iter_scenes = SceneCache.iter_scenes
        monkeypatch.setattr(SceneCache, "iter_scenes", lambda self, tags: reversed(list(iter_scenes(self, tags))))
        assert next(iter(mixed.iter_scenes(["mix"]))).scene_id == scenes[-1].scene_id
        assert self._emit(mixed, cfg, tmp_path / "backward", METRIC_NAMES) == forward
        population = json.loads(forward["rates.json"])["population"]["mix"]
        assert population["unique_agents"] == len(types)
        assert population["type_counts"] == dict(collections.Counter(t[0] for t in types.values()))

    @pytest.mark.parametrize("per_timestep", [False, True])
    def test_rates_and_pooled_rate_match_the_agent_walk(self, tmp_path, per_timestep):
        rng = np.random.default_rng(17)
        scenes = [random_scene(rng, n_agents=10, n_timesteps=50, scene_id=f"s{k}", dataset="a" if k < 2 else "b") for k in range(4)]
        scenes.append(_few_observed_scene("few", "b", two_rows=True))
        cache, datasets = _cache_of(tmp_path / "cache", scenes), {"b": scenes[2:], "a": scenes[:2]}
        # Each rate metric under a config, and the per-agent counts the walk takes for it.
        cases = [
            ("collision", {}, _scene_collisions),
            ("offroad", {"offroad_types": _TYPE_NAMES}, lambda s: _offroad_counts(s, self.VMAP, s.columns.observed & _offroad_rows(s, _TYPE_NAMES))),
            ("harsh_accel", {"harsh_accel_threshold": 1.0}, lambda s: _agent_counts(s, s.columns.observed, np.hypot(s.columns.ax, s.columns.ay) > 1.0)),
            ("offroad", {"offroad_types": ()}, lambda s: _offroad_counts(s, self.VMAP, s.columns.observed & _offroad_rows(s, ()))),  # selects no agent
        ]
        for metric, fields, counts in cases:
            report = run_analysis(cache, ["a", "b"], [metric], AnalysisConfig(per_timestep_rates=per_timestep, **fields), vmap=self.VMAP)
            assert report.rates[metric] == reference_rates(datasets, counts, per_timestep)

        def walk(scene, counts):  # the walk's any-timestep rate over every type of one scene
            entries = reference_rates({"": [scene]}, counts, per_timestep=False)[""].values()
            den = sum(e["den"] for e in entries)
            return sum(e["num"] for e in entries) / den if den else None

        pooled = [[simulation._pooled_rate(s, counts) for _, _, counts in cases] for s in scenes]
        assert pooled == [[walk(s, counts) for _, _, counts in cases] for s in scenes]
        assert all(row[-1] is None for row in pooled)

    def test_run_sums_add_in_np_sum_order(self):
        rng = np.random.default_rng(18)
        lengths = np.concatenate([np.arange(1, 300), [513, 1000, 4097], rng.integers(1, 40, size=200)])
        values = rng.lognormal(0.0, 3.0, size=int(lengths.sum()) + 7)
        firsts = rng.integers(0, len(values) - lengths + 1)
        want = np.array([np.sum(values[f : f + n]) for f, n in zip(firsts, lengths)])
        assert _run_sums(values, firsts, lengths).tobytes() == want.tobytes()
        assert _run_sums(values, firsts[:0], lengths[:0]).shape == (0,)


class TestSingleLoad:
    def test_run_analysis_reads_each_scene_file_once(self, tmp_path, monkeypatch):
        # rand is queried twice and the mix-val scene is not selected: each file of a queried
        # directory is opened once and its header checked once, and only selected payloads are decoded.
        rng = np.random.default_rng(4)
        cache = SceneCache(tmp_path / "cache")
        datasets = ["rand", "rand", "mix-train", "mix-val"]
        paths = cache.write_many([_analysis_scene(rng, f"s{k}", dataset, "ego") for k, dataset in enumerate(datasets)])
        opened, checked, decoded = count_scene_file_reads(monkeypatch)
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0, length=200.0, half_width=3.0)])
        report = run_analysis(cache, ["rand", "mix-train", "rand"], METRIC_NAMES, vmap=vmap)
        assert sorted(opened) == sorted(paths)
        assert sorted(checked) == ["s0", "s1", "s2", "s3"]
        assert sorted(decoded) == ["s0", "s1", "s2"]
        assert report.unavailable == [] and "offroad" in report.rates

    def test_decode_then_analysis_builds_no_agent_records(self, tmp_path, monkeypatch):
        # Every metric reads the agent columns; the AgentMetadata records are built only when read.
        rng = np.random.default_rng(5)
        cache = SceneCache(tmp_path / "cache")
        for s in range(2):
            cache.write(_analysis_scene(rng, f"rand{s}", "rand", "ego"))
        iter_scenes, loaded = SceneCache.iter_scenes, []
        monkeypatch.setattr(SceneCache, "iter_scenes", lambda self, tags: (loaded.append(s) or s for s in iter_scenes(self, tags)))
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0, length=200.0, half_width=3.0)])
        report = run_analysis(cache, ["rand"], METRIC_NAMES, vmap=vmap)
        assert len(loaded) == 2 and "offroad" in report.rates and "collision" in report.rates
        assert ["agents" in scene.__dict__ for scene in loaded] == [False, False]
        assert loaded[0].agents and "agents" in loaded[0].__dict__  # built on first read, then kept


class TestOnePass:
    def test_peak_memory_does_not_grow_with_the_scene_count(self, tmp_path):
        # run_analysis decodes, counts and drops one scene at a time. Its traced
        # peak, less that of draining iter_scenes over the same scenes (which holds
        # each selected file's bytes until that file is decoded), grows by at most
        # one scene's decoded size from 4 scenes to 32.
        rng = np.random.default_rng(41)
        scenes = [random_scene(rng, n_agents=16, n_timesteps=200, scene_id=f"s{k:02d}") for k in range(32)]
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0, length=200.0, half_width=3.0)])

        def traced(fn):
            """(peak, held at the end) of the memory traced over fn(), its result kept."""
            tracemalloc.start()
            try:
                result = fn()
                current, peak = tracemalloc.get_traced_memory()
                del result
                return peak, current
            finally:
                tracemalloc.stop()

        excess = {}
        for n in (4, 32):
            cache = _cache_of(tmp_path / f"cache{n}", scenes[:n])
            drained = traced(lambda: [None for _ in cache.iter_scenes(["rand"])])[0]
            excess[n] = traced(lambda: run_analysis(cache, ["rand"], METRIC_NAMES, vmap=vmap))[0] - drained
        one_scene = traced(lambda: cache.load_path(cache.resolve(["rand"])[-1].path))[1]
        assert excess[32] - excess[4] <= one_scene, (excess, one_scene)


class TestSceneParallel:
    """A run of 2 * _MIN_SHARE scene files or more forks one worker per share
    after the first, one share per CPU the process may run on, and reports
    and fails as the same run in one process does."""

    VMAP = VectorMap("toy:flat", [straight_lane("L1", 0.0, length=200.0, half_width=3.0)])
    TAGS = ["pa", "pb"]

    @pytest.fixture
    def cache(self, tmp_path):
        # 40 files, pa spanning the first shares. Agent ids a0, a1, ... recur with other types, and
        # the tag pa-loc0 of pa20 ... pa25 puts the smallest (tag, scene id) of an id after its first file.
        rng = np.random.default_rng(35)
        scenes = [random_scene(rng, n_agents=int(rng.integers(3, 9)), n_timesteps=40, dataset=dataset,
                               scene_id=f"{dataset}{k:02d}", location="loc0" if k >= 20 else "loc1")
                  for dataset, n in zip(self.TAGS, (26, 14)) for k in range(n)]
        return _cache_of(tmp_path / "cache", scenes)

    def _report(self, cache, out, tags=None, cfg=None):
        paths = emit_report(run_analysis(cache, tags or self.TAGS, METRIC_NAMES, cfg, vmap=self.VMAP), out)
        return {p.name: p.read_bytes() for p in paths}

    @staticmethod
    def _outcome(fn):
        try:
            fn()
        except Exception as exc:
            return type(exc), str(exc)
        pytest.fail("the run raised nothing")

    @pytest.mark.parametrize("cpus", [2, 3, 5])
    def test_report_bytes_match_one_process(self, tmp_path, monkeypatch, cache, forks, cpus):
        cfg = AnalysisConfig(cumulative_heading=True, per_timestep_rates=cpus == 3)
        set_cpus(monkeypatch, 1)
        want = self._report(cache, tmp_path / "one", cfg=cfg)
        assert forks == []
        set_cpus(monkeypatch, cpus)
        shares = analysis._shares(cache.walk_files(self.TAGS))
        assert len(shares) == cpus and sum(map(len, shares)) == 40
        assert self._report(cache, tmp_path / "forked", cfg=cfg) == want
        assert forks == [os.getpid()] * (cpus - 1)
        assert no_child_left()
        # An id's type comes from the scene with its smallest (tag, scene id), in another share than its first file.
        share_of = {path.stem: k for k, share in enumerate(shares) for path in share}
        moved = set()
        for dataset in self.TAGS:
            first, smallest = {}, {}
            for scene in cache.iter_scenes([dataset]):
                for agent_id in scene.agent_ids:
                    first.setdefault(agent_id, scene.scene_id)
                    key = (scene.scene_tag().render(), scene.scene_id)
                    smallest[agent_id] = min(smallest.get(agent_id, key), key)
            moved |= {(dataset, a) for a in first if share_of[first[a]] != share_of[smallest[a][1]]}
        assert moved

    @pytest.mark.parametrize("tags, corrupt, uncountable", [
        (["pa", "pb"], ["pb09", "pb12"], None),          # a flipped payload in the last share
        (["pa", "pa-test", "pb"], ["pb03"], None),       # pa-test matches nothing, and pa is read before pb03
        (["pa", "pb", "pb-test"], ["pa17"], None),       # a flipped payload before the unmatched query's dataset ends
        (["pa", "pb", "pb-test"], [], "pb08"),           # a count's error in the last share
        (["pa", "pb", "pb-test"], [], "pb13"),           # ... on the dataset's last file, before its unmatched query
        (["pa", "pb-test"], [], None),                   # an unmatched query of a dataset a worker reads
    ])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_the_first_fault_in_walk_order_is_raised(self, tmp_path, monkeypatch, cache, forks, tags, corrupt, uncountable, cpus):
        for scene_id in corrupt:
            path = cache.cache_dir / scene_id[:2] / f"{scene_id}.tksc"
            data = bytearray(path.read_bytes())
            data[-40] ^= 0xFF
            path.write_bytes(bytes(data))
        stationary = analysis.stationary_fraction

        def failing(scene, cfg):
            if scene.scene_id == uncountable:
                raise ValueError(f"cannot count {scene.scene_id}")
            return stationary(scene, cfg)

        monkeypatch.setattr(analysis, "stationary_fraction", failing)
        set_cpus(monkeypatch, 1)
        want = self._outcome(lambda: self._report(cache, tmp_path / "one", tags))
        assert forks == []
        set_cpus(monkeypatch, cpus)
        assert self._outcome(lambda: self._report(cache, tmp_path / "forked", tags)) == want
        assert len(forks) == cpus - 1 and no_child_left()
        assert not (tmp_path / "one").exists() and not (tmp_path / "forked").exists()

    def test_each_file_is_opened_and_checked_once_across_processes(self, tmp_path, monkeypatch, cache, forks):
        log = os.open(tmp_path / "reads.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        real_open, read_header = io.open, ingest._read_header

        def counting_open(file, *args, **kwargs):
            if str(file).endswith(".tksc"):
                os.write(log, f"open {os.getpid()} {file}\n".encode())
            return real_open(file, *args, **kwargs)

        def checking(header):
            os.write(log, f"check {os.getpid()} {header['scene_id']}\n".encode())
            return read_header(header)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(ingest, "_read_header", checking)
        set_cpus(monkeypatch, 3)
        try:
            self._report(cache, tmp_path / "out")
        finally:
            os.close(log)
        lines = [line.split(" ", 2) for line in (tmp_path / "reads.log").read_text().splitlines()]
        opened = [name for kind, _, name in lines if kind == "open"]
        assert sorted(opened) == sorted(str(p) for p in cache.walk_files(self.TAGS))
        assert sorted(name for kind, _, name in lines if kind == "check") == sorted(Path(p).stem for p in opened)
        assert len({pid for kind, pid, _ in lines if kind == "open"}) == 3 and len(forks) == 2

    def test_only_the_caller_lists_a_directory(self, tmp_path, monkeypatch, cache, forks):
        # A worker reads the files of its share as listed; the caller lists each queried dataset.
        log, glob = os.open(tmp_path / "globs.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND), Path.glob

        def logging_glob(path, pattern, *args, **kwargs):
            os.write(log, f"{os.getpid()} {path}\n".encode())
            return glob(path, pattern, *args, **kwargs)

        monkeypatch.setattr(Path, "glob", logging_glob)
        set_cpus(monkeypatch, 3)
        try:
            self._report(cache, tmp_path / "out")
        finally:
            os.close(log)
        listed = [line.split(" ", 1) for line in (tmp_path / "globs.log").read_text().splitlines()]
        assert {pid for pid, _ in listed} == {str(os.getpid())} and len(forks) == 2
        assert {name for _, name in listed} == {str(cache.cache_dir / tag) for tag in self.TAGS}

    def test_an_interrupt_reaps_every_worker(self, monkeypatch, cache, forks):
        parent, stationary = os.getpid(), analysis.stationary_fraction

        def interrupted(scene, cfg):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return stationary(scene, cfg)

        monkeypatch.setattr(analysis, "stationary_fraction", interrupted)
        set_cpus(monkeypatch, 3)
        with pytest.raises(KeyboardInterrupt):
            run_analysis(cache, self.TAGS, ["stationary"])
        assert len(forks) == 2 and no_child_left()

    def test_few_files_or_one_cpu_stay_in_one_process(self, tmp_path, monkeypatch, cache, forks):
        set_cpus(monkeypatch, 1)
        run_analysis(cache, self.TAGS, ["population"])
        assert forks == []
        set_cpus(monkeypatch, 2)
        scenes = list(cache.iter_scenes(["pa"]))
        for n, forked in ((2 * analysis._MIN_SHARE - 1, 0), (2 * analysis._MIN_SHARE, 1)):
            run_analysis(_cache_of(tmp_path / f"c{n}", scenes[:n]), ["pa"], ["population"])
            assert len(forks) == forked
            forks.clear()

    def test_no_fork_where_it_is_missing_or_would_warn(self, tmp_path, monkeypatch, cache, forks):
        set_cpus(monkeypatch, 2)
        want = self._report(cache, tmp_path / "want")
        assert len(forks) == 1
        with monkeypatch.context() as patch:
            patch.delattr(os, "fork")
            assert not core._fork_is_quiet()
            assert self._report(cache, tmp_path / "no-fork") == want
        # From Python 3.12, os.fork warns while another thread runs in the process.
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(sys, "version_info", (3, 12, 0, "final", 0))
                assert not core._fork_is_quiet()
                assert self._report(cache, tmp_path / "threads") == want
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive() and len(forks) == 1 and no_child_left()


class TestReport:
    def test_run_analysis_unknown_metric(self, cache):
        cache.write(synth_scene(Straight(5.0), 1, 20, 0.1))
        with pytest.raises(ValueError, match="bogus"):
            run_analysis(cache, ["synth"], ["bogus"])

    def test_emit_empty_report(self, tmp_path, cache):
        cache.write(synth_scene(Straight(5.0), 1, 20, 0.1))
        report = run_analysis(cache, ["synth"], [])
        written = emit_report(report, tmp_path / "out")
        assert [p.name for p in written] == ["rates.json"]
        payload = json.loads(written[0].read_text())
        assert payload["config"]["harsh_accel_threshold"] == 3.924

    def test_emit_histogram_csv(self, tmp_path, cache):
        cache.write(synth_scene(Straight(5.0), 1, 20, 0.1))
        report = run_analysis(cache, ["synth"], ["speed"])
        written = emit_report(report, tmp_path / "out")
        csvs = [p for p in written if p.suffix == ".csv"]
        assert csvs and csvs[0].name == "speed__synth__vehicle.csv"
        lines = csvs[0].read_text().strip().splitlines()
        assert lines[0] == "edge_lo,edge_hi,count"
        assert len(lines) - 1 == len(report.histograms[0].edges) - 1

    def test_csv_rows_format_each_bin(self, tmp_path):
        # Histograms that share edges reuse one bin text; others get their own.
        rng = np.random.default_rng(3)
        cfg = AnalysisConfig()
        edge_sets = [cfg.edges("speed"), cfg.edges("speed"), cfg.edges("heading_delta"), cfg.edges("accel"), np.array([0.1, 0.2])]
        report = MetricReport(config={}, tags=[])
        for k, edges in enumerate(edge_sets):
            for t in ("pedestrian", "vehicle"):
                report.histograms.append(Histogram.from_samples(f"m{k}", "d", t, rng.normal(1.0, 3.0, 200), edges))
        for path in emit_report(report, tmp_path)[:-1]:
            name, _, agent_type = path.stem.split("__")
            (hist,) = [h for h in report.histograms if (h.name, h.agent_type) == (name, agent_type)]
            edges = hist.edges.tolist()
            rows = [f"{lo!r},{hi!r},{int(n)}" for lo, hi, n in zip(edges[:-1], edges[1:], hist.counts)]
            assert path.read_text(encoding="utf-8") == "\n".join(["edge_lo,edge_hi,count", *rows]) + "\n"

    def test_csv_edge_cells_parse_as_floats(self, tmp_path):
        report = MetricReport(config={}, tags=[])
        for k, edges in enumerate([AnalysisConfig().edges("speed"), np.array([0.1, 0.2, 1e300])]):
            report.histograms.append(Histogram.from_samples(f"m{k}", "d", "vehicle", np.linspace(0.0, 1.0, 50), edges))
        for path, hist in zip(emit_report(report, tmp_path)[:-1], report.histograms):
            rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))[1:]
            assert [float(lo) for lo, _, _ in rows] == hist.edges[:-1].tolist()
            assert [float(hi) for _, hi, _ in rows] == hist.edges[1:].tolist()

    def test_reemit_byte_identical(self, tmp_path, cache):
        cache.write(synth_scene(Straight(5.0), 1, 20, 0.1))
        report = run_analysis(cache, ["synth"], ["speed", "path_efficiency", "harsh_accel"])
        out1 = emit_report(report, tmp_path / "o1")
        out2 = emit_report(report, tmp_path / "o2")
        for p1, p2 in zip(out1, out2):
            assert p1.read_bytes() == p2.read_bytes()

    def test_offroad_unavailable_in_report(self, cache):
        cache.write(synth_scene(Straight(5.0), 1, 20, 0.1))
        report = run_analysis(cache, ["synth"], ["offroad"])
        assert report.unavailable == ["offroad"]

    def test_rates_in_unit_interval_on_random_scenes(self, cache):
        rng = np.random.default_rng(10)
        for i in range(4):
            cache.write(random_scene(rng, scene_id=f"s{i}"))
        report = run_analysis(cache, ["rand"], ["collision", "harsh_accel", "stationary", "speed", "path_efficiency"])
        for metric, datasets in report.rates.items():
            for dataset, types in datasets.items():
                for t, entry in types.items():
                    assert 0.0 <= entry["rate"] <= 1.0
                    assert entry["num"] <= entry["den"]
        for h in report.histograms:
            assert h.counts.sum() == h.n_samples
