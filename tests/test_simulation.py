import itertools
import math

import numpy as np
import pytest

from trajkit.core import AgentMetadata, AgentType, Extent, SceneFrame
from trajkit.ingest import (
    Circle,
    SceneMetaRecord,
    Straight,
    parse_canonical_csv,
    synth_scene,
    write_canonical_csv,
)
from trajkit.kinematics import complete_track
from trajkit.simulation import (
    OBS_STATE_LAYOUT,
    SimState,
    rollout_scene,
    sim_export,
    sim_reset,
    sim_score,
    sim_step,
    wasserstein_1d,
)

from trajkit.vecmap import PolygonArea, VectorMap

from conftest import random_scene, straight_lane
from oracles import crossing_number_inside, obb_overlap_by_sampling


def _ingested(scene) -> SceneFrame:
    """Round the scene through canonical CSV so kinematics are pipeline-derived."""
    meta = SceneMetaRecord(scene.scene_id, scene.dt, scene.location, scene.scene_tag().dataset)
    return parse_canonical_csv(write_canonical_csv(scene, observed_only=True), meta)


def _real_poses(scene, ts):
    poses = {}
    cols = scene.columns
    for i, m in enumerate(scene.agents):
        row = scene.row_at(i, ts)
        poses[m.agent_id] = (cols.x[row], cols.y[row], cols.heading[row])
    return poses


def _replay(scene, init_ts, steps, controlled=None):
    if controlled is None:
        controlled = [m.agent_id for m in scene.agents]
    state, obs = sim_reset(scene, init_ts, controlled)
    for ts in range(init_ts + 1, init_ts + steps + 1):
        state, obs = sim_step(state, {a: _real_poses(scene, ts)[a] for a in controlled})
    return state, obs


class TestWasserstein:
    def test_identical_zero(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=500)
        assert wasserstein_1d(a, a.copy()) == 0.0

    def test_translation_closed_form(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=400)
        assert wasserstein_1d(a, a + 5.0) == pytest.approx(5.0, abs=1e-12)

    def test_matches_scipy_unequal_sizes(self):
        from scipy.stats import wasserstein_distance

        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(0, 1, size=int(rng.integers(5, 200)))
            b = rng.normal(0.5, 2, size=int(rng.integers(5, 200)))
            assert wasserstein_1d(a, b) == pytest.approx(wasserstein_distance(a, b), rel=1e-9)

    def test_empty_is_zero(self):
        assert wasserstein_1d([], [1.0, 2.0]) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert wasserstein_1d(rng.normal(size=50), rng.normal(size=50)) >= 0.0


class TestReset:
    def test_observation_equals_first_rows(self):
        scene = _ingested(synth_scene(Straight(10.0), 3, 50, 0.1))
        state, obs = sim_reset(scene, 0, [m.agent_id for m in scene.agents])
        assert obs.ts == 0
        cols = scene.columns
        for i, agent_id in enumerate(obs.agent_ids):
            row = scene.row_at(i, 0)
            assert obs.states[i, 0] == cols.x[row]
            assert obs.states[i, 1] == cols.y[row]
            assert obs.valid[i]

    def test_mid_scene_reset(self):
        scene = _ingested(synth_scene(Straight(10.0), 2, 50, 0.1))
        state, obs = sim_reset(scene, 20, ["a0"])
        row = scene.row_at(0, 20)
        assert obs.states[0, 0] == scene.columns.x[row]
        assert state.current_ts == 20

    def test_controlled_dead_at_init(self):
        rng = np.random.default_rng(1)
        scene = random_scene(rng, n_agents=3, n_timesteps=40, gap_prob=0.0)
        early_agent = min(scene.agents, key=lambda m: m.last_ts)
        assert early_agent.last_ts < scene.n_timesteps - 1
        with pytest.raises(ValueError, match="not alive"):
            sim_reset(scene, early_agent.last_ts + 1, [early_agent.agent_id])

    def test_init_out_of_range(self):
        scene = _ingested(synth_scene(Straight(10.0), 1, 20, 0.1))
        with pytest.raises(ValueError):
            sim_reset(scene, 20, ["a0"])

    def test_unknown_controlled_agent(self):
        scene = _ingested(synth_scene(Straight(10.0), 1, 20, 0.1))
        with pytest.raises(ValueError, match="not in scene"):
            sim_reset(scene, 0, ["ghost"])


class TestStep:
    def test_exact_agent_set_required(self):
        scene = _ingested(synth_scene(Straight(10.0), 2, 30, 0.1))
        state, _ = sim_reset(scene, 0, ["a0", "a1"])
        with pytest.raises(ValueError, match="missing"):
            sim_step(state, {"a0": (0.0, 0.0, 0.0)})
        with pytest.raises(ValueError, match="unexpected"):
            sim_step(state, {"a0": (0.0, 0.0, 0.0), "a1": (0.0, 0.0, 0.0), "zz": (0.0, 0.0, 0.0)})

    def test_non_finite_rejected(self):
        scene = _ingested(synth_scene(Straight(10.0), 1, 30, 0.1))
        state, _ = sim_reset(scene, 0, ["a0"])
        with pytest.raises(ValueError, match="non-finite"):
            sim_step(state, {"a0": (math.nan, 0.0, 0.0)})

    def test_ts_strictly_increments(self):
        scene = _ingested(synth_scene(Straight(10.0), 2, 30, 0.1))
        state, _ = sim_reset(scene, 3, ["a0", "a1"])
        for k in range(5):
            state, obs = sim_step(state, {"a0": (float(k), 0.0, 0.0), "a1": (float(k), 5.0, 0.0)})
            assert obs.ts == 4 + k
        assert state.current_ts == 8
        # rollout row count = controlled agents x steps
        assert sum(len(p) for p in state.poses.values()) == 2 * 5

    def test_constant_pose_speed_zero(self):
        scene = _ingested(synth_scene(Straight(10.0), 1, 60, 0.1))
        state, _ = sim_reset(scene, 40, ["a0"])
        pose = _real_poses(scene, 40)["a0"]
        for _ in range(10):
            state, obs = sim_step(state, {"a0": pose})
        # held pose for 10 steps: derived speed at the rollout tail is 0
        roll = rollout_scene(state)
        sl = roll.rows_for_agent(0)
        assert abs(roll.columns.vx[sl][-1]) < 1e-12
        assert abs(roll.columns.vy[sl][-1]) < 1e-12

    def test_frozen_agent_held_after_death(self):
        rng = np.random.default_rng(1)
        scene = random_scene(rng, n_agents=3, n_timesteps=40, gap_prob=0.0)
        early = min(scene.agents, key=lambda m: m.last_ts)
        assert early.last_ts < scene.n_timesteps - 1
        controlled = [m.agent_id for m in scene.agents if m.last_ts == scene.n_timesteps - 1 and m.first_ts == 0]
        assert controlled
        state, _ = sim_reset(scene, 0, controlled[:1])
        obs = None
        for ts in range(1, scene.n_timesteps):
            state, obs = sim_step(state, {controlled[0]: _real_poses_alive(scene, ts, controlled[0])})
        idx = list(obs.agent_ids).index(early.agent_id)
        last_row = scene.row_at(list(m.agent_id for m in scene.agents).index(early.agent_id), early.last_ts)
        assert not obs.valid[idx]
        assert obs.states[idx, 0] == scene.columns.x[last_row]


def _real_poses_alive(scene, ts, agent_id):
    i = next(j for j, m in enumerate(scene.agents) if m.agent_id == agent_id)
    row = scene.row_at(i, ts)
    cols = scene.columns
    return (cols.x[row], cols.y[row], cols.heading[row])


class TestScore:
    def test_replay_identity_full(self):
        scene = _ingested(synth_scene(Circle(20.0, 0.05), 3, 80, 0.1))
        state, _ = _replay(scene, 10, scene.n_timesteps - 1 - 10)
        metrics = sim_score(state, None)
        assert metrics.speed_distance == 0.0
        assert metrics.accel_distance == 0.0

    def test_replay_identity_partial(self):
        scene = _ingested(synth_scene(Circle(20.0, 0.05), 2, 80, 0.1))
        state, _ = _replay(scene, 10, 25)
        metrics = sim_score(state, None)
        assert metrics.speed_distance == 0.0
        assert metrics.accel_distance == 0.0

    def test_speed_shift_closed_form(self):
        # Starting at first_ts keeps the whole window on the shifted ramp, so
        # every derived speed sample is exactly real + 5.
        scene = _ingested(synth_scene(Straight(10.0), 2, 60, 0.1))
        state, _ = sim_reset(scene, 0, ["a0", "a1"])
        for ts in range(1, 50):
            poses = {}
            for agent_id in ("a0", "a1"):
                x, y, h = _real_poses_alive(scene, ts, agent_id)
                poses[agent_id] = (x + 5.0 * scene.dt * ts, y, h)
            state, _ = sim_step(state, poses)
        metrics = sim_score(state, None)
        assert metrics.speed_distance == pytest.approx(5.0, rel=1e-9)

    def test_teleport_flagged_by_harsh_accel(self):
        scene = _ingested(synth_scene(Straight(10.0), 1, 60, 0.1))
        state, _ = sim_reset(scene, 10, ["a0"])
        x, y, h = _real_poses_alive(scene, 11, "a0")
        state, _ = sim_step(state, {"a0": (x + 100.0, y, h)})
        state, _ = sim_step(state, {"a0": (x + 100.0 + 1.0, y, h)})
        roll = rollout_scene(state)
        accel = np.hypot(roll.columns.ax, roll.columns.ay)
        assert accel.max() > 3.924

    def test_collision_rate_matches_real_on_replay(self):
        rng = np.random.default_rng(23)
        scene = random_scene(rng, n_agents=4, n_timesteps=30, gap_prob=0.0)
        full = [m.agent_id for m in scene.agents if m.first_ts == 0 and m.last_ts == scene.n_timesteps - 1]
        if not full:
            pytest.skip("need a full-lifetime agent")
        state, _ = _replay(scene, 0, scene.n_timesteps - 1, controlled=full)
        metrics = sim_score(state, None)
        assert metrics.collision_rate is not None and 0.0 <= metrics.collision_rate <= 1.0

    def test_too_short_rollout(self):
        scene = _ingested(synth_scene(Straight(10.0), 1, 30, 0.1))
        state, _ = sim_reset(scene, 0, ["a0"])
        with pytest.raises(ValueError, match="at least 2"):
            sim_score(state, None)

    def test_offroad_with_map(self):
        from trajkit.vecmap import VectorMap

        from conftest import straight_lane

        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0, length=100.0, half_width=3.0)])
        scene = _ingested(synth_scene(Straight(5.0), 1, 40, 0.1))
        state, _ = _replay(scene, 0, 39)
        metrics = sim_score(state, vmap)
        assert metrics.offroad_rate == 0.0


class TestExport:
    def test_replay_export_reingest_lossless(self, tmp_path):
        rng = np.random.default_rng(1)
        scene = random_scene(rng, n_agents=3, n_timesteps=40, gap_prob=0.0)
        init, steps = 5, 20
        full = [m.agent_id for m in scene.agents if m.first_ts <= init and m.last_ts >= init + steps]
        assert full
        state, _ = _replay(scene, init, steps, controlled=full)
        path = sim_export(state, tmp_path / "roll.csv")
        meta = SceneMetaRecord("x", scene.dt, scene.location, "rand")
        re = parse_canonical_csv(path.read_text(), meta)
        roll = rollout_scene(state)
        for i, m in enumerate(roll.agents):
            j = next(k for k, mm in enumerate(re.agents) if mm.agent_id == m.agent_id)
            np.testing.assert_array_equal(re.columns.x[re.rows_for_agent(j)], roll.columns.x[roll.rows_for_agent(i)])
            np.testing.assert_array_equal(re.columns.y[re.rows_for_agent(j)], roll.columns.y[roll.rows_for_agent(i)])
            np.testing.assert_array_equal(
                re.columns.heading[re.rows_for_agent(j)], roll.columns.heading[roll.rows_for_agent(i)]
            )

    def test_export_writes_meta_sidecar(self, tmp_path):
        scene = _ingested(synth_scene(Straight(10.0), 1, 30, 0.1))
        state, _ = _replay(scene, 0, 10)
        path = sim_export(state, tmp_path / "roll.csv")
        sidecar = path.with_suffix(path.suffix + ".meta.json")
        assert sidecar.exists()
        meta = SceneMetaRecord.from_json(sidecar.read_text())
        assert meta.dt == scene.dt

    def test_empty_rollout_header_only(self, tmp_path):
        empty = SceneFrame.from_tracks("void", "toy", "nowhere", 0.1, [], [])
        state = SimState(scene=empty, init_ts=0, current_ts=0, controlled=(), controlled_idx={}, poses={})
        path = sim_export(state, tmp_path / "empty.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("scene_id,")
        again = sim_export(state, tmp_path / "empty2.csv")
        assert again.read_bytes() == path.read_bytes()

    def test_reexport_byte_identical(self, tmp_path):
        scene = _ingested(synth_scene(Straight(10.0), 2, 30, 0.1))
        state, _ = _replay(scene, 0, 15)
        p1 = sim_export(state, tmp_path / "a.csv")
        p2 = sim_export(state, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()


class TestObservationMatchesRollout:
    def test_controlled_rows_equal_rollout_last_row_bit_for_bit(self):
        rng = np.random.default_rng(5)
        scene = random_scene(rng, n_agents=6, n_timesteps=60, gap_prob=0.2)
        init, steps = 12, 30
        controlled = [m.agent_id for m in scene.agents if m.first_ts <= init <= m.last_ts]
        assert controlled
        by_id = {m.agent_id: i for i, m in enumerate(scene.agents)}

        def check(state, obs):
            roll = rollout_scene(state)
            for j, meta in enumerate(roll.agents):
                if meta.agent_id not in state.controlled_idx:
                    continue
                last = roll.rows_for_agent(j).stop - 1
                want = np.array([getattr(roll.columns, k)[last] for k in OBS_STATE_LAYOUT])
                assert obs.states[by_id[meta.agent_id]].tobytes() == want.tobytes()

        state, obs = sim_reset(scene, init, controlled)
        check(state, obs)
        x, y, h = {}, {}, {}
        for a in controlled:
            row = scene.row_at(by_id[a], init)
            x[a], y[a], h[a] = scene.columns.x[row], scene.columns.y[row], scene.columns.heading[row]
        for step in range(steps):
            poses = {}
            for a in controlled:
                jump = 7.0 if step == 10 else 0.0  # a teleport exercises the one-sided stencil ends
                x[a] += 0.8 + rng.normal(0.0, 0.3) + jump
                y[a] += rng.normal(0.0, 0.3)
                h[a] += rng.normal(0.0, 0.2)
                poses[a] = (x[a], y[a], h[a])
            state, obs = sim_step(state, poses)
            check(state, obs)


def _derived_track(ts, xs, ys, dt):
    """Imputed track with derived kinematics from observed positions."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    first_ts, track, _ = complete_track(np.asarray(ts), xs, ys, np.zeros(len(xs)), dt)
    return first_ts, track


class TestScoreMatchesOracles:
    """sim_score's rates against brute-force overlap and point-in-polygon oracles."""

    DT = 0.1
    INIT, STEPS = 5, 30

    def _map(self):
        # An L-shaped road: east along y = 0 for x in [0, 52], then north along x = 50.
        east = PolygonArea(np.array([(0.0, -2.0), (52.0, -2.0), (52.0, 2.0), (0.0, 2.0)]))
        north = PolygonArea(np.array([(48.0, -2.0), (52.0, -2.0), (52.0, 50.0), (48.0, 50.0)]))
        return VectorMap("toy:flat", [straight_lane("L1", 0.0, length=52.0)], road_areas=[east, north])

    def _scene(self):
        n = 41
        ts = np.arange(n)
        car = Extent(4.0, 2.0, 1.5)
        specs = [
            # a: controlled vehicle; its rollout rams c, then leaves the road.
            ("a", AgentType.VEHICLE, car, ts, 5.0 + 0.5 * ts, np.zeros(n)),
            # b: log-replayed vehicle observed on both legs of the L; the
            # interpolated rows between cut the corner, off the road.
            ("b", AgentType.VEHICLE, car, np.array([0, 1, 2, 30, 31, 32]),
             [30.0, 30.5, 31.0, 50.0, 50.0, 50.0], [0.0, 0.0, 0.0, 20.0, 20.5, 21.0]),
            # c: parked vehicle on the road, in a's path.
            ("c", AgentType.VEHICLE, car, ts, np.full(n, 12.2), np.full(n, 0.5)),
            # d: pedestrian off the road, far from everyone: no off-road type.
            ("d", AgentType.PEDESTRIAN, Extent(0.6, 0.6, 1.8), ts, np.full(n, 5.0), 10.0 + 0.05 * ts),
            # e: extent-less vehicle on the road: no collision candidate.
            ("e", AgentType.VEHICLE, None, ts, np.full(n, 45.0), np.zeros(n)),
        ]
        agents, tracks = [], []
        for agent_id, agent_type, extent, obs_ts, xs, ys in specs:
            first_ts, track = _derived_track(obs_ts, xs, ys, self.DT)
            agents.append(AgentMetadata(agent_id, agent_type, extent, first_ts, first_ts + len(track["x"]) - 1))
            tracks.append(track)
        return SceneFrame.from_tracks("oracle", "toy", "flat", self.DT, agents, tracks)

    def _rollout(self, scene):
        state, _ = sim_reset(scene, self.INIT, ["a"])
        for ts in range(self.INIT + 1, self.INIT + self.STEPS + 1):
            y = 0.0 if ts <= 20 else 0.4 * (ts - 20)
            state, _ = sim_step(state, {"a": (5.0 + 0.5 * ts, y, 0.0)})
        return state

    def test_rates_match_oracles(self):
        vmap = self._map()
        scene = self._scene()
        state = self._rollout(scene)
        metrics = sim_score(state, vmap)
        roll = rollout_scene(state)
        cols = roll.columns

        def box(r):
            ext = roll.agents[cols.agent_index[r]].extent
            return (cols.x[r], cols.y[r], cols.heading[r], ext.length, ext.width)

        boxed = [i for i, m in enumerate(roll.agents) if m.extent is not None]
        collided = set()
        for i, j in itertools.combinations(boxed, 2):
            lo = max(roll.agents[i].first_ts, roll.agents[j].first_ts)
            hi = min(roll.agents[i].last_ts, roll.agents[j].last_ts)
            boxes = ((box(roll.row_at(i, t)), box(roll.row_at(j, t))) for t in range(lo, hi + 1))
            if any(obb_overlap_by_sampling(box_i, box_j, n_side=40) for box_i, box_j in boxes):
                collided |= {i, j}
        polygons = [poly.rings() for poly in vmap.drivable_polygons()]
        road = [i for i, m in enumerate(roll.agents) if str(m.agent_type) in ("vehicle", "motorcycle")]
        off_rows = {
            i: [r for r in range(roll.rows_for_agent(i).start, roll.rows_for_agent(i).stop)
                if not any(crossing_number_inside(cols.x[r], cols.y[r], rings) for rings in polygons)]
            for i in road
        }
        offroad = {i for i in road if off_rows[i]}

        ids = [m.agent_id for m in roll.agents]
        assert {ids[i] for i in collided} == {"a", "c"}
        assert {ids[i] for i in offroad} == {"a", "b"}
        b = ids.index("b")
        assert not cols.observed[off_rows[b]].any()  # b is off the road only on interpolated rows
        assert metrics.collision_rate == len(collided) / len(boxed)
        assert metrics.offroad_rate == len(offroad) / len(road)
