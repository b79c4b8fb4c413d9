import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from trajkit.core import (
    AgentMetadata,
    AgentType,
    Extent,
    SceneColumns,
    SceneFrame,
    SceneTag,
    agent_lifetime_seconds,
    scene_validate,
    wrap_angle,
)

from conftest import random_scene


class TestAgentType:
    def test_round_trip_all_members(self):
        for member in AgentType:
            assert AgentType.from_string(str(member)) is member

    def test_unknown_is_a_valid_class(self):
        assert AgentType.from_string("unknown") is AgentType.UNKNOWN

    def test_bad_string_raises(self):
        valid = r"\(valid: vehicle, pedestrian, bicycle, motorcycle, unknown\)"
        with pytest.raises(ValueError, match=rf"^unknown agent type 'truck' {valid}$"):
            AgentType.from_string("truck")


class TestExtent:
    def test_valid(self):
        e = Extent(4.5, 2.0)
        assert e.height is None

    @pytest.mark.parametrize("kwargs", [dict(length=0.0, width=1.0), dict(length=1.0, width=-2.0), dict(length=1.0, width=1.0, height=0.0)])
    def test_nonpositive_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Extent(**kwargs)

    def test_absent_extent_distinct_from_zero(self):
        meta = AgentMetadata("a", AgentType.VEHICLE, None, 0, 1)
        assert meta.extent is None


class TestLifetime:
    def test_single_frame(self):
        meta = AgentMetadata("a", AgentType.VEHICLE, None, 0, 0)
        assert agent_lifetime_seconds(meta, 0.1) == pytest.approx(0.1)

    def test_arithmetic(self):
        meta = AgentMetadata("a", AgentType.VEHICLE, None, 10, 49)
        assert agent_lifetime_seconds(meta, 0.1) == pytest.approx(4.0)

    def test_25s_scenario_length(self):
        # 250 frames at 10 Hz spans 25 s.
        meta = AgentMetadata("a", AgentType.VEHICLE, None, 0, 249)
        assert agent_lifetime_seconds(meta, 0.1) == pytest.approx(25.0)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            agent_lifetime_seconds(AgentMetadata("a", AgentType.VEHICLE, None, 0, 0), 0.0)


class TestWrapAngle:
    def test_pi_maps_to_pi(self):
        assert wrap_angle(math.pi) == math.pi

    def test_minus_pi_maps_to_pi(self):
        assert wrap_angle(-math.pi) == math.pi

    def test_in_range_identity_is_bitwise(self):
        vals = np.array([1e-300, -1e-20, 0.0, 0.5, math.pi, -3.14159])
        assert np.array_equal(wrap_angle(vals), vals)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @example(float(np.nextafter(math.pi, 4.0)))
    def test_range(self, angle):
        w = wrap_angle(angle)
        assert -math.pi < w <= math.pi

    @given(st.floats(min_value=-100.0, max_value=100.0))
    @example(float(np.nextafter(math.pi, 4.0)))
    def test_idempotent(self, angle):
        assert wrap_angle(wrap_angle(angle)) == wrap_angle(angle)


class TestSceneTag:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("nusc_mini-boston", SceneTag("nusc_mini", location="boston")),
            ("sdd-train", SceneTag("sdd", split="train")),
            ("eth", SceneTag("eth")),
            ("nusc-mini-boston", SceneTag("nusc", split="mini", location="boston")),
        ],
    )
    def test_parse(self, text, expect):
        assert SceneTag.parse(text) == expect

    def test_render_parse_identity(self):
        for tag in (
            SceneTag("waymo"),
            SceneTag("sdd", split="train"),
            SceneTag("nusc", location="boston"),
            SceneTag("nusc", split="mini", location="boston"),
        ):
            assert SceneTag.parse(tag.render()) == tag

    def test_split_outside_conventional_set_rejected(self):
        with pytest.raises(ValueError):
            SceneTag("d", split="summer")

    def test_location_colliding_with_split_rejected(self):
        with pytest.raises(ValueError):
            SceneTag("d", location="train")

    def test_matches_subsumption(self):
        full = SceneTag("nusc", split="mini", location="boston")
        assert SceneTag("nusc").matches(full)
        assert SceneTag("nusc", split="mini").matches(full)
        assert SceneTag("nusc", location="boston").matches(full)
        assert not SceneTag("nusc", location="vegas").matches(full)
        assert not SceneTag("waymo").matches(full)

    @pytest.mark.parametrize("bad", ["", "a-b-c-d", "-x", "a--b"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            SceneTag.parse(bad)


def _two_agent_scene() -> SceneFrame:
    tracks = []
    agents = []
    for k, (first, last) in enumerate([(0, 4), (2, 6)]):
        n = last - first + 1
        tracks.append(
            {
                "x": np.arange(n, dtype=float),
                "y": np.zeros(n),
                "z": np.zeros(n),
                "vx": np.ones(n),
                "vy": np.zeros(n),
                "ax": np.zeros(n),
                "ay": np.zeros(n),
                "heading": np.zeros(n),
                "observed": np.ones(n, dtype=bool),
            }
        )
        agents.append(AgentMetadata(f"a{k}", AgentType.VEHICLE, Extent(4.0, 2.0), first, last))
    return SceneFrame.from_tracks("s0", "toy", "nowhere", 0.1, agents, tracks)


class TestSceneFrame:
    def test_well_formed_scene_has_no_violations(self):
        assert scene_validate(_two_agent_scene()) == []

    def test_round_trip_tracks(self):
        scene = _two_agent_scene()
        rows0 = scene.rows_for_agent(0)
        assert np.array_equal(scene.columns.ts[rows0], np.arange(0, 5))
        assert np.array_equal(scene.columns.x[rows0], np.arange(5, dtype=float))
        rows1 = scene.rows_for_agent(1)
        assert np.array_equal(scene.columns.ts[rows1], np.arange(2, 7))

    def test_row_at(self):
        scene = _two_agent_scene()
        r = scene.row_at(1, 3)
        assert scene.columns.agent_index[r] == 1 and scene.columns.ts[r] == 3
        assert scene.row_at(1, 1) is None
        assert scene.row_at(0, 5) is None

    def test_agents_present_at(self):
        scene = _two_agent_scene()
        assert scene.agents_present_at(1) == [0]
        assert scene.agents_present_at(3) == [0, 1]
        assert scene.agents_present_at(6) == [1]

    def test_scene_tag_includes_split(self):
        scene = _two_agent_scene()
        scene.dataset_tag = "toy-train"
        assert scene.scene_tag() == SceneTag("toy", split="train", location="nowhere")

    def test_equality_is_bitwise(self):
        rng = np.random.default_rng(7)
        a = random_scene(rng)
        b = random_scene(np.random.default_rng(7))
        assert a == b
        b.columns.x[0] += 1e-12
        assert a != b


def _mutate(scene: SceneFrame, **col_overrides) -> SceneFrame:
    cols = {name: np.array(getattr(scene.columns, name)) for name in
            ("agent_index", "ts", "x", "y", "z", "vx", "vy", "ax", "ay", "heading", "observed")}
    cols.update(col_overrides)
    return SceneFrame(
        scene.scene_id, scene.dataset_tag, scene.location, scene.dt, scene.n_timesteps,
        scene.agents, SceneColumns(**cols), scene.heading_derived,
    )


class TestSceneValidate:
    def test_duplicate_row(self):
        scene = _two_agent_scene()
        ts = np.array(scene.columns.ts)
        ts[1] = 0  # rows 0 and 1 both at (agent 0, ts 0)
        bad = _mutate(scene, ts=ts)
        violations = scene_validate(bad)
        assert any("duplicate-row" in v and "a0" in v for v in violations)

    def test_gap(self):
        scene = _two_agent_scene()
        ts = np.array(scene.columns.ts)
        ts[1] = 5  # agent 0 now misses ts 1 and has a row past last_ts
        bad = _mutate(scene, ts=ts)
        violations = scene_validate(bad)
        assert any("missing row at ts 1" in v for v in violations)

    def test_heading_out_of_range(self):
        scene = _two_agent_scene()
        heading = np.array(scene.columns.heading)
        heading[0] = -math.pi  # open boundary
        bad = _mutate(scene, heading=heading)
        assert any("heading-range" in v for v in violations_of(bad))

    def test_heading_message_prints_a_plain_float(self):
        scene = _two_agent_scene()
        heading = np.array(scene.columns.heading)
        heading[0] = 4.0
        bad = _mutate(scene, heading=heading)
        assert "agent a0: heading 4.0 outside (-pi, pi] at ts 0 (heading-range)" in violations_of(bad)

    def test_nonpositive_dt(self):
        scene = _two_agent_scene()
        scene.dt = 0.0
        assert any("dt-positive" in v for v in scene_validate(scene))

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    def test_non_finite_dt(self, dt):
        scene = _two_agent_scene()
        scene.dt = dt
        assert f"scene {scene.scene_id}: dt {dt} not finite and positive (dt-positive)" in scene_validate(scene)

    def test_lifetime_order(self):
        scene = _two_agent_scene()
        scene.agents[0].first_ts, scene.agents[0].last_ts = 4, 0
        assert any("lifetime-order" in v for v in scene_validate(scene))

    def test_duplicate_agent_id(self):
        scene = _two_agent_scene()
        scene.agents[1].agent_id = "a0"
        assert any("agent-id-unique" in v for v in scene_validate(scene))

    def test_non_finite_position(self):
        scene = _two_agent_scene()
        x = np.array(scene.columns.x)
        x[2] = np.nan
        assert any("non-finite" in v for v in violations_of(_mutate(scene, x=x)))

    def test_random_scenes_validate_clean(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert scene_validate(random_scene(rng)) == []


def violations_of(scene):
    return scene_validate(scene)
