import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from trajkit.core import (
    TYPE_BY_CODE,
    AgentMetadata,
    AgentType,
    Extent,
    SceneColumns,
    SceneFrame,
    SceneTag,
    agent_columns,
    rotate,
    scene_validate,
    wrap_angle,
)
from trajkit.ingest import (
    SceneCache,
    SceneMetaRecord,
    Straight,
    cache_load,
    cache_write,
    parse_canonical_csv,
    parse_frame_text,
    scene_from_bytes,
    scene_to_bytes,
    synth_scene,
)
from trajkit.kinematics import resample_scene
from trajkit.simulation import rollout_scene, sim_reset, sim_step

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
        assert meta.n_steps * 0.1 == pytest.approx(0.1)

    def test_arithmetic(self):
        meta = AgentMetadata("a", AgentType.VEHICLE, None, 10, 49)
        assert meta.n_steps * 0.1 == pytest.approx(4.0)

    def test_25s_scenario_length(self):
        # 250 frames at 10 Hz spans 25 s.
        meta = AgentMetadata("a", AgentType.VEHICLE, None, 0, 249)
        assert meta.n_steps * 0.1 == pytest.approx(25.0)


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


def test_rotate_into_out_gives_the_same_bits():
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(2, 7, 3)) * 1e3
    yaw = rng.uniform(-math.pi, math.pi, 3)
    c, s = np.cos(yaw), -np.sin(yaw)
    out = np.empty((2, 7, 3))
    pair = (out[0], out[1])
    assert rotate(x, y, c, s, out=pair) is pair
    assert out.tobytes() == np.stack(rotate(x, y, c, s)).tobytes()


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

    def test_str_is_the_rendering(self):
        assert str(SceneTag("nusc", split="mini", location="boston")) == "nusc-mini-boston"
        assert str(SceneTag("eth")) == "eth"


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
        scene = dataclasses.replace(_two_agent_scene(), dataset_tag="toy-train")
        assert scene.scene_tag() == SceneTag("toy", split="train", location="nowhere")

    def test_equality_is_bitwise(self):
        rng = np.random.default_rng(7)
        a = random_scene(rng)
        b = random_scene(np.random.default_rng(7))
        assert a == b
        b.columns.x[0] += 1e-12
        assert a != b

    @pytest.mark.parametrize("changes", [
        {"scene_id": "s1"},
        {"dataset_tag": "toy-train"},
        {"location": "elsewhere"},
        {"dt": 0.2},
        {"heading_derived": False},
        {"agent_ids": ("a0", "b1")},
        {"type_code": [0, 1]},
        {"first_ts": [1, 2], "last_ts": [5, 6]},  # agent a0 one step later, with the same rows
        {"extent": [[4.0, 2.0, np.nan], [4.0, 2.5, np.nan]]},
    ], ids=lambda changes: ",".join(changes))
    def test_equality_compares_each_metadata_field(self, changes):
        scene = _two_agent_scene()
        assert scene.__eq__(dataclasses.replace(scene)) is True
        assert scene.__eq__(dataclasses.replace(scene, **changes)) is False

    def test_equality_with_another_type_is_not_implemented(self):
        scene = _two_agent_scene()
        assert scene.__eq__(scene.columns) is NotImplemented
        assert scene != "s0" and scene != scene.columns

    def test_from_tracks_rejects_tracks_that_do_not_fit_the_agents(self):
        meta = AgentMetadata("a0", AgentType.VEHICLE, None, 0, 2)
        track = {name: np.zeros(3) for name in ("x", "y", "z", "vx", "vy", "ax", "ay", "heading")} | {"observed": np.ones(3, dtype=bool)}
        with pytest.raises(ValueError, match="^agents and tracks must be parallel$"):
            SceneFrame.from_tracks("s0", "toy", "", 0.1, [meta], [track, track])
        with pytest.raises(ValueError, match="^agent a0: track column vy has length 2, expected 3$"):
            SceneFrame.from_tracks("s0", "toy", "", 0.1, [meta], [{**track, "vy": np.zeros(2)}])
        assert SceneFrame.from_tracks("s0", "toy", "", 0.1, [meta], [track]).n_agents == 1


def _mutate(scene: SceneFrame, **col_overrides) -> SceneFrame:
    cols = {name: np.array(column) for name, column in scene.columns.as_dict().items()}
    cols.update(col_overrides)
    return dataclasses.replace(scene, columns=SceneColumns(**cols))


class TestSceneValidate:
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
        scene = dataclasses.replace(_two_agent_scene(), dt=0.0)
        assert any("dt-positive" in v for v in scene_validate(scene))

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    def test_non_finite_dt(self, dt):
        scene = dataclasses.replace(_two_agent_scene(), dt=dt)
        assert f"scene {scene.scene_id}: dt {dt} not finite and positive (dt-positive)" in scene_validate(scene)

    def test_lifetime_order(self):
        # An inverted lifetime spans no timestep, so no scene holds one.
        scene = _two_agent_scene()
        agents = [dataclasses.replace(scene.agents[0], first_ts=4, last_ts=0), *scene.agents[1:]]
        with pytest.raises(ValueError, match="agent lifetimes span"):
            SceneFrame(scene.scene_id, scene.dataset_tag, scene.location, scene.dt, **agent_columns(agents), columns=scene.columns)

    def test_duplicate_agent_id(self):
        scene = _two_agent_scene()
        scene = dataclasses.replace(scene, agent_ids=(scene.agent_ids[0], "a0"))
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


def _window(scene: SceneFrame) -> SceneFrame:
    state, _ = sim_reset(scene, 5, [scene.agents[0].agent_id])
    for _ in range(30):  # past the scene's end: the rollout outlives its source
        state, _ = sim_step(state, {scene.agents[0].agent_id: (1.0, 2.0, 0.5)})
    return rollout_scene(state)


_META = SceneMetaRecord("s0", 0.1, "nowhere", "toy")
# Each builder of a scene, given a directory it may write a cache in.
_BUILDERS = {
    "from_tracks": lambda tmp: random_scene(np.random.default_rng(11), n_agents=5, n_timesteps=30),
    "synth": lambda tmp: synth_scene(Straight(1.0), 3, 10, 0.1),
    "canonical-csv": lambda tmp: parse_canonical_csv(
        "scene_id,agent_id,agent_type,frame,x,y,z,heading,length,width,height\n"
        + "".join(f"s0,{a},vehicle,{f},{f}.0,{k}.0,,,,,\n" for k, (a, f) in enumerate([("b", 3), ("a", 9), ("b", 6), ("a", 4)])),
        _META,
    ),
    "frame-text": lambda tmp: parse_frame_text("10 1 0 0\n30 1 2 0\n20 2 1 1\n40 2 3 1\n", _META),
    "decode": lambda tmp: scene_from_bytes(scene_to_bytes(random_scene(np.random.default_rng(12), n_agents=4))),
    "cache_load": lambda tmp: cache_load(cache_write(random_scene(np.random.default_rng(16), n_agents=4), tmp)),
    "load_path": lambda tmp: SceneCache(tmp).load_path(SceneCache(tmp).write(random_scene(np.random.default_rng(17), n_agents=4))),
    "upsample": lambda tmp: resample_scene(random_scene(np.random.default_rng(13), n_agents=4, dt=0.2), 0.1),
    "downsample": lambda tmp: resample_scene(random_scene(np.random.default_rng(14), n_agents=4, dt=0.1), 0.3),
    "window": lambda tmp: _window(random_scene(np.random.default_rng(15), n_agents=4, n_timesteps=20, gap_prob=0.0)),
    "replace": lambda tmp: dataclasses.replace(random_scene(np.random.default_rng(18), n_agents=4), scene_id="s1", dt=0.2),
    "zero-agents": lambda tmp: SceneFrame.from_tracks("s0", "toy", "", 0.1, [], []),
}


class TestFrozenScene:
    """Construction is the only place a scene's agents are set: the scene and
    its records are frozen, and its per-agent and layout columns read-only."""

    @pytest.mark.parametrize("builder", sorted(_BUILDERS))
    def test_every_builder_freezes_the_scene(self, builder, tmp_path):
        scene = _BUILDERS[builder](tmp_path)
        assert isinstance(scene.agents, tuple)
        for name, value in (("agents", ()), ("dt", 1.0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(scene, name, value)
        for meta in scene.agents:
            for name, value in (("first_ts", meta.last_ts + 1), ("agent_id", "z")):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(meta, name, value)
        for array in (scene.first_ts, scene.last_ts, scene.type_code, scene.extent, scene.columns.agent_index, scene.columns.ts,
                      scene.agent_offsets, scene._row0):
            with pytest.raises(ValueError, match="read-only"):
                array[:] = 0
        assert scene.agent_ids == tuple(m.agent_id for m in scene.agents)
        assert scene.type_code.dtype == np.uint8
        assert [TYPE_BY_CODE[c] for c in scene.type_code.tolist()] == [m.agent_type for m in scene.agents]
        assert scene.first_ts.dtype == scene.last_ts.dtype == np.int64
        assert scene.first_ts.tolist() == [m.first_ts for m in scene.agents]
        assert scene.last_ts.tolist() == [m.last_ts for m in scene.agents]
        assert scene.extent.dtype == np.float64 and scene.extent.shape == (scene.n_agents, 3)
        rebuilt = tuple(
            AgentMetadata(agent_id, TYPE_BY_CODE[code], None if math.isnan(l) else Extent(l, w, None if math.isnan(h) else h), a, b)
            for agent_id, code, (l, w, h), a, b in zip(
                scene.agent_ids, scene.type_code.tolist(), scene.extent.tolist(), scene.first_ts.tolist(), scene.last_ts.tolist()
            )
        )
        assert scene.agents == rebuilt

    def test_a_lifetime_cannot_change_under_its_layout(self):
        scene = _two_agent_scene()
        with pytest.raises(dataclasses.FrozenInstanceError):
            scene.agents[0].first_ts, scene.agents[0].last_ts = 4, 0
        assert scene.rows_for_agent(0) == slice(0, 5) and scene.n_timesteps == 7


class TestSceneLayout:
    """A scene's lifetimes are its layout: agent_index, ts and n_timesteps come from them alone."""

    @pytest.mark.parametrize("builder", sorted(_BUILDERS))
    def test_every_builder_derives_the_layout(self, builder, tmp_path):
        scene = _BUILDERS[builder](tmp_path)
        cols = scene.columns
        assert scene.n_timesteps == max((m.last_ts for m in scene.agents), default=-1) + 1
        assert np.array_equal(cols.agent_index, np.repeat(np.arange(scene.n_agents), [m.n_steps for m in scene.agents]))
        want_ts = [np.arange(m.first_ts, m.last_ts + 1) for m in scene.agents]
        assert np.array_equal(cols.ts, np.concatenate(want_ts) if want_ts else [])
        for name in ("agent_index", "ts"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(cols, name)[:] = 0
        assert scene_validate(scene) == []

    def test_columns_of_unequal_length(self):
        with pytest.raises(ValueError, match="column heading has length 5, expected 6"):
            SceneColumns(*(np.zeros(6) for _ in range(7)), np.zeros(5), np.ones(6, dtype=bool))

    def test_late_lifetime(self):
        columns = SceneColumns(*(np.zeros(6) for _ in range(8)), np.ones(6, dtype=bool))
        scene = SceneFrame("s0", "toy", "", 0.1, **agent_columns([AgentMetadata("a", AgentType.VEHICLE, None, 2**62, 2**62 + 5)]), columns=columns)
        assert scene.n_timesteps == 2**62 + 6 and scene.columns.ts[-1] == 2**62 + 5

    def test_window_outlives_its_source(self):
        scene = random_scene(np.random.default_rng(15), n_agents=4, n_timesteps=20, gap_prob=0.0)
        assert _window(scene).n_timesteps == 36 > scene.n_timesteps

    def test_two_scenes_over_one_columns_keep_their_layouts(self):
        columns = SceneColumns(*(np.zeros(6) for _ in range(8)), np.ones(6, dtype=bool))
        one = SceneFrame("s1", "toy", "", 0.1, **agent_columns([AgentMetadata("a", AgentType.VEHICLE, None, 0, 5)]), columns=columns)
        two = SceneFrame("s2", "toy", "", 0.1, **agent_columns([AgentMetadata("a", AgentType.VEHICLE, None, 2, 3),
                                                                AgentMetadata("b", AgentType.VEHICLE, None, 7, 10)]), columns=columns)
        assert one.columns.agent_index.tolist() == [0] * 6 and one.columns.ts.tolist() == [0, 1, 2, 3, 4, 5]
        assert two.columns.agent_index.tolist() == [0, 0, 1, 1, 1, 1] and two.columns.ts.tolist() == [2, 3, 7, 8, 9, 10]
        assert (one.n_timesteps, two.n_timesteps) == (6, 11)
        assert columns.agent_index is None and columns.ts is None
        assert one.columns.x is columns.x  # the value columns are shared, not copied

    @pytest.mark.parametrize("lifetimes", [
        [(0, 2), (1, 2)],  # 5 rows, 6 given
        [(0, 4), (3, 2)],  # inverted: a span of 0
        [(0, 2), (4, 6), (9, 8)],  # spans sum to the rows, one of them 0
        [(-2, 1), (0, 1)],  # before ts 0
        [(-50, -45)],
        [(0, 2**62)],  # must fail before a row is built
        [(0, 2**62 - 1)] * 4 + [(0, 5)],  # the spans sum to 6 rows in int64, 2**64 + 6 in fact
        [],
        [(2**63 - 6, 2**63 - 1)],  # 6 rows, but n_timesteps would be 2**63
        [(0.5, 5.5)],  # 6 rows, truncated to ts 0 ... 5 if read as int64
        [(True, 6)],  # 6 rows if True passed as 1
        [(0, 2), (3.0, 5.0)],
    ], ids=["too-few", "inverted", "empty-span", "negative-first", "negative-lifetime", "huge-span", "int64-wrapping-spans", "no-agents",
            "ends-at-int64-max", "float-lifetime", "bool-first", "integral-floats"])
    def test_lifetimes_that_do_not_lay_out_the_rows(self, lifetimes):
        columns = SceneColumns(*(np.zeros(6) for _ in range(8)), np.ones(6, dtype=bool))
        agents = [AgentMetadata(f"a{k}", AgentType.VEHICLE, None, a, b) for k, (a, b) in enumerate(lifetimes)]
        with pytest.raises(ValueError, match="agent lifetimes span"):
            SceneFrame("s0", "toy", "", 0.1, **agent_columns(agents), columns=columns)


class TestAgentTable:
    """Construction checks the agent table once: one entry per id in each
    column, type codes in range, and extents that are boxes or all NaN."""

    @staticmethod
    def _scene(**table):
        columns = SceneColumns(*(np.zeros(6) for _ in range(8)), np.ones(6, dtype=bool))
        table = {"agent_ids": ["a", "b"], "type_code": [0, 4], "first_ts": [0, 1], "last_ts": [2, 3],
                 "extent": [[4.0, 2.0, 1.5], [math.nan] * 3], **table}
        return SceneFrame("s0", "toy", "", 0.1, **table, columns=columns)

    @pytest.mark.parametrize("first_ts", [np.array([0.0, 1.0]), np.array([False, True]), [0, np.float64(1.0)]],
                             ids=["float-array", "bool-array", "numpy-float-entry"])
    def test_lifetimes_that_are_not_integers(self, first_ts):
        with pytest.raises(ValueError, match="non-integer timesteps"):
            self._scene(first_ts=first_ts)

    @pytest.mark.parametrize("first_ts", [np.array([0, 1], dtype=np.int32), np.array([0, 1], dtype=np.uint8), [np.int64(0), 1]])
    def test_integer_lifetimes_of_any_integer_type(self, first_ts):
        assert self._scene(first_ts=first_ts).first_ts.tolist() == [0, 1]

    def test_lifetimes_beyond_int64_are_named_exactly(self):
        # numpy reads a list holding -1 and 2**63 as float64, which would round the bounds the message names.
        with pytest.raises(ValueError, match=r"earliest from ts -1, latest to ts 9223372036854775810\)"):
            self._scene(first_ts=[-1, 2**63], last_ts=[2, 2**63 + 2])

    @pytest.mark.parametrize("row", [[1.0, 2.0, math.nan], [math.nan] * 3, [math.inf, 1.0, 1.0]])
    def test_extent_rows_that_are_boxes_or_none(self, row):
        scene = self._scene(extent=[row, [4.0, 2.0, 1.5]])
        assert np.array_equal(scene.extent[0], row, equal_nan=True)
        want = None if math.isnan(row[0]) else Extent(row[0], row[1], None if math.isnan(row[2]) else row[2])
        assert scene.agents[0].extent == want

    @pytest.mark.parametrize("row", [[0.0, 2.0, 1.0], [4.0, -1.0, math.nan], [4.0, 2.0, 0.0], [4.0, 2.0, -math.inf],
                                     [math.nan, 2.0, 1.0], [math.nan, math.nan, 1.0], [4.0, math.nan, math.nan]])
    def test_extent_rows_that_are_neither(self, row):
        with pytest.raises(ValueError, match=r"^agent b: extent .* is neither all NaN nor a box$"):
            self._scene(extent=[[4.0, 2.0, 1.5], row])

    @pytest.mark.parametrize("table", [
        {"agent_ids": ["a"]}, {"type_code": [0]}, {"first_ts": [0]}, {"last_ts": [2, 3, 4]}, {"type_code": [0, 5]},
    ], ids=["one-id", "one-type", "one-first", "three-last", "type-code-5"])
    def test_columns_that_do_not_match_the_ids(self, table):
        with pytest.raises(ValueError, match="agent table of"):
            self._scene(**table)

    def test_extent_of_another_shape(self):
        with pytest.raises(ValueError, match="reshape"):
            self._scene(extent=[[4.0, 2.0, 1.5]])
