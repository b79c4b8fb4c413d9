"""The segmented completion kernel against the per-agent references.

Both parsers, resampling and ``complete_track`` run one columnar kernel over
all agents; ``oracles.py`` keeps the agent-by-agent code it replaced. Scenes
must be equal column byte for column byte (``SceneFrame.__eq__``), and
malformed input must raise the same class with the same message.
"""

import math

import numpy as np
import pytest

from trajkit.core import AgentMetadata, AgentType, SceneColumns, SceneFrame, scene_validate
from trajkit.ingest import ParseError, SceneMetaRecord, parse_canonical_csv_many, parse_frame_text
from trajkit.kinematics import complete_track, derive_heading, impute_linear, resample_scene

from conftest import random_scene
from oracles import (
    reference_complete_track,
    reference_derive_heading,
    reference_impute_linear,
    reference_parse_canonical_csv_many,
    reference_parse_frame_text,
    reference_resample_scene,
    reference_scene_validate,
)

HEADER = "scene_id,agent_id,agent_type,frame,x,y,z,heading,length,width,height"
SPECIAL = (math.nan, math.inf, -math.inf, -0.0)
AGENT_IDS = ("a", "a10", "a9", "B", "b", "ped 7", "Ä", "0")


def _meta(dt=0.1):
    return SceneMetaRecord(scene_id="s0", dt=dt, location="here", dataset="rand")


def _value(rng, scale=20.0, special=0.03):
    if rng.random() < special:
        return SPECIAL[int(rng.integers(len(SPECIAL)))]
    return float(rng.normal(0.0, scale))


def _cell(value):
    return repr(value) if isinstance(value, float) else str(value)


def _outcome(fn, *args):
    """fn(*args), or the (class, message) of what it raised."""
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except (ParseError, ValueError) as exc:
            return type(exc), str(exc)


def _assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert got == want


def random_csv(rng, faults: bool) -> str:
    """A canonical CSV of one to three scenes with shuffled rows.

    Agents get gaps, one-row lifetimes, per-row agent types and extents on
    only some rows; a scene gives headings on every row, on none or on some.
    With faults, some agents repeat a frame or carry a bad extent."""
    rows = []
    for s in range(int(rng.integers(1, 4))):
        scene_id = f"s{int(rng.integers(0, 5))}{s}"
        heading_mode = rng.choice(["all", "none", "some"])
        base = int(rng.choice([0, 7, -3, 10**12]))
        ids = rng.choice(AGENT_IDS, size=int(rng.integers(1, 6)), replace=False)
        for agent_id in ids:
            n = int(rng.choice([1, 1, 2, 3, 8, 20]))
            frames = base + np.sort(rng.choice(40, size=n, replace=False))
            if faults and rng.random() < 0.2 and n > 1:
                frames[int(rng.integers(1, n))] = frames[0]
            for frame in frames.tolist():
                agent_type = rng.choice(["vehicle", "pedestrian", "bicycle"]) if rng.random() < 0.3 else "vehicle"
                z = "" if rng.random() < 0.5 else _cell(_value(rng, 1.0))
                given = heading_mode == "all" or (heading_mode == "some" and rng.random() < 0.7)
                heading = _cell(_value(rng, 4.0)) if given else ""
                length = width = height = ""
                if rng.random() < 0.4:
                    length, width = _cell(float(rng.uniform(1, 5))), _cell(float(rng.uniform(1, 3)))
                    height = _cell(float(rng.uniform(1, 2))) if rng.random() < 0.5 else ""
                    if faults and rng.random() < 0.2:
                        length = _cell(float(rng.choice([0.0, -1.0, math.nan])))
                x, y = _cell(_value(rng)), _cell(_value(rng))
                rows.append(",".join([scene_id, agent_id, agent_type, str(frame), x, y, z, heading, length, width, height]))
    rng.shuffle(rows)
    return HEADER + "\n" + "\n".join(rows) + "\n"


def random_frame_text(rng, faults: bool) -> str:
    stride = int(rng.choice([1, 6, 10]))
    base = int(rng.choice([0, 12, -30, 10**15]))
    lines = []
    for agent_id in rng.choice([-2, 0, 1, 3, 10, 11, 250, 10**18], size=int(rng.integers(1, 7)), replace=False):
        n = int(rng.choice([1, 2, 5, 15]))
        steps = np.sort(rng.choice(30, size=n, replace=False))
        if faults and rng.random() < 0.2 and n > 1:
            steps[-1] = steps[0]
        for step in steps.tolist():
            extra = " 9 9" if rng.random() < 0.1 else ""
            lines.append(f"{base + stride * step} {agent_id} {_cell(_value(rng))} {_cell(_value(rng))}{extra}")
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


class TestParsersMatchReference:
    @pytest.mark.parametrize("faults", [False, True])
    def test_canonical_csv(self, faults):
        rng = np.random.default_rng(100 + faults)
        raised = 0
        for _ in range(150):
            text = random_csv(rng, faults)
            want = _outcome(reference_parse_canonical_csv_many, text, _meta())
            _assert_same(_outcome(parse_canonical_csv_many, text, _meta()), want)
            raised += isinstance(want, tuple)
        assert (raised > 20) if faults else raised == 0

    @pytest.mark.parametrize("faults", [False, True])
    def test_frame_text(self, faults):
        rng = np.random.default_rng(200 + faults)
        raised = 0
        for _ in range(150):
            text = random_frame_text(rng, faults)
            want = _outcome(reference_parse_frame_text, text, _meta(0.4))
            _assert_same(_outcome(parse_frame_text, text, _meta(0.4)), want)
            raised += isinstance(want, tuple)
        assert (raised > 20) if faults else raised == 0

    def test_first_faulty_agent_wins(self):
        # b repeats a frame and a has a bad extent: a sorts first.
        rows = ["s,b,vehicle,1,0,0,,,,,", "s,b,vehicle,1,1,0,,,,,", "s,a,vehicle,0,0,0,,,-1,2,"]
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        want = _outcome(reference_parse_canonical_csv_many, text, _meta())
        assert want[0] is ValueError and "extent length" in want[1]
        assert _outcome(parse_canonical_csv_many, text, _meta()) == want

    def test_duplicate_frame_wins_over_bad_extent_in_one_agent(self):
        rows = ["s,a,vehicle,0,0,0,,,-1,2,", "s,a,vehicle,3,1,0,,,,,", "s,a,vehicle,3,2,0,,,,,"]
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        want = _outcome(reference_parse_canonical_csv_many, text, _meta())
        assert want == (ParseError, "agent a: non-monotone frames (duplicate frame 3)")
        assert _outcome(parse_canonical_csv_many, text, _meta()) == want

    def test_kept_heading_is_wrapped_once(self):
        # wrap_angle takes pi's successor to pi; agent b has a gap, so its
        # kept headings pass through the imputing kernel too.
        h = repr(float(np.nextafter(math.pi, 4.0)))
        rows = [f"s,{a},vehicle,{f},{f},0,,{h},,," for a, frames in (("a", (0, 1, 2)), ("b", (0, 2))) for f in frames]
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        (want,) = reference_parse_canonical_csv_many(text, _meta())
        assert want.columns.heading[0] == math.pi
        assert parse_canonical_csv_many(text, _meta()) == [want]

    def test_first_scene_in_sorted_order_wins(self):
        rows = ["t,a,vehicle,0,0,0,,,,,", "t,a,vehicle,0,0,0,,,,,", "s,b,vehicle,0,0,0,,,0,2,"]
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        want = _outcome(reference_parse_canonical_csv_many, text, _meta())
        assert want[0] is ValueError
        assert _outcome(parse_canonical_csv_many, text, _meta()) == want


def _headings_in_range(scene):
    h = scene.columns.heading
    return bool(np.all(np.isnan(h) | ((h > -math.pi) & (h <= math.pi))))


class TestResampleMatchesReference:
    def _scenes(self, rng):
        for k in range(40):
            yield random_scene(rng, n_agents=int(rng.integers(1, 7)), n_timesteps=int(rng.integers(3, 40)),
                               dt=0.2, gap_prob=float(rng.choice([0.0, 0.3])), scene_id=f"r{k}")
        for _ in range(40):
            with np.errstate(all="ignore"):
                yield from parse_canonical_csv_many(random_csv(rng, False), _meta(0.2))

    def test_up_and_down(self, caplog):
        rng = np.random.default_rng(300)
        dropped = compared = 0
        for scene in self._scenes(rng):
            # Resampling is defined on valid scenes: a heading outside
            # (-pi, pi] (which scene_validate rejects) may come out wrapped
            # differently for one-row agents.
            assert _headings_in_range(scene)
            for factor in (2, 3, 4, 5):
                for dt in (scene.dt / factor, scene.dt * factor):
                    caplog.clear()
                    want = _outcome(reference_resample_scene, scene, dt)
                    assert _outcome(resample_scene, scene, dt) == want
                    lost = scene.n_agents - want.n_agents
                    assert len([r for r in caplog.records if "dropped by downsampling" in r.message]) == lost
                    dropped += lost
                    compared += 1
        assert compared >= 400 and dropped > 50

    def test_every_agent_dropped(self):
        agents = [AgentMetadata("a", AgentType.VEHICLE, None, 1, 1)]
        track = {name: np.zeros(1) for name in ("x", "y", "z", "vx", "vy", "ax", "ay", "heading")}
        track["observed"] = np.ones(1, dtype=bool)
        scene = SceneFrame.from_tracks("one", "toy", "", 0.1, agents, [track])
        out = resample_scene(scene, 0.2)
        assert out == reference_resample_scene(scene, 0.2)
        assert out.n_agents == 0 and out.n_timesteps == 0


class TestCompletionMatchesReference:
    def test_complete_track(self):
        rng = np.random.default_rng(400)
        for _ in range(300):
            n = int(rng.choice([1, 2, 3, 10, 30]))
            ts = np.sort(rng.choice(60, size=n, replace=False)) + int(rng.integers(-5, 5))
            x, y, z = ([_value(rng, special=0.05) for _ in range(n)] for _ in range(3))
            heading = [_value(rng, 5.0, 0.05) for _ in range(n)] if rng.random() < 0.5 else None
            dt = float(rng.choice([0.1, 0.4, 1.0 / 3.0]))
            want = _outcome(reference_complete_track, ts, x, y, z, dt, heading)
            got = _outcome(complete_track, ts, x, y, z, dt, heading)
            assert got[0] == want[0] and got[2] == want[2]
            assert sorted(got[1]) == sorted(want[1])
            for name, column in want[1].items():
                assert got[1][name].tobytes() == column.tobytes(), name

    def test_impute_linear_and_errors(self):
        rng = np.random.default_rng(401)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            ts = np.sort(rng.choice(25, size=n, replace=False))
            values = {"heading": rng.normal(0, 4, n), "v": rng.normal(0, 9, n)}
            got = impute_linear(ts, values, angular=("heading",))
            want = reference_impute_linear(ts, values, angular=("heading",))
            assert got[0].tobytes() == want[0].tobytes() and got[2].tobytes() == want[2].tobytes()
            assert all(got[1][k].tobytes() == want[1][k].tobytes() for k in values)
        for bad in ([], [0, 0], [3, 1]):
            assert _outcome(impute_linear, bad, {}) == _outcome(reference_impute_linear, bad, {})
            xs = np.zeros(len(bad))
            assert _outcome(complete_track, bad, xs, xs, xs, 0.1) == _outcome(reference_complete_track, bad, xs, xs, xs, 0.1)

    def test_segmented_heading(self):
        rng = np.random.default_rng(402)
        for _ in range(200):
            lengths = rng.choice([1, 2, 3, 7], size=int(rng.integers(1, 6)))
            offsets = np.concatenate([[0], np.cumsum(lengths)])
            # Some agents never reach the floor, some start below it.
            moving = np.repeat(rng.random(len(lengths)) < 0.6, lengths)
            vx = rng.normal(0, 0.1, offsets[-1]) * (rng.random(offsets[-1]) < 0.6) * moving
            vy = rng.normal(0, 0.1, offsets[-1]) * moving
            got, degenerate = derive_heading(vx, vy, 0.05, offsets)
            for k, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
                want, want_degenerate = reference_derive_heading(vx[a:b], vy[a:b], 0.05)
                assert got[a:b].tobytes() == want.tobytes() and degenerate[k] == want_degenerate


def _malformed(rng, scene):
    """A copy of a valid scene with rows shuffled, repeated or dropped, ts
    shifted outside a lifetime, lifetimes changed, bad headings or non-finite
    cells, a few of these at a time."""
    cols = {name: np.array(column) for name, column in scene.columns.as_dict().items()}
    rows = np.arange(len(cols["ts"]))
    edits = rng.choice(["shuffle", "repeat", "drop", "shift", "lifetime", "heading", "cells"], size=3)
    for edit in edits:
        if edit == "shuffle":
            block = rng.choice(len(rows), size=min(len(rows), 4), replace=False)
            rows[np.sort(block)] = rows[block]
        elif edit == "repeat":
            rows = np.sort(np.concatenate([rows, rng.choice(rows, size=3)]))
        elif edit == "drop":
            rows = np.delete(rows, rng.choice(len(rows), size=min(len(rows) - 1, 3), replace=False))
    cols = {name: column[rows] for name, column in cols.items()}
    agents = [AgentMetadata(m.agent_id, m.agent_type, m.extent, m.first_ts, m.last_ts) for m in scene.agents]
    for edit in edits:
        if edit == "shift":
            cols["ts"][rng.choice(len(rows), size=2)] += int(rng.choice([-50, 3, 200]))
        elif edit == "lifetime":
            meta = agents[int(rng.integers(len(agents)))]
            meta.first_ts, meta.last_ts = meta.first_ts + int(rng.integers(-3, 4)), meta.last_ts + int(rng.integers(-3, 4))
        elif edit == "heading":
            cols["heading"][rng.choice(len(rows), size=2)] = rng.choice([-math.pi, 4.0, math.nan])
        elif edit == "cells":
            name = rng.choice(["x", "y", "z", "vx", "ay"])
            cols[name][rng.choice(len(rows), size=2)] = rng.choice([math.nan, math.inf])
    return SceneFrame(scene.scene_id, scene.dataset_tag, scene.location, scene.dt, scene.n_timesteps,
                      agents, SceneColumns(**cols), scene.heading_derived)


class TestSceneValidateMatchesReference:
    def test_malformed_scenes(self):
        rng = np.random.default_rng(500)
        seen = set()
        for k in range(300):
            scene = random_scene(rng, n_agents=int(rng.integers(1, 6)), n_timesteps=30, scene_id=f"v{k}")
            bad = _malformed(rng, scene)
            want = reference_scene_validate(bad)
            assert scene_validate(bad) == want
            seen.update(v[v.rindex("(") :] for v in want)
        assert {"(row-order)", "(duplicate-row)", "(gap)", "(ts-range)", "(heading-range)", "(non-finite)"} <= seen

    def test_agent_without_rows_and_inverted_lifetime(self):
        scene = random_scene(np.random.default_rng(5), n_agents=3, n_timesteps=20)
        cols = {name: np.array(c)[scene.columns.agent_index != 1] for name, c in scene.columns.as_dict().items()}
        agents = [AgentMetadata(m.agent_id, m.agent_type, m.extent, m.first_ts, m.last_ts) for m in scene.agents]
        agents[2].first_ts, agents[2].last_ts = agents[2].last_ts, agents[2].first_ts
        bad = SceneFrame(scene.scene_id, scene.dataset_tag, scene.location, scene.dt, scene.n_timesteps,
                         agents, SceneColumns(**cols), scene.heading_derived)
        want = reference_scene_validate(bad)
        assert any("no rows" in v for v in want)
        assert scene_validate(bad) == want

    @pytest.mark.parametrize("case, named", [
        ("repeat-outside-lifetime", "duplicate row at ts 40"),
        ("middle-agent-without-rows", "no rows for lifetime"),
    ])
    def test_layout_edge_cases(self, case, named):
        scene = random_scene(np.random.default_rng(6), n_agents=3, n_timesteps=20)
        cols = {name: np.array(c) for name, c in scene.columns.as_dict().items()}
        if case == "repeat-outside-lifetime":
            rows = np.sort(np.append(np.arange(len(scene.columns)), scene.rows_for_agent(1).start))
            cols = {name: c[rows] for name, c in cols.items()}
            cols["ts"][scene.rows_for_agent(1).start : scene.rows_for_agent(1).start + 2] = 40
        else:
            cols = {name: c[scene.columns.agent_index != 1] for name, c in cols.items()}
        bad = SceneFrame(scene.scene_id, scene.dataset_tag, scene.location, scene.dt, scene.n_timesteps,
                         scene.agents, SceneColumns(**cols), scene.heading_derived)
        want = reference_scene_validate(bad)
        assert any(named in v for v in want)
        assert scene_validate(bad) == want
