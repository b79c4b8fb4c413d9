import dataclasses
import io
import json
import math
import pickle
import zipfile

import numpy as np
import pytest

from trajkit import batching
from trajkit.batching import (
    AgentBatchElement,
    EmptyIndexError,
    FilterSpec,
    WindowSpec,
    augment_noise,
    build_index,
    collate,
    export_batches,
    get_batch,
    get_element,
    seconds_to_steps,
)
from trajkit.core import AgentMetadata, AgentType, SceneFrame
from trajkit.ingest import SceneCache, SceneMetaRecord, Straight, UnknownTagError, parse_canonical_csv, synth_scene

from conftest import count_scene_file_reads, random_scene
from oracles import enumerate_qualifying, reference_element, reference_index_entries, reference_write_npz

HEADER = "scene_id,agent_id,agent_type,frame,x,y,z,heading,length,width,height"


def _cached(cache: SceneCache, scene):
    cache.write(scene)
    return cache


class TestWindowAndFilter:
    def test_round_half_up(self):
        assert seconds_to_steps(1.0, 0.1) == 10
        assert seconds_to_steps(0.05, 0.1) == 1
        assert seconds_to_steps(0.04, 0.1) == 0

    def test_window_validation(self):
        with pytest.raises(ValueError):
            WindowSpec((3.0, 1.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            WindowSpec((-1.0, 1.0), (0.0, 0.0))

    @pytest.mark.parametrize("history, future", [((0.0, math.inf), (0.0, 0.0)), ((0.0, 1.0), (math.inf, math.inf))])
    def test_non_finite_window_rejected(self, history, future):
        with pytest.raises(ValueError, match="finite"):
            WindowSpec(history, future)

    def test_empty_type_set_invalid(self):
        with pytest.raises(ValueError):
            FilterSpec(agent_types=frozenset())

    @pytest.mark.parametrize("dist", [-1.0, float("nan")])
    def test_negative_or_nan_neighbor_dist_rejected(self, dist):
        with pytest.raises(ValueError, match="max_neighbor_dist"):
            FilterSpec(max_neighbor_dist=dist)


class TestBuildIndex:
    def test_spec_window_yields_50_elements(self, cache):
        scene = synth_scene(Straight(10.0), 1, 100, 0.1)
        _cached(cache, scene)
        index = build_index(cache, ["synth"], "agent", WindowSpec((1.0, 3.0), (4.0, 4.0)))
        assert len(index) == 50
        ts_values = [entry[3] for entry in index.entries]
        assert ts_values == list(range(10, 60))
        oracle = enumerate_qualifying(scene, 10, 40)
        assert [(e[2], e[3]) for e in index.entries] == [(0, ts) for _, ts in oracle]

    def test_zero_window_gives_one_element_per_observed_row(self, cache):
        rng = np.random.default_rng(0)
        scene = random_scene(rng, n_agents=3, n_timesteps=30)
        _cached(cache, scene)
        index = build_index(cache, ["rand"], "agent", WindowSpec((0.0, 0.0), (0.0, 0.0)))
        assert len(index) == int(scene.columns.observed.sum())

    def test_type_filter_empties_index(self, cache):
        scene = synth_scene(Straight(10.0), 1, 20, 0.1, agent_type=AgentType.PEDESTRIAN)
        _cached(cache, scene)
        with pytest.raises(EmptyIndexError, match="vehicle"):
            build_index(
                cache,
                ["synth"],
                "agent",
                WindowSpec((0.0, 0.0), (0.0, 0.0)),
                FilterSpec(agent_types=frozenset({AgentType.VEHICLE})),
            )

    def test_unknown_centric_rejected(self, cache):
        _cached(cache, synth_scene(Straight(10.0), 1, 20, 0.1))
        with pytest.raises(ValueError) as info:
            build_index(cache, ["synth"], "x")
        assert str(info.value) == "centric must be 'agent' or 'scene', got 'x'"

    def test_unknown_tag(self, cache):
        _cached(cache, synth_scene(Straight(10.0), 1, 20, 0.1))
        with pytest.raises(UnknownTagError):
            build_index(cache, ["nope"], "agent", WindowSpec((0.0, 0.0), (0.0, 0.0)))

    def test_deterministic_ordering(self, cache):
        rng = np.random.default_rng(4)
        for i in range(3):
            cache.write(random_scene(rng, scene_id=f"s{i}"))
        window = WindowSpec((0.5, 1.0), (0.5, 0.5))
        a = build_index(cache, ["rand"], "agent", window)
        b = build_index(cache, ["rand"], "agent", window)
        assert a.entries == b.entries

    def test_qualification_matches_oracle_on_random_scenes(self, cache):
        rng = np.random.default_rng(8)
        scene = random_scene(rng, n_agents=5, n_timesteps=50, gap_prob=0.3)
        _cached(cache, scene)
        window = WindowSpec((0.3, 0.8), (0.2, 0.4))
        index = build_index(cache, ["rand"], "agent", window)
        got = [(scene.agents[e[2]].agent_id, e[3]) for e in index.entries]
        assert sorted(got) == sorted(enumerate_qualifying(scene, 3, 2))

    def test_scene_centric_agrees_with_agent_centric(self, cache):
        rng = np.random.default_rng(9)
        scene = random_scene(rng, n_agents=5, n_timesteps=40, gap_prob=0.2)
        _cached(cache, scene)
        window = WindowSpec((0.2, 0.5), (0.3, 0.3))
        agent_idx = build_index(cache, ["rand"], "agent", window)
        scene_idx = build_index(cache, ["rand"], "scene", window)
        agent_triples = {(e[1], e[2], e[3]) for e in agent_idx.entries}
        scene_triples = {
            (e[1], a, e[2]) for e in scene_idx.entries for a in e[3]
        }
        assert agent_triples == scene_triples
        assert all(len(e[3]) >= 1 for e in scene_idx.entries)

    def test_reads_each_scene_file_once(self, cache, monkeypatch):
        # rand is queried twice and the mix-val scene is not selected; the tags come from the scenes.
        datasets = ["rand", "rand", "mix-train", "mix-val"]
        paths = cache.write_many([synth_scene(Straight(5.0), 2, 20, 0.1, scene_id=f"s{k}", dataset=d) for k, d in enumerate(datasets)])
        opened, checked, decoded = count_scene_file_reads(monkeypatch)
        index = build_index(cache, ["rand", "mix-train", "rand"])
        assert sorted(opened) == sorted(paths)
        assert sorted(checked) == ["s0", "s1", "s2", "s3"]
        assert sorted(decoded) == ["s0", "s1", "s2"]
        assert sorted({(tag, sid) for tag, sid, _, _ in index.entries}) == [("mix-train-flat", "s2"), ("rand-flat", "s0"), ("rand-flat", "s1")]

    @pytest.mark.parametrize("centric", ["agent", "scene"])
    @pytest.mark.parametrize("desired_dt", [None, 0.2])
    def test_entries_match_the_global_sort(self, cache, centric, desired_dt):
        # Twelve agents a0..a11 put a10 and a11 before a2 in id order, and s10 sorts before s2.
        rng = np.random.default_rng(12)
        for dataset, location, scene_id in [
            ("rand-train", "boston", "s2"), ("rand-train", "boston", "s10"), ("rand-val", "pitt", "s3"), ("rand", "", "s1"),
            ("mix-train", "pitt", "s10"), ("mix-train", "boston", "s2"), ("mix-val", "boston", "s5"),
        ]:
            cache.write(random_scene(rng, n_agents=12, n_timesteps=30, gap_prob=0.3, dataset=dataset, scene_id=scene_id, location=location))
        tags, window = ["rand", "mix-train", "rand"], WindowSpec((0.2, 0.4), (0.1, 0.3))
        index = build_index(cache, tags, centric, window, desired_dt=desired_dt)
        want = reference_index_entries(cache, tags, centric, window, desired_dt=desired_dt)
        assert pickle.dumps(index.entries) == pickle.dumps(want)
        assert len({e[:2] for e in want}) == 6
        # Id order is not table order: some scene's or timestep's run of agent indices decreases.
        scenes = dict.fromkeys(e[:2] for e in want)
        runs = [[e[2] for e in want if e[:2] == key] for key in scenes] if centric == "agent" else [e[3] for e in want]
        assert any(list(run) != sorted(run) for run in runs)

    def test_resample_applies_before_windowing(self, cache):
        scene = synth_scene(Straight(10.0), 1, 50, 0.2)
        _cached(cache, scene)
        index = build_index(cache, ["synth"], "agent", WindowSpec((1.0, 1.0), (1.0, 1.0)), desired_dt=0.1)
        ctx = next(iter(index.contexts.values()))
        assert ctx.scene.dt == 0.1
        assert ctx.h_steps == 10


class TestGetElement:
    def test_element_equality_with_another_type_is_not_implemented(self, cache):
        cache.write(synth_scene(Straight(10.0), 2, 30, 0.1))
        el = get_element(build_index(cache, ["synth"], "agent", WindowSpec((0.2, 0.5), (0.2, 0.2))), 0)
        assert el.__eq__(dataclasses.asdict(el)) is NotImplemented
        assert el != dataclasses.asdict(el) and el != "element"

    def test_short_history_masks_leading_slots(self, cache):
        scene = synth_scene(Straight(10.0), 1, 100, 0.1)
        _cached(cache, scene)
        index = build_index(cache, ["synth"], "agent", WindowSpec((1.0, 3.0), (4.0, 4.0)))
        el = get_element(index, 0)  # current_ts = 10, H = 30
        assert el.current_ts == 10
        assert el.history.shape == (31, 8)
        assert not el.history_mask[:20].any()
        assert el.history_mask[20:].all()
        assert np.all(el.history[:20] == 0.0)
        assert el.future.shape == (40, 8)
        assert el.future_mask.all()

    def test_standardized_current_pose(self, cache):
        rng = np.random.default_rng(12)
        scene = random_scene(rng, n_agents=4, n_timesteps=40)
        _cached(cache, scene)
        index = build_index(cache, ["rand"], "agent", WindowSpec((0.3, 1.0), (0.3, 0.5)))
        for i in range(len(index)):
            el = get_element(index, i)
            assert abs(el.history[-1, 0]) <= 1e-9
            assert abs(el.history[-1, 1]) <= 1e-9
            assert abs(el.history[-1, 6]) <= 1e-9      # sin(h_std) == 0
            assert abs(el.history[-1, 7] - 1.0) <= 1e-9

    def test_rotation_example(self, cache):
        # ego at (5, 3) heading pi/2; neighbor 1 m north appears 1 m along +x.
        rows = []
        for ts in range(3):
            rows.append(f"s0,ego,vehicle,{ts},5.0,{3.0 + 0.5 * ts},,1.5707963267948966,,,")
            rows.append(f"s0,north,vehicle,{ts},5.0,{4.0 + 0.5 * ts},,1.5707963267948966,,,")
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        scene = parse_canonical_csv(text, SceneMetaRecord("s0", 0.1, "nowhere", "toy"))
        cache.write(scene)
        index = build_index(cache, ["toy"], "agent", WindowSpec((0.1, 0.1), (0.1, 0.1)))
        el = next(
            get_element(index, i)
            for i, e in enumerate(index.entries)
            if index.contexts[(e[0], e[1])].scene.agents[e[2]].agent_id == "ego" and e[3] == 1
        )
        assert el.neighbor_ids == ("north",)
        np.testing.assert_allclose(el.neighbor_histories[0, -1, 0:2], [1.0, 0.0], atol=1e-9)

    def test_inverse_transform_recovers_world(self, cache):
        rng = np.random.default_rng(21)
        scene = random_scene(rng, n_agents=3, n_timesteps=40)
        _cached(cache, scene)
        index = build_index(cache, ["rand"], "agent", WindowSpec((0.2, 0.5), (0.2, 0.2)))
        el = get_element(index, len(index) // 2)
        agent_index = next(i for i, m in enumerate(scene.agents) if m.agent_id == el.agent_id)
        sl = scene.rows_for_agent(agent_index)
        world = el.to_world_points(el.history[el.history_mask][:, 0:2])
        meta = scene.agents[agent_index]
        lo = max(meta.first_ts, el.current_ts - (el.history.shape[0] - 1))
        rows = slice(sl.start + lo - meta.first_ts, sl.start + el.current_ts - meta.first_ts + 1)
        np.testing.assert_allclose(world[:, 0], scene.columns.x[rows], atol=1e-9)
        np.testing.assert_allclose(world[:, 1], scene.columns.y[rows], atol=1e-9)

    def test_no_neighbors(self, cache):
        scene = synth_scene(Straight(10.0), 1, 30, 0.1)
        _cached(cache, scene)
        index = build_index(cache, ["synth"], "agent", WindowSpec((0.0, 0.5), (0.0, 0.0)))
        el = get_element(index, 0)
        assert el.neighbor_ids == ()
        assert el.neighbor_histories.shape == (0, 6, 8)

    def test_neighbor_ordering_and_distance_filter(self, cache):
        scene = synth_scene(Straight(10.0), 4, 30, 0.1)  # lanes at y = 0, 5, 10, 15
        _cached(cache, scene)
        window = WindowSpec((0.0, 0.2), (0.0, 0.0))
        index = build_index(cache, ["synth"], "agent", window)
        el = get_element(index, 0)  # agent a0 at y=0
        assert el.agent_id == "a0"
        assert el.neighbor_ids == ("a1", "a2", "a3")
        index2 = build_index(cache, ["synth"], "agent", window, FilterSpec(max_neighbor_dist=7.0))
        el2 = get_element(index2, 0)
        assert el2.neighbor_ids == ("a1",)

    def test_distance_cut_uses_math_hypot(self, cache):
        # math.hypot of this offset is 33.09559067173917 and np.hypot one bit
        # more (...174), so a cut at the math.hypot value keeps the neighbour
        # only when the distance is computed as math.hypot computes it.
        nx, ny = 20.479036776742994, -25.998599473973915
        cut = math.hypot(nx, ny)
        assert cut == 33.09559067173917 and float(np.hypot(nx, ny)) > cut
        agents, tracks = [], []
        for k, (x, y) in enumerate([(0.0, 0.0), (nx, ny)]):
            agents.append(AgentMetadata(f"a{k}", AgentType.VEHICLE, None, 0, 2))
            track = {name: np.zeros(3) for name in ("z", "vx", "vy", "ax", "ay", "heading")}
            tracks.append(dict(track, x=np.full(3, x), y=np.full(3, y), observed=np.ones(3, dtype=bool)))
        cache.write(SceneFrame.from_tracks("s0", "rand", "nowhere", 0.1, agents, tracks))
        index = build_index(cache, ["rand"], "agent", WindowSpec((0.0, 0.0), (0.0, 0.0)), FilterSpec(max_neighbor_dist=cut))
        ego = [i for i in range(len(index)) if get_element(index, i).agent_id == "a0"]
        assert len(ego) == 3
        for i in ego:
            assert get_element(index, i).neighbor_ids == ("a1",)

    def test_out_of_range(self, cache):
        _cached(cache, synth_scene(Straight(10.0), 1, 30, 0.1))
        index = build_index(cache, ["synth"], "agent", WindowSpec((0.0, 0.0), (0.0, 0.0)))
        with pytest.raises(IndexError):
            get_element(index, len(index))

    def test_min_mask_counts_hold(self, cache):
        rng = np.random.default_rng(31)
        for i in range(3):
            cache.write(random_scene(rng, scene_id=f"s{i}", n_timesteps=60, gap_prob=0.25))
        window = WindowSpec((0.4, 1.0), (0.3, 0.6))
        index = build_index(cache, ["rand"], "agent", window)
        for i in range(len(index)):
            el = get_element(index, i)
            h_min = seconds_to_steps(window.history[0], el.dt)
            f_min = seconds_to_steps(window.future[0], el.dt)
            assert int(el.history_mask[:-1].sum()) >= h_min
            assert int(el.future_mask.sum()) >= f_min


class TestCollate:
    def _elements(self, cache, n=6):
        rng = np.random.default_rng(17)
        cache.write(random_scene(rng, n_agents=4, n_timesteps=40))
        index = build_index(cache, ["rand"], "agent", WindowSpec((0.2, 0.6), (0.2, 0.4)))
        return [get_element(index, i) for i in range(min(n, len(index)))]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError) as info:
            collate([])
        assert str(info.value) == "cannot collate an empty element list"

    def test_padding_and_masks(self, cache):
        els = self._elements(cache)
        batch = collate(els)
        n_max = max(len(e.neighbor_ids) for e in els)
        assert batch.neighbor_histories.shape[1] == n_max
        for i, el in enumerate(els):
            n = len(el.neighbor_ids)
            assert not batch.neighbor_masks[i, n:].any()
            assert np.all(batch.neighbor_histories[i, n:] == 0.0)

    def test_single_element_identity(self, cache):
        els = self._elements(cache, n=1)
        batch = collate(els)
        assert len(batch) == 1
        assert batch.unpad() == els

    def test_unpad_round_trip(self, cache):
        els = self._elements(cache)
        assert collate(els).unpad() == els

    def test_mixed_window_shapes_rejected(self, cache):
        els = self._elements(cache, n=2)
        other = els[1]
        bad = AgentBatchElement(
            scene_id=other.scene_id,
            dataset_tag=other.dataset_tag,
            agent_id=other.agent_id,
            agent_type=other.agent_type,
            current_ts=other.current_ts,
            dt=other.dt,
            history=other.history[:-1],
            history_mask=other.history_mask[:-1],
            future=other.future,
            future_mask=other.future_mask,
            neighbor_ids=other.neighbor_ids,
            neighbor_types=other.neighbor_types,
            neighbor_histories=other.neighbor_histories[:, :-1],
            neighbor_masks=other.neighbor_masks[:, :-1],
            translation=other.translation,
            rotation=other.rotation,
        )
        with pytest.raises(ValueError, match="mixed window shapes"):
            collate([els[0], bad])


def _synthetic_element(n_hist=50001) -> AgentBatchElement:
    return AgentBatchElement(
        scene_id="s",
        dataset_tag="d",
        agent_id="a",
        agent_type=AgentType.VEHICLE,
        current_ts=0,
        dt=0.1,
        history=np.zeros((n_hist, 8)),
        history_mask=np.ones(n_hist, dtype=bool),
        future=np.zeros((4, 8)),
        future_mask=np.ones(4, dtype=bool),
        neighbor_ids=(),
        neighbor_types=(),
        neighbor_histories=np.zeros((0, n_hist, 8)),
        neighbor_masks=np.zeros((0, n_hist), dtype=bool),
        translation=np.zeros(2),
        rotation=0.0,
    )


class TestAugmentNoise:
    def test_sigma_zero_identity(self, cache):
        cache.write(synth_scene(Straight(10.0), 2, 30, 0.1))
        index = build_index(cache, ["synth"], "agent", WindowSpec((0.2, 0.5), (0.2, 0.2)))
        el = get_element(index, 0)
        assert augment_noise(el, 0.0, 7) == el

    def test_negative_sigma_rejected(self, cache):
        cache.write(synth_scene(Straight(10.0), 2, 30, 0.1))
        el = get_element(build_index(cache, ["synth"], "agent", WindowSpec((0.2, 0.5), (0.2, 0.2))), 0)
        with pytest.raises(ValueError) as info:
            augment_noise(el, -1.0, 7)
        assert str(info.value) == "sigma must be >= 0, got -1.0"

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_non_finite_sigma_rejected(self, cache, sigma):
        # inf * a False mask slot is NaN, and NaN noise reaches every slot.
        cache.write(synth_scene(Straight(10.0), 1, 100, 0.1))
        el = get_element(build_index(cache, ["synth"], "agent", WindowSpec((1.0, 3.0), (4.0, 4.0))), 0)
        assert not el.history_mask.all()
        with pytest.raises(ValueError) as info:
            augment_noise(el, sigma, 7)
        assert str(info.value) == f"sigma must be finite, got {sigma}"

    def test_same_seed_deterministic(self, cache):
        cache.write(synth_scene(Straight(10.0), 2, 30, 0.1))
        index = build_index(cache, ["synth"], "agent", WindowSpec((0.2, 0.5), (0.2, 0.2)))
        el = get_element(index, 0)
        assert augment_noise(el, 0.3, 99) == augment_noise(el, 0.3, 99)
        assert augment_noise(el, 0.3, 99) != augment_noise(el, 0.3, 100)

    def test_future_and_masks_untouched(self, cache):
        cache.write(synth_scene(Straight(10.0), 2, 30, 0.1))
        index = build_index(cache, ["synth"], "agent", WindowSpec((0.2, 0.5), (0.2, 0.2)))
        el = get_element(index, 0)
        noisy = augment_noise(el, 0.5, 3)
        assert np.array_equal(noisy.future, el.future)
        assert np.array_equal(noisy.history_mask, el.history_mask)
        assert np.array_equal(noisy.history[:, 2:], el.history[:, 2:])  # positions only

    def test_invalid_slots_stay_zero(self, cache):
        scene = synth_scene(Straight(10.0), 1, 100, 0.1)
        cache.write(scene)
        index = build_index(cache, ["synth"], "agent", WindowSpec((1.0, 3.0), (4.0, 4.0)))
        el = get_element(index, 0)
        noisy = augment_noise(el, 0.5, 5)
        assert np.all(noisy.history[~noisy.history_mask] == 0.0)

    def test_empirical_std(self):
        el = _synthetic_element()
        noisy = augment_noise(el, 0.1, 1234)
        samples = (noisy.history[:, 0:2] - el.history[:, 0:2]).ravel()
        assert len(samples) >= 1e5
        assert np.std(samples) == pytest.approx(0.1, rel=0.02)


class TestExport:
    def test_deterministic_bytes_and_loadable(self, cache, tmp_path):
        rng = np.random.default_rng(23)
        cache.write(random_scene(rng, n_agents=3, n_timesteps=40))
        index = build_index(cache, ["rand"], "agent", WindowSpec((0.2, 0.5), (0.2, 0.3)))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        m1 = export_batches(index, out1, batch_size=8)
        m2 = export_batches(index, out2, batch_size=8)
        for f1 in sorted(out1.iterdir()):
            assert f1.read_bytes() == (out2 / f1.name).read_bytes()
        import json

        manifest = json.loads(m1.read_text())
        assert manifest["n_elements"] == len(index)
        assert manifest["state_layout"][0] == "x"
        total = sum(b["n_elements"] for b in manifest["batches"])
        assert total == len(index)
        arrays = np.load(out1 / manifest["batches"][0]["file"])
        assert arrays["history"].dtype == np.float32

    def test_scene_centric_export(self, cache, tmp_path):
        rng = np.random.default_rng(29)
        cache.write(random_scene(rng, n_agents=4, n_timesteps=40))
        index = build_index(cache, ["rand"], "scene", WindowSpec((0.2, 0.4), (0.2, 0.2)))
        manifest = export_batches(index, tmp_path / "sc", batch_size=16)
        import json

        meta = json.loads(manifest.read_text())
        assert meta["centric"] == "scene"
        arrays = np.load(tmp_path / "sc" / meta["batches"][0]["file"])
        assert arrays["histories"].ndim == 4
        sizes = [len(entry[3]) for entry in index.entries]
        assert len(set(sizes)) > 1  # some elements are padded
        for b, batch in enumerate(meta["batches"]):
            arrays = np.load(tmp_path / "sc" / batch["file"])
            counts = arrays["agent_counts"]
            assert counts.tolist() == sizes[b * 16 : b * 16 + len(counts)]
            for name in ("histories", "history_masks", "futures", "future_masks"):
                assert arrays[name].shape[1] == counts.max()
                for i, n in enumerate(counts):
                    assert not arrays[name][i, n:].any()
                    if name.endswith("masks"):
                        assert arrays[name][i, :n].any(axis=1).all()

    @pytest.mark.parametrize("centric", ["agent", "scene"])
    def test_manifest_describes_every_container(self, cache, tmp_path, centric):
        cache.write(random_scene(np.random.default_rng(31), n_agents=4, n_timesteps=40))
        index = build_index(cache, ["rand"], centric, WindowSpec((0.2, 0.4), (0.2, 0.3)))
        manifest = json.loads(export_batches(index, tmp_path / "out", batch_size=5).read_text())
        dims = {name: entry["dims"] for name, entry in manifest["arrays"].items()}
        assert len(manifest["batches"]) > 1
        for batch in manifest["batches"]:
            assert sorted(batch["arrays"]) == sorted(dims)
            with np.load(tmp_path / "out" / batch["file"], allow_pickle=False) as loaded:
                assert sorted(loaded.files) == sorted(dims)
                for name, record in batch["arrays"].items():
                    assert loaded[name].ndim == len(dims[name]), name
                    assert {"dtype": str(loaded[name].dtype), "shape": list(loaded[name].shape)} == record, name

    @pytest.mark.parametrize("centric", ["agent", "scene"])
    def test_manifest_provenance_columns_round_trip(self, cache, tmp_path, centric):
        rng = np.random.default_rng(37)
        for dataset in ("rand", "rand2"):
            for i in range(2):
                cache.write(random_scene(rng, n_agents=5, n_timesteps=40, dataset=dataset, scene_id=f"s{i}"))
        window = WindowSpec((0.2, 0.4), (0.2, 0.3))
        index = build_index(cache, ["rand", "rand2"], centric, window)
        manifest = json.loads(export_batches(index, tmp_path / "out", batch_size=6).read_text())
        assert manifest["format"] == "trajkit-batch@2"
        got = []
        for batch in manifest["batches"]:
            assert "elements" not in batch
            for column in ("dataset_tags", "scene_ids", "agent_ids", "ts"):
                assert len(batch[column]) == batch["n_elements"], column
            got += zip(batch["dataset_tags"], batch["scene_ids"], batch["agent_ids"], batch["ts"], strict=True)
        want = []
        for entry in reference_index_entries(cache, ["rand", "rand2"], centric, window):
            ids = index.contexts[entry[:2]].scene.agent_ids
            if centric == "agent":
                want.append((entry[0], entry[1], ids[entry[2]], entry[3]))
            else:
                want.append((entry[0], entry[1], [ids[j] for j in entry[3]], entry[2]))
        assert got == want
        # Both datasets hold s0 and s1: only the dataset tag tells their elements apart.
        assert len({scene_id for _, scene_id, _, _ in got}) == 2 and len({key[:2] for key in got}) == 4 and len(manifest["batches"]) > 2

    def test_batch_size_below_one_rejected(self, cache, tmp_path):
        cache.write(synth_scene(Straight(10.0), 1, 30, 0.1))
        index = build_index(cache, ["synth"], "agent", WindowSpec((0.0, 0.0), (0.0, 0.0)))
        for size in (0, -3):
            with pytest.raises(ValueError, match="batch_size"):
                export_batches(index, tmp_path / "out", batch_size=size)
        assert not (tmp_path / "out").exists()

def _assert_same_bits(got, want):
    # AgentBatchElement.__eq__ uses array_equal, which takes -0.0 == 0.0.
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        else:
            assert a == b, f.name


class TestWindowKernelEquivalence:
    """The batched window kernel against the per-agent reference in oracles.py."""

    WINDOW = WindowSpec((0.2, 0.8), (0.1, 0.5))
    # One-slot windows take numpy's matrix-vector path, not the matrix one.
    ONE_STEP = WindowSpec((0.0, 0.0), (0.1, 0.1))

    def _gappy_cache(self, cache, seed):
        rng = np.random.default_rng(seed)
        for i in range(2):
            cache.write(random_scene(rng, n_agents=6, n_timesteps=50, gap_prob=0.3, scene_id=f"s{i}"))
        return cache

    @pytest.mark.parametrize("centric", ["agent", "scene"])
    @pytest.mark.parametrize("desired_dt", [None, 0.2, 0.05])
    @pytest.mark.parametrize("max_dist", [None, 25.0])
    @pytest.mark.parametrize("seed, window", [(41, WINDOW), (42, ONE_STEP)])
    def test_elements_bit_identical(self, cache, centric, desired_dt, max_dist, seed, window):
        self._gappy_cache(cache, seed)
        filt = FilterSpec(max_neighbor_dist=max_dist)
        index = build_index(cache, ["rand"], centric, window, filt, desired_dt=desired_dt)
        for i in range(len(index)):
            _assert_same_bits(get_element(index, i), reference_element(index, i))

    def test_distance_cut_drops_neighbors(self, cache):
        self._gappy_cache(cache, 41)
        filt = FilterSpec(max_neighbor_dist=25.0)
        near = build_index(cache, ["rand"], "agent", self.WINDOW, filt)
        far = build_index(cache, ["rand"], "agent", self.WINDOW)
        n_near = sum(len(get_element(near, i).neighbor_ids) for i in range(len(near)))
        n_far = sum(len(get_element(far, i).neighbor_ids) for i in range(len(far)))
        assert 0 < n_near < n_far

    @pytest.mark.parametrize("centric", ["agent", "scene"])
    def test_export_bytes_identical(self, cache, tmp_path, monkeypatch, centric):
        self._gappy_cache(cache, 43)
        index = build_index(cache, ["rand"], centric, self.WINDOW, desired_dt=0.2)
        export_batches(index, tmp_path / "kernel", batch_size=7)
        # Export builds agent-centric batches with get_batch and scene-centric
        # ones with _scene_elements; the reference run swaps both for oracles.py.
        monkeypatch.setattr(batching, "get_batch", lambda index, indices: collate([reference_element(index, i) for i in indices]))
        monkeypatch.setattr(batching, "_scene_elements", lambda index, indices: [reference_element(index, i) for i in indices])
        export_batches(index, tmp_path / "reference", batch_size=7)
        names = sorted(p.name for p in (tmp_path / "kernel").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "reference").iterdir())
        for name in names:
            assert (tmp_path / "kernel" / name).read_bytes() == (tmp_path / "reference" / name).read_bytes()


class TestKernelEdges:
    """The quantity-major window kernel against oracles.py where a slip would
    show: headings at +-pi, whose differences wrap, and agents born or dying
    inside the window, whose slots are masked and zeroed."""

    WINDOW = WindowSpec((0.0, 0.5), (0.0, 0.3))
    NEAR_MINUS_PI = math.nextafter(-math.pi, 0.0)
    LIFETIMES = {"a": (0, 19), "b": (5, 14), "c": (0, 9), "d": (12, 19), "e": (3, 4)}

    def _edge_cache(self, cache):
        rng = np.random.default_rng(61)
        agents, tracks = [], []
        for k, (agent_id, (first, last)) in enumerate(self.LIFETIMES.items()):
            n = last - first + 1
            agents.append(AgentMetadata(agent_id, AgentType.VEHICLE, None, first, last))
            heading = np.where(np.arange(n) % 2 == k % 2, math.pi, self.NEAR_MINUS_PI)
            heading[::3] = rng.uniform(-math.pi, math.pi, len(heading[::3]))
            track = {name: rng.normal(0.0, 3.0, n) for name in ("x", "y", "z", "vx", "vy", "ax", "ay")}
            tracks.append(dict(track, heading=heading, observed=rng.random(n) < 0.8))
        cache.write(SceneFrame.from_tracks("s0", "edge", "nowhere", 0.1, agents, tracks))
        return cache

    def test_agent_batch_bits_equal_reference(self, cache):
        index = build_index(self._edge_cache(cache), ["edge"], "agent", self.WINDOW)
        indices = list(range(len(index)))
        want = collate([reference_element(index, i) for i in indices])
        _assert_same_bits(get_batch(index, indices), want)
        assert not want.history_mask.all() and not want.future_mask.all()
        assert (want.neighbor_masks.sum(axis=2) < want.neighbor_masks.shape[2])[want.neighbor_masks.any(axis=2)].any()
        yaws = set(want.rotations.tolist())
        assert math.pi in yaws and self.NEAR_MINUS_PI in yaws

    def test_scene_elements_bits_equal_reference(self, cache):
        index = build_index(self._edge_cache(cache), ["edge"], "scene", self.WINDOW)
        masked = 0
        for i in range(len(index)):
            want = reference_element(index, i)
            _assert_same_bits(get_element(index, i), want)
            masked += int((~want.history_masks).sum() + (~want.future_masks).sum())
        assert masked > 0


class TestGetBatch:
    """get_batch against collate of the per-agent reference in oracles.py."""

    WINDOW = TestWindowKernelEquivalence.WINDOW
    ONE_STEP = TestWindowKernelEquivalence.ONE_STEP

    def _two_dataset_cache(self, cache, seed, dts=(0.1, 0.1)):
        rng = np.random.default_rng(seed)
        for dataset, dt in zip(("rand", "rand2"), dts):
            for i in range(2):
                cache.write(random_scene(rng, n_agents=6, n_timesteps=50, dt=dt, gap_prob=0.3, dataset=dataset, scene_id=f"s{i}"))
        return cache

    @staticmethod
    def _assert_matches_reference(index, indices):
        want = collate([reference_element(index, i) for i in indices])
        _assert_same_bits(get_batch(index, indices), want)

    @pytest.mark.parametrize("desired_dt", [None, 0.2, 0.05])
    @pytest.mark.parametrize("max_dist", [None, 25.0])
    @pytest.mark.parametrize("window", [WINDOW, ONE_STEP])
    def test_index_lists_bit_identical(self, cache, desired_dt, max_dist, window):
        self._two_dataset_cache(cache, 44)
        index = build_index(cache, ["rand", "rand2"], "agent", window, FilterSpec(max_neighbor_dist=max_dist), desired_dt=desired_dt)
        n = len(index)
        spread = list(range(0, n, max(1, n // 40)))
        assert len({index.entries[i][:2] for i in spread}) == 4  # two scenes in each of two datasets
        for indices in (
            spread,
            list(range(n - 1, n - 30, -1)),
            [5, 5, 2, 5, n - 1, 2],
            [n - 1, 0],
            [n // 2],
        ):
            self._assert_matches_reference(index, indices)

    def test_distance_ties_ordered_by_agent_id(self, cache):
        # Four neighbours 5 m from "e", inserted in reverse id order.
        spots = {"e": (0.0, 0.0), "d": (3.0, 4.0), "c": (-3.0, 4.0), "b": (4.0, -3.0), "a": (-4.0, -3.0)}
        agents, tracks = [], []
        for agent_id, (x, y) in spots.items():
            agents.append(AgentMetadata(agent_id, AgentType.PEDESTRIAN, None, 0, 9))
            track = {name: np.zeros(10) for name in ("z", "vx", "vy", "ax", "ay", "heading")}
            tracks.append(dict(track, x=np.full(10, x), y=np.full(10, y), observed=np.ones(10, dtype=bool)))
        cache.write(SceneFrame.from_tracks("s0", "toy", "nowhere", 0.1, agents, tracks))
        index = build_index(cache, ["toy"], "agent", WindowSpec((0.0, 0.3), (0.0, 0.2)))
        self._assert_matches_reference(index, list(range(len(index))))
        batch = get_batch(index, range(len(index)))
        ego = batch.agent_ids.index("e")
        assert batch.neighbor_ids[ego] == ("a", "b", "c", "d")

    def test_mixed_window_shapes_rejected_as_collate_does(self, cache):
        self._two_dataset_cache(cache, 45, dts=(0.1, 0.2))
        index = build_index(cache, ["rand", "rand2"], "agent", self.WINDOW)
        indices = [0, len(index) - 1]
        with pytest.raises(ValueError, match="mixed window shapes") as want:
            collate([reference_element(index, i) for i in indices])
        with pytest.raises(ValueError, match="mixed window shapes") as got:
            get_batch(index, indices)
        assert str(got.value) == str(want.value)

    def test_empty_index_list_rejected(self, cache):
        self._two_dataset_cache(cache, 46)
        index = build_index(cache, ["rand"], "agent", self.WINDOW)
        with pytest.raises(ValueError, match="empty"):
            get_batch(index, [])

    @pytest.mark.parametrize("bad", [-1, "len"])
    def test_out_of_range_matches_get_element(self, cache, bad):
        self._two_dataset_cache(cache, 47)
        index = build_index(cache, ["rand"], "agent", self.WINDOW)
        bad = len(index) if bad == "len" else bad
        with pytest.raises(IndexError) as want:
            get_element(index, bad)
        with pytest.raises(IndexError) as got:
            get_batch(index, [0, bad])
        assert str(got.value) == str(want.value) == f"element index {bad} out of range [0, {len(index)})"

    def test_scene_centric_index_rejected(self, cache):
        self._two_dataset_cache(cache, 48)
        index = build_index(cache, ["rand"], "scene", self.WINDOW)
        with pytest.raises(ValueError, match="agent-centric"):
            get_batch(index, [0])


class TestSceneElements:
    """The per-run scene-centric gather against the per-agent reference."""

    WINDOW = TestWindowKernelEquivalence.WINDOW

    @pytest.mark.parametrize("desired_dt", [None, 0.2])
    def test_batches_equal_reference_element_by_element(self, cache, desired_dt):
        rng = np.random.default_rng(51)
        for i in range(2):
            cache.write(random_scene(rng, n_agents=6, n_timesteps=50, gap_prob=0.3, scene_id=f"s{i}"))
        index = build_index(cache, ["rand"], "scene", self.WINDOW, desired_dt=desired_dt)
        n = len(index)
        spans_two_scenes = False
        for size in (1, 7, n):
            for lo in range(0, n, size):
                indices = list(range(lo, min(lo + size, n)))
                spans_two_scenes |= len({index.entries[i][:2] for i in indices}) == 2
                for element, i in zip(batching._scene_elements(index, indices), indices, strict=True):
                    _assert_same_bits(element, reference_element(index, i))
        assert spans_two_scenes
        # Runs broken by order: back and forth between the scenes, and repeats.
        indices = [n - 1, 0, 1, n - 1, n - 1, 2]
        for element, i in zip(batching._scene_elements(index, indices), indices, strict=True):
            _assert_same_bits(element, reference_element(index, i))

    def test_out_of_range_rejected(self, cache):
        cache.write(random_scene(np.random.default_rng(52), n_agents=4, n_timesteps=40))
        index = build_index(cache, ["rand"], "scene", self.WINDOW)
        with pytest.raises(IndexError, match="out of range"):
            batching._scene_elements(index, [0, len(index)])


def _npy_size(array) -> int:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.ascontiguousarray(array))
    return len(buf.getvalue())


class TestNpzWriter:
    """The one-write container writer against the zipfile loop it replaced."""

    RNG = np.random.default_rng(53)
    CASES = {
        "export dtypes": {
            "history": RNG.normal(size=(3, 4, 8)).astype(np.float32),
            "history_mask": RNG.random((3, 4)) < 0.5,
            "neighbor_counts": RNG.integers(0, 9, 3),
        },
        "zero-size members": {
            "neighbor_histories": np.zeros((3, 0, 4, 8), dtype=np.float32),
            "neighbor_masks": np.zeros((3, 0, 4), dtype=bool),
            "neighbor_counts": np.zeros(3, dtype=np.int64),
        },
        "0-d member": {"rotation": np.array(1.5, dtype=np.float32)},
        "one member": {"agent_counts": np.arange(5)},
        "names out of insertion order": {
            "zeta": np.ones(2, dtype=np.float32),
            "alpha": np.zeros((2, 2), dtype=bool),
            "Beta": np.arange(3),
            "a_b": np.full((1, 3), -0.0, dtype=np.float32),
            "a": np.array([True]),
        },
        "strided input": {"history": RNG.normal(size=(4, 6, 8)).astype(np.float32)[::2, :, ::-1]},
        "long non-contiguous members": {
            "history": RNG.normal(size=(8, 3, 10_000)).astype(np.float32).T,
            "history_mask": (RNG.random((10_000, 6)) < 0.5)[:, ::2],
            "neighbor_counts": RNG.integers(0, 9, 20_000)[::2],
        },
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bytes_equal_reference_and_load_back(self, tmp_path, case):
        arrays = self.CASES[case]
        got, want = tmp_path / "got.npz", tmp_path / "want.npz"
        batching._write_npz_deterministic(got, arrays)
        reference_write_npz(want, arrays)
        assert got.read_bytes() == want.read_bytes()
        with zipfile.ZipFile(got) as zf:
            assert zf.testzip() is None
            assert zf.namelist() == sorted(name + ".npy" for name in arrays)
        with np.load(got, allow_pickle=False) as loaded:
            assert sorted(loaded.files) == sorted(arrays)
            for name, array in arrays.items():
                # Both writers store the array in C order with its own shape, 0-d included.
                stored = np.require(array, requirements="C")
                assert (loaded[name].dtype, loaded[name].shape) == (stored.dtype, stored.shape)
                assert loaded[name].tobytes() == stored.tobytes()

    @pytest.mark.parametrize("centric", ["agent", "scene"])
    def test_export_bytes_equal_reference_writer(self, cache, tmp_path, monkeypatch, centric):
        # One agent alone: the agent-centric containers hold (n, 0, T, 8) neighbour histories.
        cache.write(synth_scene(Straight(10.0), 1, 40, 0.1))
        index = build_index(cache, ["synth"], centric, WindowSpec((0.2, 0.5), (0.2, 0.3)))
        export_batches(index, tmp_path / "got", batch_size=7)
        monkeypatch.setattr(batching, "_write_npz_deterministic", reference_write_npz)
        export_batches(index, tmp_path / "want", batch_size=7)
        names = sorted(p.name for p in (tmp_path / "got").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "want").iterdir())
        for name in names:
            assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
        if centric == "agent":
            with np.load(tmp_path / "got" / "batch_00000.npz") as loaded:
                assert loaded["neighbor_histories"].shape[1] == 0

    def test_at_a_lowered_zip64_limit_bytes_equal_reference(self, tmp_path, monkeypatch):
        arrays = self.CASES["export dtypes"]
        reference_write_npz(tmp_path / "full.npz", arrays)
        # The last member ends where the central directory starts: at the limit, not past it.
        members_end = (tmp_path / "full.npz").stat().st_size - sum(46 + len(n) + 4 for n in arrays) - 22
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", members_end)
        batching._write_npz_deterministic(tmp_path / "got.npz", arrays)
        reference_write_npz(tmp_path / "want.npz", arrays)
        assert (tmp_path / "got.npz").read_bytes() == (tmp_path / "want.npz").read_bytes()
        # One byte lower, zipfile would write a zip64 end record.
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", members_end - 1)
        with pytest.raises(ValueError, match="member 'neighbor_counts'"):
            batching._write_npz_deterministic(tmp_path / "past.npz", arrays)
        assert not (tmp_path / "past.npz").exists()

    def test_member_past_a_lowered_zip64_limit_raises_and_writes_nothing(self, tmp_path, monkeypatch):
        arrays = {"history": np.zeros((32, 31, 8), dtype=np.float32)}
        # The archive's one member ends at the limit, but 1.05 times its size passes it,
        # and there zipfile writes the member's local header with a zip64 extra field.
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 30 + len("history.npy") + _npy_size(arrays["history"]))
        reference_write_npz(tmp_path / "zip64.npz", arrays)
        assert int.from_bytes((tmp_path / "zip64.npz").read_bytes()[28:30], "little") == 20
        path = tmp_path / "batch_00000.npz"
        with pytest.raises(ValueError, match=r"batch_00000\.npz: member 'history' .*zip limit"):
            batching._write_npz_deterministic(path, arrays)
        assert not path.exists()

    def test_offset_past_a_lowered_zip64_limit_raises_and_writes_nothing(self, tmp_path, monkeypatch):
        arrays = {name: np.zeros(8, dtype=np.float32) for name in ("a", "b", "c", "d")}
        # Each member fits; the third one's end is the first past the limit.
        local = 30 + len("a.npy") + _npy_size(arrays["a"])
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 3 * local - 1)
        path = tmp_path / "batch_00003.npz"
        with pytest.raises(ValueError, match=r"batch_00003\.npz: member 'c' "):
            batching._write_npz_deterministic(path, arrays)
        assert not path.exists()

