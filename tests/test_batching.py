import dataclasses
import math

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
    get_element,
    seconds_to_steps,
)
from trajkit.core import AgentType
from trajkit.ingest import SceneCache, SceneMetaRecord, Straight, UnknownTagError, parse_canonical_csv, synth_scene

from conftest import random_scene
from oracles import enumerate_qualifying, reference_element

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

    def test_resample_applies_before_windowing(self, cache):
        scene = synth_scene(Straight(10.0), 1, 50, 0.2)
        _cached(cache, scene)
        index = build_index(cache, ["synth"], "agent", WindowSpec((1.0, 1.0), (1.0, 1.0)), desired_dt=0.1)
        ctx = next(iter(index.contexts.values()))
        assert ctx.scene.dt == 0.1
        assert ctx.h_steps == 10


class TestGetElement:
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
        cache = SceneCache.__new__(SceneCache)  # in-memory shortcut not needed; use tmp dir via fixture instead
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            cache = SceneCache(d)
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
        monkeypatch.setattr(batching, "get_element", reference_element)
        export_batches(index, tmp_path / "reference", batch_size=7)
        names = sorted(p.name for p in (tmp_path / "kernel").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "reference").iterdir())
        for name in names:
            assert (tmp_path / "kernel" / name).read_bytes() == (tmp_path / "reference" / name).read_bytes()
