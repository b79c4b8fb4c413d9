import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajkit.core import scene_validate
from trajkit.kinematics import (
    ResampleRatioError,
    derive_derivative,
    derive_heading,
    impute_linear,
    plan_resample,
    resample_scene,
)

from conftest import random_scene
from oracles import reference_derivative


class TestSegmentDerivative:
    """derive_derivative with offsets differentiates each segment on its own."""

    def test_one_two_three_row_segments(self):
        s = np.array([7.0, 1.0, 3.0, 2.0, 6.0, 5.0, 4.0, 9.0])
        offsets = [0, 1, 3, 6, 7, 8]  # rows 1, 2, 3, 1, 1
        got = derive_derivative(s, 0.5, offsets)
        want = [0.0, 4.0, 4.0, 8.0, 3.0, -2.0, 0.0, 0.0]
        assert got.tolist() == want

    def test_matches_per_segment_calls(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            lengths = rng.choice([0, 1, 2, 3, 4, 9], size=int(rng.integers(1, 9)))
            offsets = np.concatenate([[0], np.cumsum(lengths)])
            s = rng.normal(size=int(offsets[-1])) * rng.choice([1e-6, 1.0, 1e6])
            dt = float(rng.choice([0.1, 0.04, 1.0 / 3.0]))
            got = derive_derivative(s, dt, offsets)
            parts = [(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
            per_call = np.concatenate([np.zeros(0)] + [derive_derivative(s[a:b], dt) for a, b in parts])
            reference = np.concatenate([np.zeros(0)] + [reference_derivative(s[a:b], dt) for a, b in parts])
            assert got.tobytes() == per_call.tobytes() == reference.tobytes()

    def test_whole_series_is_one_segment(self):
        s = np.random.default_rng(2).normal(size=50)
        for n in range(6):
            assert derive_derivative(s[:n], 0.1).tobytes() == derive_derivative(s[:n], 0.1, [0, n]).tobytes()


class TestDeriveDerivative:
    def test_linear_motion(self):
        v = derive_derivative(np.array([0.0, 1.0, 2.0, 3.0]), 1.0)
        assert np.array_equal(v, np.ones(4))

    def test_quadratic_stencil(self):
        # Hand-applied stencil on t^2 samples; cross-checked with np.gradient.
        pos = np.array([0.0, 1.0, 4.0, 9.0])
        v = derive_derivative(pos, 1.0)
        assert np.array_equal(v, [1.0, 2.0, 4.0, 5.0])
        a = derive_derivative(v, 1.0)
        assert a[1] == pytest.approx(1.5) and a[2] == pytest.approx(1.5)
        assert np.allclose(v, np.gradient(pos, 1.0))

    def test_constant_series_is_zero(self):
        assert np.array_equal(derive_derivative(np.array([5.0, 5.0, 5.0]), 0.1), np.zeros(3))

    def test_single_sample_degenerate(self):
        assert np.array_equal(derive_derivative(np.array([3.0]), 0.1), np.zeros(1))

    def test_two_samples(self):
        v = derive_derivative(np.array([0.0, 1.0]), 0.5)
        assert np.allclose(v, [2.0, 2.0])

    def test_matches_np_gradient_on_random_series(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            s = rng.normal(size=rng.integers(2, 50))
            dt = float(rng.uniform(0.01, 1.0))
            assert np.allclose(derive_derivative(s, dt), np.gradient(s, dt), rtol=1e-12, atol=1e-12)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            derive_derivative(np.zeros(3), 0.0)


class TestDeriveHeading:
    def test_due_east(self):
        h, degenerate = derive_heading(np.array([1.0, 1.0]), np.array([0.0, 0.0]), 0.1)
        assert np.array_equal(h, [0.0, 0.0]) and not degenerate

    def test_leading_low_speed_backfills(self):
        h, _ = derive_heading(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]), 0.1)
        assert np.allclose(h, [math.pi / 4] * 3)

    def test_hold_then_update(self):
        h, _ = derive_heading(np.array([1.0, 0.0, -1.0]), np.array([0.0, 0.0, 0.0]), 0.1)
        assert np.allclose(h, [0.0, 0.0, math.pi])

    def test_all_low_speed_degenerate(self):
        h, degenerate = derive_heading(np.zeros(4), np.zeros(4), 0.1)
        assert degenerate and np.array_equal(h, np.zeros(4))

    def test_floor_is_inclusive(self):
        h, degenerate = derive_heading(np.array([0.1]), np.array([0.0]), 0.1)
        assert not degenerate and h[0] == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_output_range(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        h, _ = derive_heading(rng.normal(size=n), rng.normal(size=n), 0.05)
        assert np.all(h > -math.pi) and np.all(h <= math.pi)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            derive_heading(np.zeros(3), np.zeros(4))


class TestImputeLinear:
    def test_midpoint(self):
        full_ts, values, observed = impute_linear(np.array([0, 2]), {"x": np.array([0.0, 2.0])})
        assert np.array_equal(full_ts, [0, 1, 2])
        assert np.array_equal(values["x"], [0.0, 1.0, 2.0])
        assert np.array_equal(observed, [True, False, True])

    def test_multi_gap_linearity(self):
        _, values, observed = impute_linear(np.array([0, 4]), {"x": np.array([0.0, 8.0])})
        assert np.array_equal(values["x"], [0.0, 2.0, 4.0, 6.0, 8.0])
        assert np.array_equal(observed, [True, False, False, False, True])

    def test_no_gaps_identity(self):
        ts = np.array([3, 4, 5])
        x = np.array([1.0, 2.0, 4.0])
        full_ts, values, observed = impute_linear(ts, {"x": x})
        assert np.array_equal(full_ts, ts)
        assert np.array_equal(values["x"], x)
        assert observed.all()

    def test_no_extrapolation(self):
        full_ts, _, _ = impute_linear(np.array([5, 9]), {"x": np.zeros(2)})
        assert full_ts[0] == 5 and full_ts[-1] == 9

    def test_heading_interpolates_across_wrap(self):
        _, values, _ = impute_linear(
            np.array([0, 2]), {"heading": np.array([3.0, -3.0])}, angular=("heading",)
        )
        # Shortest arc passes through pi, not zero.
        assert abs(values["heading"][1]) > 3.0

    def test_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            impute_linear(np.array([0, 0]), {"x": np.zeros(2)})

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linear_data_reproduces_slope(self, seed):
        rng = np.random.default_rng(seed)
        slope = float(rng.uniform(-10, 10))
        intercept = float(rng.uniform(-100, 100))
        ts_all = np.arange(0, 30)
        keep = rng.random(30) > 0.4
        keep[0] = keep[-1] = True
        ts = ts_all[keep]
        dt = 0.1
        x = intercept + slope * ts * dt
        full_ts, values, _ = impute_linear(ts, {"x": x})
        v = derive_derivative(values["x"], dt)
        assert np.allclose(v, slope, rtol=1e-9, atol=1e-9)


class TestResamplePlan:
    def test_identity(self):
        plan = plan_resample(0.1, 0.1)
        assert plan.mode == "identity" and plan.factor == 1

    def test_upsample(self):
        plan = plan_resample(0.5, 0.1)
        assert plan.mode == "upsample" and plan.factor == 5

    def test_downsample(self):
        plan = plan_resample(0.1, 0.4)
        assert plan.mode == "downsample" and plan.factor == 4

    @pytest.mark.parametrize("native, desired", [(0.1, math.inf), (math.inf, 0.1), (0.1, math.nan)])
    def test_non_finite_dt_rejected(self, native, desired):
        with pytest.raises(ValueError, match="positive and finite"):
            plan_resample(native, desired)

    def test_non_integer_ratio_names_both_dts(self):
        with pytest.raises(ResampleRatioError, match="0.1.*0.25"):
            plan_resample(0.1, 0.25)

    def test_ratio_beyond_the_float_range(self):
        with pytest.raises(ResampleRatioError, match="0.1.*5e-324"):
            plan_resample(0.1, 5e-324)


class TestResampleScene:
    def _line_scene(self, dt=0.5, positions=(0.0, 5.0)):
        from trajkit.core import AgentMetadata, AgentType, SceneFrame

        n = len(positions)
        track = {
            "x": np.asarray(positions, dtype=float),
            "y": np.zeros(n),
            "z": np.zeros(n),
            "vx": np.full(n, (positions[-1] - positions[0]) / ((n - 1) * dt)),
            "vy": np.zeros(n),
            "ax": np.zeros(n),
            "ay": np.zeros(n),
            "heading": np.zeros(n),
            "observed": np.ones(n, dtype=bool),
        }
        agents = [AgentMetadata("a0", AgentType.VEHICLE, None, 0, n - 1)]
        return SceneFrame.from_tracks("line", "toy", "nowhere", dt, agents, [track])

    def test_upsample_linear_fill(self):
        out = resample_scene(self._line_scene(), 0.1)
        assert out.dt == 0.1
        assert np.array_equal(out.columns.x, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.array_equal(out.columns.observed, [True, False, False, False, False, True])
        assert scene_validate(out) == []

    def test_identity_returns_same_scene(self):
        scene = self._line_scene()
        assert resample_scene(scene, 0.5) is scene

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(ResampleRatioError):
            resample_scene(self._line_scene(dt=0.1), 0.25)

    def test_velocities_recomputed_at_new_dt(self):
        out = resample_scene(self._line_scene(), 0.1)
        assert np.allclose(out.columns.vx, 10.0)

    @pytest.mark.parametrize("factor", [2, 5])
    def test_up_then_down_restores_exactly(self, factor):
        rng = np.random.default_rng(11)
        scene = random_scene(rng, n_agents=3, n_timesteps=30, dt=0.2)
        up = resample_scene(scene, 0.2 / factor)
        down = resample_scene(up, 0.2)
        assert down == scene

    def test_downsample_keeps_scene_grid(self):
        rng = np.random.default_rng(5)
        scene = random_scene(rng, n_agents=3, n_timesteps=31, dt=0.1, gap_prob=0.0)
        out = resample_scene(scene, 0.2)
        assert out.dt == 0.2
        for i, meta in enumerate(out.agents):
            src = next(m for m in scene.agents if m.agent_id == meta.agent_id)
            rows = out.rows_for_agent(i)
            # kept frames are the old multiples of 2, renumbered
            first_grid = src.first_ts + (-src.first_ts) % 2
            assert meta.first_ts == first_grid // 2
            src_idx = scene.rows_for_agent(next(j for j, m in enumerate(scene.agents) if m.agent_id == meta.agent_id))
            assert np.array_equal(
                out.columns.x[rows],
                scene.columns.x[src_idx][(np.arange(src.first_ts, src.last_ts + 1) % 2 == 0)],
            )
        assert scene_validate(out) == []
