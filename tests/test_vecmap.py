import dataclasses
import json
import logging
import struct
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajkit.analysis import _OFFROAD_BLOCK
from trajkit.vecmap import (
    DanglingLaneError,
    DegenerateRingError,
    DrivableAreaUnsupported,
    MapError,
    MapFormatError,
    NoLanesError,
    PolygonArea,
    Polyline,
    RoadLane,
    TrafficLightStatus,
    VectorMap,
    map_deserialize,
    map_serialize,
    point_in_polygon,
    polygon_area,
)
from trajkit.vecmap import _decode_polylines, _encode_polylines

from conftest import UNDECODABLE_HEADERS, convex_polygon, random_lane_map, replace_header, rewrite_json_header, square_area, straight_lane, tiny_traffic_map
from oracles import (
    brute_closest_lanes,
    brute_lanes_within,
    crossing_number_inside,
    fan_triangulation_area,
    reference_close_connectivity,
    reference_decode_points,
    reference_encode_points,
    reference_in_drivable_area,
    reference_lane_records,
    reference_map_deserialize,
    reference_map_polylines,
    reference_point_in_polygon,
    reference_polygon_boxes,
    reference_walk,
)


class TestPolyline:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            Polyline([(0.0, 0.0, 0.0)])

    def test_rejects_identical_consecutive(self):
        with pytest.raises(ValueError):
            Polyline([(0, 0, 0), (0, 0, 0), (1, 0, 0)])

    def test_xy_points_rejected(self):
        with pytest.raises(ValueError) as info:
            Polyline(np.zeros((3, 2)))
        assert str(info.value) == "polyline points must be (N, 3), got (3, 2)"

    def test_arclength_xy(self):
        pl = Polyline([(0, 0, 0), (3, 4, 10)])
        assert pl.arclength() == pytest.approx(5.0)


class TestPolygonArea:
    def test_unit_square(self):
        assert polygon_area(square_area(0, 0, 1)) == pytest.approx(1.0)

    def test_square_with_hole(self):
        area = square_area(0, 0, 10, holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]])
        assert polygon_area(area) == pytest.approx(96.0)

    def test_closing_vertex_dropped(self):
        ring = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
        assert polygon_area(PolygonArea(np.array(ring, dtype=float))) == pytest.approx(1.0)

    def test_xyz_ring_rejected(self):
        with pytest.raises(ValueError) as info:
            PolygonArea(np.zeros((4, 3)))
        assert str(info.value) == "ring points must be (N, 2), got (4, 3)"

    def test_degenerate_ring(self):
        with pytest.raises(DegenerateRingError):
            polygon_area(PolygonArea(np.array([(0.0, 0.0), (1.0, 0.0)])))

    @pytest.mark.parametrize("ring", [[(1.0, 1.0)], [(1.0, 1.0), (1.0, 1.0)], np.zeros((0, 2))])
    def test_ring_of_fewer_than_two_points_rejected(self, ring):
        # map_deserialize refuses a ring of fewer than 2 points, so the model holds none.
        with pytest.raises(ValueError, match="at least 2 points"):
            PolygonArea(np.array(ring, dtype=float))
        with pytest.raises(ValueError, match="at least 2 points"):
            PolygonArea(np.array([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0)]), [np.array(ring, dtype=float)])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_fan_triangulation(self, seed):
        rng = np.random.default_rng(seed)
        ring = convex_polygon(rng, rng.uniform(-50, 50, 2), rng.uniform(1, 30))
        expected = fan_triangulation_area(ring)
        assert polygon_area(PolygonArea(ring)) == pytest.approx(expected, rel=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rotation_and_orientation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        ring = convex_polygon(rng, np.zeros(2), 10.0)
        base = polygon_area(PolygonArea(ring))
        shift = int(rng.integers(1, len(ring)))
        rotated = np.roll(ring, shift, axis=0)
        assert polygon_area(PolygonArea(rotated)) == pytest.approx(base, rel=1e-12)
        assert polygon_area(PolygonArea(ring[::-1])) == pytest.approx(base, rel=1e-12)


class TestPointInPolygon:
    def test_centroid_inside(self):
        assert point_in_polygon(0.5, 0.5, square_area(0, 0, 1))

    def test_far_outside(self):
        assert not point_in_polygon(1000.0, 0.0, square_area(0, 0, 1))

    def test_boundary_counts_inside(self):
        sq = square_area(0, 0, 1)
        assert point_in_polygon(0.5, 0.0, sq)  # edge midpoint
        assert point_in_polygon(0.0, 0.0, sq)  # corner
        assert point_in_polygon(1.0, 1.0, sq)

    def test_hole_excluded_but_hole_boundary_inside(self):
        area = square_area(0, 0, 10, holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]])
        assert not point_in_polygon(5.0, 5.0, area)
        assert point_in_polygon(4.0, 5.0, area)


def _lattice_lanes(n: int, length: int, step: float) -> list[RoadLane]:
    """n horizontal and n vertical lanes of unit segments, step apart, each
    drawn twice under different ids (one copy reversed), so nearly every
    query ties."""
    run = np.arange(length + 1.0)
    flat, lanes = np.zeros(length + 1), []
    for k in range(n):
        for lane_id, xs, ys in (
            (f"h{k:02d}", run, np.full(length + 1, step * k)),
            (f"a_h{k:02d}", run[::-1], np.full(length + 1, step * k)),
            (f"v{k:02d}", np.full(length + 1, step * k), run),
            (f"z_v{k:02d}", np.full(length + 1, step * k), run),
        ):
            lanes.append(RoadLane(lane_id, Polyline(np.stack([xs, ys, flat], axis=1))))
    return lanes


class TestLaneQueries:
    def test_single_lane_distance(self):
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0)])
        lane, dist = vmap.closest_lane_with_distance((5.0, 3.0, 0.0))
        assert lane == "L1" and dist == pytest.approx(3.0)

    def test_two_parallel_lanes(self):
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0), straight_lane("L2", 10.0)])
        assert vmap.get_closest_lane((5.0, 4.0, 0.0)) == "L1"
        assert vmap.get_closest_lane((5.0, 6.0, 0.0)) == "L2"

    def test_lanes_within_a_map_without_lanes(self):
        assert VectorMap("toy:flat", []).lanes_within((0.0, 0.0), 5.0) == set()

    def test_tie_breaks_to_smaller_id(self):
        vmap = VectorMap("toy:flat", [straight_lane("B", 1.0), straight_lane("A", -1.0)])
        assert vmap.get_closest_lane((5.0, 0.0, 0.0)) == "A"

    def test_empty_map(self):
        vmap = VectorMap("toy:flat", [])
        with pytest.raises(NoLanesError):
            vmap.get_closest_lane((0.0, 0.0, 0.0))

    def test_radius_zero_on_centerline(self):
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0), straight_lane("L2", 10.0)])
        assert vmap.lanes_within((5.0, 0.0), 0.0) == {"L1"}

    def test_radius_below_everything(self):
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0)])
        assert vmap.lanes_within((5.0, 50.0), 10.0) == set()

    def test_negative_radius(self):
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0)])
        with pytest.raises(ValueError):
            vmap.lanes_within((0.0, 0.0), -1.0)

    def test_random_maps_match_brute_force(self):
        rng = np.random.default_rng(2024)
        for _ in range(12):
            vmap = random_lane_map(rng, n_lanes=int(rng.integers(2, 25)))
            points = rng.uniform(-250, 250, size=(150, 2))
            expected = brute_closest_lanes(vmap, points)
            for p, (lane, dist) in zip(points, expected):
                got_lane, got_dist = vmap.closest_lane_with_distance(p)
                assert got_lane == lane
                assert got_dist == dist
            radius = float(rng.uniform(1.0, 60.0))
            expected_sets = brute_lanes_within(vmap, points, radius)
            for p, want in zip(points, expected_sets):
                assert vmap.lanes_within(p, radius) == want

    def test_lattice_ties_match_brute_force(self):
        # Lanes on a 4 m integer lattice with unit vertices (_lattice_lanes);
        # beside them a diagonal lane, whose boxes have empty corners.
        run = np.arange(25.0)
        diagonal = RoadLane("d", Polyline(np.stack([run + 28.0, 24.0 - run, np.zeros(25)], axis=1)))
        vmap = VectorMap("toy:lattice", [diagonal, *_lattice_lanes(7, 24, 4.0)])
        n_leaves = vmap._index._boxes.shape[1]
        assert n_leaves >= 3 and len(vmap._index.walk(0.0, 0.0)[0]) < n_leaves  # a query prunes a leaf
        # Vertices, midlines between lanes and points outside the lattice.
        grid = np.arange(-2.0, 34.0)
        points = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
        for p, (lane, dist) in zip(points, brute_closest_lanes(vmap, points)):
            assert vmap.closest_lane_with_distance(p) == (lane, dist)
        for radius in (0.0, 1.0, 2.0):
            for p, want in zip(points, brute_lanes_within(vmap, points, radius)):
                assert vmap.lanes_within(p, radius) == want


class TestLazySegmentIndex:
    """The lane segment index is built on the first lane query, not at map load."""

    def test_decode_and_drivable_area_queries_build_no_index(self):
        rng = np.random.default_rng(31)
        lanes = [straight_lane(f"L{k}", y, length=80.0, half_width=2.0) for k, y in enumerate((-12.0, 0.0, 9.0))]
        data = map_serialize(VectorMap("toy:flat", [*lanes, *random_lane_map(rng, n_lanes=6).lanes.values()],
                                       road_areas=[square_area(-60.0, -60.0, 30.0)]))
        points = rng.uniform(-100.0, 100.0, size=(200, 2))
        first = map_deserialize(data)
        nearest = [first.closest_lane_with_distance(p) for p in points]  # the index is built by the first of these
        decoded = map_deserialize(data)
        inside = decoded.points_in_drivable_area(points)
        assert decoded.point_in_drivable_area(points[0]) == inside[0] and 0 < inside.sum() < len(points)
        assert "_index" not in decoded.__dict__
        assert [decoded.closest_lane_with_distance(p) for p in points] == nearest == brute_closest_lanes(decoded, points)
        assert "_index" in decoded.__dict__
        assert [decoded.lanes_within(p, 15.0) for p in points] == [first.lanes_within(p, 15.0) for p in points]

    def test_map_without_lanes_has_no_index(self):
        vmap = map_deserialize(map_serialize(VectorMap("toy:flat", [], road_areas=[square_area(0.0, 0.0, 10.0)])))
        assert vmap.point_in_drivable_area((5.0, 5.0)) and vmap._index is None
        assert vmap.lanes_within((0.0, 0.0), 5.0) == set()
        with pytest.raises(NoLanesError):
            vmap.closest_lane_with_distance((0.0, 0.0))


def _assert_lane_queries_match_brute_force(vmap: VectorMap, points: np.ndarray, radii) -> None:
    for chunk in np.array_split(points, max(1, len(points) // 50)):  # the brute-force matrices stay small
        for p, (lane, dist) in zip(chunk, brute_closest_lanes(vmap, chunk)):
            assert vmap.closest_lane_with_distance(p) == (lane, dist), p
        for radius in radii:
            for p, want in zip(chunk, brute_lanes_within(vmap, chunk, radius)):
                assert vmap.lanes_within(p, radius) == want, (p, radius)


class TestLeafScan:
    """The one-level leaf scan of the segment index against brute force."""

    def test_thousand_leaf_lattice_with_ties(self):
        # 40 horizontal and 40 vertical lanes of 200 unit segments, each drawn
        # twice: 32,000 segments.
        vmap = VectorMap("toy:lattice", _lattice_lanes(40, 200, 5.0))
        assert vmap._index._boxes.shape[1] >= 1000
        rng = np.random.default_rng(11)
        vertices = rng.integers(-3, 204, size=(150, 2)).astype(float)  # lattice vertices, crossings and points beyond
        midlines = 2.5 + 5.0 * rng.integers(-1, 41, size=(50, 2))
        scattered = rng.uniform(-20.0, 220.0, size=(50, 2))
        _assert_lane_queries_match_brute_force(vmap, np.vstack([vertices, midlines, scattered]), (0.0, 1.0, 2.5))

    @pytest.mark.parametrize("n_lanes", [1, 7, 23])
    def test_padded_last_leaf(self, n_lanes):
        rng = np.random.default_rng(n_lanes)
        vmap = random_lane_map(rng, n_lanes=n_lanes)
        n_segments = sum(len(lane.centerline) - 1 for lane in vmap.lanes.values())
        assert n_segments % 16 != 0
        vertices = np.concatenate([lane.centerline.xy for lane in vmap.lanes.values()])
        points = np.vstack([vertices, rng.uniform(-250.0, 250.0, size=(100, 2))])
        _assert_lane_queries_match_brute_force(vmap, points, (0.0, 5.0, 40.0))


FAR_POINTS = [(1e308, -1e308), (-1e308, 1e308), (1.7e308, 0.0), (0.0, -1.7e308), (1e200, 1e200), (1e154, -1e154)]


class TestStackedWalk:
    """The xy-stacked segment-index kernel against the per-axis one it
    replaced (oracles.reference_walk): the same leaves, seen as the same lane
    ordinals, and squared distances equal bit for bit, with no more warnings."""

    @staticmethod
    def _assert_walks_match(vmap: VectorMap, points, radii=(None, 0.0, 1.0, 10.0, float("inf"))) -> None:
        index = vmap._index
        for px, py in points:
            px, py = float(px), float(py)
            for radius in radii:  # None: the nearest search
                r2 = None if radius is None else radius * radius
                with warnings.catch_warnings(record=True) as want_warnings:
                    warnings.simplefilter("always")
                    leaves, want_ord, want_d2 = reference_walk(index, px, py, r2)
                with warnings.catch_warnings(record=True) as got_warnings:
                    warnings.simplefilter("always")
                    got_ord, got_d2 = index.walk(px, py, r2)
                where = (px, py, radius)
                assert got_ord.shape == (len(leaves), 16), where
                assert np.array_equal(got_ord, want_ord), where
                assert got_d2.dtype == want_d2.dtype and got_d2.tobytes() == want_d2.tobytes(), where
                assert len(got_warnings) <= len(want_warnings), (where, [str(w.message) for w in got_warnings])

    @pytest.mark.parametrize("seed", range(4))
    def test_random_maps(self, seed):
        rng = np.random.default_rng(seed)
        vmap = random_lane_map(rng, n_lanes=int(rng.integers(1, 40)))
        vertices = np.concatenate([lane.centerline.xy for lane in vmap.lanes.values()])
        points = np.vstack([vertices[::3], rng.uniform(-300.0, 300.0, size=(60, 2)), FAR_POINTS])
        self._assert_walks_match(vmap, points)

    def test_tie_lattice(self):
        vmap = VectorMap("toy:lattice", _lattice_lanes(6, 24, 4.0))
        grid = np.arange(-2.0, 27.0, 0.5)
        points = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
        self._assert_walks_match(vmap, np.vstack([points, FAR_POINTS]))

    def test_segment_whose_squared_length_underflows(self):
        # A step of 1e-170 m: its squared length underflows to 0, so its
        # divisor is 1, and the distance must still be that of t = 0.
        tiny = RoadLane("tiny", Polyline([(0.0, 0.0, 0.0), (1e-170, -1e-170, 0.0), (3.0, -4.0, 0.0)]))
        diagonal = RoadLane("diag", Polyline([(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]))
        vmap = VectorMap("toy:tiny", [tiny, diagonal, straight_lane("far", 50.0)])
        dx, dy = vmap._index._segments[:, 2], vmap._index._segments[:, 3]
        assert (dx * dx + dy * dy == 0.0).any()
        rng = np.random.default_rng(7)
        near = 10.0 ** rng.uniform(-172.0, 2.0, size=(60, 1)) * rng.normal(size=(60, 2))  # from the step's own scale to metres
        points = np.vstack([[(0.0, 0.0), (1e-170, -1e-170), (-1.0, -1.0), (3.0, -4.0)], near, rng.uniform(-20.0, 20.0, size=(40, 2))])
        self._assert_walks_match(vmap, np.vstack([points, FAR_POINTS]))
        _assert_lane_queries_match_brute_force(vmap, points, (0.0, 1.0, 5.0))


class TestDrivableArea:
    def test_unsupported_distinct_from_false(self):
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0)])  # centerline only
        assert not vmap.has_drivable_area
        with pytest.raises(DrivableAreaUnsupported):
            vmap.point_in_drivable_area((0.0, 0.0))

    def test_lane_polygon_membership(self):
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0, half_width=2.0)])
        assert vmap.point_in_drivable_area((50.0, 1.5))
        assert not vmap.point_in_drivable_area((50.0, 2.5))

    def test_road_area_membership(self):
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0)], road_areas=[square_area(200, 200, 10)])
        assert vmap.point_in_drivable_area((205.0, 205.0))
        assert not vmap.point_in_drivable_area((0.0, 0.0))

    def test_matches_crossing_number_oracle(self):
        rng = np.random.default_rng(7)
        areas = []
        for _ in range(4):
            ring = convex_polygon(rng, rng.uniform(-40, 40, 2), rng.uniform(5, 25))
            hole = 0.3 * (ring - ring.mean(axis=0)) + ring.mean(axis=0)
            areas.append(PolygonArea(ring, [hole]))
        vmap = VectorMap("toy:flat", [straight_lane("L1", 500.0)], road_areas=areas)
        points = rng.uniform(-80, 80, size=(1500, 2))
        for px, py in points:
            want = any(crossing_number_inside(px, py, a.rings()) for a in areas)
            assert vmap.point_in_drivable_area((px, py)) == want


def _random_drivable_map(rng) -> VectorMap:
    """Bands of adjacent bounded lanes (neighbours share their edges) plus
    road areas with holes; on a 0.5 m grid about half of the time, so that
    horizontal edges, collinear vertices and exact boundary hits are common."""
    grid = rng.random() < 0.5
    snap = (lambda a: np.round(2.0 * a) / 2.0) if grid else (lambda a: a)
    lanes = []
    for band in range(int(rng.integers(1, 4))):
        n = int(rng.integers(3, 12))
        steps = np.stack([rng.uniform(1.0, 8.0, n - 1), rng.uniform(-3.0, 3.0, n - 1)], axis=1)
        base = snap(np.vstack([rng.uniform(-60, 60, 2), steps]).cumsum(axis=0))
        width = snap(rng.uniform(2.0, 4.0))
        for j in range(int(rng.integers(1, 4))):
            edge = lambda k: Polyline(np.column_stack([base[:, 0], base[:, 1] + k * width, np.zeros(n)]))
            lanes.append(RoadLane(f"b{band}l{j}", edge(j), left_edge=edge(j + 0.5), right_edge=edge(j - 0.5)))
    areas = []
    for _ in range(int(rng.integers(1, 5))):
        ring = snap(convex_polygon(rng, rng.uniform(-60, 60, 2), rng.uniform(5, 30), n_pts=int(rng.integers(3, 14))))
        holes = []
        if rng.random() < 0.6:
            holes.append(snap(0.3 * (ring - ring.mean(axis=0)) + ring.mean(axis=0)))
        areas.append(PolygonArea(ring, holes))
    return VectorMap("rand:flat", lanes, road_areas=areas)


def _probe_points(rng, vmap: VectorMap) -> np.ndarray:
    """Random points, every vertex and edge midpoint, and points on and one
    ULP outside each side of every polygon's widened bounding box."""
    polys = vmap.drivable_polygons()
    lo, hi = vmap._drivable._lo, vmap._drivable._hi
    out = [rng.uniform(-90, 90, size=(400, 2))]
    for k, poly in enumerate(polys):
        for ring in poly.rings():
            out += [ring, 0.5 * (ring + np.roll(ring, -1, axis=0))]
        verts = np.concatenate(poly.rings())
        xs, ys = verts[rng.integers(0, len(verts), 5), 0], verts[rng.integers(0, len(verts), 5), 1]
        for edge_x in (lo[0, k], np.nextafter(lo[0, k], -np.inf), hi[0, k], np.nextafter(hi[0, k], np.inf)):
            out.append(np.column_stack([np.full(5, edge_x), ys]))
        for edge_y in (lo[1, k], np.nextafter(lo[1, k], -np.inf), hi[1, k], np.nextafter(hi[1, k], np.inf)):
            out.append(np.column_stack([xs, np.full(5, edge_y)]))
    return np.vstack(out)


NON_FINITE_POINTS = [(np.nan, 0.0), (0.0, np.nan), (np.nan, np.nan), (np.inf, 0.0), (-np.inf, 0.0), (0.0, np.inf), (0.0, -np.inf), (np.inf, -np.inf)]


class TestDrivableAreaEquivalence:
    """The edge table against the per-polygon reference in oracles.py."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_polygon_reference(self, seed):
        rng = np.random.default_rng(seed)
        vmap = _random_drivable_map(rng)
        points = _probe_points(rng, vmap)
        got = np.array([vmap.point_in_drivable_area(p) for p in points])
        want = np.array([reference_in_drivable_area(vmap, p) for p in points])
        assert np.array_equal(got, want), f"{np.count_nonzero(got != want)} of {len(points)} differ"
        assert 0 < got.sum() < len(points)

    @pytest.mark.parametrize("seed", range(8))
    def test_batch_matches_per_point_reference(self, seed):
        rng = np.random.default_rng(seed)
        vmap = _random_drivable_map(rng)
        points = _probe_points(rng, vmap)
        want = np.array([reference_in_drivable_area(vmap, p) for p in points])
        assert np.array_equal(vmap.points_in_drivable_area(points), want)
        # Non-finite points among finite ones, and (N, 3) input.
        mixed = np.vstack([NON_FINITE_POINTS, points[:50]])
        assert np.array_equal(vmap.points_in_drivable_area(mixed), [False] * len(NON_FINITE_POINTS) + list(want[:50]))
        assert np.array_equal(vmap.points_in_drivable_area(np.column_stack([points, np.ones(len(points))])), want)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_batch_around_the_offroad_block_size(self, offset):
        rng = np.random.default_rng(300 + offset)
        vmap = _random_drivable_map(rng)
        points = _probe_points(rng, vmap)[: _OFFROAD_BLOCK + offset]
        assert len(points) == _OFFROAD_BLOCK + offset
        want = [reference_in_drivable_area(vmap, p) for p in points]
        assert vmap.points_in_drivable_area(points).tolist() == want

    def test_batch_of_no_points(self):
        vmap = _random_drivable_map(np.random.default_rng(5))
        for empty in (np.zeros((0, 2)), np.zeros((0, 3))):
            got = vmap.points_in_drivable_area(empty)
            assert got.dtype == bool and got.shape == (0,)

    @pytest.mark.parametrize("shape", [(2,), (4, 1), (4, 4), (2, 2, 2)])
    def test_batch_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError, match="points must be"):
            _random_drivable_map(np.random.default_rng(5)).points_in_drivable_area(np.zeros(shape))

    def test_batch_on_a_map_without_area_is_unsupported(self):
        with pytest.raises(DrivableAreaUnsupported):
            VectorMap("toy:flat", [straight_lane("L1", 0.0)]).points_in_drivable_area(np.zeros((3, 2)))

    @pytest.mark.parametrize("seed", range(4))
    def test_point_in_polygon_matches_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        vmap = _random_drivable_map(rng)
        points = _probe_points(rng, vmap)
        for poly in vmap.drivable_polygons():
            for px, py in points[rng.integers(0, len(points), 150)]:
                assert point_in_polygon(px, py, poly) == reference_point_in_polygon(px, py, poly)

    @pytest.mark.parametrize("seed", range(4))
    def test_boxes_match_per_polygon_reference(self, seed):
        vmap = _random_drivable_map(np.random.default_rng(200 + seed))
        lo, hi = reference_polygon_boxes(vmap.drivable_polygons())
        assert vmap._drivable._lo.tobytes() == lo.tobytes() and vmap._drivable._hi.tobytes() == hi.tobytes()

    @pytest.mark.parametrize("point", NON_FINITE_POINTS)
    def test_non_finite_point_is_outside(self, point):
        vmap = _random_drivable_map(np.random.default_rng(5))
        assert vmap.point_in_drivable_area(point) is False
        assert reference_in_drivable_area(vmap, point) is False
        assert point_in_polygon(*point, vmap.drivable_polygons()[0]) is False

    def test_polygon_with_non_finite_vertex_matches_reference(self):
        # Such a polygon has no usable box, so its edges are always tested.
        ring = np.array([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (np.nan, 5.0), (0.0, 10.0)])
        vmap = VectorMap("toy:flat", [straight_lane("L1", 500.0)], road_areas=[PolygonArea(ring)])
        assert np.isinf(vmap._drivable._lo[:, 0]).all()
        points = [(5.0, 2.0), (5.0, 8.0), (10.0, 5.0), (-1.0, 5.0), (20.0, 20.0), (np.inf, 5.0), (-np.inf, 5.0)]
        # An infinite point meets the horizontal edge as inf * 0, as in the reference.
        with np.errstate(invalid="ignore"):
            want = [reference_in_drivable_area(vmap, p) for p in points]
            assert [vmap.point_in_drivable_area(p) for p in points] == want
            assert vmap.points_in_drivable_area(points).tolist() == want


class TestNonFiniteLaneQueries:
    @pytest.mark.parametrize("point", NON_FINITE_POINTS)
    def test_closest_lane_rejects(self, point):
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0)])
        with pytest.raises(ValueError, match="finite"):
            vmap.closest_lane_with_distance(point)

    @pytest.mark.parametrize("point", NON_FINITE_POINTS)
    def test_lanes_within_rejects_point(self, point):
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0)])
        with pytest.raises(ValueError, match="finite"):
            vmap.lanes_within(point, 5.0)

    def test_lanes_within_rejects_nan_radius(self):
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0)])
        with pytest.raises(ValueError, match="radius"):
            vmap.lanes_within((5.0, 0.0), float("nan"))

    def test_infinite_radius_reaches_every_lane(self):
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0), straight_lane("L2", 1e6)])
        assert vmap.lanes_within((5.0, 0.0), float("inf")) == {"L1", "L2"}

    def test_infinite_radius_reaches_lanes_whose_distance_overflows(self):
        diagonal = RoadLane("A", Polyline([(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]))
        vmap = VectorMap("toy:flat", [diagonal, straight_lane("B", 20.0)])
        assert vmap.lanes_within((1e308, -1e308), float("inf")) == {"A", "B"}
        assert VectorMap("toy:flat", [diagonal]).lanes_within((1e308, -1e308), float("inf")) == {"A"}

    @pytest.mark.parametrize("radius, want", [(1e154, {"near"}), (1e200, {"near"}), (float("inf"), {"near", "far"})])
    def test_radius_whose_square_overflows_leaves_out_farther_lanes(self, radius, want):
        # Above a radius of about 1.34e154 its square is inf, as is the far lane's squared distance 1e600.
        vmap = VectorMap("toy:flat", [straight_lane("near", 0.0, length=1.0), straight_lane("far", 1e300, length=1.0)])
        with np.errstate(over="ignore"):
            assert vmap.lanes_within((0.0, 0.0), radius) == want

    def test_squares_that_overflow_do_not_warn(self):
        # The far lane's squared distance is 1e600; the suite turns any numpy warning into a failure.
        vmap = VectorMap("toy:flat", [straight_lane("near", 0.0, length=1.0), straight_lane("far", 1e300, length=1.0)])
        assert vmap.lanes_within((0.0, 0.0), 10.0) == {"near"}

    @pytest.mark.parametrize(
        "line, point, named",
        [
            # Every distance from this point to the diagonal lane overflows to NaN.
            ([(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)], (1e308, -1e308), r"\(1e\+308, -1e\+308\)"),
            ([(np.nan, 0.0, 0.0), (1.0, np.nan, 0.0)], (2.0, 3.0), r"\(2\.0, 3\.0\)"),
        ],
        ids=["far-point", "nan-lane"],
    )
    def test_every_distance_nan_names_the_point(self, line, point, named):
        vmap = VectorMap("toy:flat", [RoadLane("A", Polyline(line))])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=rf"query point {named}: its distance to every lane is NaN"):
                vmap.closest_lane_with_distance(point)

    def test_far_point_skips_overflowed_distances(self):
        # From this point the diagonal lane's distance overflows to NaN, the
        # straight lane's to inf.
        diagonal = RoadLane("A", Polyline([(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]))
        vmap = VectorMap("toy:flat", [diagonal, straight_lane("B", 20.0)])
        with np.errstate(over="ignore", invalid="ignore"):
            assert vmap.closest_lane_with_distance((1e308, -1e308)) == ("B", float("inf"))


class TestMapModel:
    def test_map_id_must_be_two_tokens(self):
        with pytest.raises(ValueError):
            VectorMap("boston", [])
        with pytest.raises(ValueError):
            VectorMap("a:b:c", [])

    def test_dangling_reference(self):
        lane = replace(straight_lane("L1", 0.0), successors={"missing"})
        with pytest.raises(DanglingLaneError):
            VectorMap("toy:flat", [lane])

    def test_self_reference(self):
        lane = replace(straight_lane("L1", 0.0), adjacent_left={"L1"})
        with pytest.raises(ValueError):
            VectorMap("toy:flat", [lane])

    def test_connectivity_closure_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            lanes = []
            for i in range(n):
                successors = {f"L{j}" for j in rng.choice(n, size=rng.integers(0, 3), replace=False) if j != i}
                lanes.append(replace(straight_lane(f"L{i}", float(i) * 5.0), successors=successors))
            vmap = VectorMap("toy:flat", lanes)
            for lane in vmap.lanes.values():
                for succ in lane.successors:
                    assert lane.lane_id in vmap.lanes[succ].predecessors
                for pred in lane.predecessors:
                    assert lane.lane_id in vmap.lanes[pred].successors

    def test_traffic_light_status(self):
        vmap = tiny_traffic_map()
        assert vmap.traffic_light_status("L1", 5) is TrafficLightStatus.RED
        assert vmap.traffic_light_status("L1", 6) is TrafficLightStatus.UNKNOWN
        with pytest.raises(KeyError):
            vmap.traffic_light_status("nope", 0)

    def test_unknown_traffic_light_status_string(self):
        with pytest.raises(ValueError) as info:
            TrafficLightStatus.from_string("blue")
        assert str(info.value) == "unknown traffic light status 'blue'"

    @pytest.mark.parametrize("lights, error, message", [
        ({("L9", 3): TrafficLightStatus.RED}, DanglingLaneError, "traffic light record for missing lane 'L9' at ts 3"),
        ({("L1", 3): "red"}, ValueError, "traffic light status must be TrafficLightStatus, got 'red'"),
    ], ids=["missing-lane", "status-string"])
    def test_bad_traffic_light_record(self, lights, error, message):
        with pytest.raises(error) as info:
            VectorMap("toy:flat", [straight_lane("L1", 0.0)], traffic_lights=lights)
        assert type(info.value) is error and str(info.value) == message

    def test_stats_lane_length(self):
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0, length=500.0), straight_lane("L2", 10.0, length=500.0)])
        stats = vmap.stats()
        assert stats.total_lane_length == pytest.approx(1.0)
        assert stats.road_area == 0.0 and stats.pedestrian_area == 0.0

    def test_stats_lane_polygon_area(self):
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0, length=100.0, half_width=2.0)])
        assert vmap.stats().road_area == pytest.approx(400.0)

    def test_stats_pedestrian_area(self):
        vmap = VectorMap(
            "toy:flat",
            [straight_lane("L1", 0.0)],
            ped_crosswalks=[square_area(0, 0, 3)],
            ped_walkways=[square_area(10, 10, 2)],
        )
        assert vmap.stats().pedestrian_area == pytest.approx(13.0)


class TestPointCodec:
    def test_two_point_exact(self):
        pts = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
        dec = _decode_polylines(_encode_polylines([pts])[0], 0, [2])[0]
        assert np.array_equal(dec, pts)

    def test_long_jittered_error_bound(self):
        rng = np.random.default_rng(0)
        steps = rng.uniform(-5.0, 5.0, size=(9999, 3))
        pts = np.vstack([rng.uniform(-1000, 1000, 3), steps]).cumsum(axis=0)
        dec = _decode_polylines(_encode_polylines([pts])[0], 0, [len(pts)])[0]
        assert np.abs(dec - pts).max() <= 1e-3

    def test_error_does_not_accumulate(self):
        # constant tiny steps over many points stay within one-step quantization
        pts = np.zeros((5000, 3))
        pts[:, 0] = np.cumsum(np.full(5000, 0.123456789))
        dec = _decode_polylines(_encode_polylines([pts])[0], 0, [len(pts)])[0]
        assert np.abs(dec - pts).max() < 1e-5


def _rich_map(rng=None) -> VectorMap:
    rng = rng or np.random.default_rng(5)
    lanes = [
        replace(straight_lane("L1", 0.0, half_width=2.0), adjacent_left={"L2"}, successors={"L3"}),
        replace(straight_lane("L2", 4.0, half_width=2.0), adjacent_right={"L1"}),
        straight_lane("L3", 20.0),
    ]
    ring = convex_polygon(rng, np.array([50.0, 50.0]), 20.0)
    hole = 0.3 * (ring - ring.mean(axis=0)) + ring.mean(axis=0)
    return VectorMap(
        "toy:flat",
        lanes,
        road_areas=[PolygonArea(ring, [hole])],
        ped_crosswalks=[square_area(-20, -20, 5)],
        ped_walkways=[square_area(-40, -40, 3)],
        traffic_lights={("L1", 0): TrafficLightStatus.GREEN, ("L2", 7): TrafficLightStatus.YELLOW},
    )


class TestSerialization:
    def test_ring_closed_by_its_encoding_round_trips(self):
        # The last vertex decodes onto the first (its f32 delta rounds 1e-30
        # away), so the decoded ring drops it and its stored payload with it.
        ring = np.array([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 1e-30)])
        data = map_serialize(VectorMap("toy:flat", [straight_lane("L1", 0.0)], road_areas=[PolygonArea(ring)]))
        again = map_deserialize(data)
        assert again.road_areas[0].exterior.tolist() == ring[:3].tolist()
        reserialized = map_serialize(again)
        assert map_deserialize(reserialized).road_areas[0].exterior.tolist() == ring[:3].tolist()
        assert map_serialize(map_deserialize(reserialized)) == reserialized

    def test_round_trip_non_geometry_exact(self):
        vmap = _rich_map()
        again = map_deserialize(map_serialize(vmap))
        assert again.map_id == vmap.map_id
        assert set(again.lanes) == set(vmap.lanes)
        for lane_id, lane in vmap.lanes.items():
            got = again.lanes[lane_id]
            assert got.adjacent_left == lane.adjacent_left
            assert got.adjacent_right == lane.adjacent_right
            assert got.successors == lane.successors
            assert got.predecessors == lane.predecessors
            assert (got.left_edge is None) == (lane.left_edge is None)
        assert again.traffic_light_frame == vmap.traffic_light_frame
        assert len(again.road_areas) == 1 and len(again.road_areas[0].holes) == 1

    def test_round_trip_geometry_error_bound(self):
        rng = np.random.default_rng(9)
        vmap = random_lane_map(rng, n_lanes=10, pts_per_lane=500)
        again = map_deserialize(map_serialize(vmap))
        for lane_id, lane in vmap.lanes.items():
            err = np.abs(again.lanes[lane_id].centerline.points - lane.centerline.points).max()
            assert err <= 1e-3

    def test_map_without_lanes_or_areas_round_trips(self):
        data = map_serialize(VectorMap("toy:empty", []))
        again = map_deserialize(data)
        assert (again.map_id, dict(again.lanes), again.road_areas, again.ped_crosswalks, again.ped_walkways) == ("toy:empty", {}, (), (), ())
        assert not again.has_drivable_area and again.stats().to_dict() == {"lane_length_km": 0.0, "road_area_m2": 0, "pedestrian_area_m2": 0}
        assert map_serialize(again) == data

    def test_canonical_reserialization(self):
        vmap = _rich_map()
        data = map_serialize(vmap)
        data2 = map_serialize(map_deserialize(data))
        assert data == data2
        data3 = map_serialize(map_deserialize(data2))
        assert data2 == data3

    def test_queries_survive_round_trip(self):
        vmap = _rich_map()
        again = map_deserialize(map_serialize(vmap))
        p = (50.0, 1.0, 0.0)
        assert again.get_closest_lane(p) == vmap.get_closest_lane(p)
        assert again.point_in_drivable_area((50.0, 1.0)) == vmap.point_in_drivable_area((50.0, 1.0))

    def test_bad_magic(self):
        data = map_serialize(_rich_map())
        with pytest.raises(MapFormatError, match="magic"):
            map_deserialize(b"XXXXXX" + data[6:])

    def test_bad_version(self):
        data = bytearray(map_serialize(_rich_map()))
        struct.pack_into("<I", data, 6, 42)
        with pytest.raises(MapFormatError, match="version"):
            map_deserialize(bytes(data))

    def test_truncated(self):
        data = map_serialize(_rich_map())
        with pytest.raises(MapFormatError):
            map_deserialize(data[:-5])

    def test_dangling_reference_after_decode(self):
        data = map_serialize(_rich_map())
        head_len = 6 + 4 + 8
        (header_len,) = struct.unpack_from("<Q", data, 10)
        header = json.loads(data[head_len : head_len + header_len])
        header["lanes"][0]["successors"] = ["ghost"]
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        patched = data[:10] + struct.pack("<Q", len(new_header)) + new_header + data[head_len + header_len :]
        with pytest.raises(DanglingLaneError):
            map_deserialize(patched)


class TestMapDirectorySchema:
    """A .tkmap whose directory breaks the schema raises MapFormatError, not KeyError."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.pop("lanes"),
            lambda h: h.pop("traffic_lights"),
            lambda h: h["lanes"][0].pop("n_center"),
            lambda h: h.update(map_id=5),
            lambda h: [entry.update(id=k) for k, entry in enumerate(h["lanes"])],
            lambda h: h["lanes"][0].update(successors="L3"),
            lambda h: h["lanes"][1].update(adjacent_right=[1]),
            lambda h: h["lanes"][0].update(predecessors={"L2": 1}),
            lambda h: h["traffic_lights"][0].__setitem__(1, 1.5),
            lambda h: h["traffic_lights"][0].__setitem__(1, True),
            lambda h: h["traffic_lights"][0].__setitem__(1, "7"),
            lambda h: h["traffic_lights"][0].__setitem__(0, 1),
            lambda h: h["traffic_lights"][0].pop(),
            lambda h: h["traffic_lights"].append("L1 3 red"),
        ],
        ids=["no-lanes", "no-traffic_lights", "lane-without-n_center", "map_id-int", "lane-ids-int", "relation-string",
             "relation-entry-int", "relation-object", "light-ts-float", "light-ts-bool", "light-ts-string", "light-lane-int",
             "light-of-two", "light-string"],
    )
    def test_schema_violation_raises_map_format_error(self, edit):
        data = rewrite_json_header(map_serialize(_rich_map()), edit, crc=False)
        with pytest.raises(MapFormatError, match="schema"):
            map_deserialize(data)


class TestFrozenMap:
    """A map is a value: construction leaves the caller's records and arrays
    alone, nothing reachable from a built or decoded map can be written, and
    decoding and querying build no lane record."""

    @staticmethod
    def _pair():
        a = RoadLane("A", Polyline([(0.0, -10.0, 0.0), (100.0, -10.0, 0.0)]), successors={"B"})
        b = RoadLane("B", Polyline([(0.0, 90.0, 0.0), (100.0, 90.0, 0.0)]))
        return a, b

    def test_relations_are_frozensets_of_ids(self):
        lane = RoadLane("A", Polyline([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]), successors=["B", "C"], predecessors=("D",))
        assert (lane.successors, lane.predecessors, lane.adjacent_left) == (frozenset({"B", "C"}), frozenset({"D"}), frozenset())
        with pytest.raises(TypeError, match="string"):
            RoadLane("A", lane.centerline, successors="BC")

    def test_construction_leaves_the_callers_lanes(self):
        a, b = self._pair()
        vmap = VectorMap("toy:flat", [a, b])
        assert b.predecessors == frozenset() and a.successors == {"B"}
        assert vmap.lanes["B"].predecessors == {"A"} and vmap.lanes["B"] is not b

    @pytest.mark.parametrize("decoded", [False, True], ids=["constructed", "decoded"])
    def test_relations_cannot_gain_a_dangling_link(self, decoded):
        vmap = VectorMap("toy:flat", self._pair())
        vmap = map_deserialize(map_serialize(vmap)) if decoded else vmap
        with pytest.raises(AttributeError):
            vmap.lanes["A"].successors.add("ghost")
        assert map_deserialize(map_serialize(vmap)).lanes["A"].successors == {"B"}

    @pytest.mark.parametrize("decoded", [False, True], ids=["constructed", "decoded"])
    def test_a_record_cannot_move_a_centerline(self, decoded):
        vmap = VectorMap("toy:flat", self._pair())
        vmap = map_deserialize(map_serialize(vmap)) if decoded else vmap
        with pytest.raises(dataclasses.FrozenInstanceError):
            vmap.lanes["A"].centerline = Polyline([(0, 50, 0), (100, 50, 0)])
        assert vmap.closest_lane_with_distance((50, 50)) == map_deserialize(map_serialize(vmap)).closest_lane_with_distance((50, 50))
        assert vmap.closest_lane_with_distance((50, 50)) == ("B", 40.0)

    def test_the_callers_array_does_not_leak_in(self):
        pts = np.array([(0.0, 10.0, 0.0), (100.0, 10.0, 0.0)])
        ring = np.array([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0)])
        vmap = VectorMap("toy:flat", [RoadLane("A", Polyline(pts))], road_areas=[PolygonArea(ring)])
        pts[:, 1] = 50.0
        ring[:] = 100.0
        assert vmap.lanes["A"].centerline.points[:, 1].tolist() == [10.0, 10.0]
        assert vmap.closest_lane_with_distance((50.0, 10.0)) == ("A", 0.0)
        assert vmap.road_areas[0].exterior.tolist() == [[0.0, 0.0], [4.0, 0.0], [4.0, 4.0]] and vmap.point_in_drivable_area((1.0, 0.5))

    @pytest.mark.parametrize("decoded", [False, True], ids=["constructed", "decoded"])
    def test_every_write_raises(self, decoded):
        vmap = _rich_map()
        vmap = map_deserialize(map_serialize(vmap)) if decoded else vmap
        lane, area = vmap.lanes["L1"], vmap.road_areas[0]
        with pytest.raises(TypeError):
            vmap.lanes["L9"] = lane
        with pytest.raises(TypeError):
            vmap.traffic_light_frame[("L1", 3)] = TrafficLightStatus.RED
        for record, name in [(lane, "lane_id"), (lane, "left_edge"), (lane, "predecessors"), (lane.centerline, "points"), (area, "holes")]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
        for relation in ("adjacent_left", "adjacent_right", "successors", "predecessors"):
            assert type(getattr(lane, relation)) is frozenset
        for array in (lane.centerline.points, lane.left_edge.xy, area.exterior, area.holes[0], vmap.drivable_polygons()[-1].exterior):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0
        for areas in (vmap.road_areas, vmap.ped_crosswalks, vmap.ped_walkways, area.holes):
            assert type(areas) is tuple

    def test_decode_and_queries_build_no_record(self):
        data = map_serialize(_rich_map())
        vmap = map_deserialize(data)
        vmap.closest_lane_with_distance((50.0, 1.0))
        vmap.lanes_within((50.0, 1.0), 10.0)
        vmap.points_in_drivable_area(np.array([(50.0, 1.0), (0.0, 40.0)]))
        vmap.stats()
        vmap.traffic_light_status("L1", 0)
        assert map_serialize(vmap) == data
        assert "lanes" not in vmap.__dict__
        assert vmap.lanes is vmap.lanes  # built once, then kept

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("kind", ["edges", "mixed", "nonfinite"])
    def test_decoded_lanes_equal_the_reference(self, kind, seed):
        rng = np.random.default_rng(3000 * seed + len(kind))
        lanes = list(_codec_map(rng, kind).lanes.values())
        ids = [lane.lane_id for lane in lanes]
        for k, lane in enumerate(lanes):  # random relations, given on both sides and asymmetric
            picks = [set(rng.choice(ids, size=int(rng.integers(0, 3)), replace=False)) - {lane.lane_id} for _ in range(4)]
            lanes[k] = replace(lane, **dict(zip(("adjacent_left", "adjacent_right", "successors", "predecessors"), picks)))
        with np.errstate(invalid="ignore", over="ignore"):
            data = map_serialize(VectorMap("rand:codec", lanes))
            got, want = map_deserialize(data).lanes, reference_map_deserialize(data).lanes
        _assert_same_lanes(got, want)

    @pytest.mark.parametrize("decoded", [False, True], ids=["constructed", "decoded"])
    def test_lane_records_equal_constructed_ones(self, decoded):
        rng = np.random.default_rng(5)
        lanes = list(_codec_map(rng, "edges").lanes.values())
        ids = [lane.lane_id for lane in lanes]
        for k, lane in enumerate(lanes):
            picks = [set(rng.choice(ids, size=int(rng.integers(0, 3)), replace=False)) - {lane.lane_id} for _ in range(4)]
            lanes[k] = replace(lane, **dict(zip(("adjacent_left", "adjacent_right", "successors", "predecessors"), picks)))
        vmap = VectorMap("rand:codec", lanes)
        vmap = map_deserialize(map_serialize(vmap)) if decoded else vmap
        _assert_same_lanes(vmap.lanes, reference_lane_records(vmap))
        for lane in vmap.lanes.values():
            assert type(lane) is RoadLane
            with pytest.raises(dataclasses.FrozenInstanceError):
                lane.successors = frozenset()

    @pytest.mark.parametrize("seed", range(6))
    def test_closing_matches_the_oracle(self, seed, caplog):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        ids = [f"L{i:02d}" for i in range(n)]
        given = {}
        for lane_id in ids:
            given[lane_id] = SimpleNamespace(**{
                relation: set(rng.choice(ids, size=int(rng.integers(0, 4)), replace=False)) - {lane_id}
                for relation in ("successors", "predecessors")
            })
        before = [(set(given[lane_id].successors), set(given[lane_id].predecessors)) for lane_id in ids]
        lanes = [replace(straight_lane(lane_id, 5.0 * k), successors=succ, predecessors=pred) for k, (lane_id, (succ, pred)) in enumerate(zip(ids, before))]
        with caplog.at_level(logging.WARNING, logger="trajkit.vecmap"):
            vmap = VectorMap("toy:flat", lanes)
        added = reference_close_connectivity(given)
        warned = [r.getMessage() for r in caplog.records if "asymmetric" in r.getMessage()]
        assert warned == ([f"map toy:flat: closed {added} asymmetric successor/predecessor links"] if added else [])
        for lane_id in ids:
            assert vmap.lanes[lane_id].successors == given[lane_id].successors
            assert vmap.lanes[lane_id].predecessors == given[lane_id].predecessors
        assert [(lane.successors, lane.predecessors) for lane in lanes] == before

    def test_stats_sum_lane_lengths_in_input_order(self):
        vmap = _codec_map(np.random.default_rng(8), "mixed")
        assert vmap.stats().total_lane_length == sum(lane.centerline.arclength() for lane in vmap.lanes.values()) / 1000.0

    def test_500_lane_map_round_trips_byte_for_byte(self):
        data = map_serialize(random_lane_map(np.random.default_rng(12), n_lanes=500))
        assert map_serialize(map_deserialize(data)) == data


def _assert_same_lanes(got, want) -> None:
    """The two mappings hold the same lanes in the same order: the same ids,
    the same relations as frozensets and the same polyline bytes."""
    assert list(got) == list(want)
    for lane_id, lane in got.items():
        ref = want[lane_id]
        assert lane.lane_id == ref.lane_id == lane_id
        for relation in ("adjacent_left", "adjacent_right", "successors", "predecessors"):
            assert type(getattr(lane, relation)) is frozenset
            assert getattr(lane, relation) == getattr(ref, relation), (lane_id, relation)
        for name in ("centerline", "left_edge", "right_edge"):
            line, ref_line = getattr(lane, name), getattr(ref, name)
            assert (line is None) == (ref_line is None)
            assert line is None or line.points.tobytes() == ref_line.points.tobytes()


def _set_count(path):
    """An edit of the map directory that sets the point count at path (keys
    and list indices below the header) to a value."""
    def edit(header, value):
        *parents, last = path
        for key in parents:
            header = header[key]
        header[last] = value

    return edit


COUNT_PATHS = {
    "n_center": ("lanes", 0, "n_center"),
    "n_left": ("lanes", 0, "n_left"),
    "n_right": ("lanes", 1, "n_right"),
    "n_exterior": ("road_areas", 0, "n_exterior"),
    "n_holes": ("road_areas", 0, "n_holes", 0),
    "crosswalk_n_exterior": ("ped_crosswalks", 0, "n_exterior"),
}


class TestPointCounts:
    """Every directory point count must be an int (not a bool) of at least 2."""

    @pytest.mark.parametrize("value", [0, -1, 1, 2.5, True, "3"])
    @pytest.mark.parametrize("key", ["n_center", "n_left", "n_exterior", "n_holes"])
    def test_bad_count_raises_map_format_error(self, key, value):
        edit = _set_count(COUNT_PATHS[key])
        data = rewrite_json_header(map_serialize(_rich_map()), lambda h: edit(h, value), crc=False)
        with pytest.raises(MapFormatError, match="bad point count"):
            map_deserialize(data)

    @pytest.mark.parametrize("value", [3, 10**6, 2**70])
    def test_count_beyond_the_payload_is_truncation(self, value):
        edit = _set_count(COUNT_PATHS["n_center"])
        data = rewrite_json_header(map_serialize(_rich_map()), lambda h: edit(h, value), crc=False)
        with pytest.raises(MapFormatError, match="truncated|trailing"):
            map_deserialize(data)

    def test_infinite_traffic_light_ts_is_a_schema_error(self):
        def edit(header):
            header["traffic_lights"][0][1] = float("inf")

        with pytest.raises(MapFormatError, match="schema"):
            map_deserialize(rewrite_json_header(map_serialize(_rich_map()), edit, crc=False))


class TestMapFormatFuzz:
    """Corrupt .tkmap files raise MapError subclasses only, and no numpy
    warning escapes (the suite turns warnings into errors)."""

    DATA = map_serialize(_rich_map())

    @staticmethod
    def _load(data: bytes) -> None:
        try:
            map_deserialize(data)
        except MapError:
            pass

    def test_every_truncation(self):
        for cut in range(len(self.DATA)):
            with pytest.raises(MapFormatError):
                map_deserialize(self.DATA[:cut])

    @pytest.mark.parametrize("header", sorted(UNDECODABLE_HEADERS))
    def test_directory_that_does_not_decode(self, header):
        with pytest.raises(MapFormatError, match="unreadable JSON header"):
            map_deserialize(replace_header(self.DATA, UNDECODABLE_HEADERS[header], crc=False))

    @given(st.lists(st.integers(0, 8 * len(DATA) - 1), min_size=1, max_size=3))
    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    def test_bit_flips(self, bits):
        data = bytearray(self.DATA)
        for bit in bits:
            data[bit // 8] ^= 1 << (bit % 8)
        self._load(bytes(data))

    @given(
        st.sampled_from(sorted(COUNT_PATHS)),
        st.one_of(
            st.integers(-3, 40), st.integers(2**62, 2**70), st.floats(), st.booleans(), st.none(),
            st.text(max_size=2), st.lists(st.integers(0, 9), max_size=2),
        ),
    )
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    def test_count_edits(self, key, value):
        edit = _set_count(COUNT_PATHS[key])
        self._load(rewrite_json_header(self.DATA, lambda h: edit(h, value), crc=False))

    @pytest.mark.parametrize(
        "where, pattern, ring",
        [
            # The last dy of the walkway, the payload's last polyline: casting
            # a signaling NaN raises numpy's invalid-value flag.
            (slice(-8, -4), 0x7F800001, lambda m: m.ped_walkways[0].exterior),
            # The first dx of the road area's 12-point hole, which precedes two
            # 4-point squares: its later vertices are all +inf, so the
            # drivable-area table subtracts inf from inf.
            (slice(-252, -248), 0x7F800000, lambda m: m.road_areas[0].holes[0]),
        ],
        ids=["snan-walkway", "inf-drivable-hole"],
    )
    def test_non_finite_delta_decodes_silently(self, where, pattern, ring):
        data = bytearray(self.DATA)
        data[where] = pattern.to_bytes(4, "little")
        assert not np.isfinite(ring(map_deserialize(bytes(data)))).all()

    def test_trailing_bytes(self):
        with pytest.raises(MapFormatError, match="trailing"):
            map_deserialize(self.DATA + bytes(12))


def _codec_map(rng, kind: str) -> VectorMap:
    """A random map for the decoder oracle. kind: "centerline" (centerline-only
    lanes, no areas), "edges" (every lane bounded), "holes" (areas with
    holes), "same_length" (every polyline and ring of 7 points), "mixed"
    (lengths 2 to 500), "nonfinite" (NaN and inf coordinates)."""
    def length():
        return {"same_length": 7, "mixed": int(rng.integers(2, 501))}.get(kind, int(rng.integers(2, 40)))

    lanes = []
    for k in range(int(rng.integers(1, 30))):
        n = length()
        center = np.vstack([rng.uniform(-300, 300, 3), rng.uniform(-5, 5, (n - 1, 3))]).cumsum(axis=0)
        if kind == "nonfinite" and k < 2:
            center[n - 1, k] = (np.nan, np.inf)[k]  # the last point, so no other point repeats it
        # A bounded lane's polygon joins its edges' last points, which must not both be infinite.
        bounded = kind == "edges" or (kind != "centerline" and rng.random() < 0.5 and not (kind == "nonfinite" and k < 2))
        left, right = (Polyline(center + (0.0, 2.0, 0.0)), Polyline(center - (0.0, 2.0, 0.0))) if bounded else (None, None)
        lanes.append(RoadLane(f"l{k:03d}", Polyline(center), left, right))
    areas = []
    for _ in range(0 if kind == "centerline" else int(rng.integers(1, 6))):
        ring = convex_polygon(rng, rng.uniform(-200, 200, 2), rng.uniform(5, 40), n_pts=max(length(), 3))
        holes = [0.3 * (ring - ring.mean(axis=0)) + ring.mean(axis=0)] if kind == "holes" or rng.random() < 0.3 else []
        if kind == "nonfinite":
            ring[0, 1] = np.nan
        areas.append(PolygonArea(ring, holes))
    return VectorMap("rand:codec", lanes, road_areas=areas[:2], ped_walkways=areas[2:])


def _map_polylines(vmap: VectorMap) -> list[np.ndarray]:
    """The polylines and rings of a map in payload order."""
    out = []
    for lane_id in sorted(vmap.lanes):
        lane = vmap.lanes[lane_id]
        out += [line.points for line in (lane.centerline, lane.left_edge, lane.right_edge) if line is not None]
    for areas in (vmap.road_areas, vmap.ped_crosswalks, vmap.ped_walkways):
        out += [ring for area in areas for ring in area.rings()]
    return out


def _bench_sized_map() -> tuple[VectorMap, np.random.Generator]:
    """500 lanes of 20 points and 50 drivable polygons, every fifth with a
    hole, as in the analyze benchmark; and the generator, to draw queries."""
    rng = np.random.default_rng(11)
    lanes, areas = [], []
    u = np.linspace(-85.0, 85.0, 20)
    for r in range(50):
        cx, cy, theta = (r % 10) * 240.0 + rng.uniform(-10, 10), (r // 10) * 120.0 + rng.uniform(-10, 10), rng.uniform(-0.3, 0.3)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        for j in range(10):
            local = np.stack([u, (j - 4.5) * 3.5 + 0.4 * np.sin(u / 25.0 + rng.uniform(0, 6.3))], axis=1)
            pts = np.zeros((20, 3))
            pts[:, :2] = local @ rot.T + (cx, cy)
            lanes.append(RoadLane(f"r{r:02d}l{j}", Polyline(pts)))
        xs = np.linspace(-91.0, 91.0, 8)
        ring = np.vstack([np.stack([xs, np.full(8, -19.0)], 1), np.stack([xs[::-1], np.full(8, 19.0)], 1)])
        hole = [np.array([(-12.0, -0.9), (12.0, -0.9), (12.0, 0.9), (-12.0, 0.9)]) @ rot.T + (cx, cy)] if r % 5 == 0 else []
        areas.append(PolygonArea(ring @ rot.T + (cx, cy), hole))
    return VectorMap("bench:grid", lanes, road_areas=areas), rng


class TestColumnarDecode:
    """The one-pass decoder against the per-polyline decode in oracles.py."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["centerline", "edges", "holes", "same_length", "mixed", "nonfinite"])
    def test_matches_per_polyline_decode_bit_for_bit(self, kind, seed):
        rng = np.random.default_rng(1000 * seed + len(kind))
        data = map_serialize(_codec_map(rng, kind))
        want = reference_map_polylines(data)
        (header_len,) = struct.unpack_from("<Q", data, 10)
        points, start, _ = _decode_polylines(data, 18 + header_len, [len(w) for w in want])
        for w, a in zip(want, start):
            assert points[a : a + len(w)].tobytes() == w.tobytes()
        vmap = map_deserialize(data)
        got = _map_polylines(vmap)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.tobytes() == np.ascontiguousarray(w[:, : g.shape[1]]).tobytes()
            assert not g.flags.writeable and g.base is got[0].base
        assert map_serialize(vmap) == data
        if kind == "nonfinite":
            assert np.isnan(points).any() and np.isinf(points).any()

    def test_one_polyline_case(self):
        rng = np.random.default_rng(3)
        pts = np.vstack([rng.uniform(-1e3, 1e3, 3), rng.uniform(-5, 5, (99, 3))]).cumsum(axis=0)
        blob = b"pad" + _encode_polylines([pts])[0]
        dec = _decode_polylines(blob, 3, [100])[0]
        want, end = reference_decode_points(blob, 3, 100)
        assert end == len(blob)
        assert dec.tobytes() == want.tobytes()

    def test_duplicate_point_in_a_ring_loads_but_not_in_a_lane(self):
        # Only lane polylines reject identical consecutive points, as before.
        ring = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0)], road_areas=[PolygonArea(ring)])
        assert map_deserialize(map_serialize(vmap)).road_areas[0].exterior.tolist() == ring.tolist()
        lane = RoadLane("L1", Polyline([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]), left_edge=Polyline([(0.0, 1.0, 0.0), (2.0, 1.0, 0.0)]))
        data = map_serialize(VectorMap("toy:flat", [lane]))
        patched = bytearray(data)
        patched[-12:] = bytes(12)  # the left edge's one delta becomes zero
        with pytest.raises(MapFormatError, match="identical consecutive"):
            map_deserialize(bytes(patched))

    def test_bench_sized_map_answers_match(self):
        vmap, rng = _bench_sized_map()
        data = map_serialize(vmap)
        got, want = map_deserialize(data), reference_map_deserialize(data)
        assert map_serialize(got) == data
        points = np.column_stack([rng.uniform(-30, 2200, 500), rng.uniform(-30, 500, 500)])
        assert [got.closest_lane_with_distance(p) for p in points] == [want.closest_lane_with_distance(p) for p in points]
        chunks = [points[i : i + 100] for i in range(0, len(points), 100)]  # bounds the brute-force matrices
        assert [got.closest_lane_with_distance(p) for p in points] == sum((brute_closest_lanes(got, c) for c in chunks), [])
        assert [got.lanes_within(p, 12.0) for p in points] == sum((brute_lanes_within(want, c, 12.0) for c in chunks), [])
        inside = [got.point_in_drivable_area(p) for p in points]
        assert inside == [want.point_in_drivable_area(p) for p in points] == [reference_in_drivable_area(want, p) for p in points]
        assert 0 < sum(inside) < len(points)


def _reference_payload(vmap: VectorMap) -> bytes:
    """The geometry payload of a map encoded polyline by polyline, rings with z = 0."""
    lines = _map_polylines(vmap)
    return b"".join(reference_encode_points(p if p.shape[1] == 3 else np.column_stack([p, np.zeros(len(p))])) for p in lines)


class TestOnePassEncode:
    """map_serialize encodes every polyline at once; the per-point encoder in
    oracles.py is the reference, byte for byte."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["centerline", "edges", "holes", "same_length", "mixed", "nonfinite"])
    def test_random_maps(self, kind, seed):
        vmap = _codec_map(np.random.default_rng(2000 * seed + len(kind)), kind)
        data = map_serialize(vmap)
        (header_len,) = struct.unpack_from("<Q", data, 10)
        assert data[18 + header_len :] == _reference_payload(vmap)

    def test_bench_sized_map(self):
        vmap, _ = _bench_sized_map()
        data = map_serialize(vmap)
        (header_len,) = struct.unpack_from("<Q", data, 10)
        assert data[18 + header_len :] == _reference_payload(vmap)

    def test_one_point_steps_and_empty(self):
        rng = np.random.default_rng(4)
        lines = [np.vstack([rng.uniform(-1e4, 1e4, 3), rng.uniform(-1, 1, (n - 1, 3))]).cumsum(axis=0) for n in (2, 9, 2, 30)]
        assert _encode_polylines(lines) == [reference_encode_points(p) for p in lines]
        assert _encode_polylines([]) == []
