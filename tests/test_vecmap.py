import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajkit.vecmap import (
    DanglingLaneError,
    DegenerateRingError,
    DrivableAreaUnsupported,
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
from trajkit.vecmap import _decode_points, _encode_points

from conftest import convex_polygon, random_lane_map, rewrite_json_header, square_area, straight_lane, tiny_traffic_map
from oracles import brute_closest_lanes, brute_lanes_within, crossing_number_inside, fan_triangulation_area


class TestPolyline:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            Polyline([(0.0, 0.0, 0.0)])

    def test_rejects_identical_consecutive(self):
        with pytest.raises(ValueError):
            Polyline([(0, 0, 0), (0, 0, 0), (1, 0, 0)])

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

    def test_degenerate_ring(self):
        with pytest.raises(DegenerateRingError):
            polygon_area(PolygonArea(np.array([(0.0, 0.0), (1.0, 0.0)])))

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


class TestLaneQueries:
    def test_single_lane_distance(self):
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0)])
        lane, dist = vmap.closest_lane_with_distance((5.0, 3.0, 0.0))
        assert lane == "L1" and dist == pytest.approx(3.0)

    def test_two_parallel_lanes(self):
        vmap = VectorMap("toy:flat", [straight_lane("L1", 0.0), straight_lane("L2", 10.0)])
        assert vmap.get_closest_lane((5.0, 4.0, 0.0)) == "L1"
        assert vmap.get_closest_lane((5.0, 6.0, 0.0)) == "L2"

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


class TestMapModel:
    def test_map_id_must_be_two_tokens(self):
        with pytest.raises(ValueError):
            VectorMap("boston", [])
        with pytest.raises(ValueError):
            VectorMap("a:b:c", [])

    def test_dangling_reference(self):
        lane = straight_lane("L1", 0.0)
        lane.successors.add("missing")
        with pytest.raises(DanglingLaneError):
            VectorMap("toy:flat", [lane])

    def test_self_reference(self):
        lane = straight_lane("L1", 0.0)
        lane.adjacent_left.add("L1")
        with pytest.raises(ValueError):
            VectorMap("toy:flat", [lane])

    def test_connectivity_closure_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            lanes = [straight_lane(f"L{i}", float(i) * 5.0) for i in range(n)]
            for lane in lanes:
                for j in rng.choice(n, size=rng.integers(0, 3), replace=False):
                    if f"L{j}" != lane.lane_id:
                        lane.successors.add(f"L{j}")
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
        dec, _, _ = _decode_points(_encode_points(pts), 0, 2)
        assert np.array_equal(dec, pts)

    def test_long_jittered_error_bound(self):
        rng = np.random.default_rng(0)
        steps = rng.uniform(-5.0, 5.0, size=(9999, 3))
        pts = np.vstack([rng.uniform(-1000, 1000, 3), steps]).cumsum(axis=0)
        dec, _, _ = _decode_points(_encode_points(pts), 0, len(pts))
        assert np.abs(dec - pts).max() <= 1e-3

    def test_error_does_not_accumulate(self):
        # constant tiny steps over many points stay within one-step quantization
        pts = np.zeros((5000, 3))
        pts[:, 0] = np.cumsum(np.full(5000, 0.123456789))
        dec, _, _ = _decode_points(_encode_points(pts), 0, len(pts))
        assert np.abs(dec - pts).max() < 1e-5


def _rich_map(rng=None) -> VectorMap:
    rng = rng or np.random.default_rng(5)
    lanes = [
        straight_lane("L1", 0.0, half_width=2.0),
        straight_lane("L2", 4.0, half_width=2.0),
        straight_lane("L3", 20.0),
    ]
    lanes[0].adjacent_left.add("L2")
    lanes[1].adjacent_right.add("L1")
    lanes[0].successors.add("L3")
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
        ],
        ids=["no-lanes", "no-traffic_lights", "lane-without-n_center"],
    )
    def test_schema_violation_raises_map_format_error(self, edit):
        data = rewrite_json_header(map_serialize(_rich_map()), edit, crc=False)
        with pytest.raises(MapFormatError, match="schema"):
            map_deserialize(data)
