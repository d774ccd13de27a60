"""Point-quadrilateral predicates against dense-sampling oracles."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoscan.geo import (
    MEAN_RADIUS_M as R,
    GeoPoint,
    great_circle_distance,
    great_circle_distance_many,
    wrap_longitude,
)
from isoscan.quad import Quadrilateral, contains, min_distance, min_distance_many


def boundary_samples(q: Quadrilateral, per_edge: int) -> tuple[np.ndarray, np.ndarray]:
    """Points along all four edges, corners included."""
    lats = np.linspace(q.lat_min, q.lat_max, per_edge)
    lngs = np.linspace(q.lng_min, q.lng_max, per_edge)
    all_lats = np.concatenate(
        [
            np.full(per_edge, q.lat_min),
            np.full(per_edge, q.lat_max),
            lats,
            lats,
        ]
    )
    all_lngs = np.concatenate(
        [
            lngs,
            lngs,
            np.full(per_edge, q.lng_min),
            np.full(per_edge, q.lng_max),
        ]
    )
    return all_lats, all_lngs


def _meridian_arc(lng: float, lat_lo: float, lat_hi: float, n: int):
    """``n`` evenly spaced points of the meridian arc at ``lng``."""
    return np.linspace(lat_lo, lat_hi, n), np.full(n, float(lng))


def interior_grid(q: Quadrilateral, per_side: int) -> tuple[np.ndarray, np.ndarray]:
    lats = np.linspace(q.lat_min, q.lat_max, per_side)
    lngs = np.linspace(q.lng_min, q.lng_max, per_side)
    gl, gn = np.meshgrid(lats, lngs, indexing="ij")
    return gl.ravel(), gn.ravel()


class TestContains:
    def test_interior(self):
        q = Quadrilateral(10, 20, 30, 40)
        assert contains(q, GeoPoint(15, 35))

    def test_corner_is_closed(self):
        q = Quadrilateral(10, 20, 30, 40)
        assert contains(q, GeoPoint(20, 40))
        assert contains(q, GeoPoint(10, 30))

    def test_outside(self):
        q = Quadrilateral(10, 20, 30, 40)
        assert not contains(q, GeoPoint(21, 35))
        assert not contains(q, GeoPoint(15, 29.999))

    def test_validation(self):
        with pytest.raises(ValueError):
            Quadrilateral(20, 10, 0, 1)
        with pytest.raises(ValueError):
            Quadrilateral(0, 1, 5, 4)


class TestMinDistance:
    def test_inside_is_zero(self):
        q = Quadrilateral(10, 20, 30, 40)
        assert min_distance(q, GeoPoint(15, 35)) == 0.0
        assert min_distance(q, GeoPoint(10, 30)) == 0.0  # boundary counts

    def test_between_longitudes_hits_latitude_edge(self):
        q = Quadrilateral(10, 20, 30, 40)
        p = GeoPoint(25, 35)
        expected = great_circle_distance(p, GeoPoint(20, 35))
        assert min_distance(q, p) == expected
        lats, lngs = boundary_samples(q, 25_000)
        assert min_distance(q, p) <= great_circle_distance_many(lats, lngs, *p).min() + 1e-3

    def test_below_southern_edge(self):
        q = Quadrilateral(10, 20, 30, 40)
        p = GeoPoint(-5, 31)
        assert min_distance(q, p) == great_circle_distance(p, GeoPoint(10, 31))

    def test_corner_case_clamps(self):
        q = Quadrilateral(0, 40, 0, 10)
        p = GeoPoint(50, 20)  # the foot lies north of the east edge
        assert min_distance(q, p) == great_circle_distance(p, GeoPoint(40, 10))
        lats, lngs = boundary_samples(q, 25_000)
        assert min_distance(q, p) <= great_circle_distance_many(lats, lngs, *p).min() + 1e-3

    def test_meridian_arc_clamps_to_its_north_end(self):
        q = Quadrilateral(0, 40, 0, 0)  # the meridian arc at lng 0
        p = GeoPoint(50, 10)
        assert min_distance(q, p) == great_circle_distance(p, GeoPoint(40, 0))
        lats, lngs = _meridian_arc(0, 0, 40, 400_001)  # 1e-4 degree steps
        assert min_distance(q, p) <= great_circle_distance_many(lats, lngs, *p).min() + 1e-3

    def test_longitude_edge_interior_foot(self):
        q = Quadrilateral(-40, 40, -10, 10)
        p = GeoPoint(0, 50)  # due east, foot on the east edge at the equator
        assert min_distance(q, p) == great_circle_distance(p, GeoPoint(0, 10))

    def test_equatorial_foot_of_a_symmetric_meridian_arc(self):
        q = Quadrilateral(-30, 30, 0, 0)  # the meridian arc at lng 0
        for lng in (10, -10):
            p = GeoPoint(0, lng)
            assert min_distance(q, p) == great_circle_distance(p, GeoPoint(0, 0))

    def test_antimeridian_side_selection(self):
        q = Quadrilateral(10, 20, -180, -179)
        p = GeoPoint(15, 179.5)  # just west across the antimeridian
        d = min_distance(q, p)
        # the nearby west edge (lng -180) must win over the east edge
        assert d < great_circle_distance(p, GeoPoint(15, -179))
        lats, lngs = boundary_samples(q, 25_000)
        sampled = great_circle_distance_many(lats, lngs, *p).min()
        assert d <= sampled + 1e-3
        assert d >= sampled - 1e-3

    def test_positive_outside(self):
        q = Quadrilateral(10, 20, 30, 40)
        for p in (GeoPoint(20.001, 35), GeoPoint(9.2, 29.0), GeoPoint(45, 41)):
            assert min_distance(q, p) > 0.0

    def test_foot_inside_the_edge(self):
        q = Quadrilateral(0, 30, 0, 20)
        p = GeoPoint(10, 50)  # foot on the east edge near latitude 11.5
        d = min_distance(q, p)
        corners = [great_circle_distance(p, GeoPoint(lat, 20)) for lat in (0, 30)]
        assert d < min(corners)
        sampled = great_circle_distance_many(*_meridian_arc(20, 0, 30, 300_001), *p).min()
        assert sampled - 1e-3 <= d <= sampled + 1e-3

    def test_foot_on_the_opposite_meridian_gives_the_nearer_corner(self):
        q = Quadrilateral(10, 40, -10, 0)
        p = GeoPoint(5.0, 170.0)
        corners = [great_circle_distance(p, GeoPoint(lat, 0)) for lat in (10, 40)]
        assert min_distance(q, p) == min(corners)
        lats, lngs = boundary_samples(q, 25_000)
        assert min_distance(q, p) <= great_circle_distance_many(lats, lngs, *p).min() + 1e-3

    def test_short_edge_across_the_pole(self):
        # A 0.18" edge seen over the south pole: the nearer corner is the
        # southern one, 5.5 m closer than the northern.
        q = Quadrilateral(-86.1, -86.09995, -168, -167.9999)
        p = GeoPoint(-47, 15)
        assert min_distance(q, p) == great_circle_distance(p, GeoPoint(-86.1, -168))
        lats, lngs = boundary_samples(q, 10_001)
        sampled = great_circle_distance_many(lats, lngs, *p).min()
        assert sampled - 1e-3 <= min_distance(q, p) <= sampled + 1e-3

    @pytest.mark.parametrize("lng", [90.0, -100.0])
    def test_query_at_the_pole_of_the_edge_circle(self, lng):
        # (0, edge +- 90) is a quarter circle from every point of the edge's meridian
        q = Quadrilateral(-20, 45, -10, 0)
        assert min_distance(q, GeoPoint(0, lng)) == pytest.approx(math.pi * R / 2.0, rel=1e-12)

    @pytest.mark.parametrize("lat, nearest_lat", [(30, 45), (-30, -20)])
    @pytest.mark.parametrize("lng, edge_lng", [(100, 10), (-90, 0)])
    def test_edge_ninety_degrees_away(self, lat, nearest_lat, lng, edge_lng):
        q = Quadrilateral(-20, 45, 0, 10)
        p = GeoPoint(lat, lng)
        expected = great_circle_distance(p, GeoPoint(nearest_lat, edge_lng))
        assert min_distance(q, p) == pytest.approx(expected, rel=1e-12)
        lats, lngs = boundary_samples(q, 25_000)
        assert min_distance(q, p) <= great_circle_distance_many(lats, lngs, *p).min() + 1e-3

    @pytest.mark.parametrize("lat, arc_deg", [(90, 50), (-90, 100)])
    @pytest.mark.parametrize("lng", [0, 180])
    def test_query_at_a_pole(self, lat, arc_deg, lng):
        q = Quadrilateral(10, 40, 20, 30)
        assert min_distance(q, GeoPoint(lat, lng)) == pytest.approx(
            R * math.radians(arc_deg), rel=1e-12
        )

    @pytest.mark.parametrize("p", [GeoPoint(25, 3), GeoPoint(-5, -30), GeoPoint(12, 175)])
    def test_zero_height_band(self, p):
        q = Quadrilateral(10, 10, 0, 5)
        lats, lngs = boundary_samples(q, 50_001)
        sampled = great_circle_distance_many(lats, lngs, *p).min()
        assert sampled - 1e-3 <= min_distance(q, p) <= sampled + 1e-3

    def test_meridian_arcs_against_dense_sampling(self):
        # Zero-width quadrilaterals: the distance to one meridian arc.
        rng = random.Random(21)
        for _ in range(25):
            lng = rng.uniform(-170, 170)
            lat_lo = rng.uniform(-60, 30)
            lat_hi = lat_lo + rng.uniform(1, 50)
            p = GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 180))
            arc = _meridian_arc(lng, lat_lo, lat_hi, 100_001)
            sampled = great_circle_distance_many(*arc, *p).min()
            d = min_distance(Quadrilateral(lat_lo, lat_hi, lng, lng), p)
            assert sampled - 1e-3 <= d <= sampled + 1e-3

    @given(
        st.floats(-90, 90),
        st.floats(-180, 180),
        st.floats(-4, math.log10(180)),
        st.floats(0, 1),
        st.floats(0, 1),
        st.floats(-90, 90),
        st.floats(-180, 180),
    )
    @settings(max_examples=100, deadline=None)
    def test_sound_and_tight_against_dense_sampling(self, lat0, lng0, scale, fh, fw, plat, plng):
        size = 10.0**scale
        lat_min = min(lat0, 90 - fh * size)
        lng_min = min(lng0, 180 - fw * size)
        q = Quadrilateral(lat_min, lat_min + fh * size, lng_min, lng_min + fw * size)
        p = GeoPoint(plat, plng)
        d = min_distance(q, p)
        if contains(q, p):
            assert d == 0.0
            return
        per_edge = 20_001
        lats, lngs = boundary_samples(q, per_edge)
        sampled = great_circle_distance_many(lats, lngs, *p).min()
        side = max(q.lat_max - q.lat_min, q.lng_max - q.lng_min)
        half_spacing = R * math.radians(side) / (per_edge - 1) / 2.0
        assert d <= sampled + 1e-3
        # 1e-6 m covers rounding: the sampled minimum is the vector haversine.
        assert d >= sampled - half_spacing - 1e-6


@st.composite
def quad_point_pairs(draw):
    """A quadrilateral of 1e-4 to 180 degrees and a point, in a chosen case.

    The point's longitude lies between the edges, within 90 degrees of the
    nearer edge (cos dlng > 0), or at least 90 degrees from both
    (cos dlng <= 0).  Its latitude is anywhere, at a pole or on the
    equator, and the quadrilateral may touch a pole or straddle the
    equator.
    """
    size = 10.0 ** draw(st.floats(-4, math.log10(180)))
    h, w = draw(st.floats(0, 1)) * size, draw(st.floats(0, 1)) * size
    place = draw(st.sampled_from(["any", "north pole", "south pole", "equator"]))
    if place == "north pole":
        lat_min = 90.0 - h
    elif place == "south pole":
        lat_min = -90.0
    elif place == "equator":
        lo, hi = max(-90.0, -h), min(0.0, 90.0 - h)
        lat_min = lo + draw(st.floats(0, 1)) * (hi - lo)
    else:
        lat_min = draw(st.floats(-90, 90 - h))
    lng_min = draw(st.floats(-180, 180 - w))
    q = Quadrilateral(lat_min, lat_min + h, lng_min, lng_min + w)

    case = draw(st.sampled_from(["between", "cos > 0", "cos <= 0"]))
    if case == "between":
        lng = lng_min + draw(st.floats(0, 1)) * w
    elif case == "cos > 0":
        lng = q.lng_max + draw(st.floats(0, 1, exclude_min=True)) * min(89.9, (360 - w) / 2)
    else:
        # Both edges lie at least 90 degrees away from the far side's centre.
        lng = q.center_lng + 180 + draw(st.floats(-1, 1)) * (90 - w / 2)
    lat = draw(st.sampled_from([None, 90.0, -90.0, 0.0]))
    if lat is None:
        lat = draw(st.floats(-90, 90))
    return q, GeoPoint(lat, wrap_longitude(lng))


class TestMinDistanceMany:
    @given(st.lists(quad_point_pairs(), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_min_distance(self, pairs):
        quads = np.array([q for q, _ in pairs])
        points = np.array([p for _, p in pairs])
        got = min_distance_many(*quads.T, *points.T)
        want = [min_distance(q, p) for q, p in pairs]
        assert np.abs(got - want).max() <= 1e-6


class TestDenseSamplingProperties:
    def test_random_configurations(self):
        rng = random.Random(17)
        for _ in range(12):
            lat_min = rng.uniform(-60, 50)
            lng_min = rng.uniform(-170, 160)
            q = Quadrilateral(
                lat_min, lat_min + rng.uniform(0.5, 25), lng_min, lng_min + rng.uniform(0.5, 25)
            )
            p = GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 180))
            lats, lngs = boundary_samples(q, 2_500)
            dists = great_circle_distance_many(lats, lngs, *p)
            lo = min_distance(q, p)
            assert lo <= dists.min() + 1e-3
            ilats, ilngs = interior_grid(q, 60)
            idists = great_circle_distance_many(ilats, ilngs, *p)
            assert lo <= idists.min() + 1e-3
            if contains(q, p):
                assert lo == 0.0
            else:
                assert lo > 0.0

    @given(
        st.floats(-55, 45),
        st.floats(-160, 140),
        st.floats(0.1, 12),
        st.floats(0.1, 12),
        st.floats(-80, 80),
        st.floats(-180, 180),
    )
    @settings(max_examples=60, deadline=None)
    def test_min_below_corner_and_center_distances(self, lat0, lng0, dlat, dlng, plat, plng):
        q = Quadrilateral(lat0, lat0 + dlat, lng0, lng0 + dlng)
        p = GeoPoint(plat, plng)
        inside = [
            GeoPoint(lat, lng)
            for lat in (q.lat_min, (q.lat_min + q.lat_max) / 2, q.lat_max)
            for lng in (q.lng_min, q.center_lng, q.lng_max)
        ]
        assert min_distance(q, p) <= min(great_circle_distance(p, c) for c in inside) + 1e-9

    def test_continuity_under_perturbation(self):
        rng = random.Random(23)
        q = Quadrilateral(10, 20, 30, 40)
        for _ in range(400):
            p = GeoPoint(rng.uniform(-30, 60), rng.uniform(-10, 80))
            step = rng.uniform(1e-6, 1e-3)
            p2 = GeoPoint(p.lat_deg + rng.choice([-step, step]), p.lng_deg + rng.choice([-step, step]))
            moved = great_circle_distance(p, p2)
            jump = abs(min_distance(q, p) - min_distance(q, p2))
            assert jump <= moved + 1e-3
