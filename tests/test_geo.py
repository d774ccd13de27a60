"""Distance functions and the Cartesian transform."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodesic_oracle import VincentyNoConvergence, vincenty_inverse
from isoscan import geo
from isoscan.geo import (
    ELLIPSOID_RATIO_BAND,
    GeoPoint,
    antipode,
    ellipsoid_distance,
    ellipsoid_distance_many,
    great_circle_distance,
    great_circle_distance_many,
    to_cartesian,
    wrap_longitude,
)
from isoscan.multipass import BOUND_INFLATION
from isoscan.oracle import _METRIC_ANISOTROPY
from isoscan.spatial_index import _ELLIPSOID_PRUNE_FACTOR

R = geo.MEAN_RADIUS_M


def _destination(a: GeoPoint, bearing: float, sigma: float) -> GeoPoint:
    """Point at central angle ``sigma`` from ``a`` along ``bearing`` (radians)."""
    phi, lam = math.radians(a.lat_deg), math.radians(a.lng_deg)
    sin_phi2 = math.sin(phi) * math.cos(sigma) + math.cos(phi) * math.sin(sigma) * math.cos(bearing)
    phi2 = math.asin(max(-1.0, min(1.0, sin_phi2)))
    lam2 = lam + math.atan2(
        math.sin(bearing) * math.sin(sigma) * math.cos(phi),
        math.cos(sigma) - math.sin(phi) * sin_phi2,
    )
    return GeoPoint(math.degrees(phi2), math.degrees(lam2))


lat_strategy = st.floats(min_value=-89.5, max_value=89.5)
lng_strategy = st.floats(min_value=-179.999, max_value=180.0)
points = st.builds(GeoPoint, lat_strategy, lng_strategy)


class TestGeoPoint:
    def test_longitude_wraps_on_construction(self):
        assert GeoPoint(10.0, 190.0).lng_deg == -170.0
        assert GeoPoint(10.0, -180.0).lng_deg == 180.0
        assert GeoPoint(10.0, 540.0).lng_deg == 180.0

    def test_latitude_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            GeoPoint(90.5, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(-91.0, 0.0)

    def test_tuple_ordering_is_lat_then_lng(self):
        assert GeoPoint(1.0, 5.0) < GeoPoint(2.0, 0.0)
        assert GeoPoint(1.0, 2.0) < GeoPoint(1.0, 3.0)

    def test_wrap_longitude_identity_in_range(self):
        assert wrap_longitude(179.5) == 179.5
        assert wrap_longitude(-179.5) == -179.5
        assert wrap_longitude(180.0) == 180.0

    def test_antipode(self):
        p = antipode(GeoPoint(47.0, 10.0))
        assert p == GeoPoint(-47.0, -170.0)


class TestGreatCircle:
    def test_identity_is_zero(self):
        p = GeoPoint(47.0, 8.0)
        assert great_circle_distance(p, p) == 0.0

    def test_antipodal_half_circumference(self):
        d = great_circle_distance(GeoPoint(0, 0), GeoPoint(0, 180))
        assert d == pytest.approx(math.pi * R, rel=1e-9)

    def test_one_degree_equatorial_arc(self):
        # closed form: one degree along the equator is R * pi / 180
        d = great_circle_distance(GeoPoint(0, 0), GeoPoint(0, 1))
        assert d == pytest.approx(R * math.pi / 180.0, rel=1e-9)

    def test_quarter_circumference_pole(self):
        d = great_circle_distance(GeoPoint(0, 20), GeoPoint(90, 20))
        assert d == pytest.approx(math.pi * R / 2.0, rel=1e-9)

    @given(points, points)
    @settings(max_examples=100)
    def test_symmetry_exact(self, a, b):
        assert great_circle_distance(a, b) == great_circle_distance(b, a)

    @given(points, points, points)
    @settings(max_examples=100)
    def test_triangle_sanity(self, a, b, c):
        assert great_circle_distance(a, c) <= (
            great_circle_distance(a, b) + great_circle_distance(b, c) + 1e-6
        )

    @given(points, points)
    @settings(max_examples=100)
    def test_matches_cartesian_angle(self, a, b):
        va, vb = to_cartesian(a), to_cartesian(b)
        dot = va.x * vb.x + va.y * vb.y + va.z * vb.z
        cross = (
            va.y * vb.z - va.z * vb.y,
            va.z * vb.x - va.x * vb.z,
            va.x * vb.y - va.y * vb.x,
        )
        expected = R * math.atan2(math.hypot(*cross), dot)
        assert great_circle_distance(a, b) == pytest.approx(expected, rel=1e-9, abs=1e-6)

    def test_vectorized_twin_agrees(self):
        rng = np.random.default_rng(5)
        lats = rng.uniform(-80, 80, 300)
        lngs = rng.uniform(-180, 180, 300)
        p = GeoPoint(12.0, -34.0)
        bulk = great_circle_distance_many(lats, lngs, *p)
        for i in range(0, 300, 17):
            scalar = great_circle_distance(GeoPoint(lats[i], lngs[i]), p)
            assert bulk[i] == pytest.approx(scalar, rel=1e-12, abs=1e-6)


class TestEllipsoid:
    def test_identity_is_zero(self):
        p = GeoPoint(-33.0, 151.0)
        assert ellipsoid_distance(p, p) == 0.0

    def test_zero_flattening_reduces_to_sphere(self, monkeypatch):
        monkeypatch.setattr(geo, "MEAN_RADIUS_M", geo.EQUATORIAL_RADIUS_M)
        monkeypatch.setattr(geo, "FLATTENING", 0.0)
        rng = random.Random(7)
        for _ in range(200):
            a = GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 180))
            b = GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 180))
            e = ellipsoid_distance(a, b)
            g = great_circle_distance(a, b)
            assert e == pytest.approx(g, rel=1e-9, abs=1e-6)

    def test_against_iterative_geodesic_oracle(self):
        rng = random.Random(99)
        checked = 0
        while checked < 1000:
            a = GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 180))
            b = GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 180))
            if great_circle_distance(a, b) > 0.97 * math.pi * R:
                continue  # the approximation degrades near antipodes by contract
            try:
                reference = vincenty_inverse(a.lat_deg, a.lng_deg, b.lat_deg, b.lng_deg)
            except VincentyNoConvergence:
                continue
            if reference < 1.0:
                continue
            assert ellipsoid_distance(a, b) == pytest.approx(reference, rel=5e-3)
            checked += 1

    def test_known_geodesic_reference_pair(self):
        # Flinders Peak -> Buninyong, a published geodesic test line.
        a = GeoPoint(-(37 + 57 / 60 + 3.72030 / 3600), 144 + 25 / 60 + 29.52440 / 3600)
        b = GeoPoint(-(37 + 39 / 60 + 10.15610 / 3600), 143 + 55 / 60 + 35.38390 / 3600)
        assert vincenty_inverse(a.lat_deg, a.lng_deg, b.lat_deg, b.lng_deg) == pytest.approx(
            54972.271, abs=0.01
        )
        assert ellipsoid_distance(a, b) == pytest.approx(54972.271, rel=5e-3)

    @given(points, points)
    @settings(max_examples=100)
    # subnormal s: the h2 term once overflowed to inf and inf * 0 gave NaN
    @example(GeoPoint(8.38e-153, 0.0), GeoPoint(8.38e-153, 8.38e-153))
    def test_symmetry_exact(self, a, b):
        d = ellipsoid_distance(a, b)
        assert math.isfinite(d)
        assert d == ellipsoid_distance(b, a)
        bulk = ellipsoid_distance_many(np.array([a.lat_deg]), np.array([a.lng_deg]), *b)
        assert np.isfinite(bulk).all()

    def test_sphere_ratio_stays_in_curvature_band(self):
        # The ellipsoid distance, and the geodesic it approximates, stay
        # inside ELLIPSOID_RATIO_BAND around the great-circle distance: at
        # every latitude and bearing, from metres up to 0.97 pi R, where the
        # approximation's contract ends.
        lo, hi = ELLIPSOID_RATIO_BAND

        def in_band(a, b):
            g = great_circle_distance(a, b)
            assert lo <= ellipsoid_distance(a, b) / g <= hi
            try:
                v = vincenty_inverse(a.lat_deg, a.lng_deg, b.lat_deg, b.lng_deg)
            except VincentyNoConvergence:
                return False
            assert lo <= v / g <= hi
            return True

        for a, b in [
            (GeoPoint(90, 0), GeoPoint(0, 0)),
            (GeoPoint(-90, 0), GeoPoint(80, 17)),
            (GeoPoint(0, 0), GeoPoint(0, 174)),
            (GeoPoint(0, 0), GeoPoint(1e-4, 0)),
            (GeoPoint(89.9, 0), GeoPoint(89.9, 180)),
        ]:
            assert in_band(a, b)

        rng = random.Random(3)
        checked = 0
        while checked < 3000:
            a = GeoPoint(math.degrees(math.asin(rng.uniform(-1, 1))), rng.uniform(-180, 180))
            # alternate uniform and log-uniform separations, so short ones occur
            scale = rng.random() if checked % 2 else 10 ** rng.uniform(-6, 0)
            b = _destination(a, rng.uniform(0, 2 * math.pi), 0.97 * math.pi * scale)
            if not 1.0 <= great_circle_distance(a, b) <= 0.97 * math.pi * R:
                continue
            checked += in_band(a, b)

    def test_pruning_constants_clear_the_ratio_band(self):
        # Ellipsoid pruning scales great-circle bounds down by
        # _ELLIPSOID_PRUNE_FACTOR, the pipeline inflates isolation bounds by
        # BOUND_INFLATION, and the oracle screens candidates within
        # _METRIC_ANISOTROPY of the nearest: each is sound only while it
        # clears the band.  The bounding pass's bounds are final-metric
        # distances, so assigning every tile closer than the final isolation
        # needs 1 / lo (a tile's great-circle distance can exceed its
        # ellipsoid distance by that much), which hi / lo covers.  The
        # dilation still needs hi: a higher sample within great-circle
        # distance i_min / BOUND_INFLATION is within ellipsoid distance
        # i_min.  The high-point pass's great-circle bounds need both.
        lo, hi = ELLIPSOID_RATIO_BAND
        assert _ELLIPSOID_PRUNE_FACTOR < lo
        assert hi < BOUND_INFLATION
        assert hi / lo < BOUND_INFLATION
        assert hi / lo <= _METRIC_ANISOTROPY


VECTOR_TWINS = [great_circle_distance_many, ellipsoid_distance_many]


class TestVectorTwinQueryPoints:
    """Array query points give bit for bit what the one-point call gives."""

    @pytest.mark.parametrize("twin", VECTOR_TWINS)
    def test_one_query_broadcast_equals_scalar_call(self, twin):
        rng = np.random.default_rng(21)
        lats, lngs = rng.uniform(-90, 90, 500), rng.uniform(-180, 180, 500)
        for p in (GeoPoint(12.0, -34.0), GeoPoint(-89.9, 179.5), GeoPoint(0.0, 0.0)):
            one = twin(lats, lngs, p.lat_deg, p.lng_deg)
            spread = twin(lats, lngs, np.full(500, p.lat_deg), np.full(500, p.lng_deg))
            assert np.array_equal(one, spread)

    @pytest.mark.parametrize("twin", VECTOR_TWINS)
    def test_per_point_queries_equal_one_point_calls(self, twin):
        rng = np.random.default_rng(22)
        n = 300
        lats, lngs = rng.uniform(-90, 90, n), rng.uniform(-180, 180, n)
        p_lats, p_lngs = rng.uniform(-90, 90, n), rng.uniform(-180, 180, n)
        # near neighbours, and the subnormal-s case the ellipsoid guards
        p_lats[:100], p_lngs[:100] = lats[:100] + 1e-6, lngs[:100] - 1e-6
        lats[100], lngs[100], p_lats[100], p_lngs[100] = 8.38e-153, 0.0, 8.38e-153, 8.38e-153
        batch = twin(lats, lngs, p_lats, p_lngs)
        assert np.isfinite(batch).all()
        for k in range(n):
            one = twin(lats[k : k + 1], lngs[k : k + 1], float(p_lats[k]), float(p_lngs[k]))
            assert batch[k] == one[0]


class TestCartesian:
    def test_axes(self):
        assert to_cartesian(GeoPoint(0, 0)) == pytest.approx((1, 0, 0), abs=1e-15)
        assert to_cartesian(GeoPoint(0, 90)) == pytest.approx((0, 1, 0), abs=1e-15)
        assert to_cartesian(GeoPoint(90, 123)) == pytest.approx((0, 0, 1), abs=1e-15)

    @given(points)
    @settings(max_examples=200)
    def test_unit_norm(self, p):
        v = to_cartesian(p)
        assert math.sqrt(v.x**2 + v.y**2 + v.z**2) == pytest.approx(1.0, abs=1e-12)


class TestEarthModel:
    def test_defaults(self):
        assert geo.MEAN_RADIUS_M == 6_371_000.0
        assert geo.EQUATORIAL_RADIUS_M == 6_378_137.0
        assert geo.FLATTENING == pytest.approx(1 / 298.257223563)
