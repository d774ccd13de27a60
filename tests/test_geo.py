"""Distance functions and the Cartesian transform."""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodesic_oracle import VincentyNoConvergence, vincenty_inverse
from isoscan import geo
from isoscan.geo import (
    ELLIPSOID_RATIO_BAND,
    METRIC_ANISOTROPY,
    GeoPoint,
    antipode,
    ellipsoid_distance,
    great_circle_distance,
    great_circle_distance_many,
    to_cartesian,
    wrap_longitude,
    wrap_longitude_many,
)
from isoscan.multipass import BOUND_INFLATION
from isoscan.spatial_index import _ELLIPSOID_PRUNE_FACTOR, EllipsoidMetric, GreatCircleMetric

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
        # _ELLIPSOID_PRUNE_FACTOR, the pyramid's upper bounds scale them up
        # by the band's high end, the pipeline inflates isolation bounds by
        # BOUND_INFLATION, and the oracle and the pyramid screen candidates
        # within METRIC_ANISOTROPY of the nearest: each is sound only while
        # it clears the band.  The bounding pass's bounds are final-metric
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
        assert hi / lo <= METRIC_ANISOTROPY
        assert (EllipsoidMetric.low, EllipsoidMetric.high) == (_ELLIPSOID_PRUNE_FACTOR, hi)
        assert EllipsoidMetric.anisotropy == METRIC_ANISOTROPY
        sphere = GreatCircleMetric
        assert sphere.low == sphere.high == sphere.anisotropy == 1.0


class TestVectorTwinQueryPoints:
    """Array query points give bit for bit what the one-point call gives."""

    def test_one_query_broadcast_equals_scalar_call(self):
        twin = great_circle_distance_many
        rng = np.random.default_rng(21)
        lats, lngs = rng.uniform(-90, 90, 500), rng.uniform(-180, 180, 500)
        for p in (GeoPoint(12.0, -34.0), GeoPoint(-89.9, 179.5), GeoPoint(0.0, 0.0)):
            one = twin(lats, lngs, p.lat_deg, p.lng_deg)
            spread = twin(lats, lngs, np.full(500, p.lat_deg), np.full(500, p.lng_deg))
            assert np.array_equal(one, spread)

    def test_per_point_queries_equal_one_point_calls(self):
        twin = great_circle_distance_many
        rng = np.random.default_rng(22)
        n = 300
        lats, lngs = rng.uniform(-90, 90, n), rng.uniform(-180, 180, n)
        p_lats, p_lngs = rng.uniform(-90, 90, n), rng.uniform(-180, 180, n)
        p_lats[:100], p_lngs[:100] = lats[:100] + 1e-6, lngs[:100] - 1e-6  # near neighbours
        batch = twin(lats, lngs, p_lats, p_lngs)
        assert np.isfinite(batch).all()
        for k in range(n):
            one = twin(lats[k : k + 1], lngs[k : k + 1], float(p_lats[k]), float(p_lngs[k]))
            assert batch[k] == one[0]


EXACT_TWINS = [
    pytest.param(great_circle_distance, GreatCircleMetric(), id="great-circle"),
    pytest.param(ellipsoid_distance, EllipsoidMetric(), id="ellipsoid"),
]

# Points anywhere, the poles and the antimeridian included (GeoPoint wraps
# -180 to 180).
any_points = st.builds(
    GeoPoint,
    st.one_of(st.floats(-90.0, 90.0), st.sampled_from([-90.0, 90.0, 0.0])),
    st.one_of(st.floats(-180.0, 180.0), st.sampled_from([-180.0, 180.0, 0.0])),
)


@st.composite
def point_pairs(draw):
    """Two points anywhere, or the second near the first or near its antipode."""
    a = draw(any_points)
    kind = draw(st.sampled_from(["any", "near", "antipode", "same"]))
    if kind == "any":
        return a, draw(any_points)
    if kind == "same":
        return a, GeoPoint(*a)
    base = a if kind == "near" else antipode(a)
    scale = 10.0 ** draw(st.integers(-12, 0))
    dlat, dlng = draw(st.floats(-1, 1)) * scale, draw(st.floats(-1, 1)) * scale
    return a, GeoPoint(min(max(base.lat_deg + dlat, -90.0), 90.0), base.lng_deg + dlng)


# Pairs the hypothesis search might not find: coincident points, the poles,
# the antimeridian, a subnormal s (the _subnormal_s_term branch, once a NaN),
# and near-antipodes.
PINNED_PAIRS = [
    (GeoPoint(47.0, 8.0), GeoPoint(47.0, 8.0)),
    (GeoPoint(90.0, 0.0), GeoPoint(90.0, 123.0)),
    (GeoPoint(-90.0, 10.0), GeoPoint(90.0, 10.0)),
    (GeoPoint(89.99, -180.0), GeoPoint(-89.99, 180.0)),
    (GeoPoint(10.0, 180.0), GeoPoint(10.0, -179.999)),
    (GeoPoint(8.38e-153, 0.0), GeoPoint(8.38e-153, 8.38e-153)),
    (GeoPoint(0.0, 0.0), GeoPoint(0.0, 1e-155)),
    (GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0)),
    (GeoPoint(45.0, 7.0), GeoPoint(-45.0, -173.0)),
    (GeoPoint(45.0, 7.0), GeoPoint(-45.0 + 1e-9, -173.0 - 1e-9)),
]


def exact_many(metric, pairs) -> np.ndarray:
    columns = zip(*(a + b for a, b in pairs))
    return metric.distance_exact_many(*(np.array(c, dtype=np.float64) for c in columns))


class TestExactTwins:
    """Each metric's ``distance_exact_many`` equals its scalar distance bit for bit."""

    @pytest.mark.parametrize(("scalar", "metric"), EXACT_TWINS)
    @given(st.lists(point_pairs(), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_equals_scalar_bit_for_bit(self, scalar, metric, pairs):
        expected = np.array([scalar(a, b) for a, b in pairs])
        assert exact_many(metric, pairs).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(("scalar", "metric"), EXACT_TWINS)
    @pytest.mark.parametrize(("a", "b"), PINNED_PAIRS)
    def test_pinned_pairs(self, scalar, metric, a, b):
        for pair in ((a, b), (b, a)):
            got = exact_many(metric, [pair])
            assert got.tobytes() == np.array([scalar(*pair)]).tobytes()
            # A (lat, lng) pair is measured as its GeoPoint is.
            assert scalar(*map(tuple, pair)) == scalar(*pair)
            assert np.isfinite(got).all()

    def test_pinned_subnormal_pairs_take_the_guarded_branch(self, monkeypatch):
        taken = []
        real = geo._subnormal_s_term

        def recording(*args):
            taken.append(args)
            return real(*args)

        monkeypatch.setattr(geo, "_subnormal_s_term", recording)
        for a, b in PINNED_PAIRS[5:7]:
            ellipsoid_distance(a, b)
        assert len(taken) == 2

    @pytest.mark.parametrize(("scalar", "metric"), EXACT_TWINS)
    def test_random_pairs_at_every_scale(self, scalar, metric):
        rng = np.random.default_rng(41)
        n = 20_000
        a_lats = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
        a_lngs = rng.uniform(-180, 180, n)
        step = 10.0 ** rng.uniform(-9, 2.5, n)
        b_lats = np.clip(a_lats + rng.normal(0, 1, n) * step, -90, 90)
        b_lngs = wrap_longitude_many(a_lngs + rng.normal(0, 1, n) * step)
        got = metric.distance_exact_many(a_lats, a_lngs, b_lats, b_lngs)
        a_points = [GeoPoint(*a) for a in zip(a_lats.tolist(), a_lngs.tolist())]
        b_points = [GeoPoint(*b) for b in zip(b_lats.tolist(), b_lngs.tolist())]
        expected = [scalar(a, b) for a, b in zip(a_points, b_points)]
        assert got.tobytes() == np.array(expected).tobytes()

    def test_empty_arrays(self):
        for _scalar, metric in (p.values for p in EXACT_TWINS):
            empty = np.empty(0)
            assert metric.distance_exact_many(empty, empty, empty, empty).shape == (0,)


# Prints, as JSON, the CPU features numpy dispatches to in this process and
# a digest of a small world's CSVs.
_DISPATCH_PROBE = """
import hashlib, json, sys
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
from isoscan.cli import main

data_dir, out_dir = sys.argv[1:]
csvs = b""
for mode in ("staged", "great-circle-only"):
    out = f"{out_dir}/{mode}.csv"
    args = ["compute", "--data-dir", data_dir, "--bounds", "45", "47", "7", "9", "--threads", "1",
            "--min-isolation-km", "0", "--distance-mode", mode, "--output", out]
    assert main(args) == 0
    csvs += open(out, "rb").read()
print(json.dumps({
    "enabled": sorted(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)),
    "csvs": hashlib.sha256(csvs).hexdigest(),
}))
"""


def _dispatched_features() -> list[str]:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    return sorted(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f))


def test_csvs_do_not_depend_on_numpy_cpu_dispatch(tmp_path):
    # With every CPU feature numpy dispatches to on this host switched off,
    # numpy's SIMD loops give way to the baseline ones, whose
    # transcendental functions may round differently.  The search ranks
    # candidates with numpy's haversine tables, and must still give the
    # same bytes.
    features = _dispatched_features()
    if not features:
        pytest.skip("numpy dispatches to no CPU feature on this host: nothing to switch off")
    from isoscan.cli import main

    data_dir = tmp_path / "tiles"
    args = ["synth", "--tiles", "2x2", "--seed", "3", "--profile", "fractal"]
    assert main(args + ["--out", str(data_dir), "--samples-per-side", "61"]) == 0
    src = Path(geo.__file__).resolve().parents[1]
    reports = []
    for disabled in ("", " ".join(features)):
        out_dir = tmp_path / f"out{len(reports)}"
        out_dir.mkdir()
        env = dict(os.environ, PYTHONPATH=str(src), NPY_DISABLE_CPU_FEATURES=disabled)
        proc = subprocess.run(
            [sys.executable, "-c", _DISPATCH_PROBE, str(data_dir), str(out_dir)],
            env=env, capture_output=True, text=True, check=True,
        )
        reports.append(json.loads(proc.stdout.splitlines()[-1]))
    default, baseline = reports
    assert default["enabled"] == features and baseline["enabled"] == []
    assert baseline["csvs"] == default["csvs"]


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
