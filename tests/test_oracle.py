"""The brute-force reference itself, validated on hand-computed grids."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoscan.dem import Tile, detect_peaks, generate_synthetic
from isoscan.geo import MEAN_RADIUS_M, GeoPoint, great_circle_distance
from isoscan.multipass import peak_rows, result_differences
from isoscan.oracle import SampleUniverse, _to_cartesian, brute_force_all
from isoscan.spatial_index import EllipsoidMetric, GreatCircleMetric
from isoscan.sweep import ResultArrays

points = st.builds(GeoPoint, st.floats(-89.5, 89.5), st.floats(-179.999, 180.0))


def tile_5x5(grid, origin=(45, 7)) -> Tile:
    return Tile(origin[0], origin[1], np.asarray(grid, dtype=np.int16), 4)


def oracle_answer(tile: Tile, i: int, j: int, metric=GreatCircleMetric(), universe=None):
    """The oracle's (distance, lat, lng) answer for the tile's sample (i, j),
    over ``universe`` or else the tile's own samples."""
    universe = SampleUniverse.from_tiles([tile]) if universe is None else universe
    row = peak_rows(tile, np.array([i]), np.array([j]))
    (answer,) = brute_force_all(row, universe, metric).answers.tolist()
    return answer


class TestHandComputedGrids:
    def test_single_sample_universe_has_no_higher(self):
        tile = tile_5x5(np.full((5, 5), 100))
        assert np.isnan(oracle_answer(tile, 2, 2)).all()

    def test_one_higher_sample_is_the_answer(self):
        grid = np.zeros((5, 5), dtype=np.int16)
        grid[2, 2] = 50
        grid[0, 4] = 60
        tile = tile_5x5(grid)
        higher = tile.sample_point(0, 4)
        distance = GreatCircleMetric().distance(tile.sample_point(2, 2), higher)
        assert oracle_answer(tile, 2, 2) == (distance, *higher)

    def test_nearer_of_two_higher_samples_wins(self):
        # peak at center; higher samples one step east and two steps west:
        # the east one is closer by construction
        grid = np.zeros((5, 5), dtype=np.int16)
        grid[2, 2] = 50
        grid[2, 3] = 70
        grid[2, 0] = 80
        tile = tile_5x5(grid)
        assert oracle_answer(tile, 2, 2)[1:] == tile.sample_point(2, 3)

    def test_equidistant_tie_breaks_by_lat_lng(self):
        # two higher samples exactly one grid step north and south of the
        # peak on the same meridian: equal distance, southern point wins
        grid = np.zeros((5, 5), dtype=np.int16)
        grid[2, 2] = 50
        grid[1, 2] = 60
        grid[3, 2] = 60
        tile = tile_5x5(grid)
        metric = GreatCircleMetric()
        north = tile.sample_point(1, 2)
        south = tile.sample_point(3, 2)
        assert metric.distance(tile.sample_point(2, 2), north) == metric.distance(
            tile.sample_point(2, 2), south
        )
        assert oracle_answer(tile, 2, 2)[1:] == south  # smaller latitude


class TestSeamDeduplication:
    def test_universe_size_excludes_duplicates(self):
        tiles = generate_synthetic(2, 2, seed=30, profile="fractal", samples_per_side=41)
        universe = SampleUniverse.from_tiles(tiles)
        assert len(universe) == 81 * 81  # merged grid, each sample once

    def test_conflicting_seams_rejected(self):
        tiles = generate_synthetic(1, 2, seed=31, profile="plateau", samples_per_side=31)
        bad = tiles[1].elevations.copy()
        bad[:, 0] += 5
        tiles[1] = Tile(
            tiles[1].origin_lat, tiles[1].origin_lng, bad, tiles[1].steps_per_degree
        )
        with pytest.raises(ValueError):
            SampleUniverse.from_tiles(tiles)


class TestChordScreenExactness:
    @pytest.mark.parametrize("metric", [GreatCircleMetric(), EllipsoidMetric()])
    def test_matches_pure_scalar_scan(self, metric):
        tiles = generate_synthetic(1, 1, seed=32, profile="fractal", samples_per_side=31)
        tile = tiles[0]
        universe = SampleUniverse.from_tiles([tile])
        rng = np.random.default_rng(4)
        sample_pts = [
            (int(i), int(j))
            for i, j in zip(rng.integers(0, 31, 25), rng.integers(0, 31, 25))
        ]
        for i, j in sample_pts:
            location = tile.sample_point(i, j)
            distance, *ilp = oracle_answer(tile, i, j, metric, universe)
            best = None
            for idx in range(len(universe)):
                if universe.elevations[idx] <= tile.elevations[i, j]:
                    continue
                pt = GeoPoint(universe.lats[idx], universe.lngs[idx])
                d = metric.distance(location, pt)
                if best is None or (d, pt) < best:
                    best = (d, pt)
            if best is None:
                assert np.isnan(distance)
            else:
                assert (distance, tuple(ilp)) == best


class TestBruteForceAll:
    def test_sorted_by_location(self):
        tiles = generate_synthetic(1, 1, seed=33, profile="cones", samples_per_side=41, n_cones=4)
        tile = tiles[0]
        rows, cols = np.divmod(detect_peaks(tile), tile.shape[1])
        universe = SampleUniverse.from_tiles([tile])
        metric = GreatCircleMetric()
        arrays = brute_force_all(peak_rows(tile, rows, cols), universe, metric)
        locations = arrays.peaks[["lat", "lng"]].tolist()
        assert locations == sorted(locations)
        # Each answer is the one a query of its peak alone gets.
        alone = [brute_force_all(p, universe, metric) for p in np.split(arrays.peaks, len(rows))]
        alone = ResultArrays(*(np.concatenate(part) for part in zip(*alone)))
        assert result_differences("all", arrays, "alone", alone) == []


class TestCartesian:
    def test_axes(self):
        assert _to_cartesian(GeoPoint(0, 0)) == pytest.approx((1, 0, 0), abs=1e-15)
        assert _to_cartesian(GeoPoint(0, 90)) == pytest.approx((0, 1, 0), abs=1e-15)
        assert _to_cartesian(GeoPoint(90, 123)) == pytest.approx((0, 0, 1), abs=1e-15)

    @given(points)
    @settings(max_examples=200)
    def test_unit_norm(self, p):
        assert math.hypot(*_to_cartesian(p)) == pytest.approx(1.0, abs=1e-12)

    @given(points, points)
    @settings(max_examples=100)
    def test_matches_the_great_circle_angle(self, a, b):
        (ax, ay, az), (bx, by, bz) = _to_cartesian(a), _to_cartesian(b)
        cross = (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
        expected = MEAN_RADIUS_M * math.atan2(math.hypot(*cross), ax * bx + ay * by + az * bz)
        assert great_circle_distance(a, b) == pytest.approx(expected, rel=1e-9, abs=1e-6)
