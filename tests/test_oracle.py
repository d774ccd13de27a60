"""The brute-force reference itself, validated on hand-computed grids."""

from __future__ import annotations

import numpy as np
import pytest

from isoscan.dem import PEAK_DTYPE, Peak, Tile, detect_peaks, generate_synthetic
from isoscan.geo import GeoPoint
from isoscan.multipass import ilp_results, peak_rows
from isoscan.oracle import SampleUniverse, brute_force_all
from isoscan.spatial_index import EllipsoidMetric, GreatCircleMetric
from isoscan.sweep import IlpResult


def tile_5x5(grid, origin=(45, 7)) -> Tile:
    return Tile(origin[0], origin[1], np.asarray(grid, dtype=np.int16), 4)


def peak_at(tile: Tile, i: int, j: int) -> Peak:
    return Peak(tile.sample_point(i, j), int(tile.elevations[i, j]), tile.key)


def oracle_result(peak: Peak, universe: SampleUniverse, metric) -> IlpResult:
    """The oracle's answer for one peak."""
    row = np.array([(*peak.location, peak.elevation_m, *peak.home_tile, np.inf)], dtype=PEAK_DTYPE)
    (result,) = ilp_results(brute_force_all(row, universe, metric))
    return result


class TestHandComputedGrids:
    def test_single_sample_universe_has_no_higher(self):
        tile = tile_5x5(np.full((5, 5), 100))
        universe = SampleUniverse.from_tiles([tile])
        res = oracle_result(peak_at(tile, 2, 2), universe, GreatCircleMetric())
        assert res.ilp is None and res.isolation_m is None

    def test_one_higher_sample_is_the_answer(self):
        grid = np.zeros((5, 5), dtype=np.int16)
        grid[2, 2] = 50
        grid[0, 4] = 60
        tile = tile_5x5(grid)
        metric = GreatCircleMetric()
        res = oracle_result(peak_at(tile, 2, 2), SampleUniverse.from_tiles([tile]), metric)
        assert res.ilp == tile.sample_point(0, 4)
        assert res.isolation_m == metric.distance(tile.sample_point(2, 2), tile.sample_point(0, 4))

    def test_nearer_of_two_higher_samples_wins(self):
        # peak at center; higher samples one step east and two steps west:
        # the east one is closer by construction
        grid = np.zeros((5, 5), dtype=np.int16)
        grid[2, 2] = 50
        grid[2, 3] = 70
        grid[2, 0] = 80
        tile = tile_5x5(grid)
        metric = GreatCircleMetric()
        res = oracle_result(peak_at(tile, 2, 2), SampleUniverse.from_tiles([tile]), metric)
        assert res.ilp == tile.sample_point(2, 3)

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
        res = oracle_result(peak_at(tile, 2, 2), SampleUniverse.from_tiles([tile]), metric)
        assert res.ilp == south  # smaller latitude


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
            peak = peak_at(tile, i, j)
            got = oracle_result(peak, universe, metric)
            best = None
            for idx in range(len(universe)):
                if universe.elevations[idx] <= peak.elevation_m:
                    continue
                pt = GeoPoint(universe.lats[idx], universe.lngs[idx])
                d = metric.distance(peak.location, pt)
                if best is None or (d, pt) < best:
                    best = (d, pt)
            if best is None:
                assert got.ilp is None
            else:
                assert (got.isolation_m, got.ilp) == best


class TestBruteForceAll:
    def test_sorted_by_location(self):
        tiles = generate_synthetic(1, 1, seed=33, profile="cones", samples_per_side=41, n_cones=4)
        tile = tiles[0]
        rows, cols = np.divmod(detect_peaks(tile), tile.shape[1])
        universe = SampleUniverse.from_tiles([tile])
        metric = GreatCircleMetric()
        results = ilp_results(brute_force_all(peak_rows(tile, rows, cols), universe, metric))
        locations = [r.peak.location for r in results]
        assert locations == sorted(locations)
        # Each answer is the one a query of its peak alone gets.
        assert results == [oracle_result(r.peak, universe, metric) for r in results]
