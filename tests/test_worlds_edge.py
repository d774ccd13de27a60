"""Equivalence on less convenient geographies and pipeline parameters."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import assert_legs_agree, assert_same_run
from isoscan.cli import main
from isoscan.dem import Tile, downsample, generate_synthetic, hgt_filename, save_hgt
from isoscan.multipass import audit_pipeline, result_differences, run_pipeline
from isoscan.oracle import SampleUniverse, brute_force_all
from isoscan.quad import Quadrilateral
from isoscan.spatial_index import EllipsoidMetric


def check_world(rows, cols, seed, origin, profile="fractal", n=41, distance_mode="staged"):
    tiles = generate_synthetic(
        rows, cols, seed=seed, profile=profile, samples_per_side=n, origin=origin
    )
    area = Quadrilateral(origin[0], origin[0] + rows, origin[1], origin[1] + cols)
    return assert_legs_agree(area, tiles, distance_mode)


class TestGeographies:
    def test_southern_western_hemisphere(self):
        check_world(2, 2, seed=70, origin=(-46, -73))

    def test_straddling_the_equator(self):
        check_world(2, 1, seed=71, origin=(-1, 30))

    def test_high_latitude_anisotropy(self):
        # at 72 degrees north a longitude step is ~3x shorter than a
        # latitude step, stressing split-axis choice and the quadrilateral bounds
        check_world(2, 2, seed=72, origin=(72, 7))

    def test_edge_of_longitude_domain(self):
        check_world(1, 2, seed=73, origin=(10, 178))  # east edge at 180

    def test_west_edge_on_the_antimeridian(self):
        # Column 0 of the western tiles lies at lng -180.0; an answer there
        # reports lng 180.0, as GeoPoint wraps it, and so does the CSV.
        outcome = check_world(2, 2, seed=75, origin=(10, -180))
        lngs = outcome.arrays.answers["lng"]
        assert (lngs == 180.0).any() and not (lngs == -180.0).any()


class TestPoleRow:
    @pytest.mark.parametrize("distance_mode", ["staged", "great-circle-only"])
    def test_world_at_the_north_pole(self, distance_mode):
        # Row 0 of the northern tiles is the pole, one physical point that
        # the grid holds once per column.  This pins only that the three
        # legs agree there, not what the pole's peaks should be.
        outcome = check_world(3, 3, seed=46, origin=(87, 7), distance_mode=distance_mode)
        assert (outcome.arrays.peaks["lat"] == 90).sum() == 10


class TestMixedResolutions:
    AREA = Quadrilateral(45, 46, 7, 9)

    def tiles(self):
        """A 1x2 area cut from one world: the west tile at 60 steps per
        degree, the east tile decimated to 30."""
        west, east = generate_synthetic(1, 2, seed=9, profile="fractal", samples_per_side=61)
        return [west, downsample(east, 2)]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pipeline_matches_the_oracle(self, threads):
        tiles = self.tiles()
        outcome = run_pipeline(self.AREA, {t.key: t for t in tiles}, i_min=0.0, threads=threads)
        universe = SampleUniverse.from_tiles(tiles)
        reference = brute_force_all(outcome.arrays.peaks, universe, EllipsoidMetric())
        assert len(outcome.arrays.peaks) == 151
        assert result_differences("pipeline", outcome.arrays, "oracle", reference) == []
        assert audit_pipeline(outcome) == []

    @pytest.mark.parametrize("mode", ["single-sweep", "oracle-check"])
    def test_reference_modes_refuse_the_area(self, tmp_path, capsys, mode):
        data = tmp_path / "tiles"
        data.mkdir()
        for tile in self.tiles():
            save_hgt(tile, data / hgt_filename(*tile.key))
        argv = ["compute", "--data-dir", str(data), "--bounds", "45", "46", "7", "9"]
        assert main([*argv, "--threads", "1", "--mode", mode]) == 1
        assert (
            "bad configuration: mixed resolutions cannot be merged: tile (45, 7) has 60 "
            "steps per degree, tile (45, 8) has 30"
        ) in capsys.readouterr().err


class TestParameters:
    def test_two_tiles_of_61_samples(self):
        check_world(1, 2, seed=74, origin=(45, 7), n=61)

    def test_one_tile_world(self):
        check_world(1, 1, seed=75, origin=(45, 7), n=41)

    def test_non_square_world(self):
        check_world(1, 3, seed=77, origin=(45, 7), n=41)

    def test_cones_world_southern(self):
        outcome = check_world(2, 2, seed=78, origin=(-30, 100), profile="cones", n=61)
        assert np.isnan(outcome.arrays.answers["distance"]).sum() == 1


class TestExtremeDeferral:
    def test_tile_high_points_take_the_high_point_route(self):
        # A full-resolution bounding search defers exactly the peaks with
        # nothing higher in their tile: every tile's high point, which the
        # high-point pass then bounds by a higher tile
        tiles = generate_synthetic(2, 2, seed=79, samples_per_side=41, profile="fractal")
        area = Quadrilateral(45, 47, 7, 9)
        by_key = {t.key: t for t in tiles}
        serial = assert_legs_agree(area, by_key)
        highs = {t.sample_point(*np.unravel_index(t.elevations.argmax(), t.shape)) for t in tiles}
        assert serial.stats.deferred >= len(highs) >= 2
        assert_same_run(serial, run_pipeline(area, by_key, i_min=0.0, threads=2))


class TestWorldBoundsGuards:
    def test_tile_crossing_antimeridian_rejected(self):
        with pytest.raises(ValueError, match="antimeridian"):
            Tile(10, 180, np.zeros((5, 5), dtype=np.int16), 4)

    def test_tile_off_the_globe_rejected(self):
        with pytest.raises(ValueError, match="globe"):
            Tile(90, 0, np.zeros((5, 5), dtype=np.int16), 4)

    def test_synthetic_world_at_domain_edge_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 2, seed=0, samples_per_side=31, origin=(10, 179))
