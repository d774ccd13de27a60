"""Bounding, high-point, and finalization passes plus pipeline equivalence."""

from __future__ import annotations

import ast
import dataclasses
import io
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    answer_at,
    area_peaks,
    assert_bounds_hold,
    assert_legs_agree,
    assert_same_run,
    locate,
    tile_peaks,
)
from isoscan import dem, multipass, spatial_index
from isoscan.cli import write_csv
from isoscan.dem import (
    Tile,
    detect_peaks,
    generate_synthetic,
    qualifying_samples,
)
from isoscan.geo import GeoPoint, great_circle_distance, great_circle_distance_many
from isoscan.multipass import (
    ANSWER_DTYPE,
    BOUND_INFLATION,
    CANDIDATE_DTYPE,
    PEAK_DTYPE,
    Assignment,
    MissingTilesError,
    ResultArrays,
    area_tile_keys,
    assign_tiles,
    audit_pipeline,
    bounding_pass,
    distinct_peaks,
    dominated_samples,
    finalization_pass,
    finalize,
    highpoint_pass,
    ilp_results,
    peak_rows,
    result_arrays,
    result_differences,
    run_merged_sweep,
    run_pipeline,
    tile_keys_within,
    tile_quad,
)
from isoscan.oracle import SampleUniverse, brute_force_all
from isoscan.quad import Quadrilateral, min_distance
from isoscan.spatial_index import (
    ElevationPyramid,
    EllipsoidMetric,
    GreatCircleMetric,
    SearchWork,
    TileIndex,
)


def world(rows, cols, seed, profile="fractal", n=61, **kw):
    tiles = generate_synthetic(rows, cols, seed=seed, profile=profile, samples_per_side=n, **kw)
    area = Quadrilateral(45, 45 + rows, 7, 7 + cols)
    return area, {t.key: t for t in tiles}


def locations(rows: np.ndarray) -> list[GeoPoint]:
    """The location of each PEAK_DTYPE row."""
    return [GeoPoint(lat, lng) for lat, lng in zip(rows["lat"].tolist(), rows["lng"].tolist())]


def assigned_pairs(outcome) -> set[tuple[tuple[int, int], GeoPoint]]:
    """The (tile key, peak location) pairs of a pipeline run's assignment."""
    peak_at = locations(outcome.arrays.peaks)
    tiles, peaks, _bounds = (a.tolist() for a in outcome.assignment)
    return {(outcome.tile_keys[t], peak_at[k]) for t, k in zip(tiles, peaks)}


def qualifying_locations(tiles) -> set[GeoPoint]:
    """Every sample with no strictly higher 8-neighbour in its tile, each location once."""
    return {
        t.sample_point(i, j)
        for t in tiles
        for i, j in zip(*(a.tolist() for a in np.nonzero(qualifying_samples(t.elevations))))
    }


def fates(outcome, i_min: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The bounded and deferred rows of a bounding outcome and the count of
    its discards, as run_pipeline reads them: a row is deferred while its
    bound is inf, and discarded, like a sample the dilation dominates, when
    its bound is below ``i_min``."""
    rows = outcome.searched
    deferred = np.isinf(rows["bound"])
    low = rows["bound"] < i_min
    return rows[~deferred & ~low], rows[deferred], outcome.dilation_discards + int(low.sum())


def peak_array(*rows) -> np.ndarray:
    """PEAK_DTYPE rows from (lat, lng, elevation, home_lat, home_lng, bound) tuples."""
    return np.array(list(rows), dtype=PEAK_DTYPE)


class TestBoundingPass:
    def test_bounds_dominate_oracle_isolation(self):
        area, tiles = world(2, 2, seed=40)
        metric = EllipsoidMetric()
        universe = SampleUniverse.from_tiles(tiles.values())
        for tile in tiles.values():
            rows, _deferred, _discarded = fates(bounding_pass([tile], 0.0, "staged"), 0.0)
            reference = brute_force_all(rows, universe, metric)
            isolation = reference.answers["distance"][locate(reference.peaks, rows)]
            assert (rows["bound"] >= isolation).all()  # False for a NaN

    def test_infinite_threshold_discards_all_bounded(self):
        area, tiles = world(1, 1, seed=41)
        outcome = bounding_pass([next(iter(tiles.values()))], math.inf, "staged")
        bounded, deferred, discarded = fates(outcome, math.inf)
        assert len(bounded) == 0
        assert discarded > 0
        assert len(deferred)  # the tile high point always defers

    def test_high_point_always_deferred(self):
        area, tiles = world(1, 1, seed=42)
        tile = next(iter(tiles.values()))
        outcome = bounding_pass([tile], 0.0, "staged")
        _bounded, deferred, _discarded = fates(outcome, 0.0)
        deferred_elevs = set(deferred["elevation"].tolist())
        assert tile.max_elevation_m in deferred_elevs

    @pytest.mark.parametrize(
        "mode, metric", [("staged", EllipsoidMetric()), ("great-circle-only", GreatCircleMetric())]
    )
    def test_bounds_are_the_inflated_in_tile_isolation(self, mode, metric):
        # The bounding search is the final metric's full-resolution search,
        # so each answer is the peak's nearest higher sample in its tile and
        # each bound that distance times the inflation factor, exactly.
        area, tiles = world(1, 1, seed=43, profile="cones", n=121)
        tile = next(iter(tiles.values()))
        outcome = bounding_pass([tile], 0.0, mode)
        bounded, _deferred, _discarded = fates(outcome, 0.0)
        universe = SampleUniverse.from_tiles([tile])
        reference = brute_force_all(outcome.searched, universe, metric)
        assert len(bounded) > 0
        isolation = reference.answers["distance"][locate(reference.peaks, bounded)]
        assert np.array_equal(bounded["bound"], isolation * BOUND_INFLATION)
        answers = outcome.answers
        at = locate(reference.peaks, outcome.searched[answers["peak"]])
        for name in ("distance", "lat", "lng"):
            assert np.array_equal(answers[name], reference.answers[name][at])


@st.composite
def spiked_tiles(draw):
    """A flat tile with seeded spikes, and samples to test: every spike plus random ones.

    Origins cover both hemispheres, a tile touching the equator and tiles
    beyond 60 degrees; steps per degree cover 1", 3" and coarse grids.
    """
    lat = draw(st.sampled_from([-75, -46, -1, 0, 45, 61]))
    spd = draw(st.sampled_from([3600, 1200, 120, 8]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    grid = np.zeros((spd + 1, spd + 1), dtype=np.int16)
    spikes = int(rng.integers(1, 400))
    spike_rows = rng.integers(0, spd + 1, spikes)
    spike_cols = rng.integers(0, spd + 1, spikes)
    grid[spike_rows, spike_cols] = rng.integers(1, 1000, spikes)
    rows = np.concatenate([spike_rows, rng.integers(0, spd + 1, 200)])
    cols = np.concatenate([spike_cols, rng.integers(0, spd + 1, 200)])
    tile = Tile(lat, 7, grid, spd)
    return tile, rows * (spd + 1) + cols


class TestDilationDiscard:
    @given(spiked_tiles(), st.sampled_from([0.0, 1000.0, 20000.0, math.inf]))
    @settings(max_examples=30, deadline=None)
    def test_every_discard_has_a_closer_higher_sample(self, case, i_min):
        tile, samples = case
        radius = i_min / BOUND_INFLATION
        dominated = dominated_samples([tile], tile.elevations[None], radius)[0].flat[samples]
        if i_min == 0.0:
            assert not dominated.any()
        lats, lngs = tile.sample_lats(), tile.sample_lngs()
        higher_rows, higher_cols = np.nonzero(tile.elevations)
        heights = tile.elevations[higher_rows, higher_cols]
        for lat, lng, elevation, *_ in tile_peaks(tile, samples[dominated]).tolist():
            higher = heights > elevation
            dists = great_circle_distance_many(
                lats[higher_rows[higher]], lngs[higher_cols[higher]], lat, lng
            )
            assert dists.min() < radius

    @pytest.mark.parametrize("margin, discarded", [(1e-6, True), (-1e-6, False)])
    def test_higher_sample_at_the_radius(self, margin, discarded):
        # Both samples lie on the tile's equatorward edge, where the
        # footprint's distance bound is exact, three columns apart.
        grid = np.zeros((121, 121), dtype=np.int16)
        grid[120, 40], grid[120, 43] = 100, 200
        tile = Tile(45, 7, grid, 120)
        cells = detect_peaks(tile)
        d = great_circle_distance(tile.sample_point(120, 40), tile.sample_point(120, 43))
        i_min = d * BOUND_INFLATION * (1.0 + margin)
        radius = i_min / BOUND_INFLATION
        assert dominated_samples([tile], tile.elevations[None], radius)[0, 120, 40] == discarded
        search = SearchWork()
        outcome = bounding_pass([tile], i_min, "staged", search)
        assert search.queries == len(cells) - int(discarded)
        bounded = locations(fates(outcome, i_min)[0])
        assert (tile.sample_point(120, 40) in bounded) == (not discarded)

    def test_counts_add_up_without_flat_samples(self):
        # No two samples are equal, so every qualifying sample is a peak of
        # its own: the dilation discards some and every other one is searched.
        grid = np.random.default_rng(68).permutation(121 * 121).reshape(121, 121)
        tile = Tile(45, 7, grid.astype(np.int16), 120)
        stats = run_pipeline(tile.quad, [tile], i_min=5000.0).stats
        assert stats.dilation_discards > 0
        assert stats.bounding.queries > 0
        assert stats.bounding.queries == stats.peaks_found - stats.dilation_discards
        assert stats.peaks_found == len(detect_peaks(tile))

    def test_flat_summits_search_at_most_the_undominated_samples(self):
        area, tiles = world(1, 1, seed=68, n=121)
        tile = tiles[(45, 7)]
        stats = run_pipeline(area, tiles, i_min=2000.0).stats
        assert len(detect_peaks(tile)) < qualifying_samples(tile.elevations).sum() == stats.peaks_found
        assert stats.dilation_discards > 0
        assert 0 < stats.bounding.queries <= stats.peaks_found - stats.dilation_discards

    def test_seam_samples_count_once(self):
        area, tiles = world(2, 2, seed=68, n=61)
        stats = run_pipeline(area, tiles, i_min=2000.0).stats
        assert stats.peaks_found == len(qualifying_locations(tiles.values()))
        assert stats.peaks_found < sum(int(qualifying_samples(t.elevations).sum()) for t in tiles.values())

    @staticmethod
    def flat_summit_tile(*spike_cols: int) -> tuple[Tile, float]:
        """A two-sample flat summit at 100 m on the equatorward edge, columns
        40 and 41, with 200 m spikes at ``spike_cols``, and a threshold whose
        dilation reaches 3 columns but not 4."""
        grid = np.zeros((121, 121), dtype=np.int16)
        grid[120, 40] = grid[120, 41] = 100
        grid[120, list(spike_cols)] = 200
        tile = Tile(45, 7, grid, 120)
        d = great_circle_distance(tile.sample_point(120, 40), tile.sample_point(120, 43))
        return tile, d * BOUND_INFLATION * (1.0 + 1e-6)

    @staticmethod
    def record_labelling(monkeypatch) -> tuple[list[int], list[int]]:
        """Elevations of the seeds and of the members of the flat summits
        detect_peaks labels."""
        seeded, labelled = [], []
        real = dem._flat_members

        def recording(elev, shape, seeds):
            members = real(elev, shape, seeds)
            seeded.extend(elev[seeds].tolist())
            labelled.extend(elev[members].tolist())
            return members

        monkeypatch.setattr(dem, "_flat_members", recording)
        return seeded, labelled

    def test_flat_summit_with_a_dominated_representative_is_discarded(self, monkeypatch):
        # The spike dominates the NW-most member (3 columns away) but not the
        # other (4 columns): the summit is seeded from the survivor, both
        # members are labelled, and its representative, the dominated member,
        # is discarded as before.
        tile, i_min = self.flat_summit_tile(37)
        assert tile.sample_point(120, 40) in locations(tile_peaks(tile))
        seeded, labelled = self.record_labelling(monkeypatch)
        outcome = bounding_pass([tile], i_min, "staged")
        assert seeded.count(100) == 1
        assert labelled.count(100) == 2
        assert 100 not in outcome.searched["elevation"].tolist()
        assert outcome.dilation_discards >= 1

    def test_flat_summit_dominated_everywhere_is_never_walked(self, monkeypatch):
        tile, i_min = self.flat_summit_tile(37, 44)
        seeded, labelled = self.record_labelling(monkeypatch)
        outcome = bounding_pass([tile], i_min, "staged")
        assert 100 not in seeded and 100 not in labelled
        assert 0 in seeded and 0 in labelled  # the plateau around it is labelled
        assert 100 not in outcome.searched["elevation"].tolist()

    def test_qualifying_mask_computed_once_per_batch(self, monkeypatch):
        # The batch's mask is made once, on its stacked grid, and
        # detect_peaks takes it from bounding_pass.
        calls = []
        real = dem.qualifying_samples

        def counting(grid):
            calls.append(grid.shape)
            return real(grid)

        monkeypatch.setattr(dem, "qualifying_samples", counting)
        monkeypatch.setattr(multipass, "qualifying_samples", counting)
        area, tiles = world(1, 3, seed=68, n=121)
        outcome = bounding_pass(list(tiles.values()), 2000.0, "staged")
        assert calls == [(3, 121, 121)]
        assert len(outcome.searched) > 0

    def test_search_counts_of_a_one_tile_run(self):
        area, tiles = world(1, 1, seed=68, n=121)
        outcome = run_pipeline(area, tiles, i_min=2000.0, threads=1)
        stats = outcome.stats
        # In one tile the bounding pass answers every pair: every kept peak
        # but the high point has its candidate from there.
        candidates = np.count_nonzero(~np.isnan(outcome.arrays.answers["distance"]))
        answered = stats.bounding.queries - stats.deferred
        assert answered >= candidates > 0
        assert stats.finalization.queries == 0
        # A query with a higher sample that its window does not settle keeps
        # at least one pair per level of the descent and computes at least
        # one leaf distance; the deferred peaks have none.
        descended = answered - stats.bounding.window_resolved
        levels = len(ElevationPyramid([tiles[(45, 7)]]).levels)
        assert stats.bounding.pairs >= descended * levels
        assert stats.bounding.leaf_samples >= descended

    def test_window_resolves_queries_of_both_passes(self):
        area, tiles = world(2, 2, seed=69, n=121)
        stats = run_pipeline(area, tiles, i_min=0.0, threads=1).stats
        assert 0 < stats.bounding.window_resolved <= stats.bounding.queries
        assert 0 < stats.finalization.window_resolved <= stats.finalization.queries


def seam_world(*spikes: tuple[int, int, int]) -> tuple[Quadrilateral, dict]:
    """Tiles (45, 7) and (45, 8) of 21 samples a side on flat ground at 0 m,
    with spikes of (row, world column, elevation); world column 20 is the
    seam."""
    grid = np.zeros((21, 41), dtype=np.int16)
    for row, col, elevation in spikes:
        grid[row, col] = elevation
    west = Tile(45, 7, np.ascontiguousarray(grid[:, :21]), 20)
    east = Tile(45, 8, np.ascontiguousarray(grid[:, 20:]), 20)
    return Quadrilateral(45, 46, 7, 9), {west.key: west, east.key: east}


def recorded_finalization(monkeypatch) -> list:
    """The (tile key, peak location) of every pair the finalization pass is sent."""
    sent = []
    real = multipass.finalization_pass

    def recording(tiles, peaks, positions, metric, search=None):
        sent.extend((tiles[t].key, loc) for t, loc in zip(positions, locations(peaks)))
        return real(tiles, peaks, positions, metric, search)

    monkeypatch.setattr(multipass, "finalization_pass", recording)
    return sent


class TestSearchOnce:
    @pytest.mark.parametrize("foreign_col, foreign_wins", [(22, True), (26, False)])
    def test_closest_candidate_over_home_and_foreign_tiles(self, foreign_col, foreign_wins):
        # A peak 3 columns west of the seam, a higher sample 7 columns west
        # in its home tile, and one across the seam, 5 or 9 columns east.
        area, tiles = seam_world((10, 17, 100), (10, 10, 200), (10, foreign_col, 300))
        west = tiles[(45, 7)]
        outcome = assert_legs_agree(area, tiles)
        home = west.sample_point(10, 10)
        foreign = tiles[(45, 8)].sample_point(10, foreign_col - 20)
        got = answer_at(outcome.arrays, west.sample_point(10, 17))
        assert got[1:] == (foreign if foreign_wins else home)

    def test_seam_peak_is_not_searched_again(self, monkeypatch):
        # A seam peak qualifies in both tiles, so both search it in the
        # bounding pass; both pairs are assigned and neither goes to
        # finalization.
        area, tiles = seam_world((10, 20, 100), (10, 14, 200), (10, 27, 300))
        sent = recorded_finalization(monkeypatch)
        outcome = run_pipeline(area, tiles, i_min=0.0)
        seam = tiles[(45, 7)].sample_point(10, 20)
        assert {((45, 7), seam), ((45, 8), seam)} <= assigned_pairs(outcome)
        assert sent and seam not in [loc for _key, loc in sent]
        assert answer_at(outcome.arrays, seam)[1:] == tiles[(45, 7)].sample_point(10, 14)

    def test_seam_peak_one_tile_discards_keeps_its_smallest_home_tile(self, monkeypatch):
        # Tiles (45, 7) and (46, 7) of 21 samples a side on flat ground,
        # world row 20 the seam: a 100 m seam peak, a 200 m sample two rows
        # south and a 300 m one 18 rows north.  The south tile bounds the
        # peak just below the threshold and discards it; the north tile
        # keeps it.
        grid = np.zeros((41, 21), dtype=np.int16)
        grid[20, 10], grid[22, 10], grid[2, 10] = 100, 200, 300
        north = Tile(46, 7, np.ascontiguousarray(grid[:21]), 20)
        south = Tile(45, 7, np.ascontiguousarray(grid[20:]), 20)
        area, tiles = Quadrilateral(45, 47, 7, 8), {north.key: north, south.key: south}
        seam, below = south.sample_point(0, 10), south.sample_point(2, 10)
        i_min = BOUND_INFLATION * (great_circle_distance(seam, below) - 3.0)
        rows = bounding_pass([south], i_min, "staged").searched
        assert rows["bound"][locations(rows).index(seam)] < i_min
        sent = recorded_finalization(monkeypatch)
        outcome = run_pipeline(area, tiles, i_min=i_min)
        assert answer_at(outcome.arrays, seam)[1:] == below
        assert (south.key, seam) not in sent
        swept = run_merged_sweep(area, tiles, EllipsoidMetric())
        for peaks in (outcome.arrays.peaks, swept.peaks):
            at_seam = (peaks["lat"] == seam[0]) & (peaks["lng"] == seam[1])
            assert peaks[["home_lat", "home_lng"]][at_seam].tolist() == [south.key]
        assert stats_counts(outcome.stats) == {
            "tiles": 2,
            "samples": 882,
            "peaks_found": 840,
            "peaks_kept": 5,
            "deferred": 2,
            "discarded": 19,
            "dilation_discards": 18,
            "bounding": {"queries": 6, "window_resolved": 1, "pairs": 9, "leaf_samples": 4},
            "finalization": {"queries": 2, "window_resolved": 0, "pairs": 7, "leaf_samples": 2},
            "assign_candidates": 7,
            "assigned_pairs": 7,
        }

    def test_finalization_searches_only_the_pairs_left(self):
        area, tiles = world(2, 2, seed=69, n=61)
        outcome = run_pipeline(area, tiles, i_min=0.0)
        stats = outcome.stats
        searched = {
            key: set(locations(bounding_pass([t], 0.0, "staged").searched))
            for key, t in tiles.items()
        }
        peaks = outcome.arrays.peaks
        answered = skipped = 0
        for t, k in zip(*(a.tolist() for a in outcome.assignment[:2])):
            key = outcome.tile_keys[t]
            if GeoPoint(peaks["lat"][k], peaks["lng"][k]) in searched[key]:
                answered += 1
            elif peaks["elevation"][k] >= tiles[key].max_elevation_m:
                # Nothing in the tile is higher: skipped without a query.
                skipped += 1
        assert answered > 0 and stats.finalization.queries > 0
        assert stats.finalization.queries == stats.assigned_pairs - answered - skipped

    @pytest.mark.parametrize("i_min", [0.0, 3000.0])
    def test_no_pair_is_searched_twice(self, monkeypatch, i_min):
        queried = []

        class Recording(ElevationPyramid):
            def __init__(self, tiles):
                super().__init__(tiles)
                self.keys = [t.key for t in tiles]

            def nearest_higher_many(self, lats, lngs, elevations, tiles, metric, work=None):
                queried.extend(
                    (self.keys[t], GeoPoint(a, b)) for a, b, t in zip(lats, lngs, tiles)
                )
                return super().nearest_higher_many(lats, lngs, elevations, tiles, metric, work)

        monkeypatch.setattr(multipass, "ElevationPyramid", Recording)
        area, tiles = world(2, 2, seed=70, n=61)
        stats = run_pipeline(area, tiles, i_min=i_min).stats
        assert len(queried) == len(set(queried)) > 0
        assert len(queried) == stats.bounding.queries + stats.finalization.queries


class TestHighpointPass:
    def test_single_tile_world_high_point_undefined(self):
        area, tiles = world(1, 1, seed=44)
        tile = next(iter(tiles.values()))
        _bounded, deferred, _discarded = fates(bounding_pass([tile], 0.0, "staged"), 0.0)
        (high,) = deferred[:1]
        index = TileIndex([(tile.key, high["lat"], high["lng"], high["elevation"])])
        bounds = highpoint_pass(index, deferred)
        no_higher_elevs = set(deferred["elevation"][np.isinf(bounds)].tolist())
        assert tile.max_elevation_m in no_higher_elevs

    def test_two_tile_bound_is_inflated_distance_to_higher_high_point(self):
        area, tiles = world(1, 2, seed=45)
        tile_a, tile_b = sorted(tiles.values(), key=lambda t: t.max_elevation_m)
        # tile_b holds the higher maximum; a's high point defers to b's
        high_a = fates(bounding_pass([tile_a], 0.0, "staged"), 0.0)[1]
        high_b = fates(bounding_pass([tile_b], 0.0, "staged"), 0.0)[1]
        assert len(high_a) == 1 and len(high_b) == 1
        index = TileIndex(
            (t.key, row["lat"], row["lng"], row["elevation"])
            for t, row in ((tile_a, high_a[0]), (tile_b, high_b[0]))
        )
        bounds = highpoint_pass(index, np.concatenate([high_a, high_b]))
        assert np.isinf(bounds[1])  # b's high point is the area's
        assert high_b["elevation"][0] > high_a["elevation"][0]
        want = great_circle_distance(*locations(high_a), *locations(high_b)) * BOUND_INFLATION
        assert bounds[0] == pytest.approx(want, rel=1e-12)

    def test_final_isolation_below_highpoint_bound(self):
        area, tiles = world(3, 3, seed=46, n=41)
        assert assert_bounds_hold(run_pipeline(area, tiles, i_min=0.0, threads=1)) > 0


def recorded_high_points(monkeypatch) -> list:
    """The (key, lat, lng, elevation) entries of every TileIndex run_pipeline builds."""
    entries = []

    class Recording(TileIndex):
        def __init__(self, items):
            items = list(items)
            entries.extend(items)
            super().__init__(items)

    monkeypatch.setattr(multipass, "TileIndex", Recording)
    return entries


class TestTileHighPoints:
    """Every tile of a run gives a deferred row at its maximum elevation, and
    that row is the tile's high point in the high-point pass's index."""

    def assert_high_points(self, monkeypatch, area, tiles):
        entries = recorded_high_points(monkeypatch)
        outcome = run_pipeline(area, tiles, i_min=0.0, threads=1)
        assert [key for key, *_ in entries] == sorted(tiles)
        for key, lat, lng, elevation in entries:
            tile = tiles[key]
            assert elevation == tile.max_elevation_m
            highest = zip(*np.nonzero(tile.elevations == tile.max_elevation_m))
            assert GeoPoint(lat, lng) in {tile.sample_point(int(i), int(j)) for i, j in highest}
        swept = run_merged_sweep(area, tiles, EllipsoidMetric())
        assert csv_text(outcome) == csv_text(dataclasses.replace(outcome, arrays=swept))
        assert audit_pipeline(outcome) == []
        return entries

    def test_plateau_topped_tiles(self, monkeypatch):
        area, tiles = world(2, 2, seed=63, profile="plateau", n=31)
        self.assert_high_points(monkeypatch, area, tiles)

    def test_maximum_on_a_seam(self, monkeypatch):
        # Both tiles' maximum is the seam sample they share, so their high
        # points tie at one location.
        area, tiles = seam_world((10, 20, 500), (5, 5, 200), (15, 35, 300))
        entries = self.assert_high_points(monkeypatch, area, tiles)
        assert {(lat, lng) for _, lat, lng, _ in entries} == {(45.5, 8.0)}

    def test_maximum_at_two_separate_samples(self, monkeypatch):
        # The west tile's maximum, 300, is at two samples far apart; both
        # defer, and the first in the tile's row order is its high point.
        area, tiles = seam_world((4, 4, 300), (16, 12, 300), (10, 30, 400))
        outcome = bounding_pass([tiles[(45, 7)]], 0.0, "staged")
        deferred = fates(outcome, 0.0)[1]
        assert sorted(deferred["elevation"].tolist()) == [300, 300]
        entries = self.assert_high_points(monkeypatch, area, tiles)
        assert entries[0] == ((45, 7), deferred["lat"][0], deferred["lng"][0], 300)

    def test_tile_without_a_deferred_row_raises(self, monkeypatch):
        # A batch that loses its tile high point must not shift the index.
        bounding = multipass.bounding_pass

        def lossy(tiles, *args):
            outcome = bounding(tiles, *args)
            last = outcome.searched[len(outcome.searched) - outcome.peak_counts[-1] :]
            last["bound"][np.isinf(last["bound"])] = 5000.0
            return outcome

        monkeypatch.setattr(multipass, "bounding_pass", lossy)
        area, tiles = world(1, 2, seed=45, n=31)
        with pytest.raises(RuntimeError, match=r"without a deferred peak: \[\(45, 8\)\]"):
            run_pipeline(area, tiles, i_min=0.0, threads=1)


class TestPointObjects:
    @staticmethod
    def count_points(monkeypatch) -> list:
        """The arguments of every GeoPoint made from now on, in any module."""
        made = []
        new = GeoPoint.__new__

        def counting(cls, *args):
            made.append(args)
            return new(cls, *args)

        monkeypatch.setattr(GeoPoint, "__new__", counting)
        return made

    @pytest.mark.parametrize("i_min", [0.0, 1000.0])
    def test_pipeline_makes_no_points(self, monkeypatch, i_min):
        # Every pass works on arrays: not one GeoPoint is made, in any
        # module, by a multi-tile run.
        area, tiles = world(3, 3, seed=46, n=41)
        made = self.count_points(monkeypatch)
        outcome = run_pipeline(area, tiles, i_min=i_min, threads=1)
        assert made == []
        assert outcome.stats.deferred >= len(tiles) > 1
        assert outcome.stats.finalization.queries > 0
        assert tiles[(45, 7)].sample_point(0, 0) and made  # the points made are counted

    def test_checks_make_points_only_for_what_they_report(self, monkeypatch):
        area, tiles = world(2, 2, seed=67, n=41)
        outcome = run_pipeline(area, tiles, i_min=0.0, threads=1)
        swept = run_merged_sweep(area, tiles, EllipsoidMetric())
        made = self.count_points(monkeypatch)
        monkeypatch.setattr(multipass, "ilp_results", None)  # nor IlpResult objects
        assert audit_pipeline(outcome) == []
        assert result_differences("pipeline", outcome.arrays, "sweep", swept) == []
        assert made == []
        swept.answers["distance"][3] += 1.0
        outcome.found["bound"][:2] = 0.0
        reported = audit_pipeline(outcome) + result_differences("a", outcome.arrays, "b", swept)
        assert len(reported) == len(made) == 3


class TestFinalizationPass:
    def test_peak_above_tile_max_yields_no_candidate(self):
        area, tiles = world(1, 1, seed=47)
        tile = next(iter(tiles.values()))
        too_high = peak_array((44.5, 6.5, tile.max_elevation_m + 100, 44, 6, 1e6))
        cands = finalization_pass([tile], too_high, np.zeros(1, dtype=int), EllipsoidMetric())
        assert len(cands) == 0

    def test_home_tile_assignment_matches_single_sweep(self):
        area, tiles = world(1, 1, seed=48)
        tile = next(iter(tiles.values()))
        metric = EllipsoidMetric()
        swept = run_merged_sweep(area, tiles, metric)
        search = SearchWork()
        rows = tile_peaks(tile)
        cands = finalization_pass([tile], rows, np.zeros(len(rows), dtype=int), metric, search)
        assert search.queries == len(cands)
        # Every peak with a higher sample gets the sweep's answer, and no other.
        at = locate(swept.peaks, rows[cands["peak"]])
        assert sorted(at.tolist()) == np.flatnonzero(~np.isnan(swept.answers["distance"])).tolist()
        for name in ("distance", "lat", "lng"):
            assert np.array_equal(cands[name], swept.answers[name][at])


def one_peak(seed: int) -> np.ndarray:
    """The PEAK_DTYPE row of the first peak of a one-tile world."""
    area, tiles = world(1, 1, seed=seed)
    tile = next(iter(tiles.values()))
    return tile_peaks(tile, detect_peaks(tile)[:1])


class TestFinalize:
    def test_single_candidate(self):
        peaks = one_peak(49)
        arrays = finalize(peaks, np.array([(0, 123.0, 45.5, 7.5)], dtype=CANDIDATE_DTYPE))
        assert arrays.peaks is peaks
        assert arrays.answers.tolist() == [(123.0, 45.5, 7.5)]

    def test_tie_breaks_by_lat_lng(self):
        peaks = one_peak(50)
        cands = np.array([(0, 99.0, 45.5, 7.5), (0, 99.0, 45.5, 7.25)], dtype=CANDIDATE_DTYPE)
        answers = finalize(peaks, cands).answers
        assert answers[["distance", "lat", "lng"]].tolist() == [(99.0, 45.5, 7.25)]

    def test_no_candidates_is_undefined(self):
        arrays = finalize(one_peak(51), np.empty(0, dtype=CANDIDATE_DTYPE))
        assert np.isnan(arrays.answers.tolist()).all()

    def test_each_peak_gets_its_own_nearest_candidate(self):
        _area, tiles = world(1, 1, seed=52)
        tile = next(iter(tiles.values()))
        samples = detect_peaks(tile)
        assert len(samples) >= 3
        peaks = peak_rows(tile, *np.divmod(samples[:3], tile.shape[1]))
        cands = np.array(
            [
                (2, 50.0, 45.1, 7.1),
                (0, 70.0, 45.2, 7.2),
                (2, 40.0, 45.3, 7.3),
                (0, 60.0, 45.4, 7.4),
            ],
            dtype=CANDIDATE_DTYPE,
        )
        answers = finalize(peaks, cands).answers
        assert answers[["distance", "lat", "lng"]][[0, 2]].tolist() == [
            (60.0, 45.4, 7.4),
            (40.0, 45.3, 7.3),
        ]
        assert np.isnan(answers["distance"][1])  # peak 1 has no candidate

    def test_candidate_rows_are_the_search_layer_s(self):
        # multipass re-exports the format spatial_index produces, unchanged.
        assert multipass.CANDIDATE_DTYPE is spatial_index.CANDIDATE_DTYPE
        assert "CANDIDATE_DTYPE" in multipass.__all__


class TestAssignTiles:
    INDEX = TileIndex([((45, 7), 45.5, 7.5, 100), ((45, 8), 45.5, 8.5, 100)])

    def test_one_entry_per_tile_per_location(self):
        # A seam peak found by both tiles, twice by one of them: one pair
        # per tile, and one peak with the smaller home tile.
        found = peak_array(
            (45.5, 8.0, 50, 45, 8, 5000.0),
            (45.5, 8.0, 50, 45, 7, 6000.0),
            (45.5, 8.0, 50, 45, 8, 5000.0),
        )
        peaks, ids = distinct_peaks(found)
        assignment = assign_tiles(self.INDEX, found, ids)
        assert peaks.tolist() == [(45.5, 8.0, 50, 45, 7, 6000.0)]
        assert assignment.tiles.tolist() == [0, 1]
        assert assignment.peak_rows.tolist() == [0, 0]

    def test_smallest_bound_kept_per_tile(self):
        found = peak_array((45.5, 7.5, 50, 45, 7, 5000.0), (45.5, 7.5, 50, 45, 7, 3000.0))
        high_point = peak_array((45.2, 7.2, 90, 45, 7, math.inf))
        peaks, ids = distinct_peaks(np.concatenate([found, high_point]))
        assignment = assign_tiles(self.INDEX, found, ids[: len(found)])
        assert locations(peaks) == [(45.2, 7.2), (45.5, 7.5)]
        assert assignment.tiles.tolist() == [0]
        assert assignment.peak_rows.tolist() == [1]
        assert assignment.bounds.tolist() == [3000.0]


class TestAreaTileKeys:
    def test_area_must_be_integer_aligned(self):
        with pytest.raises(ValueError):
            area_tile_keys(Quadrilateral(40.5, 41.5, 0, 1))


def inline_pool(monkeypatch, cpus: int) -> list:
    """Stub the pipeline's pool and the CPUs the process may use.

    The stub records the pool size it is asked for and runs the tasks in
    this process, so no worker process is ever started.  Returns the list
    of recorded sizes.
    """
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self):
            pass

    monkeypatch.setattr(multipass, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(multipass.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return sizes


class TestRunPipeline:
    def test_missing_tiles_listed(self):
        area, tiles = world(2, 2, seed=54, n=31)
        del tiles[(46, 8)]
        with pytest.raises(MissingTilesError) as err:
            run_pipeline(area, tiles)
        assert err.value.missing == [(46, 8)]

    def test_single_tile_pipeline_equals_single_sweep(self):
        assert_legs_agree(*world(1, 1, seed=55))

    def test_three_way_equivalence_with_audit(self):
        assert_legs_agree(*world(2, 2, seed=56, n=41))

    def test_great_circle_only_mode(self):
        assert_legs_agree(*world(2, 1, seed=57, n=41), "great-circle-only")

    def test_worker_count_does_not_change_results(self):
        area, tiles = world(2, 2, seed=59, n=41)
        serial = run_pipeline(area, tiles, i_min=500.0, threads=1)
        assert_same_run(serial, run_pipeline(area, tiles, i_min=500.0, threads=2))

    @pytest.mark.parametrize(
        "rows, cols, threads, workers", [(1, 1, 8, None), (2, 1, 8, 2), (2, 2, 3, 3)]
    )
    def test_at_most_one_worker_per_tile(self, monkeypatch, rows, cols, threads, workers):
        # The process may use 64 CPUs, so they do not cap the pool.
        sizes = inline_pool(monkeypatch, cpus=64)
        area, tiles = world(rows, cols, seed=61, n=21)
        pooled = run_pipeline(area, tiles, i_min=500.0, threads=threads)
        assert sizes == ([] if workers is None else [workers])
        assert_same_run(pooled, run_pipeline(area, tiles, i_min=500.0, threads=1))

    @pytest.mark.parametrize("cpus, threads, workers", [(1, 8, None), (3, 8, 3), (3, 2, 2)])
    def test_at_most_one_worker_per_usable_cpu(self, monkeypatch, cpus, threads, workers):
        sizes = inline_pool(monkeypatch, cpus=cpus)
        area, tiles = world(2, 2, seed=61, n=21)
        pooled = run_pipeline(area, tiles, i_min=500.0, threads=threads)
        assert sizes == ([] if workers is None else [workers])
        assert_same_run(pooled, run_pipeline(area, tiles, i_min=500.0, threads=1))

    def test_threshold_keeps_all_significant_peaks(self):
        area, tiles = world(2, 2, seed=60, n=41)
        i_min = 1000.0
        metric = EllipsoidMetric()
        outcome = run_pipeline(area, tiles, i_min=i_min, threads=1)
        universe = SampleUniverse.from_tiles(tiles.values())
        reference = brute_force_all(area_peaks(tiles.values()), universe, metric)
        assert_significant_kept(outcome.arrays, reference, i_min)

    def test_heavy_discard_preserves_significant_peaks(self):
        # a threshold well above the sample spacing discards most peaks
        # early, yet every significant peak keeps its exact answer
        area, tiles = world(2, 2, seed=66, n=121)
        i_min = 5000.0
        outcome = run_pipeline(area, tiles, i_min=i_min, threads=1)
        assert outcome.stats.discarded > 0
        assert outcome.stats.peaks_kept < outcome.stats.peaks_found
        metric = EllipsoidMetric()
        universe = SampleUniverse.from_tiles(tiles.values())
        reference = brute_force_all(area_peaks(tiles.values()), universe, metric)
        assert outcome.stats.peaks_found == len(qualifying_locations(tiles.values()))
        assert_significant_kept(outcome.arrays, reference, i_min)

    def test_exactly_one_undefined_per_world(self):
        for seed in (61, 62):
            area, tiles = world(2, 2, seed=seed, n=41)
            outcome = run_pipeline(area, tiles, i_min=0.0, threads=1)
            assert np.isnan(outcome.arrays.answers["distance"]).sum() == 1

    def test_plateau_world_equivalence_with_ties(self):
        # a constant world: every per-tile flat representative ties at the
        # maximum, so all peaks have undefined isolation
        outcome = assert_legs_agree(*world(2, 2, seed=63, profile="plateau", n=31))
        assert np.isnan(outcome.arrays.answers["distance"]).all()

    def test_unknown_distance_mode_rejected_early(self):
        area, tiles = world(1, 1, seed=65, n=31)
        with pytest.raises(ValueError, match="distance_mode"):
            run_pipeline(area, tiles, distance_mode="vincenty")

    def test_assignment_counts_of_a_one_tile_run(self):
        area, tiles = world(1, 1, seed=68, n=121)
        stats = run_pipeline(area, tiles, i_min=2000.0, threads=1).stats
        # One tile: the bounding pass searched every assigned pair, so the
        # finalization pass has no query and no task.
        assert stats.assigned_pairs > 0
        assert stats.finalization.queries == 0
        assert stats.assign_candidates >= stats.assigned_pairs
        assert 0 < stats.bounding_task_s <= stats.bounding_s
        assert stats.finalization_task_s == 0.0
        assert (stats.bounding_batches, stats.finalization_batches) == (1, 0)

    def test_stats_populated(self):
        area, tiles = world(1, 2, seed=64, n=31)
        outcome = run_pipeline(area, tiles, i_min=0.0, threads=1)
        assert outcome.stats.tiles == 2
        assert outcome.stats.samples == 2 * 31 * 31
        assert outcome.stats.peaks_kept == len(outcome.arrays.peaks)
        assert outcome.stats.peaks_found == len(qualifying_locations(tiles.values()))
        assert outcome.stats.total_s > 0

    def test_stage_times_within_total(self):
        area, tiles = world(2, 2, seed=64, n=41)
        stats = run_pipeline(area, tiles, i_min=0.0, threads=1).stats
        stages = [stats.bounding_s, stats.assign_s, stats.highpoint_s, stats.finalization_s]
        assert all(s > 0 for s in stages)
        assert sum(stages) <= stats.total_s


def assert_significant_kept(kept: ResultArrays, reference: ResultArrays, i_min: float) -> None:
    """Every peak of ``reference`` with isolation undefined or at least
    ``i_min`` is among ``kept``, with the same answer."""
    distance = reference.answers["distance"]
    significant = np.isnan(distance) | (distance >= i_min)
    reference = ResultArrays(*(part[significant] for part in reference))
    at = locate(kept.peaks, reference.peaks)
    assert (at >= 0).all()
    got = ResultArrays(*(part[at] for part in kept))
    assert result_differences("pipeline", got, "oracle", reference) == []


def stats_counts(stats) -> dict:
    """The counts of PipelineStats: every field but the seconds and the batches."""
    return {
        k: v
        for k, v in dataclasses.asdict(stats).items()
        if not k.endswith("_s") and not k.endswith("_batches")
    }


def csv_text(outcome) -> str:
    buf = io.StringIO()
    write_csv(outcome.arrays, buf, min_isolation_m=0.0)
    return buf.getvalue()


class TestBatches:
    def test_batches_are_runs_of_one_shape_within_the_budget(self, monkeypatch):
        def tile(lng, n):
            return Tile(45, lng, np.zeros((n, n), dtype=np.int16), n - 1)

        tiles = [tile(0, 31), tile(1, 31), tile(2, 31), tile(3, 61), tile(4, 31), tile(5, 31)]
        batches = multipass._batches
        assert batches(tiles, 1) == [range(0, 3), range(3, 4), range(4, 6)]
        # Two workers: at least four batches where there are tiles enough.
        assert batches(tiles, 2) == [range(0, 2), range(2, 3), range(3, 4), range(4, 6)]
        assert batches(tiles[:2], 3) == [range(0, 1), range(1, 2)]
        monkeypatch.setattr(multipass, "_BATCH_SAMPLES", 2 * 31 * 31)
        assert batches(tiles, 1) == [range(0, 2), range(2, 3), range(3, 4), range(4, 6)]
        monkeypatch.setattr(multipass, "_BATCH_SAMPLES", 1)
        assert batches(tiles, 1) == [range(k, k + 1) for k in range(6)]
        assert batches([], 2) == []

    @pytest.mark.parametrize("budget_tiles", [None, 2])
    def test_one_pyramid_and_one_search_per_batch_and_pass(self, monkeypatch, budget_tiles):
        n = 41
        if budget_tiles is not None:
            monkeypatch.setattr(multipass, "_BATCH_SAMPLES", budget_tiles * n * n)
        built, searched = [], []

        class Counting(ElevationPyramid):
            def __init__(self, tiles):
                super().__init__(tiles)
                built.append([t.key for t in tiles])

            def nearest_higher_many(self, *args, **kwargs):
                searched.append(built[-1])
                return super().nearest_higher_many(*args, **kwargs)

        monkeypatch.setattr(multipass, "ElevationPyramid", Counting)
        area, tiles = world(2, 3, seed=71, n=n)
        stats = run_pipeline(area, tiles, i_min=0.0, threads=1).stats
        batches = stats.bounding_batches + stats.finalization_batches
        assert len(built) == len(searched) == batches
        assert searched == built
        # The bounding pass's batches cover the area's tiles once, in key order.
        bounding = built[: stats.bounding_batches]
        assert [key for batch in bounding for key in batch] == sorted(tiles)
        most = len(tiles) if budget_tiles is None else budget_tiles
        assert max(len(batch) for batch in built) == most
        assert stats.finalization_batches > 0

    def test_csv_and_counts_do_not_depend_on_the_batches(self, monkeypatch):
        # Three usable CPUs whatever the host has, so that 1, 2 and 3 workers
        # cut the 12 tiles into 1, 4 and 6 batches.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        area, tiles = world(3, 4, seed=72, n=31)
        runs = [run_pipeline(area, tiles, i_min=0.0, threads=t) for t in (1, 2, 3)]
        assert [r.stats.bounding_batches for r in runs] == [1, 4, 6]
        assert len({r.stats.finalization_batches for r in runs}) == 3
        assert len({csv_text(r) for r in runs}) == 1
        counts = [stats_counts(r.stats) for r in runs]
        assert counts[0] == counts[1] == counts[2]
        assert counts[0]["finalization"]["queries"] > 0


class TestAudit:
    @staticmethod
    def without_pair(outcome, peak: int, key) -> multipass.PipelineResult:
        """``outcome`` with the assignment pair of ``peak`` and tile ``key`` dropped."""
        tiles, peaks, _bounds = outcome.assignment
        keep = (tiles != outcome.tile_keys.index(key)) | (peaks != peak)
        assert not keep.all()
        pairs = Assignment(*(a[keep] for a in outcome.assignment))
        return dataclasses.replace(outcome, assignment=pairs)

    def test_reports_missing_assignment_and_low_bound(self, monkeypatch):
        outcome = run_pipeline(*world(2, 2, seed=67, n=41), i_min=0.0, threads=1)
        assert audit_pipeline(outcome) == []
        isolation = outcome.arrays.answers["distance"]
        k = int(np.flatnonzero(~np.isnan(isolation))[0])
        loc = locations(outcome.arrays.peaks)[k]
        key = tile_keys_within(outcome.area, loc, 0.0)[0]
        outcome = self.without_pair(outcome, k, key)
        low = isolation[k] - 1.0
        first_bound = np.flatnonzero(locate(outcome.arrays.peaks, outcome.found) == k)[0]
        outcome.found["bound"][first_bound] = low
        expected = [
            f"bound {low:.3f} m below final isolation {isolation[k]:.3f} m for peak {loc}",
            f"peak {loc} missing from tile {key} within its isolation",
        ]
        assert audit_pipeline(outcome) == expected
        monkeypatch.setattr(multipass, "_AUDIT_PAIRS", 7)  # chunks that split a peak's tiles
        assert audit_pipeline(outcome) == expected

    def test_reports_a_pair_missing_off_the_home_tile(self):
        outcome = run_pipeline(*world(2, 2, seed=67, n=41), i_min=0.0, threads=1)
        peaks, isolation = outcome.arrays.peaks, outcome.arrays.answers["distance"]
        # The first pair whose tile is within its peak's isolation and not its home tile.
        key, k = next(
            (key, k)
            for key, loc in sorted(assigned_pairs(outcome))
            for k in [locations(peaks).index(loc)]
            if key != tuple(peaks[["home_lat", "home_lng"]][k].tolist())
            and min_distance(tile_quad(key), loc) < isolation[k]
        )
        assert audit_pipeline(self.without_pair(outcome, k, key)) == [
            f"peak {locations(peaks)[k]} missing from tile {key} within its isolation"
        ]


class TestResultDifferences:
    @staticmethod
    def arrays(*rows) -> ResultArrays:
        """Peaks of home tile (45, 7) from (lat, lng, elevation, distance, ilp lat, ilp lng)."""
        peaks = np.array([(*r[:3], 45, 7, np.inf) for r in rows], dtype=PEAK_DTYPE)
        return ResultArrays(peaks, np.array([tuple(r[3:]) for r in rows], dtype=ANSWER_DTYPE))

    HIGH, LOW = (45.5, 7.5, 100, math.nan, math.nan, math.nan), (45.25, 7.5, 50, 1000.0, 45.5, 7.5)

    def test_nans_are_equal_and_a_row_one_side_holds_is_named(self):
        a, b = self.arrays(self.HIGH, self.LOW), self.arrays(self.LOW, self.HIGH)
        b.peaks["bound"] = 5.0  # not compared
        assert result_differences("a", a, "b", b) == []
        only = "peak GeoPoint(lat_deg=45.25, lng_deg=7.5): only in "
        assert result_differences("left", a, "right", self.arrays(self.HIGH)) == [only + "left"]
        assert result_differences("left", self.arrays(self.HIGH), "right", a) == [only + "right"]

    def test_field_differences_show_both_rows_in_location_order(self):
        a, b = self.arrays(self.HIGH, self.LOW), self.arrays(self.HIGH, self.LOW)
        b.answers[0] = (10.0, 45.75, 7.0)
        b.answers["distance"][1] += 0.5
        shown = "{'elevation': %d, 'home_lat': 45, 'home_lng': 7, 'isolation_m': %s, "
        shown += "'ilp_lat': %s, 'ilp_lng': %s}"
        assert result_differences("pipeline", a, "sweep", b) == [
            f"peak GeoPoint(lat_deg=45.25, lng_deg=7.5): pipeline {shown % (50, 1000.0, 45.5, 7.5)}"
            f" vs sweep {shown % (50, 1000.5, 45.5, 7.5)}",
            f"peak GeoPoint(lat_deg=45.5, lng_deg=7.5): pipeline {shown % (100, None, None, None)}"
            f" vs sweep {shown % (100, 10.0, 45.75, 7.0)}",
        ]


class TestObjectLayer:
    def test_views_match_the_arrays(self):
        outcome = run_pipeline(*world(2, 2, seed=67, n=41), i_min=0.0, threads=1)
        results, peak_at, found = outcome.results, locations(outcome.arrays.peaks), outcome.found
        assert results == ilp_results(outcome.arrays)
        back = result_arrays(results)  # locations, elevations, home tiles and answers
        assert result_differences("objects", back, "arrays", outcome.arrays) == []
        assert np.isinf(back.peaks["bound"]).all()
        assert sum(map(len, outcome.bounds_by_peak.values())) == len(found)
        for (lat, lng), bounds in outcome.bounds_by_peak.items():
            assert bounds == found["bound"][(found["lat"] == lat) & (found["lng"] == lng)].tolist()
        snapshot = [(key, *pair) for key, pairs in outcome.map_snapshot.items() for pair in pairs]
        tiles, peaks, bounds = (a.tolist() for a in outcome.assignment)
        keys = [outcome.tile_keys[t] for t in tiles]
        assert snapshot == [(key, peak_at[k], b) for key, k, b in zip(keys, peaks, bounds)]

    def test_src_names_the_layer_only_in_its_adapter(self):
        # Until the benchmark stops reading them, these names live in multipass's
        # adapter (PipelineResult holds its views) and in write_csv, which takes objects.
        layer = set("Peak IlpResult ilp_results result_arrays bounds_by_peak map_snapshot".split())
        adapter = {"multipass.py": layer | {"PipelineResult"}, "cli.py": {"write_csv"}}
        found = []
        for path in sorted(Path(multipass.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text(), str(path)).body:
                if getattr(top, "name", None) in adapter.get(path.name, ()):
                    continue
                for node in ast.walk(top):
                    # A name, an attribute, a definition or an imported name.
                    name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
                    if name in layer:
                        found.append(f"{path.name}:{node.lineno}: {name}")
        assert not found, "object layer named outside its adapter: " + "; ".join(found)
