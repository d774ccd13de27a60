"""Sweep correctness: oracle equivalence, invariants, and failure modes."""

from __future__ import annotations

import numpy as np
import pytest

from isoscan.dem import (
    EVENT_DTYPE,
    EVENT_INSERT,
    EVENT_PEAK,
    EVENT_REMOVE,
    Tile,
    build_events,
    detect_peaks,
    generate_synthetic,
)
from isoscan import spatial_index, sweep
from isoscan.geo import GeoPoint, great_circle_distance
from isoscan.multipass import result_differences, run_merged_sweep
from isoscan.oracle import SampleUniverse, brute_force_all
from isoscan.spatial_index import EllipsoidMetric, GreatCircleMetric
from isoscan.sweep import (
    PeakTrace,
    SweepConsistencyError,
    assert_sweep_invariant,
    run_sweep,
)


def sweep_tile(tile: Tile, metric):
    """The sweep's result arrays on one tile, one row per peak in location order."""
    return run_merged_sweep(tile.quad, [tile], metric)


def tile_events(tile: Tile):
    return build_events(tile, detect_peaks(tile))


def events(*pairs) -> np.ndarray:
    """EVENT_DTYPE rows from (sample, kind) pairs."""
    return np.array(list(pairs), dtype=EVENT_DTYPE)


class TestHandBuiltGrids:
    def test_two_level_grid(self):
        # 5x5 grid: a 100 m summit and a lone 80 m bump; the bump's nearest
        # strictly higher sample is the 90 m shoulder at (2, 2).
        grid = np.array(
            [
                [0, 0, 0, 0, 0],
                [0, 100, 90, 0, 0],
                [0, 90, 90, 0, 0],
                [0, 0, 0, 0, 0],
                [0, 0, 0, 80, 0],
            ],
            dtype=np.int16,
        )
        tile = Tile(45, 7, grid, 4)
        peaks, answers = sweep_tile(tile, GreatCircleMetric())
        # the flat 0-level background also yields one representative peak
        assert sorted(peaks["elevation"].tolist()) == [0, 80, 100]
        by_elev = dict(zip(peaks["elevation"].tolist(), answers.tolist()))
        assert np.isnan(by_elev[100]).all()  # grid maximum
        expected_ilp = tile.sample_point(2, 2)
        distance = great_circle_distance(tile.sample_point(4, 3), expected_ilp)
        assert by_elev[80] == (distance, *expected_ilp)

    def test_every_non_maximum_peak_has_higher_ilp(self):
        tiles = generate_synthetic(1, 1, seed=20, profile="cones", samples_per_side=81, n_cones=6)
        tile = tiles[0]
        peaks, answers = sweep_tile(tile, GreatCircleMetric())
        elevation_at = {tile.sample_point(i, j): e for (i, j), e in np.ndenumerate(tile.elevations)}
        top = peaks["elevation"].max()
        for elevation, (_distance, lat, lng) in zip(peaks["elevation"].tolist(), answers.tolist()):
            if elevation == top:
                assert np.isnan(lat)
            else:
                assert elevation_at[GeoPoint(lat, lng)] > elevation

    def test_two_cones_ilp_on_flank(self):
        # cone A high, cone B lower: B's limit point is a flank sample of A,
        # computed by the brute-force oracle first
        tiles = generate_synthetic(1, 1, seed=21, profile="cones", samples_per_side=61, n_cones=2)
        tile = tiles[0]
        metric = GreatCircleMetric()
        arrays = sweep_tile(tile, metric)
        reference = brute_force_all(arrays.peaks, SampleUniverse.from_tiles([tile]), metric)
        assert result_differences("sweep", arrays, "oracle", reference) == []


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_tiles_match_oracle(self, seed):
        profile = "fractal" if seed % 2 else "cones"
        tiles = generate_synthetic(1, 1, seed=seed, profile=profile, samples_per_side=41)
        tile = tiles[0]
        metric = EllipsoidMetric()
        arrays = sweep_tile(tile, metric)
        reference = brute_force_all(arrays.peaks, SampleUniverse.from_tiles([tile]), metric)
        assert len(arrays.peaks) == len(detect_peaks(tile))
        assert result_differences("sweep", arrays, "oracle", reference) == []


class TestEventStreamErrors:
    TILE = Tile(45, 7, np.full((3, 3), 100, dtype=np.int16), 2)

    def test_remove_of_absent_point_aborts(self):
        stream = events((4, EVENT_INSERT), (3, EVENT_REMOVE), (4, EVENT_REMOVE))
        with pytest.raises(SweepConsistencyError, match="event 1: remove of absent sample 3"):
            run_sweep(stream, self.TILE, GreatCircleMetric())

    def test_double_insert_aborts_at_its_event(self):
        stream = events((4, EVENT_INSERT), (3, EVENT_INSERT), (4, EVENT_INSERT))
        with pytest.raises(SweepConsistencyError, match="event 2: insert of active sample 4"):
            run_sweep(stream, self.TILE, GreatCircleMetric())

    def test_remove_of_never_inserted_sample_aborts(self):
        stream = events((4, EVENT_INSERT), (4, EVENT_REMOVE), (2, EVENT_REMOVE))
        with pytest.raises(SweepConsistencyError, match="event 2: remove of absent sample 2"):
            run_sweep(stream, self.TILE, GreatCircleMetric())

    def test_leftover_active_points_abort(self):
        stream = events((4, EVENT_INSERT), (3, EVENT_INSERT), (4, EVENT_REMOVE))
        with pytest.raises(SweepConsistencyError, match="1 points still active"):
            run_sweep(stream, self.TILE, GreatCircleMetric())

    def test_balanced_stream_resolves_its_peak(self):
        # The same samples with every insert removed: the peak at sample 0,
        # queried while sample 4 is active, finds it.
        stream = events(
            (4, EVENT_INSERT),
            (0, EVENT_PEAK),
            (3, EVENT_INSERT),
            (4, EVENT_REMOVE),
            (3, EVENT_REMOVE),
        )
        (found,) = run_sweep(stream, self.TILE, GreatCircleMetric()).tolist()
        corner, centre = self.TILE.sample_point(0, 0), self.TILE.sample_point(1, 1)
        assert found == (0, great_circle_distance(corner, centre), *centre)


class TestPointObjects:
    def test_inserts_and_removes_make_no_points(self, monkeypatch):
        # The tree counts samples by id: only a peak's query, its answer and
        # the active samples of the leaves it scans become points.
        made = []

        def counting(*args):
            made.append(args)
            return GeoPoint(*args)

        monkeypatch.setattr(spatial_index, "GeoPoint", counting)
        monkeypatch.setattr(sweep, "GeoPoint", counting)
        tile = generate_synthetic(1, 1, seed=3, profile="fractal", samples_per_side=41)[0]
        stream = build_events(tile, np.empty(0, dtype=np.int64))
        assert len(run_sweep(stream, tile, GreatCircleMetric())) == 0
        assert made == []
        stream = tile_events(tile)
        found = run_sweep(stream, tile, GreatCircleMetric())
        assert len(found) == np.count_nonzero(stream["kind"] == EVENT_PEAK) - 1
        assert len(made) > len(found)


class TestInstrumentation:
    def test_flat_tile_no_active_at_peak(self):
        grid = np.full((9, 9), 5, dtype=np.int16)
        tile = Tile(45, 7, grid, 8)
        trace: list[PeakTrace] = []
        run_sweep(tile_events(tile), tile, GreatCircleMetric(), trace_sink=trace)
        assert len(trace) == len(detect_peaks(tile)) == 1
        assert trace[0].active_count == 0
        assert_sweep_invariant(trace)

    def test_ramp_tile_invariant_holds(self):
        grid = np.tile(np.arange(21, dtype=np.int16) * 5, (21, 1))
        tile = Tile(45, 7, grid, 20)
        trace: list[PeakTrace] = []
        run_sweep(tile_events(tile), tile, GreatCircleMetric(), trace_sink=trace)
        assert trace
        assert_sweep_invariant(trace)

    def test_randomized_tiles_invariant_holds(self):
        for seed in range(6):
            tiles = generate_synthetic(1, 1, seed=seed, profile="fractal", samples_per_side=41)
            tile = tiles[0]
            stream = tile_events(tile)
            trace: list[PeakTrace] = []
            run_sweep(stream, tile, GreatCircleMetric(), trace_sink=trace)
            peak_events = np.flatnonzero(stream["kind"] == EVENT_PEAK)
            assert [entry.event_index for entry in trace] == peak_events.tolist()
            assert [entry.peak_elevation_m for entry in trace] == [
                tile.elevations.flat[s] for s in stream["sample"][peak_events]
            ]
            assert_sweep_invariant(trace)

    def test_violation_detected(self):
        bad = [PeakTrace(event_index=7, peak_elevation_m=100, active_count=3, min_active_elevation_m=100)]
        with pytest.raises(AssertionError, match="event 7"):
            assert_sweep_invariant(bad)


class TestDeterminism:
    def test_results_sorted_and_stable(self):
        tiles = generate_synthetic(1, 1, seed=22, profile="fractal", samples_per_side=41)
        tile = tiles[0]
        metric = EllipsoidMetric()
        first = sweep_tile(tile, metric)
        assert result_differences("first", first, "second", sweep_tile(tile, metric)) == []
        stream = tile_events(tile)
        assert np.array_equal(run_sweep(stream, tile, metric), run_sweep(stream, tile, metric))
        locations = first.peaks[["lat", "lng"]].tolist()
        assert locations == sorted(locations)
