"""Shared fixtures: seeded synthetic worlds with sweep/pipeline/oracle runs."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from isoscan.dem import Tile, detect_peaks, generate_synthetic
from isoscan.geo import METRIC_ANISOTROPY, GeoPoint, great_circle_distance_many
from isoscan.multipass import (
    PipelineResult,
    ResultArrays,
    audit_pipeline,
    distinct_peaks,
    final_metric,
    peak_rows,
    result_differences,
    run_merged_sweep,
    run_pipeline,
)
from isoscan.oracle import SampleUniverse, brute_force_all
from isoscan.quad import Quadrilateral
from isoscan.spatial_index import EllipsoidMetric
from isoscan.sweep import PeakTrace

ACCEPTANCE_WORLD_COUNT = 20
WORLD_ROWS = 2
WORLD_COLS = 2
WORLD_SAMPLES = 121  # mini-tiles: 121x121 samples, 30 arcsec
WORLD_ORIGIN = (45, 7)


@dataclass
class WorldRun:
    """One seeded world with all three solution paths precomputed."""

    index: int
    profile: str
    area: Quadrilateral
    tiles: dict[tuple[int, int], Tile]
    universe: SampleUniverse
    events_total: int
    trace: list[PeakTrace]
    sweep_results: ResultArrays
    sweep_seconds: float
    oracle_results: ResultArrays
    oracle_seconds: float
    pipeline: PipelineResult = field(repr=False)


def build_world(index: int) -> WorldRun:
    profile = "cones" if index % 2 == 0 else "fractal"
    tiles = generate_synthetic(
        WORLD_ROWS,
        WORLD_COLS,
        seed=index,
        profile=profile,
        samples_per_side=WORLD_SAMPLES,
        origin=WORLD_ORIGIN,
    )
    by_key = {t.key: t for t in tiles}
    area = Quadrilateral(
        WORLD_ORIGIN[0],
        WORLD_ORIGIN[0] + WORLD_ROWS,
        WORLD_ORIGIN[1],
        WORLD_ORIGIN[1] + WORLD_COLS,
    )
    metric = EllipsoidMetric()

    trace: list[PeakTrace] = []
    t0 = time.perf_counter()
    swept = run_merged_sweep(area, by_key, metric, trace_sink=trace)
    sweep_seconds = time.perf_counter() - t0

    universe = SampleUniverse.from_tiles(tiles)
    t0 = time.perf_counter()
    reference = brute_force_all(area_peaks(tiles), universe, metric)
    oracle_seconds = time.perf_counter() - t0

    pipeline = run_pipeline(area, by_key, i_min=0.0, threads=1)
    return WorldRun(
        index=index,
        profile=profile,
        area=area,
        tiles=by_key,
        universe=universe,
        # Two events a sample of the merged grid, and one a peak.
        events_total=2 * len(universe) + len(swept.peaks),
        trace=trace,
        sweep_results=swept,
        sweep_seconds=sweep_seconds,
        oracle_results=reference,
        oracle_seconds=oracle_seconds,
        pipeline=pipeline,
    )


@pytest.fixture(scope="session")
def acceptance_runs() -> list[WorldRun]:
    return [build_world(i) for i in range(ACCEPTANCE_WORLD_COUNT)]


def area_peaks(tiles) -> np.ndarray:
    """The tiles' peaks, a seam peak once with its smallest home tile: the
    PEAK_DTYPE rows of the pipeline's and the sweep's peak set, in location
    order."""
    return distinct_peaks(np.concatenate([tile_peaks(t) for t in tiles]))[0]


def tile_peaks(tile: Tile, samples: np.ndarray | None = None) -> np.ndarray:
    """The PEAK_DTYPE rows of the tile's ``samples``, row-major indices into
    its grid, by default its peaks in detection order."""
    if samples is None:
        samples = detect_peaks(tile)
    return peak_rows(tile, *np.divmod(samples, tile.shape[1]))


def locate(peaks: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The row of the distinct PEAK_DTYPE rows ``peaks``, in location order,
    at the location of each row of ``points``; -1 where there is none.
    Complex numbers order as (lat, lng) pairs do."""
    keys = peaks["lat"] + 1j * peaks["lng"]
    wanted = points["lat"] + 1j * points["lng"]
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return np.where(keys[at] == wanted, at, -1)


def answer_at(arrays: ResultArrays, location) -> tuple[float, float, float]:
    """The (distance, lat, lng) answer of the peak of ``arrays`` at ``location``."""
    peaks = arrays.peaks
    (row,) = np.flatnonzero((peaks["lat"] == location[0]) & (peaks["lng"] == location[1]))
    return tuple(arrays.answers[row].tolist())


def assert_bounds_hold(outcome: PipelineResult) -> int:
    """Each bound a pipeline run found is at least its peak's final isolation,
    where that is defined; returns the count of bounds checked."""
    rows = locate(outcome.arrays.peaks, outcome.found)
    assert (rows >= 0).all()
    isolation = outcome.arrays.answers["distance"][rows]
    defined = ~np.isnan(isolation)
    assert (outcome.found["bound"][defined] >= isolation[defined]).all()
    return int(defined.sum())


def assert_legs_agree(area: Quadrilateral, tiles, distance_mode: str = "staged") -> PipelineResult:
    """Pipeline, single sweep and brute force agree exactly on the area's
    peaks, found by each tile on its own, and the pipeline passes its audit."""
    tiles = tiles if isinstance(tiles, dict) else {t.key: t for t in tiles}
    metric = final_metric(distance_mode)
    outcome = run_pipeline(area, tiles, i_min=0.0, threads=1, distance_mode=distance_mode)
    swept = run_merged_sweep(area, tiles, metric)
    universe = SampleUniverse.from_tiles(tiles.values())
    reference = brute_force_all(area_peaks(tiles.values()), universe, metric)
    assert result_differences("pipeline", outcome.arrays, "sweep", swept) == []
    assert result_differences("sweep", swept, "oracle", reference) == []
    assert audit_pipeline(outcome) == []
    return outcome


def assert_same_run(a: PipelineResult, b: PipelineResult) -> None:
    """Two pipeline runs give the same answers and the same tile assignment."""
    assert result_differences("a", a.arrays, "b", b.arrays) == []
    assert a.tile_keys == b.tile_keys
    for x, y in zip(a.assignment, b.assignment):
        assert np.array_equal(x, y)


def exact_nearest(lats: np.ndarray, lngs: np.ndarray, query: GeoPoint, metric):
    """Linear-scan nearest neighbor, bit-identical to a scalar scan.

    A great-circle prefilter keeps the points within METRIC_ANISOTROPY of
    the nearest by the great circle, plus a slack, and the scalar metric
    re-ranks them with the (distance, lat, lng) tie-break.
    """
    dists = great_circle_distance_many(lats, lngs, *query)
    lowest = float(dists.min())
    candidates = np.nonzero(dists <= lowest * METRIC_ANISOTROPY + 1e-3 + lowest * 1e-9)[0]
    best = None
    for idx in candidates.tolist():
        pt = GeoPoint(lats[idx], lngs[idx])
        d = metric.distance(query, pt)
        if best is None or (d, pt) < best:
            best = (d, pt)
    return best[1], best[0]
