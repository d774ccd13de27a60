"""Shared fixtures: seeded synthetic worlds with sweep/pipeline/oracle runs."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from isoscan.dem import Peak, Tile, detect_peaks, generate_synthetic
from isoscan.geo import METRIC_ANISOTROPY, GeoPoint, great_circle_distance_many
from isoscan.multipass import (
    PipelineResult,
    ResultArrays,
    distinct_peaks,
    peak_rows,
    run_merged_sweep,
    run_pipeline,
)
from isoscan.oracle import SampleUniverse, brute_force_all
from isoscan.quad import Quadrilateral
from isoscan.spatial_index import EllipsoidMetric
from isoscan.sweep import IlpResult, PeakTrace

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
    rows = [peak_rows(t, *np.divmod(detect_peaks(t), t.shape[1])) for t in tiles]
    return distinct_peaks(np.concatenate(rows))[0]


def peaks_of(tile: Tile, samples: np.ndarray) -> list[Peak]:
    """The Peak of each of the tile's ``samples``, row-major indices into its grid."""
    return [
        Peak(tile.sample_point(*divmod(k, tile.shape[1])), int(tile.elevations.flat[k]), tile.key)
        for k in samples.tolist()
    ]


def results_by_location(results) -> dict[GeoPoint, IlpResult]:
    out = {r.peak.location: r for r in results}
    assert len(out) == len(results), "duplicate peak locations in result list"
    return out


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
