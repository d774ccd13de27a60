"""Randomized tie-heavy worlds: pipeline == sweep == brute force, exactly.

Small integer elevation ranges produce large flat regions, pit samples, and
many equidistant candidates, stressing event ordering, flat-region
deduplication, and every tie-break rule at once.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import area_peaks
from isoscan.dem import Tile
from isoscan.multipass import audit_pipeline, ilp_results, run_merged_sweep, run_pipeline
from isoscan.oracle import SampleUniverse, brute_force_all
from isoscan.quad import Quadrilateral
from isoscan.spatial_index import EllipsoidMetric, GreatCircleMetric


def quantized_world(seed: int, rows=2, cols=2, n=21, levels=7, origin=(45, 7)):
    """2x2 tiles sliced from one small random grid with few distinct values."""
    rng = np.random.default_rng(seed)
    spd = n - 1
    world = rng.integers(0, levels, size=(rows * spd + 1, cols * spd + 1)).astype(np.int16)
    tiles = {}
    lat0, lng0 = origin
    for r in range(rows):
        for c in range(cols):
            top = (rows - r - 1) * spd
            sub = np.ascontiguousarray(world[top : top + spd + 1, c * spd : (c + 1) * spd + 1])
            tiles[(lat0 + r, lng0 + c)] = Tile(lat0 + r, lng0 + c, sub, spd)
    area = Quadrilateral(lat0, lat0 + rows, lng0, lng0 + cols)
    return area, tiles


@pytest.mark.parametrize("seed", range(30))
def test_tie_heavy_world_equivalence(seed):
    area, tiles = quantized_world(seed)
    metric = EllipsoidMetric() if seed % 2 else GreatCircleMetric()
    mode = "staged" if seed % 2 else "great-circle-only"
    outcome = run_pipeline(area, tiles, i_min=0.0, threads=1, distance_mode=mode)
    swept = ilp_results(run_merged_sweep(area, tiles, metric))
    universe = SampleUniverse.from_tiles(tiles.values())
    reference = ilp_results(brute_force_all(area_peaks(tiles.values()), universe, metric))
    triples = lambda rs: [(r.peak.location, r.isolation_m, r.ilp) for r in rs]
    assert triples(outcome.results) == triples(swept) == triples(reference)
    assert audit_pipeline(outcome) == []

    # undefined isolation appears exactly on the peaks tied at the world maximum
    top = max(r.peak.elevation_m for r in reference)
    for res in reference:
        assert (res.isolation_m is None) == (res.peak.elevation_m == top)


@pytest.mark.parametrize("seed", range(8))
def test_binary_world_equivalence(seed):
    # two elevation levels only: the most extreme tie stress
    area, tiles = quantized_world(seed + 100, levels=2, n=16)
    metric = GreatCircleMetric()
    outcome = run_pipeline(
        area, tiles, i_min=0.0, threads=1, distance_mode="great-circle-only"
    )
    swept = ilp_results(run_merged_sweep(area, tiles, metric))
    triples = lambda rs: [(r.peak.location, r.isolation_m, r.ilp) for r in rs]
    assert triples(outcome.results) == triples(swept)
