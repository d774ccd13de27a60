"""Randomized tie-heavy worlds: pipeline == sweep == brute force, exactly.

Small integer elevation ranges produce large flat regions, pit samples, and
many equidistant candidates, stressing event ordering, flat-region
deduplication, and every tie-break rule at once.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import assert_legs_agree
from isoscan.dem import Tile
from isoscan.quad import Quadrilateral


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
    outcome = assert_legs_agree(area, tiles, "staged" if seed % 2 else "great-circle-only")

    # undefined isolation appears exactly on the peaks tied at the world maximum
    elevations = outcome.arrays.peaks["elevation"]
    undefined = np.isnan(outcome.arrays.answers["distance"])
    assert np.array_equal(undefined, elevations == elevations.max())


@pytest.mark.parametrize("seed", range(8))
def test_binary_world_equivalence(seed):
    # two elevation levels only: the most extreme tie stress
    assert_legs_agree(*quantized_world(seed + 100, levels=2, n=16), "great-circle-only")
