"""Benchmark workloads: seeded synthetic worlds written as HGT files.

Terrain comes from ``isoscan.dem.generate_synthetic``; void patches are
the benchmark's own seeded edits.  The program only ever sees the files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

ORIGIN = (45, 7)
# Every workload runs fractal terrain with the CLI's default stride and a
# 1 km threshold.
PROFILE = "fractal"
STRIDE = 2
MIN_ISOLATION_M = 1000.0


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    cols: int
    samples_per_side: int
    threads: int
    void_patches: int = 0
    patch_side: int = 0
    # Terrain seed used in place of --seed (see fractal6x6-121-w2).
    fixed_seed: Optional[int] = None

    @property
    def bounds(self) -> tuple[int, int, int, int]:
        lat, lng = ORIGIN
        return lat, lat + self.rows, lng, lng + self.cols

    @property
    def samples(self) -> int:
        return self.rows * self.cols * self.samples_per_side**2

    def terrain_seed(self, seed: int) -> int:
        return seed if self.fixed_seed is None else self.fixed_seed

    def write_inputs(self, seed: int, out_dir: Path) -> dict[tuple[int, int], np.ndarray]:
        """Write the world's HGT files; returns each tile's grid as written."""
        # Imported here, so run.py can report a missing source tree itself.
        from isoscan.dem import VOID_VALUE, Tile, generate_synthetic, hgt_filename, save_hgt

        tiles = generate_synthetic(
            self.rows,
            self.cols,
            seed=self.terrain_seed(seed),
            profile=PROFILE,
            samples_per_side=self.samples_per_side,
            origin=ORIGIN,
        )
        rng = np.random.default_rng([seed, 0x766F6964])
        out_dir.mkdir(parents=True, exist_ok=True)
        written = {}
        for tile in tiles:
            grid = tile.elevations.copy()
            # Fixed-size square patches at seeded places: filling takes the
            # same number of passes for every seed, so set-up time does not
            # depend on the seed.
            side = self.patch_side
            for _ in range(self.void_patches):
                top, left = (int(v) for v in rng.integers(0, grid.shape[0] - side + 1, size=2))
                grid[top : top + side, left : left + side] = VOID_VALUE
            edited = Tile(tile.origin_lat, tile.origin_lng, grid, tile.steps_per_degree)
            save_hgt(edited, out_dir / hgt_filename(*tile.key))
            written[tile.key] = grid
        return written


# Why each workload is here, and which layer it stresses, is in README.md.
FULL = [
    Workload("tile601-fractal", 1, 1, 601, threads=1, void_patches=16, patch_side=10),
    Workload("fractal6x6-121-w2", 6, 6, 121, threads=2, fixed_seed=11),
]

# Same shapes in miniature, for the benchmark's own tests.
TINY = [
    Workload("tile601-fractal", 1, 1, 241, threads=1, void_patches=6, patch_side=6),
    Workload("fractal6x6-121-w2", 6, 6, 31, threads=2, fixed_seed=11),
]


def by_name(scale: str) -> dict[str, Workload]:
    return {w.name: w for w in (FULL if scale == "full" else TINY)}
