"""Brute-force isolation reference for desk-scale validation.

Exhaustively scans every sample of a small merged area per peak.  The scan
is vectorized for speed, then the handful of near-minimal candidates is
re-evaluated with the exact scalar distance function, so the result is
bit-identical to a pure scalar scan under the shared tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .dem import Peak, Tile
from .geo import MEAN_RADIUS_M, METRIC_ANISOTROPY, GeoPoint, to_cartesian
from .spatial_index import EllipsoidMetric
from .sweep import IlpResult

__all__ = ["SampleUniverse", "brute_force_ilp", "brute_force_all"]


@dataclass
class SampleUniverse:
    """All samples of a merged area as flat arrays, seam duplicates removed.

    Arrays are sorted by ascending elevation so the strictly-higher samples
    for any threshold form a suffix slice.
    """

    lats: np.ndarray
    lngs: np.ndarray
    elevations: np.ndarray
    _by_location: Optional[dict[GeoPoint, int]] = field(default=None, repr=False)
    _units: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(default=None, repr=False)

    @classmethod
    def from_tiles(cls, tiles: Iterable[Tile]) -> "SampleUniverse":
        lat_parts = []
        lng_parts = []
        elev_parts = []
        for tile in tiles:
            rows, cols = tile.shape
            lat_parts.append(np.repeat(tile.sample_lats(), cols))
            lng_parts.append(np.tile(tile.sample_lngs(), rows))
            elev_parts.append(tile.elevations.astype(np.int32).ravel())
        lats = np.concatenate(lat_parts)
        lngs = np.concatenate(lng_parts)
        elevs = np.concatenate(elev_parts)

        order = np.lexsort((lngs, lats))
        lats, lngs, elevs = lats[order], lngs[order], elevs[order]
        keep = np.ones(len(lats), dtype=bool)
        same = (lats[1:] == lats[:-1]) & (lngs[1:] == lngs[:-1])
        if same.any():
            if not np.array_equal(elevs[1:][same], elevs[:-1][same]):
                raise ValueError("duplicate coordinates with differing elevations")
            keep[1:] &= ~same
        lats, lngs, elevs = lats[keep], lngs[keep], elevs[keep]

        by_height = np.argsort(elevs, kind="stable")
        return cls(lats[by_height], lngs[by_height], elevs[by_height])

    def __len__(self) -> int:
        return len(self.lats)

    def elevation_at(self, p: GeoPoint) -> int:
        if self._by_location is None:
            self._by_location = {
                GeoPoint(lat, lng): i
                for i, (lat, lng) in enumerate(zip(self.lats.tolist(), self.lngs.tolist()))
            }
        return int(self.elevations[self._by_location[p]])

    def unit_vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._units is None:
            phi = np.radians(self.lats)
            lam = np.radians(self.lngs)
            cos_phi = np.cos(phi)
            self._units = (cos_phi * np.cos(lam), cos_phi * np.sin(lam), np.sin(phi))
        return self._units


def _chord_candidates(
    universe: SampleUniverse, start: int, p: GeoPoint, anisotropy: float
) -> np.ndarray:
    """Indices (into the suffix) of samples within the candidate screen.

    Chord length is monotone in the central angle, so the near-minimal set
    under any sphere-based metric is found without per-sample trigonometry.
    """
    ux, uy, uz = universe.unit_vectors()
    pv = to_cartesian(p)
    dot = ux[start:] * pv.x + uy[start:] * pv.y + uz[start:] * pv.z
    chord2 = 2.0 - 2.0 * dot
    np.clip(chord2, 0.0, 4.0, out=chord2)
    sigma_min = 2.0 * math.asin(min(1.0, math.sqrt(float(chord2.min())) * 0.5))
    slack = (1e-3 + sigma_min * MEAN_RADIUS_M * 1e-9) / MEAN_RADIUS_M
    sigma_thr = min(sigma_min * anisotropy + slack, math.pi)
    chord_thr = 2.0 * math.sin(sigma_thr * 0.5)
    return np.nonzero(chord2 <= chord_thr * chord_thr)[0]


def brute_force_ilp(peak: Peak, universe: SampleUniverse, metric) -> IlpResult:
    """Exact isolation by exhaustive scan over all strictly higher samples.

    Ties on distance break by ascending (lat, lng) of the candidate, the
    same rule the sweep uses.  Returns ``ilp=None`` when no sample is
    strictly higher than the peak.
    """
    start = int(np.searchsorted(universe.elevations, peak.elevation_m, side="right"))
    if start == len(universe.elevations):
        return IlpResult(peak, None, None)
    lats = universe.lats[start:]
    lngs = universe.lngs[start:]
    # Chord screening keeps everything within METRIC_ANISOTROPY of the
    # nearest chord, plus an absolute slack, under the ellipsoid metric.
    anisotropy = METRIC_ANISOTROPY if isinstance(metric, EllipsoidMetric) else 1.0 + 1e-9
    candidates = _chord_candidates(universe, start, peak.location, anisotropy)
    # Re-rank candidates with the exact scalar distance so the result is
    # bit-identical to a pure scalar scan.
    best: Optional[tuple[float, GeoPoint]] = None
    for idx in candidates.tolist():
        pt = GeoPoint(lats[idx], lngs[idx])
        d = metric.distance(peak.location, pt)
        if best is None or (d, pt) < best:
            best = (d, pt)
    return IlpResult(peak, best[1], best[0])


def brute_force_all(
    peaks: Sequence[Peak], universe: SampleUniverse, metric
) -> list[IlpResult]:
    """Oracle results for many peaks, sorted by peak location."""
    results = [brute_force_ilp(pk, universe, metric) for pk in peaks]
    results.sort(key=lambda r: r.peak.location)
    return results
