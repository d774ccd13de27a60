"""Brute-force isolation reference for desk-scale validation.

Exhaustively scans every sample of a small merged area per peak.  The scan
is vectorized for speed, then the handful of near-minimal candidates is
re-evaluated with the exact scalar distance function, so the result is
bit-identical to a pure scalar scan under the shared tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .dem import Tile
from .geo import MEAN_RADIUS_M, GeoPoint
from .sweep import ANSWER_DTYPE, ResultArrays

__all__ = ["SampleUniverse", "brute_force_all"]


@dataclass
class SampleUniverse:
    """All samples of a merged area as flat arrays, seam duplicates removed.

    Arrays are sorted by ascending elevation so the strictly-higher samples
    for any threshold form a suffix slice.
    """

    lats: np.ndarray
    lngs: np.ndarray
    elevations: np.ndarray
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

    def unit_vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._units is None:
            phi = np.radians(self.lats)
            lam = np.radians(self.lngs)
            cos_phi = np.cos(phi)
            self._units = (cos_phi * np.cos(lam), cos_phi * np.sin(lam), np.sin(phi))
        return self._units


def _to_cartesian(p: GeoPoint) -> tuple[float, float, float]:
    """Unit vector (x, y, z) of a surface point: x east at Greenwich, z toward the north pole."""
    lat = math.radians(p.lat_deg)
    lng = math.radians(p.lng_deg)
    cos_lat = math.cos(lat)
    return cos_lat * math.cos(lng), cos_lat * math.sin(lng), math.sin(lat)


def _nearest_higher(
    location: GeoPoint, elevation_m: int, universe: SampleUniverse, metric
) -> Optional[tuple[float, GeoPoint]]:
    """Exact (distance, point) of the nearest strictly higher sample, or None.

    The strictly higher samples are screened by chord length, monotone in
    the central angle, so the near-minimal set under any sphere-based metric
    is found without per-sample trigonometry: the screen keeps everything
    within ``metric.anisotropy`` times the nearest's central angle, plus a
    slack.  The exact scalar distance then re-ranks the
    candidates, so the result is bit-identical to a pure scalar scan; ties
    on distance break by ascending (lat, lng), the same rule the sweep uses.
    """
    start = int(np.searchsorted(universe.elevations, elevation_m, side="right"))
    if start == len(universe.elevations):
        return None
    ux, uy, uz = universe.unit_vectors()
    px, py, pz = _to_cartesian(location)
    dot = ux[start:] * px + uy[start:] * py + uz[start:] * pz
    chord2 = np.clip(2.0 - 2.0 * dot, 0.0, 4.0)
    sigma_min = 2.0 * math.asin(min(1.0, math.sqrt(float(chord2.min())) * 0.5))
    slack = (1e-3 + sigma_min * MEAN_RADIUS_M * 1e-9) / MEAN_RADIUS_M
    chord_thr = 2.0 * math.sin(min(sigma_min * metric.anisotropy + slack, math.pi) * 0.5)
    best: Optional[tuple[float, GeoPoint]] = None
    for idx in (start + np.flatnonzero(chord2 <= chord_thr * chord_thr)).tolist():
        pt = GeoPoint(universe.lats[idx], universe.lngs[idx])
        d = metric.distance(location, pt)
        if best is None or (d, pt) < best:
            best = (d, pt)
    return best


def brute_force_all(peaks: np.ndarray, universe: SampleUniverse, metric) -> ResultArrays:
    """Oracle answers for the :data:`~isoscan.dem.PEAK_DTYPE` rows ``peaks``,
    sorted by peak location; a peak with no strictly higher sample gets NaN."""
    peaks = peaks[np.lexsort((peaks["lng"], peaks["lat"]))]
    answers = np.full(len(peaks), np.nan, dtype=ANSWER_DTYPE)
    for k, (lat, lng, elevation) in enumerate(
        zip(peaks["lat"].tolist(), peaks["lng"].tolist(), peaks["elevation"].tolist())
    ):
        best = _nearest_higher(GeoPoint(lat, lng), elevation, universe, metric)
        if best is not None:
            answers[k] = (best[0], *best[1])
    return ResultArrays(peaks, answers)
