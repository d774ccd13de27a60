"""Scalable three-pass isolation pipeline over tiles.

Pass 1 (bounding) detects each tile's peaks at full resolution as (row,
col) arrays.  A grey-scale dilation of the tile's grid, by a footprint of a
few rectangles of samples all closer than r = i_min / BOUND_INFLATION,
discards every peak with a strictly higher sample that close: its
isolation is below the minimum-isolation threshold, so its row could never
be emitted.  The surviving peaks ask an
:class:`~isoscan.spatial_index.ElevationPyramid` over the down-sampled
grid, in one batched search per tile, for their nearest strictly higher
samples; each distance is an upper bound on its peak's isolation.  Peaks
bounded below the threshold are discarded too; the rest are assigned to
every tile within their bound.
Peaks with no higher down-sampled sample in their tile (always including
the tile high point) are deferred.

Pass 2 (high-point) resolves the deferred peaks against a static tile-level
index augmented with per-tile maximum elevation: the nearest higher tile's
maximum distance bounds the peak's isolation, and the peak is assigned to
all tiles within that bound.  The peak with no higher tile anywhere is the
search-area high point and gets undefined isolation.

Pass 3 (finalization) asks a full-resolution pyramid of each tile, in one
batched search, for the nearest strictly higher sample of every peak
assigned to it, under the final metric; the final answer per peak is the
closest candidate over its tiles.  Both searches count their work
(:class:`~isoscan.spatial_index.SearchWork`) into :class:`PipelineStats`.

Bounding and finalization run tile-parallel in worker processes; results
are merged in deterministic key order, so output is identical for any
worker count.  The event sweep (:func:`run_merged_sweep`) is the paper's
single-sweep reference path.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dem import (
    Peak,
    PeakCells,
    Tile,
    build_events,
    detect_peaks,
    detect_peaks_deduped,
    downsample,
    merge_tiles,
)
from .geo import EarthModel, GeoPoint, WGS84, great_circle_distance
from .quad import Quadrilateral, min_distance, max_distance
from .spatial_index import (
    ElevationPyramid,
    EllipsoidMetric,
    GreatCircleMetric,
    PlanarMetric,
    SearchWork,
    TileIndex,
    TileKey,
)
from .sweep import IlpResult, run_sweep

__all__ = [
    "BOUND_INFLATION",
    "MissingTilesError",
    "TilePeaksMap",
    "area_tile_keys",
    "tile_keys_within",
    "dominated_peaks",
    "bounding_pass",
    "highpoint_pass",
    "finalization_pass",
    "finalize",
    "final_metric",
    "run_pipeline",
    "run_merged_sweep",
    "PipelineResult",
    "PipelineStats",
    "audit_pipeline",
]

# Upper bounds are found as great-circle distances but the final isolation
# is an ellipsoid distance.  Their ratio stays inside geo.ELLIPSOID_RATIO_BAND,
# whose high end is below 1.011, so inflating bounds by 1.1% keeps every
# bound above the final isolation and every tile closer than the final
# isolation assigned.
BOUND_INFLATION = 1.011

# Rectangles whose union makes the bounding pass's dilation footprint.  Each
# costs about log2 of its two sides in passes over the tile.
_DILATION_RECTANGLES = 4


class MissingTilesError(RuntimeError):
    """Tiles inside the search area are unavailable."""

    def __init__(self, missing: Sequence[TileKey]):
        self.missing = sorted(missing)
        super().__init__(f"missing tiles: {self.missing}")


class TilePeaksMap:
    """Tile key -> peaks that may have their isolation limit point there.

    Append-only while the first two passes run, frozen before finalization
    reads it.  A peak appears at most once per tile (smallest bound kept).
    """

    def __init__(self) -> None:
        self._entries: dict[TileKey, dict[GeoPoint, tuple[Peak, float]]] = {}
        self._frozen = False

    def add(self, key: TileKey, peak: Peak, bound_m: float) -> None:
        if self._frozen:
            raise RuntimeError("map is frozen")
        slot = self._entries.setdefault(key, {})
        cur = slot.get(peak.location)
        if cur is None or bound_m < cur[1]:
            slot[peak.location] = (peak, bound_m)

    def freeze(self) -> None:
        self._frozen = True

    def assigned(self, key: TileKey) -> list[tuple[Peak, float]]:
        slot = self._entries.get(key, {})
        return [slot[loc] for loc in sorted(slot)]

    def keys(self) -> list[TileKey]:
        return sorted(self._entries)

    def snapshot(self) -> dict[TileKey, list[tuple[GeoPoint, float]]]:
        return {
            key: [(loc, slot[loc][1]) for loc in sorted(slot)]
            for key, slot in self._entries.items()
        }


def tile_quad(key: TileKey) -> Quadrilateral:
    return Quadrilateral(key[0], key[0] + 1, key[1], key[1] + 1)


def area_tile_keys(area: Quadrilateral) -> list[TileKey]:
    """Integer SW corners of the 1-degree tiles covering ``area``."""
    for v in area:
        if v != int(v):
            raise ValueError(f"area must be integer-degree aligned, got {area}")
    return [
        (lat, lng)
        for lat in range(int(area.lat_min), int(area.lat_max))
        for lng in range(int(area.lng_min), int(area.lng_max))
    ]


def tile_keys_within(
    area: Quadrilateral, center: GeoPoint, radius_m: float, model: EarthModel = WGS84
) -> list[TileKey]:
    """Keys of area tiles whose quadrilateral is within ``radius_m`` of ``center``.

    A linear scan over the area's tiles: the audit's check on the pipeline's
    ``TileIndex.tiles_within`` assignment.
    """
    pad_deg = math.degrees(radius_m / model.radius_m) + 1e-9
    keys = []
    lat_lo = max(int(area.lat_min), int(math.floor(center.lat_deg - pad_deg)))
    lat_hi = min(int(area.lat_max), int(math.ceil(center.lat_deg + pad_deg)))
    for lat in range(lat_lo, lat_hi):
        for lng in range(int(area.lng_min), int(area.lng_max)):
            key = (lat, lng)
            if min_distance(tile_quad(key), center, model) <= radius_m:
                keys.append(key)
    return keys


def _footprint(tile: Tile, radius_m: float, model: EarthModel) -> list[tuple[int, int]]:
    """Half-sides (rows, cols) of the rectangles that make the dilation footprint.

    Two samples of the tile a rows and b columns apart, for (a, b) inside
    one of the rectangles, are closer than ``radius_m`` on the sphere.  By
    the haversine identity hav(d/R) = hav(dphi) + cos(phi1) cos(phi2)
    hav(dlambda), and with c the largest cosine of latitude over the tile,
    hav(a step) + c**2 hav(b step) < hav(radius_m / R) gives d < radius_m.
    The rectangles are corners of that discrete footprint: all of them, or
    :data:`_DILATION_RECTANGLES` spread over its outline.  Empty when no
    offset qualifies.
    """
    if not radius_m > 0.0:
        return []
    rows, cols = tile.shape
    quad = tile.quad
    on_equator = quad.lat_min <= 0.0 <= quad.lat_max
    c = 1.0 if on_equator else math.cos(math.radians(min(abs(quad.lat_min), abs(quad.lat_max))))
    angle = radius_m / model.radius_m
    limit = 1.0 if angle >= math.pi else math.sin(angle * 0.5) ** 2
    step = math.radians(1.0 / tile.steps_per_degree)
    hav_rows = np.sin(np.arange(rows) * (step * 0.5)) ** 2
    # The running maximum keeps the search sound (and sorted) even for a
    # grid spanning more than 180 degrees of longitude.
    hav_cols = np.maximum.accumulate(c * c * np.sin(np.arange(cols) * (step * 0.5)) ** 2)
    widest = np.searchsorted(hav_cols, limit - hav_rows, side="left") - 1
    a = np.flatnonzero(widest >= 0)
    if not len(a):
        return []
    b = widest[a]
    corner = np.append(b[1:] < b[:-1], True)
    a, b = a[corner], b[corner]
    if len(a) > _DILATION_RECTANGLES:
        # The corners nearest to evenly spaced angles on the outline.
        k = np.arange(1, _DILATION_RECTANGLES + 1)
        angles = k * (0.5 * math.pi / (_DILATION_RECTANGLES + 1))
        pick = np.unique(np.searchsorted(a, a[-1] * np.sin(angles)))
        a, b = a[pick], b[pick]
    return list(zip(a.tolist(), b.tolist()))


def _window_max(grid: np.ndarray, half: int, axis: int) -> np.ndarray:
    """Maximum over the ``2 * half + 1`` samples centred on each one along ``axis``.

    Windows are clamped to the grid.  Doubling (van Herk, Pattern
    Recognition Letters 1992; Gil & Werman, IEEE TPAMI 1993): after k steps
    an entry is the maximum of the 2**k samples from it on, and two
    overlapping such runs cover the window, so it costs O(log width) passes.
    """
    if half == 0:
        return grid

    def cut(start: int, length: int) -> tuple[slice, ...]:
        return (slice(None),) * axis + (slice(start, start + length),)

    width = 2 * half + 1
    pad = [(0, 0)] * grid.ndim
    pad[axis] = (half, half)
    run = np.pad(grid, pad, constant_values=np.iinfo(grid.dtype).min)
    span = 1
    while 2 * span <= width:
        n = run.shape[axis] - span
        run = np.maximum(run[cut(0, n)], run[cut(span, n)])
        span *= 2
    n = grid.shape[axis]
    return np.maximum(run[cut(0, n)], run[cut(width - span, n)])


def dominated_peaks(
    tile: Tile, cells: PeakCells, radius_m: float, model: EarthModel = WGS84
) -> np.ndarray:
    """Mask of the peaks that have a strictly higher sample closer than ``radius_m``.

    A grey-scale dilation of the tile's own grid by the union of the
    rectangles of :func:`_footprint`, read at the peaks: a peak is
    dominated exactly when the dilated value at its sample is above its
    elevation.  Every higher sample found is in the tile and closer than
    ``radius_m`` along the great circle.
    """
    grid = tile.elevations
    reach = np.full(len(cells), np.iinfo(grid.dtype).min, dtype=grid.dtype)
    for a, b in _footprint(tile, radius_m, model):
        dilated = _window_max(_window_max(grid, a, 0), b, 1)
        np.maximum(reach, dilated[cells.rows, cells.cols], out=reach)
    return reach > grid[cells.rows, cells.cols]


@dataclass
class BoundingOutcome:
    key: TileKey
    max_elevation_m: int
    bounded: list[tuple[Peak, float]]
    deferred: list[Peak]
    discarded: int
    # Only peaks on the tile's edge rows and columns can be found by a
    # neighbouring tile too, so only their locations are kept for the
    # area's distinct peak count.
    discarded_on_edge: list[GeoPoint]
    dilation_discards: int
    # Pyramid search counts of the peaks the dilation kept.
    search: SearchWork
    samples: int
    seconds: float


def bounding_pass(
    tile: Tile,
    stride: int,
    i_min: float,
    model: EarthModel = WGS84,
    distance_mode: str = "staged",
) -> BoundingOutcome:
    """Detect peaks at full resolution and bound their isolation locally.

    Peaks dominated within ``i_min / BOUND_INFLATION`` (see
    :func:`dominated_peaks`) are discarded without a search.  The final
    isolation of such a peak is at most its ellipsoid distance to the
    higher sample, and that is below the great-circle distance times the
    high end of ``geo.ELLIPSOID_RATIO_BAND``, 1.00449 < 1.011, so below
    ``i_min``.  For every other peak the nearest strictly higher sample of
    the strided grid is found under the planar metric (great-circle under
    ``great-circle-only``); its great-circle distance, inflated by
    :data:`BOUND_INFLATION`, is the bound tested against the threshold and
    used for tile assignment.
    """
    start = time.perf_counter()
    cells = detect_peaks(tile)
    rows, cols = tile.shape
    on_edge = np.isin(cells.rows, (0, rows - 1)) | np.isin(cells.cols, (0, cols - 1))
    dominated = dominated_peaks(tile, cells, i_min / BOUND_INFLATION, model)
    edge_rows, edge_cols = cells.rows[dominated & on_edge], cells.cols[dominated & on_edge]
    discarded_on_edge = [
        tile.sample_point(i, j) for i, j in zip(edge_rows.tolist(), edge_cols.tolist())
    ]
    survivors = np.flatnonzero(~dominated).tolist()
    peaks = [cells[k] for k in survivors]

    pyramid = ElevationPyramid(downsample(tile, stride))
    nn_metric = PlanarMetric(model) if distance_mode == "staged" else GreatCircleMetric(model)
    search = SearchWork()
    found = pyramid.nearest_higher_many(*_query_arrays(peaks), nn_metric, search)

    bounded: list[tuple[Peak, float]] = []
    deferred: list[Peak] = []
    dilation_discards = len(cells) - len(survivors)
    discarded = dilation_discards
    for k, peak, hit in zip(survivors, peaks, found):
        if hit is None:
            deferred.append(peak)
            continue
        raw = great_circle_distance(peak.location, hit[0], model)
        bound = raw * BOUND_INFLATION
        if bound < i_min:
            discarded += 1
            if on_edge[k]:
                discarded_on_edge.append(peak.location)
        else:
            bounded.append((peak, bound))
    return BoundingOutcome(
        key=tile.key,
        max_elevation_m=tile.max_elevation_m,
        bounded=bounded,
        deferred=deferred,
        discarded=discarded,
        discarded_on_edge=discarded_on_edge,
        dilation_discards=dilation_discards,
        search=search,
        samples=rows * cols,
        seconds=time.perf_counter() - start,
    )


def _query_arrays(peaks: Sequence[Peak]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Latitudes, longitudes and elevations of ``peaks``, for a batched pyramid search."""
    return (
        np.array([pk.location.lat_deg for pk in peaks], dtype=np.float64),
        np.array([pk.location.lng_deg for pk in peaks], dtype=np.float64),
        np.array([pk.elevation_m for pk in peaks], dtype=np.int64),
    )


@dataclass
class HighpointOutcome:
    assigned: list[tuple[Peak, float]]
    no_higher: list[Peak]
    discarded: int


def highpoint_pass(
    index: TileIndex,
    deferred: Sequence[Peak],
    i_min: float,
    model: EarthModel = WGS84,
) -> HighpointOutcome:
    """Bound deferred peaks via the nearest tile holding higher ground.

    Each peak is processed independently: the maximum distance to the
    closest higher tile is an upper bound on its isolation.  Peaks with no
    higher tile anywhere are the search-area high points.
    """
    assigned: list[tuple[Peak, float]] = []
    no_higher: list[Peak] = []
    discarded = 0
    for peak in sorted(deferred, key=lambda p: p.location):
        found = index.nearest_higher_tile(peak.location, peak.elevation_m)
        if found is None:
            no_higher.append(peak)
            continue
        key, _dist = found
        bound = max_distance(tile_quad(key), peak.location, model) * BOUND_INFLATION
        if bound < i_min:
            discarded += 1
            continue
        assigned.append((peak, bound))
    return HighpointOutcome(assigned=assigned, no_higher=no_higher, discarded=discarded)


def finalization_pass(
    tile: Tile,
    assigned: Sequence[tuple[Peak, float]],
    metric,
    search: SearchWork | None = None,
) -> list[tuple[GeoPoint, float, GeoPoint]]:
    """Full-resolution candidates for the peaks assigned to this tile.

    Assigned peaks may lie outside the tile.  Peaks at or above the tile's
    maximum elevation cannot have a candidate here and are skipped up front;
    the rest are answered by one batched pyramid search, whose counts are
    added to ``search`` if given.

    Returns:
        (peak location, distance, candidate point) triples.
    """
    ceiling = tile.max_elevation_m
    peaks = [pk for pk, _bound in assigned if pk.elevation_m < ceiling]
    if not peaks:
        return []
    found = ElevationPyramid(tile).nearest_higher_many(*_query_arrays(peaks), metric, search)
    return [(pk.location, dist, point) for pk, (point, dist) in zip(peaks, found)]


def finalize(
    peaks_by_location: Mapping[GeoPoint, Peak],
    candidates: Iterable[tuple[GeoPoint, float, GeoPoint]],
) -> list[IlpResult]:
    """Pick the closest candidate per peak; no candidate means undefined."""
    best: dict[GeoPoint, tuple[float, GeoPoint]] = {}
    for location, dist, point in candidates:
        cand = (dist, point)
        cur = best.get(location)
        if cur is None or cand < cur:
            best[location] = cand
    results = []
    for location in sorted(peaks_by_location):
        peak = peaks_by_location[location]
        found = best.get(location)
        if found is None:
            results.append(IlpResult(peak, None, None))
        else:
            results.append(IlpResult(peak, found[1], found[0]))
    return results


@dataclass
class PipelineStats:
    tiles: int = 0
    samples: int = 0
    peaks_found: int = 0
    peaks_kept: int = 0
    deferred: int = 0
    discarded: int = 0
    # Bounding pass, summed over tiles: peaks discarded by the dilation, and
    # the pyramid search of the others.
    dilation_discards: int = 0
    bounding_queries: int = 0
    # Pyramid search counts (see SearchWork), summed over tiles, per pass.
    bounding_pairs: int = 0
    bounding_leaf_samples: int = 0
    finalization_queries: int = 0
    finalization_pairs: int = 0
    finalization_leaf_samples: int = 0
    bounding_s: float = 0.0
    assign_s: float = 0.0
    highpoint_s: float = 0.0
    finalization_s: float = 0.0
    total_s: float = 0.0


@dataclass
class PipelineResult:
    results: list[IlpResult]
    stats: PipelineStats
    area: Quadrilateral
    bounds_by_peak: dict[GeoPoint, list[float]] = field(default_factory=dict)
    map_snapshot: dict[TileKey, list[tuple[GeoPoint, float]]] = field(default_factory=dict)


def final_metric(distance_mode: str, model: EarthModel = WGS84):
    """Metric used for final isolation under the given distance mode."""
    if distance_mode == "staged":
        return EllipsoidMetric(model)
    if distance_mode == "great-circle-only":
        return GreatCircleMetric(model)
    raise ValueError(f"unknown distance_mode {distance_mode!r}")


def _bounding_task(args) -> BoundingOutcome:
    return bounding_pass(*args)


def _finalization_task(args):
    key, tile, assigned, distance_mode, model = args
    metric = final_metric(distance_mode, model)
    start = time.perf_counter()
    search = SearchWork()
    cands = finalization_pass(tile, assigned, metric, search)
    return key, cands, search, time.perf_counter() - start


def run_pipeline(
    area: Quadrilateral,
    tiles: Mapping[TileKey, Tile] | Sequence[Tile],
    stride: int = 2,
    i_min: float = 1000.0,
    threads: int = 1,
    distance_mode: str = "staged",
    model: EarthModel = WGS84,
) -> PipelineResult:
    """Run bounding, high-point, and finalization passes over an area.

    Args:
        area: integer-degree aligned search area.
        tiles: the 1-degree tiles covering it, keyed by SW corner.
        threads: worker processes for the tile passes, at most one per
            tile; output is identical for any value.

    Raises:
        MissingTilesError: a tile inside the area is unavailable.
    """
    started = time.perf_counter()
    final_metric(distance_mode, model)  # validate early
    if not isinstance(tiles, Mapping):
        tiles = {t.key: t for t in tiles}
    keys = area_tile_keys(area)
    missing = [k for k in keys if k not in tiles]
    if missing:
        raise MissingTilesError(missing)

    # More workers than tiles would only start idle processes.
    workers = min(threads, len(keys))
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        # Bounding pass: tile-parallel, merged in key order.
        t0 = time.perf_counter()
        bound_args = [(tiles[k], stride, i_min, model, distance_mode) for k in keys]
        if pool is None:
            outcomes = [_bounding_task(a) for a in bound_args]
        else:
            outcomes = list(pool.map(_bounding_task, bound_args))
        bounding_s = time.perf_counter() - t0

        # Tile assignment of the bounded peaks.
        t0 = time.perf_counter()
        stats = PipelineStats(tiles=len(keys))
        peaks_map = TilePeaksMap()
        bounds_by_peak: dict[GeoPoint, list[float]] = {}
        registry: dict[GeoPoint, Peak] = {}
        deferred: list[Peak] = []
        # One immutable tile tree serves both tile assignment and the
        # high-point pass.
        index = TileIndex(
            [(o.key, tile_quad(o.key), o.max_elevation_m) for o in outcomes], model
        )

        def register(peak: Peak) -> None:
            cur = registry.get(peak.location)
            if cur is None or peak.home_tile < cur.home_tile:
                registry[peak.location] = peak

        def assign(peak: Peak, bound: float) -> None:
            register(peak)
            bounds_by_peak.setdefault(peak.location, []).append(bound)
            for key in index.tiles_within(peak.location, bound):
                peaks_map.add(key, peak, bound)

        seen_locations: set[GeoPoint] = set()
        interior_discards = 0
        for outcome in outcomes:
            stats.samples += outcome.samples
            stats.discarded += outcome.discarded
            stats.dilation_discards += outcome.dilation_discards
            stats.bounding_queries += outcome.search.queries
            stats.bounding_pairs += outcome.search.pairs
            stats.bounding_leaf_samples += outcome.search.leaf_samples
            deferred.extend(outcome.deferred)
            for pk, bound in outcome.bounded:
                assign(pk, bound)
            seen_locations.update(pk.location for pk, _ in outcome.bounded)
            seen_locations.update(pk.location for pk in outcome.deferred)
            seen_locations.update(outcome.discarded_on_edge)
            interior_discards += outcome.discarded - len(outcome.discarded_on_edge)
        stats.peaks_found = len(seen_locations) + interior_discards
        assign_s = time.perf_counter() - t0

        # High-point pass: a few peaks per tile, cheaper in this process
        # than a round trip through the pool.
        t0 = time.perf_counter()
        hp = highpoint_pass(index, deferred, i_min, model)
        stats.discarded += hp.discarded
        stats.deferred = len(deferred)
        for peak in hp.no_higher:
            register(peak)
        for peak, bound in hp.assigned:
            assign(peak, bound)
        peaks_map.freeze()
        highpoint_s = time.perf_counter() - t0

        # Finalization pass: full resolution, tile-parallel.
        t0 = time.perf_counter()
        final_args = [
            (k, tiles[k], peaks_map.assigned(k), distance_mode, model) for k in peaks_map.keys()
        ]
        if pool is None:
            final_out = [_finalization_task(a) for a in final_args]
        else:
            final_out = list(pool.map(_finalization_task, final_args))
        candidates: list[tuple[GeoPoint, float, GeoPoint]] = []
        for _key, cands, search, _secs in sorted(final_out, key=lambda item: item[0]):
            candidates.extend(cands)
            stats.finalization_queries += search.queries
            stats.finalization_pairs += search.pairs
            stats.finalization_leaf_samples += search.leaf_samples
        results = finalize(registry, candidates)
        finalization_s = time.perf_counter() - t0
    finally:
        if pool is not None:
            pool.shutdown()

    stats.peaks_kept = len(registry)
    stats.bounding_s = bounding_s
    stats.assign_s = assign_s
    stats.highpoint_s = highpoint_s
    stats.finalization_s = finalization_s
    stats.total_s = time.perf_counter() - started
    return PipelineResult(
        results=results,
        stats=stats,
        area=area,
        bounds_by_peak=bounds_by_peak,
        map_snapshot=peaks_map.snapshot(),
    )


def run_merged_sweep(
    area: Quadrilateral,
    tiles: Mapping[TileKey, Tile] | Sequence[Tile],
    metric,
) -> list[IlpResult]:
    """Single sweep over the merged area with the pipeline's peak set.

    Peaks are detected per tile and deduplicated at seams, the same set the
    multi-pass pipeline resolves, so both paths are directly comparable.
    """
    if isinstance(tiles, Mapping):
        tile_list = [tiles[k] for k in sorted(tiles)]
    else:
        tile_list = sorted(tiles, key=lambda t: t.key)
    keys = area_tile_keys(area)
    missing = [k for k in keys if k not in {t.key for t in tile_list}]
    if missing:
        raise MissingTilesError(missing)
    tile_list = [t for t in tile_list if t.key in set(keys)]
    merged = merge_tiles(tile_list)
    peaks = detect_peaks_deduped(tile_list)
    events = build_events(merged, peaks)
    return run_sweep(events, merged.quad, metric)


def audit_pipeline(outcome: PipelineResult, model: EarthModel = WGS84) -> list[str]:
    """Post-hoc validity audit of bounds and tile assignments.

    Checks that every recorded upper bound is at least the final isolation
    and that every tile within a peak's final isolation received the peak
    in the map.  The tiles are found by :func:`tile_keys_within`, a linear
    scan independent of the ``TileIndex`` the pipeline assigns with.
    Returns human-readable violation descriptions.
    """
    problems: list[str] = []
    assigned_locations: dict[TileKey, set[GeoPoint]] = {
        key: {loc for loc, _ in entries} for key, entries in outcome.map_snapshot.items()
    }
    for res in outcome.results:
        if res.isolation_m is None:
            continue
        loc = res.peak.location
        for bound in outcome.bounds_by_peak.get(loc, []):
            if bound < res.isolation_m:
                problems.append(
                    f"bound {bound:.3f} m below final isolation "
                    f"{res.isolation_m:.3f} m for peak {loc}"
                )
        for key in tile_keys_within(outcome.area, loc, res.isolation_m, model):
            if loc not in assigned_locations.get(key, set()):
                problems.append(f"peak {loc} missing from tile {key} within its isolation")
    return problems
