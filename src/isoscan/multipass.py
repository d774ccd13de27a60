"""Scalable three-pass isolation pipeline over tiles.

Pass 1 (bounding) settles each peak inside its own tile first, at full
resolution.  A grey-scale dilation of the tile's grid, by a footprint of a
few rectangles of samples all closer than r = i_min / BOUND_INFLATION,
marks every sample with a strictly higher sample that close: a peak there
has isolation below the minimum-isolation threshold, so its row could never
be emitted, and peak detection labels only the flat summits with a
qualifying sample off that mask.  Mask, dilation and detection run once per
batch, on its stacked grids.  The surviving peaks ask an
:class:`~isoscan.spatial_index.ElevationPyramid` over their tile's batch, in
one search, for their nearest strictly higher samples in their tile under
the final metric.  Each answer is the peak's finalization candidate from
its home tile, and its distance, inflated by BOUND_INFLATION, bounds the
peak's isolation and the great-circle reach of the tiles that can hold its
limit point.  Peaks with no higher sample in their tile (always including
the tile high point) are deferred, with bound inf.  Each batch of tiles
gives one :class:`BoundingOutcome`: every row it searched, with its bound,
and the answers.

Pass 2 (high-point) bounds the deferred rows against each other.  A row
is deferred exactly when its tile holds nothing higher, so every tile's
first deferred row is a high point of it, and the
:class:`~isoscan.spatial_index.TileIndex` holds those high points: the
great-circle distance to the nearest strictly higher one, inflated by
BOUND_INFLATION, bounds the peak's isolation and the reach of its limit
point.  The peak with no higher tile anywhere is the search-area high
point, keeps bound inf and gets undefined isolation.

The main process joins the batches' rows once and works on that one
array.  A row is kept when its bound is at least the threshold; the others
are discarded.  A peak is its location: one sort (:func:`distinct_peaks`)
gives every row its location, a seam peak found by several tiles is one
peak, with the smallest home tile of all its rows, and it is kept when any
of its rows is.  Tile assignment then sends every kept row with a finite
bound, in one batched ``TileIndex.tiles_within`` query, to every tile
within its bound, and each (tile, peak) pair keeps its smallest bound.

Pass 3 (finalization) asks a full-resolution pyramid of each batch of
tiles, in one search, for the nearest strictly higher sample in each tile
of every peak assigned to it that the tile did not already search in pass
1, under the final metric; the final answer per peak is the closest
candidate over its tiles, pass 1's included.  In both pyramid searches most queries are
settled by a window of samples around the peak and only the rest descend
the pyramid; both count their work, window-settled queries included, into one
:class:`~isoscan.spatial_index.SearchWork` per pass of :class:`PipelineStats`.

Peaks and candidates cross between the passes, and to and from the worker
processes, as structured numpy arrays (:data:`PEAK_DTYPE`, and
:data:`CANDIDATE_DTYPE`, the rows the pyramid search returns, defined in
:mod:`~isoscan.spatial_index`), and the answers leave the pipeline as
arrays too (:data:`ANSWER_DTYPE`), from which the CSV is written and which
``oracle-check`` compares; ``Peak`` and ``IlpResult`` objects are made only
on demand (``PipelineResult.results``), for the audit and for callers that
read the results peak by peak.
Bounding and finalization run batch-parallel in worker processes: each
pass cuts its tiles, in key order, into batches of consecutive same-shape
tiles (:func:`_batches`), and builds one stacked pyramid and makes one
search per batch, so that small tiles do not each pay the search's fixed
cost.  Every answer is the one a search of its tile alone gives, and results
are merged in deterministic key order, so output is identical for any
worker count.  The event sweep (:func:`run_merged_sweep`) is the paper's
single-sweep reference path: it resolves the same peak set, joined at
seams by :func:`distinct_peaks`, and returns its answers in the same arrays.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .dem import (
    PEAK_DTYPE,
    Peak,
    Tile,
    build_events,
    detect_peaks,
    downsample,  # no caller here; perfbench's tracer wraps multipass.downsample
    merge_tiles,
    peak_indices,
    qualifying_samples,
)
from .geo import MEAN_RADIUS_M, GeoPoint, wrap_longitude_many
from .quad import Quadrilateral, min_distance
from .spatial_index import (
    CANDIDATE_DTYPE,
    ElevationPyramid,
    EllipsoidMetric,
    GreatCircleMetric,
    SearchWork,
    TileIndex,
    TileKey,
    nearest_per_peak,
)
from .sweep import ANSWER_DTYPE, IlpResult, PeakTrace, ResultArrays, run_sweep

__all__ = [
    "BOUND_INFLATION",
    "PEAK_DTYPE",
    "CANDIDATE_DTYPE",
    "ANSWER_DTYPE",
    "MissingTilesError",
    "area_tile_keys",
    "tile_keys_within",
    "dominated_samples",
    "peak_rows",
    "Qualifying",
    "qualifying",
    "count_qualifying",
    "bounding_pass",
    "highpoint_pass",
    "distinct_peaks",
    "assign_tiles",
    "finalization_pass",
    "finalize",
    "ResultArrays",
    "ilp_results",
    "result_arrays",
    "final_metric",
    "run_pipeline",
    "run_merged_sweep",
    "Assignment",
    "PipelineResult",
    "PipelineStats",
    "audit_pipeline",
]

# Bounds are final-metric distances times BOUND_INFLATION, and tiles are
# assigned by great-circle distance.  Under the ellipsoid metric the ratio of
# ellipsoid to great-circle distance stays inside geo.ELLIPSOID_RATIO_BAND
# (lo, hi).  Assignment needs 1 / lo: a sample at ellipsoid distance d lies
# within great-circle distance d / 0.99440 < 1.011 d.  The dilation needs
# hi: a higher sample within great-circle distance i_min / 1.011 lies within
# ellipsoid distance 1.00449 i_min / 1.011 < i_min.
BOUND_INFLATION = 1.011

# Rectangles whose union makes the bounding pass's dilation footprint.  Each
# costs about log2 of its two sides in passes over the tile.
_DILATION_RECTANGLES = 4


class MissingTilesError(RuntimeError):
    """Tiles inside the search area are unavailable."""

    def __init__(self, missing: Sequence[TileKey]):
        self.missing = sorted(missing)
        super().__init__(f"missing tiles: {self.missing}")


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


def tile_keys_within(area: Quadrilateral, center: GeoPoint, radius_m: float) -> list[TileKey]:
    """Keys of area tiles whose quadrilateral is within ``radius_m`` of ``center``.

    A linear scan over the area's tiles: the audit's check on the pipeline's
    ``TileIndex.tiles_within`` assignment.
    """
    pad_deg = math.degrees(radius_m / MEAN_RADIUS_M) + 1e-9
    keys = []
    lat_lo = max(int(area.lat_min), int(math.floor(center.lat_deg - pad_deg)))
    lat_hi = min(int(area.lat_max), int(math.ceil(center.lat_deg + pad_deg)))
    for lat in range(lat_lo, lat_hi):
        for lng in range(int(area.lng_min), int(area.lng_max)):
            key = (lat, lng)
            if min_distance(tile_quad(key), center) <= radius_m:
                keys.append(key)
    return keys


def _footprint(tile: Tile, radius_m: float) -> list[tuple[int, int]]:
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
    angle = radius_m / MEAN_RADIUS_M
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
        pick = np.searchsorted(a, a[-1] * np.sin(angles))
        pick = pick[_starts(pick)]
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


def dominated_samples(tiles: Sequence[Tile], grid: np.ndarray, radius_m: float) -> np.ndarray:
    """Mask of the samples that have a strictly higher sample closer than ``radius_m``.

    ``grid`` is the (tiles, rows, cols) stack of the grids of ``tiles``.  A
    grey-scale dilation of each tile's grid by the union of the rectangles
    of its own :func:`_footprint`, made once for each run of consecutive
    tiles with one footprint: a sample is dominated exactly when the dilated
    value there is above its elevation.  Every higher sample found is in
    the sample's tile and closer than ``radius_m`` along the great circle.
    """
    dominated = np.zeros(grid.shape, dtype=bool)
    start = 0
    for footprint, run in itertools.groupby(_footprint(t, radius_m) for t in tiles):
        part = slice(start, start + len(list(run)))
        for a, b in footprint:
            dominated[part] |= _window_max(_window_max(grid[part], a, 1), b, 2) > grid[part]
        start = part.stop
    return dominated


def _starts(*columns: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``columns`` that differ from the one before in any column."""
    new = np.zeros(len(columns[0]), dtype=bool)
    new[:1] = True
    for column in columns:
        new[1:] |= column[1:] != column[:-1]
    return new


def peak_rows(tile: Tile, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """:data:`PEAK_DTYPE` rows, with no bound yet, of the tile's samples (``rows``, ``cols``)."""
    out = np.empty(len(rows), dtype=PEAK_DTYPE)
    out["lat"] = tile.sample_lats()[rows]
    out["lng"] = wrap_longitude_many(tile.sample_lngs()[cols])
    out["elevation"] = tile.elevations[rows, cols]
    out["home_lat"], out["home_lng"] = tile.key
    out["bound"] = np.inf
    return out


class Qualifying(NamedTuple):
    """One tile's samples with no strictly higher 8-neighbour: how many lie
    off its edge, and the :data:`PEAK_DTYPE` rows of those on it, which a
    neighbouring tile holds too."""

    interior: int
    on_edge: np.ndarray


def qualifying(tile: Tile, mask: Optional[np.ndarray] = None) -> Qualifying:
    """The :class:`Qualifying` samples of ``tile``, from ``mask`` when it is
    already at hand (``dem.qualifying_samples``)."""
    if mask is None:
        mask = qualifying_samples(tile.elevations)
    edge = np.zeros_like(mask)
    edge[[0, -1]] = mask[[0, -1]]
    edge[:, [0, -1]] = mask[:, [0, -1]]
    rows, cols = np.nonzero(edge)
    return Qualifying(int(mask.sum()) - len(rows), peak_rows(tile, rows, cols))


def count_qualifying(parts: Iterable[Qualifying]) -> int:
    """Samples with no strictly higher 8-neighbour over the tiles of
    ``parts``, each location once: the ``peaks=`` of the run summary."""
    parts = list(parts)
    on_edge = np.concatenate([np.empty(0, dtype=PEAK_DTYPE)] + [p.on_edge for p in parts])
    order = np.lexsort((on_edge["lng"], on_edge["lat"]))
    distinct = _starts(on_edge["lat"][order], on_edge["lng"][order])
    return sum(p.interior for p in parts) + int(np.count_nonzero(distinct))


@dataclass
class BoundingOutcome:
    """One batch's bounding pass; the peaks are :data:`PEAK_DTYPE` rows."""

    # Every peak searched, tile by tile, with its bound (inf where its tile
    # holds nothing higher), and the answer of each one with a higher sample
    # in its tile: CANDIDATE_DTYPE rows whose ``peak`` indexes ``searched``.
    searched: np.ndarray
    answers: np.ndarray
    # Per tile of the batch: its rows of ``searched``.
    peak_counts: np.ndarray
    # Qualifying samples the dilation dominates, over the batch, and each
    # tile's qualifying samples.
    dilation_discards: int
    qualifying: list[Qualifying]


def bounding_pass(
    tiles: Sequence[Tile],
    i_min: float,
    distance_mode: str,
    search: SearchWork | None = None,
) -> BoundingOutcome:
    """Settle each peak of a batch of same-shape tiles inside its own tile, at
    full resolution.

    A dilation first marks every sample with a strictly higher sample
    closer than ``i_min / BOUND_INFLATION`` (:func:`dominated_samples`).
    The final isolation of such a peak is at most its ellipsoid distance to
    the higher sample, and that is below the great-circle distance times
    the high end of ``geo.ELLIPSOID_RATIO_BAND``, 1.00449 < 1.011, so below
    ``i_min``: it is discarded, and the flat summits it covers everywhere
    are never labelled (``dem.peak_indices``).  The qualifying mask, the
    dilation and the detection each run once, on the stack of the batch's
    grids that its pyramid holds.  Every other peak is searched
    in its own tile of the batch's full-resolution pyramid under the final
    metric, all in one search whose counts are added to ``search`` if given;
    the answer is the peak's finalization candidate from its tile, and its
    distance times :data:`BOUND_INFLATION` is the peak's bound, which the
    caller tests against the threshold and assigns tiles by.
    """
    pyramid = ElevationPyramid(tiles)
    grid = pyramid.stack
    mask = qualifying_samples(grid)
    dominated = dominated_samples(tiles, grid, i_min / BOUND_INFLATION)
    by_tile, rows, cols = np.unravel_index(peak_indices(grid, dominated, mask), grid.shape)
    # A tile's high point is never dominated, so every tile has a peak.
    sizes = np.bincount(by_tile, minlength=len(tiles))
    cut = np.cumsum(sizes)[:-1]
    searched = np.concatenate(
        [
            peak_rows(tile, tile_rows, tile_cols)
            for tile, tile_rows, tile_cols in zip(tiles, np.split(rows, cut), np.split(cols, cut))
        ]
    )
    answers = pyramid.nearest_higher_many(
        searched["lat"],
        searched["lng"],
        searched["elevation"],
        by_tile,
        final_metric(distance_mode),
        search,
    )
    searched["bound"][answers["peak"]] = answers["distance"] * BOUND_INFLATION
    return BoundingOutcome(
        searched=searched,
        answers=answers,
        peak_counts=sizes,
        dilation_discards=int(np.count_nonzero(mask & dominated)),
        qualifying=[qualifying(tile, tile_mask) for tile, tile_mask in zip(tiles, mask)],
    )


def highpoint_pass(index: TileIndex, deferred: np.ndarray) -> np.ndarray:
    """Bound deferred peaks by the nearest strictly higher tile high point.

    One batched ``TileIndex.nearest_higher_tile`` query gives each peak's
    great-circle distance g to the nearest tile high point strictly higher
    than it.  Its isolation is at most its final-metric distance to that
    sample, at most 1.00449 g, and its limit point lies within great-circle
    distance 1.00449 g / 0.99440 < 1.0102 g, so g times
    :data:`BOUND_INFLATION` bounds both.  Returns the bound of each of the
    :data:`PEAK_DTYPE` rows ``deferred``: inf for a search-area high point,
    which has no higher tile anywhere.
    """
    dists = index.nearest_higher_tile(deferred["lat"], deferred["lng"], deferred["elevation"])
    return dists * BOUND_INFLATION


def distinct_peaks(peaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct peaks of ``peaks`` in location order, and each row's index among them.

    A peak is its location: the rows of a seam peak found by several tiles
    make one peak, with the smallest home tile.
    """
    order = np.lexsort((peaks["home_lng"], peaks["home_lat"], peaks["lng"], peaks["lat"]))
    ordered = peaks[order]
    first = _starts(ordered["lat"], ordered["lng"])
    ids = np.empty(len(peaks), dtype=np.intp)
    ids[order] = np.cumsum(first) - 1
    return ordered[first], ids


class Assignment(NamedTuple):
    """(tile, peak) pairs: parallel arrays of tile ordinals (into
    ``TileIndex.keys``), peak ids and each pair's smallest bound, in (tile,
    peak) order."""

    tiles: np.ndarray
    peak_rows: np.ndarray
    bounds: np.ndarray


def assign_tiles(
    index: TileIndex,
    found: np.ndarray,
    peak_ids: np.ndarray,
    work: Optional[SearchWork] = None,
) -> Assignment:
    """Assign every bound found to the tiles within it, in one batched query.

    ``found`` holds :data:`PEAK_DTYPE` rows with a finite bound, and
    ``peak_ids`` the peak each of them belongs to; a peak may have several
    rows.  ``work``, if given, counts the ``tiles_within`` work.
    """
    entry, tiles = index.tiles_within(found["lat"], found["lng"], found["bound"], work)
    ids, bounds = peak_ids[entry], found["bound"][entry]
    order = np.lexsort((bounds, ids, tiles))
    tiles, ids, bounds = tiles[order], ids[order], bounds[order]
    first = _starts(tiles, ids)
    return Assignment(tiles[first], ids[first], bounds[first])


def finalization_pass(
    tiles: Sequence[Tile],
    peaks: np.ndarray,
    positions: np.ndarray,
    metric,
    search: SearchWork | None = None,
) -> np.ndarray:
    """Full-resolution candidates for the peaks assigned to a batch of same-shape tiles.

    ``peaks`` are :data:`PEAK_DTYPE` rows, each assigned to the tile at its
    entry of ``positions`` in ``tiles``, and may lie outside that tile.
    Peaks at or above their tile's maximum elevation cannot have a
    candidate there and are skipped up front; the rest are answered by one
    search of the batch's pyramid, whose counts are added to ``search`` if
    given.

    Returns:
        One :data:`CANDIDATE_DTYPE` row per answered peak, ``peak`` being
        its row in ``peaks``.
    """
    maxima = np.array([t.max_elevation_m for t in tiles])
    below = np.flatnonzero(peaks["elevation"] < maxima[positions])
    if not len(below):
        return np.empty(0, dtype=CANDIDATE_DTYPE)
    queries = peaks[below]
    out = ElevationPyramid(tiles).nearest_higher_many(
        queries["lat"], queries["lng"], queries["elevation"], positions[below], metric, search
    )
    out["peak"] = below[out["peak"]]
    return out


def finalize(peaks: np.ndarray, candidates: np.ndarray) -> ResultArrays:
    """Pick the closest candidate per peak; no candidate means undefined.

    ``peaks`` are :data:`PEAK_DTYPE` rows, one per peak; the ``peak`` of
    each :data:`CANDIDATE_DTYPE` row indexes them.  A peak's answer is its
    candidate of smallest (distance, lat, lng) (:func:`nearest_per_peak`).
    Returns ``peaks`` with one answer per peak.
    """
    best = nearest_per_peak(candidates)
    answers = np.full(len(peaks), np.nan, dtype=ANSWER_DTYPE)
    for field in ANSWER_DTYPE.names:
        answers[field][best["peak"]] = best[field]
    return ResultArrays(peaks, answers)


def ilp_results(arrays: ResultArrays) -> list[IlpResult]:
    """One :class:`IlpResult` per peak of ``arrays``."""
    results = []
    for (lat, lng, elevation, home_lat, home_lng, _bound), (dist, ilp_lat, ilp_lng) in zip(
        arrays.peaks.tolist(), arrays.answers.tolist()
    ):
        peak = Peak(GeoPoint(lat, lng), elevation, (home_lat, home_lng))
        if math.isnan(dist):
            results.append(IlpResult(peak, None, None))
        else:
            results.append(IlpResult(peak, GeoPoint(ilp_lat, ilp_lng), dist))
    return results


def result_arrays(results: Sequence[IlpResult]) -> ResultArrays:
    """The peaks (with no bound) and answers of ``results``, as arrays."""
    nan = math.nan
    peaks = np.array(
        [(*r.peak.location, r.peak.elevation_m, *r.peak.home_tile, math.inf) for r in results],
        dtype=PEAK_DTYPE,
    )
    answers = np.array(
        [(nan, nan, nan) if r.ilp is None else (r.isolation_m, *r.ilp) for r in results],
        dtype=ANSWER_DTYPE,
    )
    return ResultArrays(peaks, answers)


@dataclass
class PipelineStats:
    tiles: int = 0
    samples: int = 0
    # Samples with no strictly higher 8-neighbour, each location once
    # (count_qualifying): flat summits are not all labelled, so they are
    # not counted as components.
    peaks_found: int = 0
    peaks_kept: int = 0
    deferred: int = 0
    discarded: int = 0
    # Qualifying samples the bounding pass's dilation dominates.
    dilation_discards: int = 0
    # Pyramid search counts of each tile pass (see SearchWork), summed over
    # its batches: the bounding pass queries the peaks the dilation leaves.
    bounding: SearchWork = field(default_factory=SearchWork)
    finalization: SearchWork = field(default_factory=SearchWork)
    # Tile assignment: (peak, tile) pairs whose vector distance was computed,
    # and the pairs kept after deduplication.
    assign_candidates: int = 0
    assigned_pairs: int = 0
    # Wall time of each stage, in this process.
    bounding_s: float = 0.0
    assign_s: float = 0.0
    highpoint_s: float = 0.0
    finalization_s: float = 0.0
    total_s: float = 0.0
    # Batches of tiles each tile pass searched (one pyramid and one search
    # each), and the worker seconds of those tasks, summed over tasks.
    bounding_batches: int = 0
    finalization_batches: int = 0
    bounding_task_s: float = 0.0
    finalization_task_s: float = 0.0


@dataclass
class PipelineResult:
    # The distinct peaks in location order and their answers.
    arrays: ResultArrays
    stats: PipelineStats
    area: Quadrilateral
    # What the audit views below are built from, on first use: every bound
    # found (PEAK_DTYPE rows, in the order found), and the assignment of the
    # peaks of ``arrays`` to the tiles of tile_keys.
    found: np.ndarray
    assignment: Assignment
    tile_keys: list[TileKey]

    @cached_property
    def results(self) -> list[IlpResult]:
        """One :class:`IlpResult` per peak, in location order."""
        return ilp_results(self.arrays)

    @cached_property
    def bounds_by_peak(self) -> dict[GeoPoint, list[float]]:
        """Every bound found per peak location, in the order found."""
        found = self.found
        out: dict[GeoPoint, list[float]] = {}
        for lat, lng, bound in zip(
            found["lat"].tolist(), found["lng"].tolist(), found["bound"].tolist()
        ):
            out.setdefault(GeoPoint(lat, lng), []).append(bound)
        return out

    @cached_property
    def map_snapshot(self) -> dict[TileKey, list[tuple[GeoPoint, float]]]:
        """Per tile, the (location, smallest bound) of each peak assigned to it,
        in location order."""
        peaks = self.arrays.peaks
        locations = [
            GeoPoint(lat, lng) for lat, lng in zip(peaks["lat"].tolist(), peaks["lng"].tolist())
        ]
        out: dict[TileKey, list[tuple[GeoPoint, float]]] = {}
        for t, k, bound in zip(*(a.tolist() for a in self.assignment)):
            out.setdefault(self.tile_keys[t], []).append((locations[k], bound))
        return out


def final_metric(distance_mode: str):
    """Metric used for final isolation under the given distance mode."""
    if distance_mode == "staged":
        return EllipsoidMetric()
    if distance_mode == "great-circle-only":
        return GreatCircleMetric()
    raise ValueError(f"unknown distance_mode {distance_mode!r}")


# Samples a batch of tiles may hold.  The tile passes search a batch in one
# stacked pyramid, which copies the batch's grids, so this bounds that copy
# (2 B a sample) and the pooling's (4 B a sample); a larger tile is a batch
# of its own.
_BATCH_SAMPLES = 1 << 22


def _batches(tiles: Sequence[Tile], workers: int) -> list[range]:
    """The batches of ``tiles`` one pass searches: runs of consecutive tiles of
    one shape and sample spacing, within :data:`_BATCH_SAMPLES` samples.
    Serially, that is all; a pool gets at least two batches per worker where
    there are tiles enough, so that a worker that finishes early takes
    another.  Returns index ranges into ``tiles``.
    """
    share = -(-len(tiles) // (1 if workers == 1 else 2 * workers))
    batches: list[range] = []
    for k, tile in enumerate(tiles):
        if batches:
            last = batches[-1]
            first = tiles[last.start]
            room = min(share, _BATCH_SAMPLES // first.elevations.size)
            same = (tile.shape, tile.steps_per_degree) == (first.shape, first.steps_per_degree)
            if same and len(last) < room:
                batches[-1] = range(last.start, k + 1)
                continue
        batches.append(range(k, k + 1))
    return batches


def _area_tiles(area: Quadrilateral, tiles: Mapping[TileKey, Tile] | Sequence[Tile]) -> list[Tile]:
    """The tiles covering ``area``, in key order.

    Raises:
        MissingTilesError: a tile inside the area is unavailable.
    """
    if not isinstance(tiles, Mapping):
        tiles = {t.key: t for t in tiles}
    keys = area_tile_keys(area)
    missing = [k for k in keys if k not in tiles]
    if missing:
        raise MissingTilesError(missing)
    return [tiles[k] for k in keys]


def _bounding_batch(args) -> tuple[BoundingOutcome, SearchWork, float]:
    """One batch's bounding pass, its search counts and its seconds."""
    tiles, i_min, distance_mode = args
    start = time.perf_counter()
    search = SearchWork()
    outcome = bounding_pass(tiles, i_min, distance_mode, search)
    return outcome, search, time.perf_counter() - start


def _finalization_batch(args) -> tuple[np.ndarray, SearchWork, float]:
    """One batch's finalization pass, its search counts and its seconds."""
    tiles, peaks, positions, distance_mode = args
    start = time.perf_counter()
    search = SearchWork()
    cands = finalization_pass(tiles, peaks, positions, final_metric(distance_mode), search)
    return cands, search, time.perf_counter() - start


def run_pipeline(
    area: Quadrilateral,
    tiles: Mapping[TileKey, Tile] | Sequence[Tile],
    i_min: float = 1000.0,
    threads: int = 1,
    distance_mode: str = "staged",
) -> PipelineResult:
    """Run bounding, high-point, and finalization passes over an area.

    Args:
        area: integer-degree aligned search area.
        tiles: the 1-degree tiles covering it, keyed by SW corner.
        threads: worker processes for the tile passes, at most one per
            tile and one per CPU this process may run on; each pass hands
            them batches of tiles (at least two per worker where there are
            tiles enough), so no worker gets more than a batch at a time.
            Output is identical for any value.

    Raises:
        MissingTilesError: a tile inside the area is unavailable.
    """
    started = time.perf_counter()
    final_metric(distance_mode)  # validate early
    area_tiles = _area_tiles(area, tiles)
    keys = [t.key for t in area_tiles]

    # More workers than tiles would only start idle processes, and more than
    # the CPUs this process may run on would only take turns on them.
    workers = min(threads, len(keys), len(os.sched_getaffinity(0)))
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        # Bounding pass: batch-parallel, joined in key order, so that tile t
        # of the index holds the searched rows of by_tile == t.
        t0 = time.perf_counter()
        batches = _batches(area_tiles, workers)
        bound_args = [([area_tiles[k] for k in b], i_min, distance_mode) for b in batches]
        if pool is None:
            bound_out = [_bounding_batch(a) for a in bound_args]
        else:
            bound_out = list(pool.map(_bounding_batch, bound_args))
        bounding_s = time.perf_counter() - t0

        stats = PipelineStats(
            tiles=len(keys),
            samples=sum(t.elevations.size for t in area_tiles),
            bounding_batches=len(batches),
        )
        for _outcome, search, seconds in bound_out:
            stats.bounding += search
            stats.bounding_task_s += seconds
        outcomes = [outcome for outcome, _search, _seconds in bound_out]
        stats.dilation_discards = sum(o.dilation_discards for o in outcomes)
        stats.peaks_found = count_qualifying(q for o in outcomes for q in o.qualifying)
        searched = np.concatenate([o.searched for o in outcomes])
        by_tile = np.repeat(np.arange(len(keys)), np.concatenate([o.peak_counts for o in outcomes]))
        # Each batch's answers index its own rows.
        answers = np.concatenate([o.answers for o in outcomes])
        firsts = np.cumsum([0] + [len(o.searched) for o in outcomes])[:-1]
        answers["peak"] += np.repeat(firsts, [len(o.answers) for o in outcomes])

        # High-point pass: a few peaks per tile, cheaper in this process
        # than a round trip through the pool.  A tile's high point always
        # defers, and the rows come tile by tile, so each tile's first
        # deferred row is its high point in the index.
        t0 = time.perf_counter()
        deferred = np.flatnonzero(np.isinf(searched["bound"]))
        first = deferred[_starts(by_tile[deferred])]
        if len(first) != len(keys):
            lacking = np.setdiff1d(np.arange(len(keys)), by_tile[first])
            lacking = [keys[t] for t in lacking.tolist()]
            raise RuntimeError(f"tiles without a deferred peak: {lacking}")
        high = searched[first]
        index = TileIndex(
            zip(keys, high["lat"].tolist(), high["lng"].tolist(), high["elevation"].tolist())
        )
        searched["bound"][deferred] = highpoint_pass(index, searched[deferred])
        stats.deferred = len(deferred)
        highpoint_s = time.perf_counter() - t0

        # Tile assignment of every bound found.  A peak is its location: its
        # row of smallest home tile, kept when any of its rows is bounded at
        # or above the threshold.
        t0 = time.perf_counter()
        kept = searched["bound"] >= i_min
        stats.discarded = stats.dilation_discards + int(np.count_nonzero(~kept))
        locations, ids = distinct_peaks(searched)
        live = np.zeros(len(locations), dtype=bool)
        live[ids[kept]] = True
        peaks = locations[live]
        peak_of = np.where(live, np.cumsum(live) - 1, -1)[ids]
        found = np.flatnonzero(kept & np.isfinite(searched["bound"]))
        work = SearchWork()
        assignment = assign_tiles(index, searched[found], peak_of[found], work)
        stats.assign_candidates = work.pairs
        stats.assigned_pairs = len(assignment.tiles)
        stats.peaks_kept = len(peaks)
        assign_s = time.perf_counter() - t0

        # Finalization pass: the bounding pass's answers are the candidates
        # of the (tile, peak) pairs it searched, so only the other pairs are
        # searched, tile-parallel.
        t0 = time.perf_counter()
        pair_tiles, pair_rows, _bounds = assignment
        row_live = peak_of >= 0
        # Keys are unique on both sides: an assignment pair once, and a tile
        # finds each location once.
        settled = np.isin(
            pair_tiles * len(peaks) + pair_rows,
            by_tile[row_live] * len(peaks) + peak_of[row_live],
            assume_unique=True,
        )
        pair_tiles, pair_rows = pair_tiles[~settled], pair_rows[~settled]
        answers["peak"] = peak_of[answers["peak"]]
        candidates = [answers[answers["peak"] >= 0]]

        # The tiles with pairs left, in key order, and each pair's ordinal
        # among them.
        new_tile = _starts(pair_tiles)
        starts = np.append(np.flatnonzero(new_tile), len(pair_tiles))
        ordinals = np.cumsum(new_tile) - 1
        final_tiles = [area_tiles[t] for t in pair_tiles[starts[:-1]].tolist()]
        batches = _batches(final_tiles, workers)
        stats.finalization_batches = len(batches)
        final_args = []
        for b in batches:
            a, z = starts[b.start], starts[b.stop]
            batch_tiles = [final_tiles[k] for k in b]
            final_args.append(
                (batch_tiles, peaks[pair_rows[a:z]], ordinals[a:z] - b.start, distance_mode)
            )
        if pool is None:
            final_out = [_finalization_batch(a) for a in final_args]
        else:
            final_out = list(pool.map(_finalization_batch, final_args))
        for b, (cands, search, seconds) in zip(batches, final_out):
            cands["peak"] = pair_rows[starts[b.start] + cands["peak"]]
            candidates.append(cands)
            stats.finalization += search
            stats.finalization_task_s += seconds
        arrays = finalize(peaks, np.concatenate(candidates))
        finalization_s = time.perf_counter() - t0
    finally:
        if pool is not None:
            pool.shutdown()

    stats.bounding_s = bounding_s
    stats.assign_s = assign_s
    stats.highpoint_s = highpoint_s
    stats.finalization_s = finalization_s
    stats.total_s = time.perf_counter() - started
    return PipelineResult(
        arrays=arrays,
        stats=stats,
        area=area,
        found=searched[found],
        assignment=assignment,
        tile_keys=index.keys,
    )


def run_merged_sweep(
    area: Quadrilateral,
    tiles: Mapping[TileKey, Tile] | Sequence[Tile],
    metric,
    trace_sink: Optional[list[PeakTrace]] = None,
) -> ResultArrays:
    """Single sweep over the merged area with the pipeline's peak set.

    Peaks are detected per tile and joined at seams by :func:`distinct_peaks`,
    the set the multi-pass pipeline resolves, so both paths are directly
    comparable.  Returns the peaks in location order and their answers.
    ``trace_sink`` is handed to ``run_sweep``.
    """
    tile_list = _area_tiles(area, tiles)
    merged = merge_tiles(tile_list)
    spd = merged.steps_per_degree
    width = merged.shape[1]
    # Each tile's peak rows, and their samples in the merged grid.
    tile_peaks, samples = [], []
    for tile in tile_list:
        rows, cols = np.divmod(detect_peaks(tile), tile.shape[1])
        tile_peaks.append(peak_rows(tile, rows, cols))
        top = (merged.quad.lat_max - tile.quad.lat_max) * spd
        left = (tile.origin_lng - merged.origin_lng) * spd
        samples.append((rows + top) * width + cols + left)
    peaks, ids = distinct_peaks(np.concatenate(tile_peaks))
    peak_samples = np.empty(len(peaks), dtype=np.int64)
    peak_samples[ids] = np.concatenate(samples)
    events = build_events(merged, peak_samples)
    candidates = run_sweep(events, merged, metric, trace_sink=trace_sink)
    # Each candidate's peak, from its sample to its row of peaks.
    by_sample = np.argsort(peak_samples)
    candidates["peak"] = by_sample[
        np.searchsorted(peak_samples, candidates["peak"], sorter=by_sample)
    ]
    return finalize(peaks, candidates)


def audit_pipeline(outcome: PipelineResult) -> list[str]:
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
        for key in tile_keys_within(outcome.area, loc, res.isolation_m):
            if loc not in assigned_locations.get(key, set()):
                problems.append(f"peak {loc} missing from tile {key} within its isolation")
    return problems
