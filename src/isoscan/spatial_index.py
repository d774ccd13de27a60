"""Spatial search structures for the sweep and the pipeline's passes.

``SphereKdTree`` is the sweep's index of active samples: a k-d tree built
once over the swept grid's rows and columns, whose nodes count their active
samples, so the sweep activates and deactivates samples by id and a search
makes points only for the active samples of the leaves it scans.

``ElevationPyramid`` is the static index of the bounding and finalization
passes over a stack of same-shape tiles (a batch): per tile, the maximum
elevation of every 8x8 block of samples, and a sample that attains it,
max-pooled 2x2 up to the tile's root cell, stored as numpy arrays per level
with a leading tile axis.  It answers a whole batch's queries, each for the
nearest strictly higher sample of its own tile, in two vectorised stages,
so a batch of small tiles pays the search's fixed cost of numpy calls once.
Most answers lie a few samples from their query, so a window of samples
around each query inside its tile comes first; the query is settled there
when a lower bound on the rest of the tile is beyond the window's best.
The other queries, and those outside their tile, go to a level-synchronous
descent over (query, cell) pair arrays from their tile's root, starting
from the window's best.  A tile's samples lie on a regular
latitude/longitude grid, so the search's geometry comes from per-row and
per-column tables, the tiles' own concatenated: the haversine of each
(query, sample) pair, the lower bound of each row and column band (a cell
or a strip outside a window) and the upper bound of each cell's maximum
sample, with no trigonometry per sample.  Only the samples in a narrow band
around each query's nearest by the haversine get the metric's exact
distance: its scalar definition mapped over the pairs.  The answers
are :data:`CANDIDATE_DTYPE` rows, one per query with a higher sample: the
format the pipeline's passes hand on, and each the one a pyramid of the
query's tile alone gives.  Both stages pick each query's answer with
:func:`nearest_per_peak`, the rule the pipeline's ``finalize`` applies
across tiles.

``TileIndex`` holds the search area's 1-degree tiles as flat arrays: each
tile's key and its high point, one sample of its maximum elevation.  It
answers, for arrays of points at once, the high-point pass's query for the
nearest tile high point strictly higher than the point, by the vector
great-circle distance to every tile's high point, and the tile
assignment's query for the tiles within each point's radius: an integer
tile box of each spherical cap, then the vector quadrilateral distance.

Nearest-neighbor queries take one of the two distance metrics,
``GreatCircleMetric`` or ``EllipsoidMetric``.  Each pairs its
point-to-point distance with a quadrilateral lower bound that never
exceeds the metric's distance to any point inside the quadrilateral; that
soundness is what makes pruned searches exactly equivalent to linear scans.
Each also maps its scalar distance over arrays of pairs,
``distance_exact_many``, and has the band (``low``, ``high``) of its
distance over the great-circle distance, which scales the pyramid's
great-circle bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .dem import Tile
from .geo import (
    ELLIPSOID_RATIO_BAND,
    MEAN_RADIUS_M,
    METRIC_ANISOTROPY,
    GeoPoint,
    ellipsoid_distance,
    great_circle_distance,
    great_circle_distance_many,
    wrap_longitude_many,
)
from .quad import Quadrilateral, min_distance, min_distance_many

__all__ = [
    "SampleStateError",
    "EmptyTreeError",
    "NonFiniteDistanceError",
    "GreatCircleMetric",
    "EllipsoidMetric",
    "SphereKdTree",
    "SearchWork",
    "CANDIDATE_DTYPE",
    "nearest_per_peak",
    "ElevationPyramid",
    "TileIndex",
]

TileKey = tuple[int, int]

# One answer of a nearest-higher search: the row of its query (a peak) in
# the query arrays, the distance, and the location of the higher sample,
# longitude wrapped into (-180, 180] as GeoPoint wraps it.
CANDIDATE_DTYPE = np.dtype(
    [("peak", np.int64), ("distance", np.float64), ("lat", np.float64), ("lng", np.float64)]
)

# Absolute slack (meters) on pruning comparisons: absorbs last-ulp noise in
# bound computations so equal-distance tie candidates are never pruned away.
_PRUNE_SLACK_M = 1e-6

# Scaling the great-circle quad bound by a factor below the low end of
# geo.ELLIPSOID_RATIO_BAND keeps pruning sound under the ellipsoid metric.
_ELLIPSOID_PRUNE_FACTOR = 0.9935

# Samples of a SphereKdTree leaf, at most.
_LEAF_SAMPLES = 32

# Samples per side of an ElevationPyramid leaf block.
_LEAF_SIDE = 8

# Half-width, in samples, of the window around each query's nearest sample
# that ElevationPyramid.nearest_higher_many searches before the descent.
_WINDOW_HALF = 3

# Queries per chunk of a pyramid search: bounds the (query, cell) pair arrays
# when queries with loose upper bounds fan out, while a batch of tiles goes
# in a few chunks.  Chosen by measurement: on a 3601x3601 tile at threshold 0
# (363,569 queries, one worker) 1024 read a maxrss of 310.5 MB against 309.9
# at 256, and 1536 to 4096 read 320 MB: the allocator keeps the heap that
# their larger leaf-block arrays grow.
_QUERY_CHUNK = 1024


class SampleStateError(LookupError):
    """Insert of an active sample or removal of an inactive one (a sweep-logic bug)."""


class EmptyTreeError(LookupError):
    """Nearest-neighbor query against an empty tree."""


class NonFiniteDistanceError(ArithmeticError):
    """A metric gave a NaN or infinite distance or bound during a search.

    A NaN loses every comparison, so the search would silently return a
    wrong answer; it stops instead.
    """


def _distances(distance, a_lats, a_lngs, b_lats, b_lngs) -> np.ndarray:
    """The scalar ``distance`` of each pair ``(a[k], b[k])`` of points given
    as one-dimensional coordinate arrays of one length: the scalar
    definition's own values, bit for bit."""
    a = zip(a_lats.tolist(), a_lngs.tolist())
    b = zip(b_lats.tolist(), b_lngs.tolist())
    return np.fromiter(map(distance, a, b), dtype=np.float64, count=len(a_lats))


class GreatCircleMetric:
    """Haversine distance with the exact quadrilateral minimum as bound.

    ``low`` and ``high`` bound the metric's distance over the great-circle
    distance, and ``anisotropy`` is the width of the chord band within
    which :class:`ElevationPyramid` and the oracle keep samples for the
    exact re-rank.
    """

    low = high = anisotropy = 1.0
    distance = staticmethod(great_circle_distance)

    def distance_exact_many(self, a_lats, a_lngs, b_lats, b_lngs) -> np.ndarray:
        return _distances(self.distance, a_lats, a_lngs, b_lats, b_lngs)

    def lower_bound(self, q: Quadrilateral, p: GeoPoint) -> float:
        return min_distance(q, p)


class EllipsoidMetric:
    """Flattening-corrected distance; bound is a safely scaled sphere bound."""

    low, high, anisotropy = _ELLIPSOID_PRUNE_FACTOR, ELLIPSOID_RATIO_BAND[1], METRIC_ANISOTROPY
    distance = staticmethod(ellipsoid_distance)

    def distance_exact_many(self, a_lats, a_lngs, b_lats, b_lngs) -> np.ndarray:
        return _distances(self.distance, a_lats, a_lngs, b_lats, b_lngs)

    def lower_bound(self, q: Quadrilateral, p: GeoPoint) -> float:
        return _ELLIPSOID_PRUNE_FACTOR * min_distance(q, p)


class SphereKdTree:
    """Nearest active sample of one latitude/longitude grid.

    A k-d tree (Bentley, CACM 1975) built once over the grid's rows and
    columns: sample ``r * len(lngs) + c`` is the point ``(lats[r], lngs[c])``.
    Each node is a rectangle of rows and columns, halved at its middle row or
    column along its longer ground side until it holds at most
    ``_LEAF_SAMPLES`` samples, and keeps the closed quadrilateral of its
    samples' coordinates and the count of its active samples.  Nodes are
    numbered as in a binary heap: the children of node ``n`` are ``2n + 1``
    and ``2n + 2``.  Inserting or removing a sample flips its activity flag
    and counts it along its fixed path from the root; a search skips nodes
    that hold no active sample.

    Single-writer: no concurrent mutation; each sweep owns its instance.
    """

    def __init__(self, lats: np.ndarray, lngs: np.ndarray):
        self._lats = lats = np.asarray(lats, dtype=np.float64).tolist()
        self._lngs = lngs = np.asarray(lngs, dtype=np.float64).tolist()
        rows, cols = len(lats), len(lngs)
        self._cols = cols
        self._active = bytearray(rows * cols)
        leaf_of = np.empty((rows, cols), dtype=np.int32)
        quads: list[Optional[Quadrilateral]] = []
        # Per leaf, its (first row, stop row, first column, stop column) and
        # its path of nodes from the root; None elsewhere.
        rects: list[Optional[tuple[int, int, int, int]]] = []
        paths: list[Optional[tuple[int, ...]]] = []
        level = [((0,), 0, rows, 0, cols)]
        while level:
            # Level k holds nodes 2^k - 1 to 2^(k + 1) - 2.
            slots = [None] * (len(quads) + 1)
            quads += slots
            rects += slots
            paths += slots
            below = []
            for path, r0, r1, c0, c1 in level:
                node = path[-1]
                lat, lng = lats[r0:r1], lngs[c0:c1]
                quad = quads[node] = Quadrilateral(min(lat), max(lat), min(lng), max(lng))
                if (r1 - r0) * (c1 - c0) <= _LEAF_SAMPLES:
                    rects[node] = (r0, r1, c0, c1)
                    paths[node] = path
                    leaf_of[r0:r1, c0:c1] = node
                    continue
                ground_lat = quad.lat_max - quad.lat_min
                mid_cos = math.cos(math.radians((quad.lat_min + quad.lat_max) * 0.5))
                ground_lng = (quad.lng_max - quad.lng_min) * mid_cos
                low, high = path + (2 * node + 1,), path + (2 * node + 2,)
                if c1 - c0 == 1 or (r1 - r0 > 1 and ground_lat >= ground_lng):
                    mid = (r0 + r1) // 2
                    below += [(low, r0, mid, c0, c1), (high, mid, r1, c0, c1)]
                else:
                    mid = (c0 + c1) // 2
                    below += [(low, r0, r1, c0, mid), (high, r0, r1, mid, c1)]
            level = below
        self._quads, self._rects, self._paths = quads, rects, paths
        self._counts = [0] * len(quads)
        self._leaf_of = memoryview(leaf_of.reshape(-1))

    def __len__(self) -> int:
        return self._counts[0]

    def insert(self, sample: int) -> None:
        """Activate ``sample``.

        Raises:
            SampleStateError: ``sample`` is already active.
        """
        if self._active[sample]:
            raise SampleStateError(f"insert of active sample {sample}")
        self._active[sample] = 1
        counts = self._counts
        for node in self._paths[self._leaf_of[sample]]:
            counts[node] += 1

    def remove(self, sample: int) -> None:
        """Deactivate ``sample``.

        Raises:
            SampleStateError: ``sample`` is not active.
        """
        if not self._active[sample]:
            raise SampleStateError(f"remove of absent sample {sample}")
        self._active[sample] = 0
        counts = self._counts
        for node in self._paths[self._leaf_of[sample]]:
            counts[node] -= 1

    def nearest_neighbor(self, p: GeoPoint, metric) -> tuple[GeoPoint, float]:
        """Exact nearest active sample to ``p`` under ``metric``, as its point
        and distance.

        Ties on distance are broken by ascending (lat, lng) of the sample.

        Raises:
            EmptyTreeError: no sample is active.
            NonFiniteDistanceError: the metric gave a NaN or infinite
                distance or bound.
        """
        counts, quads, rects = self._counts, self._quads, self._rects
        if not counts[0]:
            raise EmptyTreeError("nearest_neighbor on empty index")
        lats, lngs, cols, active = self._lats, self._lngs, self._cols, self._active
        dist = metric.distance
        bound = metric.lower_bound
        isfinite = math.isfinite
        best_d = math.inf
        best_pt: Optional[GeoPoint] = None

        def child_bound(node: int) -> float:
            if not counts[node]:
                return math.inf
            b = bound(quads[node], p)
            if not isfinite(b):
                raise _non_finite("bound", b, p)
            return b

        def visit(node: int) -> None:
            # A node with no active sample is never entered: its bound is
            # inf, and it is second to a sibling that makes best_d finite.
            nonlocal best_d, best_pt
            rect = rects[node]
            if rect is not None:
                r0, r1, c0, c1 = rect
                for r in range(r0, r1):
                    lat, base = lats[r], r * cols
                    for c in range(c0, c1):
                        if not active[base + c]:
                            continue
                        q = GeoPoint(lat, lngs[c])
                        d = dist(p, q)
                        if not isfinite(d):
                            raise _non_finite("distance", d, p)
                        if d < best_d or (d == best_d and (best_pt is None or q < best_pt)):
                            best_d = d
                            best_pt = q
                return
            low, high = 2 * node + 1, 2 * node + 2
            b_low = child_bound(low)
            b_high = child_bound(high)
            if b_low <= b_high:
                first, b_first, second, b_second = low, b_low, high, b_high
            else:
                first, b_first, second, b_second = high, b_high, low, b_low
            if b_first <= best_d + _PRUNE_SLACK_M:
                visit(first)
            if b_second <= best_d + _PRUNE_SLACK_M:
                visit(second)

        visit(0)
        return best_pt, best_d


def _non_finite(what: str, value: float, p: GeoPoint) -> NonFiniteDistanceError:
    return NonFiniteDistanceError(f"non-finite {what} {value!r} for query point {p}")


def _check_finite(what: str, values: np.ndarray, p_lats: np.ndarray, p_lngs: np.ndarray) -> None:
    """Raise for the first NaN or infinite entry of ``values``, naming its query point."""
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(bad.argmax())
        p = GeoPoint(float(p_lats[k]), float(p_lngs[k]))
        raise _non_finite(what, float(values[k]), p)


def _select(keep: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The entries of each array where ``keep`` holds."""
    return tuple(a[keep] for a in arrays)


def _padded(distance):
    """``distance`` plus the slack that absorbs rounding: 1e-3 m plus 1e-9 of it."""
    return distance + 1e-3 + distance * 1e-9


def _within_slack(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``lower <= upper`` up to the slack of :func:`_padded`.

    Vector distances and bounds may differ from the scalar ones in the last
    ulps, so nothing within the slack is pruned.
    """
    return lower <= _padded(upper)


@dataclass
class SearchWork:
    """Work counts of a batched search, summed over calls.

    For :meth:`ElevationPyramid.nearest_higher_many`, ``window_resolved``
    counts the queries its window stage answers; of the others, ``pairs``
    counts the (query, cell) pairs of the descent that survive pruning, over
    all levels, and ``leaf_samples`` the strictly higher samples of the
    leaf blocks that the chord screen ranks.  For
    :meth:`TileIndex.tiles_within`, ``pairs`` counts the (query, tile) pairs
    whose vector distance was computed.
    """

    queries: int = 0
    window_resolved: int = 0
    pairs: int = 0
    leaf_samples: int = 0

    def __iadd__(self, other: SearchWork) -> SearchWork:
        """Add ``other``'s counts to these."""
        for field in fields(self):
            setattr(self, field.name, getattr(self, field.name) + getattr(other, field.name))
        return self


class _Level(NamedTuple):
    """One pyramid level of a stack of tiles: ``maxima[t, i, j]`` is the
    highest elevation of cell (i, j) of tile ``t``, and (``arg_rows[t, i, j]``,
    ``arg_cols[t, i, j]``) a sample of that tile that attains it, as a row
    and a column of the stack's tables."""

    maxima: np.ndarray
    arg_rows: np.ndarray
    arg_cols: np.ndarray


def _pool(values: np.ndarray, side: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximum of each ``side`` x ``side`` block of each tile of a (tiles, rows,
    cols) stack, and the (row, col) in its tile of an entry that attains it.

    Ragged edge blocks are smaller; their missing entries never win.
    """
    tiles, rows, cols = values.shape
    out_rows, out_cols = -(-rows // side), -(-cols // side)
    shape = (tiles, out_rows * side, out_cols * side)
    padded = np.full(shape, np.iinfo(np.int32).min, dtype=np.int32)
    padded[:, :rows, :cols] = values
    blocks = padded.reshape(tiles, out_rows, side, out_cols, side).transpose(0, 1, 3, 2, 4)
    blocks = blocks.reshape(tiles, out_rows, out_cols, side * side)
    arg = blocks.argmax(axis=3)
    _, block_rows, block_cols = np.indices(arg.shape)
    return (
        np.take_along_axis(blocks, arg[..., None], axis=3)[..., 0],
        block_rows * side + arg // side,
        block_cols * side + arg % side,
    )


def _half_angles(degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin and cos of half of each angle."""
    half = np.radians(degrees) * 0.5
    return np.sin(half), np.cos(half)


class _Queries(NamedTuple):
    """A search's query points, longitude wrapped as :class:`GeoPoint` wraps
    it, each one's tile (its position in the stack), and their half-angle
    and latitude-cosine terms (see :meth:`ElevationPyramid._hav`)."""

    lats: np.ndarray
    lngs: np.ndarray
    elevations: np.ndarray
    tiles: np.ndarray
    lat_sin: np.ndarray
    lat_cos: np.ndarray
    cos_lat: np.ndarray
    lng_sin: np.ndarray
    lng_cos: np.ndarray

    @classmethod
    def of(cls, lats, lngs, elevations, tiles) -> "_Queries":
        lats = np.asarray(lats, dtype=np.float64)
        lngs = wrap_longitude_many(np.asarray(lngs, dtype=np.float64))
        return cls(
            lats,
            lngs,
            np.asarray(elevations),
            np.asarray(tiles, dtype=np.intp),
            *_half_angles(lats),
            np.cos(np.radians(lats)),
            *_half_angles(lngs),
        )


# A table haversine (ElevationPyramid._hav) differs from the one the scalar
# distances compute by at most about 5e-15 times its square root: sin(dlat/2)
# is good to about 1.2e-15 either way.  The comparisons on haversines allow
# four times that.  It matters only near half the circumference, where the
# haversine flattens and the millimetre slack of _padded is below an ulp of it.
def _allowed(hav: np.ndarray) -> np.ndarray:
    """``hav`` plus the rounding allowance of table haversines."""
    return hav + 2e-14 * np.sqrt(hav) + 1e-30


def _meters(hav: np.ndarray) -> np.ndarray:
    """Great-circle distance of each haversine, as the haversine formula gives it;
    inf stays inf."""
    h = np.minimum(hav, 1.0)
    arc = 2.0 * MEAN_RADIUS_M * np.arctan2(np.sqrt(h), np.sqrt(1.0 - h))
    return np.where(hav < np.inf, arc, np.inf)


def _hav_within(meters: np.ndarray) -> np.ndarray:
    """The haversine, rounding allowed, up to which a sample may lie within
    ``meters`` along the great circle; from half the circumference on, 2, above
    every table haversine but below inf."""
    angle = np.minimum(meters / MEAN_RADIUS_M, math.pi)
    return np.where(angle < math.pi, _allowed(np.sin(angle * 0.5) ** 2), 2.0)


def _reach(best: np.ndarray, metric) -> np.ndarray:
    """The haversine beyond which every sample is farther than ``best`` under
    the metric, slack included: a sample at great-circle distance g lies at
    least ``metric.low * g`` away."""
    return _hav_within(_padded(best) / metric.low)


def _upper(hav: np.ndarray, metric) -> np.ndarray:
    """An upper bound on the metric's distance to a sample at table haversine
    ``hav``: at most ``metric.high`` times the great-circle distance."""
    return _padded(metric.high * _meters(_allowed(hav)))


# Child offsets (row, col) of a cell's 2 x 2 children, and the row (column)
# offsets of a leaf block's samples and of a window's from its centre.
_CHILD_ROWS, _CHILD_COLS = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
_LEAF_OFFSETS = np.arange(_LEAF_SIDE)
_WINDOW_OFFSETS = np.arange(-_WINDOW_HALF, _WINDOW_HALF + 1)


class ElevationPyramid:
    """Static max-elevation pyramid over a stack of same-shape tiles.

    Level 0 holds the maximum elevation of each 8x8 block of samples (edge
    blocks may be smaller); each level above max-pools 2x2 cells of the one
    below, up to a single root cell.  Every tile is pooled on its own, so no
    cell spans two tiles and each tile has its own root.  Every cell also
    keeps the row and column of one sample that attains its maximum.  A
    cell covers the closed quadrilateral spanned by its samples'
    coordinates.

    The geometry of a search comes from per-row and per-column tables, the
    tiles' own concatenated in stack order: the sine and cosine of half of
    each row's latitude and each column's longitude, and each row's cosine
    of latitude (:meth:`_hav`).  Row ``r`` of tile ``t`` is row
    ``t * rows + r`` of the stack, and its column ``c`` column ``t * cols +
    c``.  A stack of one tile holds its grid without a copy.

    Immutable after construction; safe for concurrent readers.
    """

    def __init__(self, tiles: Sequence[Tile]):
        first = tiles[0]
        spacing = (first.shape, first.steps_per_degree)
        if any((t.shape, t.steps_per_degree) != spacing for t in tiles):
            raise ValueError("a pyramid stacks tiles of one shape and sample spacing")
        self._tile_shape = rows, cols = first.shape
        self._steps_per_degree = first.steps_per_degree
        # The grids as one (tiles * rows, cols) array: stack rows, tile columns.
        if len(tiles) == 1:
            self._grid = first.elevations
        else:
            self._grid = np.concatenate([t.elevations for t in tiles])
        self._lats = np.concatenate([t.sample_lats() for t in tiles])
        self._lngs = np.concatenate([t.sample_lngs() for t in tiles])
        self._lat_sin, self._lat_cos = _half_angles(self._lats)
        self._cos_lat = np.cos(np.radians(self._lats))
        self._lng_sin, self._lng_cos = _half_angles(self._lngs)
        maxima, arg_rows, arg_cols = _pool(self._grid.reshape(len(tiles), rows, cols), _LEAF_SIDE)
        stack = np.arange(len(tiles))[:, None, None]
        arg_rows, arg_cols = arg_rows + stack * rows, arg_cols + stack * cols
        self.levels: list[_Level] = [_Level(maxima, arg_rows, arg_cols)]
        while maxima.shape[1:] != (1, 1):
            maxima, child_rows, child_cols = _pool(maxima, 2)
            arg_rows = arg_rows[stack, child_rows, child_cols]
            arg_cols = arg_cols[stack, child_rows, child_cols]
            self.levels.append(_Level(maxima, arg_rows, arg_cols))

    @property
    def stack(self) -> np.ndarray:
        """The tiles' grids as one (tiles, rows, cols) array, the tile's own
        grid for a stack of one."""
        return self._grid.reshape(-1, *self._tile_shape)

    def nearest_higher_many(
        self,
        lats: np.ndarray,
        lngs: np.ndarray,
        elevations: np.ndarray,
        tiles: np.ndarray,
        metric,
        work: Optional[SearchWork] = None,
    ) -> np.ndarray:
        """Nearest sample of its tile strictly higher than each query's elevation.

        ``tiles`` gives each query's tile as its position in the stack; a
        query may lie outside its tile, and every answer is the one a
        pyramid of that tile alone gives.  Two stages,
        :data:`_QUERY_CHUNK` queries at a time, both on the row and column
        tables (:meth:`_hav`), with no trigonometry per sample.  The window
        stage (:meth:`_window`) answers a query inside its tile from the
        samples within :data:`_WINDOW_HALF` rows and columns of its nearest
        sample when one of them is strictly higher and a lower bound on the
        rest of the tile (:meth:`_floor`) is beyond the window's best.  The
        other queries, and all queries outside their tile, go to a
        level-synchronous branch and bound over (query, cell) pair arrays
        (:meth:`_descend`), each from its tile's root, starting from an
        upper bound on the window's best.  At each level every pair expands
        to the children whose maximum is strictly above its query's
        elevation; a child is pruned when the lower bound of its row and
        column band exceeds the query's smallest upper bound, the distance
        to a cell's stored maximum sample scaled by the metric's ``high``.
        Both stages rank the strictly higher samples of their blocks
        (:meth:`_chord_band`) and take the exact distance only of those in
        the chord band, ``metric.anisotropy`` times the nearest's
        great-circle distance plus a slack; ties break by ascending (lat,
        lng), so each answer is bit-identical to a scalar scan.  ``work``,
        if given, accumulates the search's counts.

        Returns:
            One :data:`CANDIDATE_DTYPE` row per query with a strictly higher
            sample, in query order; ``peak`` is the query's index.

        Raises:
            NonFiniteDistanceError: the metric gave a NaN or infinite
                distance.
        """
        lats = np.asarray(lats, dtype=np.float64)
        lngs = np.asarray(lngs, dtype=np.float64)
        elevations = np.asarray(elevations)
        tiles = np.asarray(tiles, dtype=np.intp)
        n = len(lats)
        work = SearchWork() if work is None else work
        work.queries += n
        found = np.empty(n, dtype=CANDIDATE_DTYPE)
        answered = np.zeros(n, dtype=bool)
        best = np.empty(n)
        for start in range(0, n, _QUERY_CHUNK):
            part = np.arange(start, min(start + _QUERY_CHUNK, n))
            queries = _Queries.of(lats[part], lngs[part], elevations[part], tiles[part])
            settled, best[part] = self._window(queries, metric)
            settled["peak"] = part[settled["peak"]]
            found[settled["peak"]], answered[settled["peak"]] = settled, True
        work.window_resolved += int(answered.sum())
        pending = np.flatnonzero(~answered)
        for start in range(0, len(pending), _QUERY_CHUNK):
            part = pending[start : start + _QUERY_CHUNK]
            queries = _Queries.of(lats[part], lngs[part], elevations[part], tiles[part])
            rows = self._descend(queries, best[part], metric, work)
            rows["peak"] = part[rows["peak"]]
            found[rows["peak"]], answered[rows["peak"]] = rows, True
        return found[answered]

    def _edges(self, tiles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The first row and the first column of each tile in the stack's tables."""
        rows, cols = self._tile_shape
        return tiles * rows, tiles * cols

    def _window(self, p: _Queries, metric) -> tuple[np.ndarray, np.ndarray]:
        """Each query's nearest higher sample in the window around its nearest sample.

        Returns the :data:`CANDIDATE_DTYPE` rows of the queries the window
        settles, and for each query an upper bound on its answer (inf when
        its window holds nothing higher).  A query inside its tile whose
        window holds a strictly higher sample is settled when the lower
        bound on the at most four strips of the tile outside the window is
        beyond the exact distance of the window's best by more than the
        slack.  That bound is first held against the window's least table
        haversine: a query whose strips come that close is not settled
        whatever its exact distance, so it gets none, and the table upper
        bound of that nearest sample goes to the descent instead.
        """
        rows, cols = self._tile_shape
        top, left = self._edges(p.tiles)
        north, south = self._lats[top], self._lats[top + rows - 1]  # row 0 is north
        west, east = self._lngs[left], self._lngs[left + cols - 1]
        inside = (south <= p.lats) & (p.lats <= north) & (west <= p.lngs) & (p.lngs <= east)
        q = np.flatnonzero(inside)
        steps = self._steps_per_degree
        centre_rows = np.clip(np.rint((north[q] - p.lats[q]) * steps), 0, rows - 1)
        centre_cols = np.clip(np.rint((p.lngs[q] - west[q]) * steps), 0, cols - 1)
        centre_rows = top[q] + centre_rows.astype(np.intp)
        centre_cols = left[q] + centre_cols.astype(np.intp)
        window_rows = centre_rows[:, None] + _WINDOW_OFFSETS
        window_cols = centre_cols[:, None] + _WINDOW_OFFSETS
        lowest, *band = self._chord_band(q, window_rows, window_cols, p, metric)
        has = np.flatnonzero(lowest < np.inf)
        at = np.searchsorted(q, has)
        strip, *strips = self._strips(centre_rows[at], centre_cols[at], p.tiles[has])
        outside = np.full(len(p.lats), np.inf)
        np.minimum.at(outside, has[strip], self._floor(*strips, has[strip], p))
        upper = _upper(lowest, metric)
        # _reach of the exact distance of any window sample lies above the
        # window's least table haversine (slack and rounding allowance), so
        # strips at or below it leave the query unsettled.  A query with
        # nothing higher in its window has both at inf.
        may_settle = outside > lowest
        nearest = self._exact(*_select(may_settle[band[0]], *band), p, metric)
        upper[nearest["peak"]] = nearest["distance"]
        settled = outside[nearest["peak"]] > _reach(nearest["distance"], metric)
        return nearest[settled], upper

    def _strips(self, centre_rows, centre_cols, tiles) -> tuple[np.ndarray, ...]:
        """The strips of each centre sample's tile outside the window around it:
        the full-width strips north and south of it, and the strips west and
        east of it across its rows, where they exist.  With the window they
        cover the tile once.  Centres, and the strips' rows and columns, are
        rows and columns of the stack's tables; ``tiles`` gives each
        centre's tile.  Returns each strip's window (an index into the
        centres) and its first and last rows and columns.
        """
        rows, cols = self._tile_shape
        north, west = self._edges(tiles)
        south, east = north + rows - 1, west + cols - 1
        top = np.maximum(centre_rows - _WINDOW_HALF, north)
        bottom = np.minimum(centre_rows + _WINDOW_HALF, south)
        left = np.maximum(centre_cols - _WINDOW_HALF, west)
        right = np.minimum(centre_cols + _WINDOW_HALF, east)
        window = np.arange(len(top))
        strips = [
            _select(exists, window, *band)
            for exists, *band in (
                (top > north, north, top - 1, west, east),
                (bottom < south, bottom + 1, south, west, east),
                (left > west, top, bottom, west, left - 1),
                (right < east, top, bottom, right + 1, east),
            )
        ]
        return tuple(np.concatenate(columns) for columns in zip(*strips))

    def _descend(self, p: _Queries, best: np.ndarray, metric, work: SearchWork) -> np.ndarray:
        """Descend the pyramid with one chunk of queries, each from its tile's
        root down to the leaf blocks.

        ``best`` holds an upper bound on each query's answer (inf for none).
        Returns the answers as :data:`CANDIDATE_DTYPE` rows, ``peak`` being
        the query's index in the chunk.
        """
        n = len(p.lats)
        grid_rows, grid_cols = self._tile_shape
        top, left = self._edges(p.tiles)
        reach = _reach(best, metric)
        # Every query starts at a virtual cell whose child (0, 0) is the
        # root of its tile, t.
        q, t = np.arange(n), p.tiles
        i = j = np.zeros(n, dtype=np.intp)
        for depth in reversed(range(len(self.levels))):
            level, side = self.levels[depth], _LEAF_SIDE << depth
            q, t = np.repeat(q, 4), np.repeat(t, 4)
            i = (2 * i[:, None] + _CHILD_ROWS).ravel()
            j = (2 * j[:, None] + _CHILD_COLS).ravel()
            _, rows, cols = level.maxima.shape
            q, t, i, j = _select((i < rows) & (j < cols), q, t, i, j)
            q, t, i, j = _select(level.maxima[t, i, j] > p.elevations[q], q, t, i, j)
            first_row, first_col = top[q] + i * side, left[q] + j * side
            last_row = top[q] + np.minimum(i * side + side, grid_rows) - 1
            last_col = left[q] + np.minimum(j * side + side, grid_cols) - 1
            floor = self._floor(first_row, last_row, first_col, last_col, q, p)
            q, t, i, j, floor = _select(floor <= reach[q], q, t, i, j, floor)
            # A cell's maximum sample is strictly higher than the query.
            upper = np.full(n, np.inf)
            cell = t, i, j
            np.minimum.at(upper, q, self._hav(level.arg_rows[cell], level.arg_cols[cell], q, p))
            best = np.minimum(best, _upper(upper, metric))
            reach = _reach(best, metric)
            q, t, i, j = _select(floor <= reach[q], q, t, i, j)
            work.pairs += len(q)
        rows = (top[q] + i * _LEAF_SIDE)[:, None] + _LEAF_OFFSETS
        cols = (left[q] + j * _LEAF_SIDE)[:, None] + _LEAF_OFFSETS
        _lowest, *band = self._chord_band(q, rows, cols, p, metric, work)
        return self._exact(*band, p, metric)

    def _hav_lat(self, rows, q, p: _Queries):
        """hav(latitude difference) of table rows ``rows`` from queries ``q``.

        sin((a - b) / 2) as sin(a/2) cos(b/2) - cos(a/2) sin(b/2): accurate to
        about 1e-16 absolute, where 1 - cos(a - b) keeps only about five
        digits between samples one arc-second apart.
        """
        d = self._lat_sin[rows] * p.lat_cos[q] - self._lat_cos[rows] * p.lat_sin[q]
        return d * d

    def _hav_lng(self, cols, q, p: _Queries):
        """hav(longitude difference) of table columns ``cols`` from queries ``q``;
        hav has period 360 degrees, so it needs no wrapping."""
        d = self._lng_sin[cols] * p.lng_cos[q] - self._lng_cos[cols] * p.lng_sin[q]
        return d * d

    def _hav(self, rows, cols, q, p: _Queries):
        """Haversine of the central angle from query ``q`` to sample (``rows``, ``cols``):
        hav(dlat) + cos(lat_p) cos(lat) hav(dlng)."""
        weight = p.cos_lat[q] * self._cos_lat[rows]
        return self._hav_lat(rows, q, p) + weight * self._hav_lng(cols, q, p)

    def _floor(self, first_row, last_row, first_col, last_col, q, p: _Queries):
        """Lower bound on the haversine from query ``q`` to every sample of the rows
        ``first_row..last_row`` and columns ``first_col..last_col``.

        The haversine identity with each term at its least over the band: the
        latitude term at the band's row nearest the query (0 within it), the
        cosine of latitude at the band's edge row farther from the equator,
        and the longitude term at the nearer edge column, or 0 between them.
        Off the band, hav(dlng) only grows from the edge toward the meridian
        opposite the query, so the nearer edge is its least, across the
        antimeridian too.
        """
        north = p.lats[q] > self._lats[first_row]  # row 0 is north
        south = p.lats[q] < self._lats[last_row]
        nearest_row = np.where(north, first_row, last_row)
        hav_lat = np.where(north | south, self._hav_lat(nearest_row, q, p), 0.0)
        cos_lat = np.minimum(self._cos_lat[first_row], self._cos_lat[last_row])
        between = (self._lngs[first_col] <= p.lngs[q]) & (p.lngs[q] <= self._lngs[last_col])
        edge = np.minimum(self._hav_lng(first_col, q, p), self._hav_lng(last_col, q, p))
        return hav_lat + p.cos_lat[q] * cos_lat * np.where(between, 0.0, edge)

    def _chord_band(self, q, rows, cols, p: _Queries, metric, work=None):
        """The strictly higher samples of each query's blocks that may be its nearest.

        Block ``e`` of query ``q[e]`` is the samples (``rows[e, a]``,
        ``cols[e, b]``), rows and columns of the stack's tables; entries off
        the query's tile are left out.  The blocks are gathered as one
        (blocks, side, side) array and ranked by haversine (:meth:`_hav`).
        Of each query's samples, those within the chord band of the nearest,
        ``metric.anisotropy`` times its great-circle distance plus the slack
        of :func:`_padded`, are kept: the nearest by the metric is one of
        them, because its ratio to the great-circle distance lies in a band
        that narrow.  ``work``, if given, counts the strictly higher samples
        as leaf samples.

        Returns each query's least haversine (inf for none), and the query,
        row and column of every sample kept.
        """
        grid_rows, grid_cols = self._tile_shape
        top, left = self._edges(p.tiles[q])
        rows, cols = rows - top[:, None], cols - left[:, None]  # in the tile
        row_in, col_in = (0 <= rows) & (rows < grid_rows), (0 <= cols) & (cols < grid_cols)
        rows = np.minimum(np.maximum(rows, 0), grid_rows - 1) + top[:, None]
        cols = np.minimum(np.maximum(cols, 0), grid_cols - 1)
        higher = self._grid[rows[:, :, None], cols[:, None, :]] > p.elevations[q, None, None]
        cols += left[:, None]
        higher &= row_in[:, :, None]
        higher &= col_in[:, None, :]
        k = q[:, None]
        weight = p.cos_lat[k] * self._cos_lat[rows]
        hav = weight[:, :, None] * self._hav_lng(cols, k, p)[:, None, :]
        hav += self._hav_lat(rows, k, p)[:, :, None]
        np.copyto(hav, np.inf, where=~higher)
        lowest = np.full(len(p.lats), np.inf)
        np.minimum.at(lowest, q, hav.min(axis=(1, 2)))
        band = _hav_within(_padded(metric.anisotropy * _meters(lowest)))
        side = rows.shape[1]
        e, a = np.divmod(np.flatnonzero(hav <= band[q, None, None]), side * side)
        a, b = np.divmod(a, side)
        if work is not None:
            work.leaf_samples += int(np.count_nonzero(higher))
        return lowest, q[e], rows[e, a], cols[e, b]

    def _exact(self, k, rows, cols, p: _Queries, metric) -> np.ndarray:
        """The exact distance (``metric.distance_exact_many``) from each query
        ``k`` to its sample (``rows``, ``cols``), and each query's nearest of
        them by :func:`nearest_per_peak`, as :data:`CANDIDATE_DTYPE` rows."""
        out = np.empty(len(k), dtype=CANDIDATE_DTYPE)
        out["peak"], out["lat"] = k, self._lats[rows]
        out["lng"] = wrap_longitude_many(self._lngs[cols])
        out["distance"] = metric.distance_exact_many(p.lats[k], p.lngs[k], out["lat"], out["lng"])
        _check_finite("distance", out["distance"], p.lats[k], p.lngs[k])
        return nearest_per_peak(out)


def nearest_per_peak(candidates: np.ndarray) -> np.ndarray:
    """Each peak's :data:`CANDIDATE_DTYPE` row of smallest (distance, lat, lng),
    in peak order; of equal rows, the first."""
    order = np.lexsort(
        (candidates["lng"], candidates["lat"], candidates["distance"], candidates["peak"])
    )
    best = candidates[order]
    first = np.ones(len(best), dtype=bool)
    first[1:] = best["peak"][1:] != best["peak"][:-1]
    return best[first]


def _spans(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every integer of each range [``starts[k]``, ``stops[k]``), and its ``k``."""
    counts = np.maximum(stops - starts, 0)
    owner = np.repeat(np.arange(len(counts)), counts)
    offsets = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, starts[owner] + offsets


# Padding (degrees) of the tile boxes of tiles_within: absorbs the rounding
# of the spherical-cap extents.
_CAP_PAD_DEG = 1e-9

# Cap longitude half-widths beyond this many degrees scan every tile column:
# the three shifted column ranges of tiles_within then never overlap.
_CAP_FULL_WIDTH_DEG = 90.0

# Bounds the (query, tile) distance arrays of nearest_higher_tile.
_TILE_PAIR_CHUNK = 1 << 20


class TileIndex:
    """The area's 1-degree tiles as flat arrays, in ascending key order.

    Tile ``t`` has SW corner ``keys[t]`` and covers the closed
    quadrilateral ``[lat, lat + 1] x [lng, lng + 1]`` of that corner.  Its
    high point is one sample of its maximum elevation, at
    ``(high_lats[t], high_lngs[t])`` with elevation ``max_elevations[t]``.
    Both queries take arrays of query points and answer them all at once.

    Immutable after construction; safe for concurrent readers.
    """

    def __init__(self, entries: Iterable[tuple[TileKey, float, float, int]]):
        """``entries`` are ``(key, lat, lng, elevation)``: each tile's key and high point."""
        items = sorted((tuple(key), lat, lng, elev) for key, lat, lng, elev in entries)
        if not items:
            raise ValueError("TileIndex needs at least one tile")
        self.keys: list[TileKey] = [key for key, _, _, _ in items]
        if len(set(self.keys)) != len(items):
            raise ValueError("duplicate tile keys")
        self.high_lats = np.array([lat for _, lat, _, _ in items], dtype=np.float64)
        self.high_lngs = np.array([lng for _, _, lng, _ in items], dtype=np.float64)
        self.max_elevations = np.array([elev for _, _, _, elev in items], dtype=np.int64)
        keys = np.array(self.keys, dtype=np.int64)
        self._lat_min = keys[:, 0].astype(np.float64)
        self._lng_min = keys[:, 1].astype(np.float64)
        # Tile ordinal by (lat - lat0, lng - lng0); -1 where the area has no tile.
        self._lat0, self._lng0 = int(keys[:, 0].min()), int(keys[:, 1].min())
        shape = (int(keys[:, 0].max()) - self._lat0 + 1, int(keys[:, 1].max()) - self._lng0 + 1)
        self._grid = np.full(shape, -1, dtype=np.intp)
        self._grid[keys[:, 0] - self._lat0, keys[:, 1] - self._lng0] = np.arange(len(items))

    def nearest_higher_tile(
        self, lats: np.ndarray, lngs: np.ndarray, elevations: np.ndarray
    ) -> np.ndarray:
        """Each query's vector great-circle distance to the nearest tile high
        point strictly higher than it: inf when no tile is higher (the
        search-area high point)."""
        lats = np.asarray(lats, dtype=np.float64)
        lngs = np.asarray(lngs, dtype=np.float64)
        elevations = np.asarray(elevations)
        found = np.empty(len(lats))
        chunk = max(1, _TILE_PAIR_CHUNK // len(self.keys))
        for start in range(0, len(lats), chunk):
            part = slice(start, start + chunk)
            dists = great_circle_distance_many(
                self.high_lats, self.high_lngs, lats[part, None], lngs[part, None]
            )
            higher = self.max_elevations > elevations[part, None]
            q = np.nonzero(higher)[0]
            _check_finite("bound", dists[higher], lats[part][q], lngs[part][q])
            dists[~higher] = np.inf
            found[part] = dists.min(axis=1)
        return found

    def tiles_within(
        self,
        lats: np.ndarray,
        lngs: np.ndarray,
        radii: np.ndarray,
        work: Optional[SearchWork] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(query, tile) pairs whose tile lies within the query's radius.

        First an exact prefilter: the integer tile box of each query's
        spherical cap of angular radius rho = radius / R, latitude +- rho
        and longitude +- asin(sin rho / cos lat), or every longitude when
        the cap holds a pole, wrapped across the antimeridian.  Then the
        vector quadrilateral distance of each surviving pair, kept within
        the radius plus the slack of :func:`_within_slack`.  The pairs are
        a superset of those the scalar ``min_distance <= radius`` keeps: an
        extra tile lies within the slack.  ``work``, if given, counts the
        queries and the pairs the vector distance evaluates.

        Returns:
            Query indices and tile ordinals (into :attr:`keys`), in
            ascending (query, tile) order.
        """
        lats = np.asarray(lats, dtype=np.float64)
        lngs = np.asarray(lngs, dtype=np.float64)
        radii = np.asarray(radii, dtype=np.float64)
        reach = _padded(radii)
        rho = reach / MEAN_RADIUS_M
        rho_deg = np.degrees(rho) + _CAP_PAD_DEG
        rows, cols = self._grid.shape
        row_lo = np.clip(np.ceil(lats - rho_deg).astype(np.int64) - 1 - self._lat0, 0, rows)
        row_hi = np.clip(np.floor(lats + rho_deg).astype(np.int64) + 1 - self._lat0, 0, rows)
        # A cap that holds a pole has sin(rho) >= cos(lat): a half-width of
        # 90 degrees, so it scans every column.
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.sin(np.minimum(rho, math.pi / 2)) / np.cos(np.radians(lats))
            half = np.degrees(np.arcsin(np.minimum(ratio, 1.0))) + _CAP_PAD_DEG
        full = ~(half <= _CAP_FULL_WIDTH_DEG)
        half = np.where(full, 0.0, half)

        q, row = _spans(row_lo, row_hi)
        q_parts, t_parts = [], []
        for shift in (0.0, 360.0, -360.0):
            col_lo = np.ceil(lngs - half + shift).astype(np.int64) - 1 - self._lng0
            col_hi = np.floor(lngs + half + shift).astype(np.int64) + 1 - self._lng0
            col_lo = np.where(full, 0 if shift == 0.0 else cols, np.clip(col_lo, 0, cols))
            col_hi = np.where(full, cols, np.clip(col_hi, 0, cols))
            k, col = _spans(col_lo[q], col_hi[q])
            tile = self._grid[row[k], col]
            present = tile >= 0
            q_parts.append(q[k][present])
            t_parts.append(tile[present])
        q, t = np.concatenate(q_parts), np.concatenate(t_parts)
        if work is not None:
            work.queries += len(lats)
            work.pairs += len(q)
        lat_min, lng_min = self._lat_min[t], self._lng_min[t]
        dists = min_distance_many(lat_min, lat_min + 1.0, lng_min, lng_min + 1.0, lats[q], lngs[q])
        _check_finite("bound", dists, lats[q], lngs[q])
        keep = _within_slack(dists, radii[q])
        q, t = q[keep], t[keep]
        order = np.lexsort((t, q))
        return q[order], t[order]
