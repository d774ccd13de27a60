"""Spatial search structures for the sweep and the pipeline's passes.

``SphereKdTree`` is the dynamic point index maintained by the sweep: points
live in fixed-capacity leaves, overflowing leaves center-split along their
longer side, and the first levels are pre-built quadtree-style so the early
(clustered) insertions cannot degenerate the tree.

``ElevationPyramid`` is the static per-tile index of the bounding and
finalization passes: the maximum elevation of every 8x8 block of samples,
and a sample that attains it, max-pooled 2x2 up to one root cell, stored
as numpy arrays per level.  It answers a whole tile's queries for the
nearest strictly higher sample in two vectorised stages.  Most answers lie
a few samples from their query, so a window of samples around each query
inside the grid comes first; the query is settled there when the metric's
bound on the rest of the grid is beyond the window's best.  The other
queries, and those outside the grid, go to a level-synchronous descent
over (query, cell) pair arrays that starts from the window's best.  The
answers are :data:`CANDIDATE_DTYPE` rows, one per query with a higher
sample: the format the pipeline's passes hand on.  Both stages pick each
query's answer with :func:`nearest_per_peak`, the rule the pipeline's
``finalize`` applies across tiles.

``TileIndex`` holds the search area's 1-degree tiles as flat arrays (keys
and maximum elevations).  It answers, for arrays of points at once, the
high-point pass's query for the nearest tile holding strictly higher
ground, and the tile assignment's query for the tiles within each point's
radius: an integer tile box of each spherical cap, then the vector
quadrilateral distance.

Nearest-neighbor queries take one of the two distance metrics,
``GreatCircleMetric`` or ``EllipsoidMetric``.  Each pairs its
point-to-point distance with a quadrilateral lower bound that never
exceeds the metric's distance to any point inside the quadrilateral; that
soundness is what makes pruned searches exactly equivalent to linear scans.
Each also has elementwise vector twins, ``distance_many`` and
``lower_bound_many``, for the pyramid's batched descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .dem import Tile
from .geo import (
    MEAN_RADIUS_M,
    GeoPoint,
    ellipsoid_distance,
    ellipsoid_distance_many,
    great_circle_distance,
    great_circle_distance_many,
    wrap_longitude_many,
)
from .quad import Quadrilateral, contains, min_distance, min_distance_many

__all__ = [
    "OutOfBoundsError",
    "PointNotFoundError",
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

# A leaf whose quadrilateral spans at most one arc-second, the finest HGT
# sample spacing, overflows instead of splitting further.
_MIN_SPLIT_SPAN_DEG = 1.0 / 3600.0

# Samples per side of an ElevationPyramid leaf block.
_LEAF_SIDE = 8

# Half-width, in samples, of the window around each query's nearest sample
# that ElevationPyramid.nearest_higher_many searches before the descent.
_WINDOW_HALF = 3

# Queries per batched pyramid search: bounds the (query, cell) pair arrays
# when queries with loose upper bounds fan out.
_QUERY_CHUNK = 256


class OutOfBoundsError(ValueError):
    """Point lies outside the tree's covered quadrilateral."""


class PointNotFoundError(KeyError):
    """Removal of a point that is not in the tree (a sweep-logic bug)."""


class EmptyTreeError(LookupError):
    """Nearest-neighbor query against an empty tree."""


class NonFiniteDistanceError(ArithmeticError):
    """A metric gave a NaN or infinite distance or bound during a search.

    A NaN loses every comparison, so the search would silently return a
    wrong answer; it stops instead.
    """


class GreatCircleMetric:
    """Haversine distance with the exact quadrilateral minimum as bound."""

    def distance(self, a: GeoPoint, b: GeoPoint) -> float:
        return great_circle_distance(a, b)

    def distance_many(self, lats, lngs, p_lats, p_lngs) -> np.ndarray:
        return great_circle_distance_many(lats, lngs, p_lats, p_lngs)

    def lower_bound(self, q: Quadrilateral, p: GeoPoint) -> float:
        return min_distance(q, p)

    def lower_bound_many(self, lat_min, lat_max, lng_min, lng_max, p_lats, p_lngs) -> np.ndarray:
        return min_distance_many(lat_min, lat_max, lng_min, lng_max, p_lats, p_lngs)


class EllipsoidMetric:
    """Flattening-corrected distance; bound is a safely scaled sphere bound."""

    def distance(self, a: GeoPoint, b: GeoPoint) -> float:
        return ellipsoid_distance(a, b)

    def distance_many(self, lats, lngs, p_lats, p_lngs) -> np.ndarray:
        return ellipsoid_distance_many(lats, lngs, p_lats, p_lngs)

    def lower_bound(self, q: Quadrilateral, p: GeoPoint) -> float:
        return _ELLIPSOID_PRUNE_FACTOR * min_distance(q, p)

    def lower_bound_many(self, lat_min, lat_max, lng_min, lng_max, p_lats, p_lngs) -> np.ndarray:
        return _ELLIPSOID_PRUNE_FACTOR * min_distance_many(
            lat_min, lat_max, lng_min, lng_max, p_lats, p_lngs
        )


def _halve(q: Quadrilateral, axis: int) -> tuple[float, Quadrilateral, Quadrilateral]:
    """Center split of ``q`` along ``axis`` (0 latitude, 1 longitude): (split, low, high)."""
    lo = 2 * axis  # field index of the axis' minimum: lat_min or lng_min
    split = (q[lo] + q[lo + 1]) * 0.5
    low, high = list(q), list(q)
    low[lo + 1] = high[lo] = split
    return split, Quadrilateral(*low), Quadrilateral(*high)


def _split_axis(q: Quadrilateral) -> Optional[int]:
    """Axis of the longer ground extent of ``q``; None once ``q`` has collapsed."""
    extent_lat = q.lat_max - q.lat_min
    mid_cos = math.cos(math.radians((q.lat_min + q.lat_max) * 0.5))
    extent_lng = (q.lng_max - q.lng_min) * mid_cos
    if max(extent_lat, extent_lng) <= _MIN_SPLIT_SPAN_DEG:
        return None
    return 0 if extent_lat >= extent_lng else 1


class _Node:
    __slots__ = ("quad", "axis", "split", "low", "high", "points", "size", "permanent")

    def __init__(self, quad: Quadrilateral, permanent: bool = False):
        self.quad = quad
        self.axis: Optional[int] = None  # None = leaf; 0 = latitude, 1 = longitude
        self.split = 0.0
        self.low: Optional[_Node] = None
        self.high: Optional[_Node] = None
        self.points: Optional[list[GeoPoint]] = []
        self.size = 0
        self.permanent = permanent


class SphereKdTree:
    """Dynamic k-d tree over points on the sphere.

    Points are stored in leaves only; inner nodes carry the quadrilateral
    they cover.  Leaves hold at most ``leaf_capacity`` points, except leaves
    whose quadrilateral has collapsed to one arc-second or that hold only
    duplicates of one coordinate (tile-seam points), which may overflow
    rather than split forever.

    Single-writer: no concurrent mutation; each sweep owns its instance.
    """

    def __init__(
        self,
        bounds: Quadrilateral,
        leaf_capacity: int = 32,
        prebuilt_levels: int = 4,
    ):
        if leaf_capacity < 1:
            raise ValueError("leaf_capacity must be >= 1")
        if prebuilt_levels < 0:
            raise ValueError("prebuilt_levels must be >= 0")
        self.bounds = bounds
        self.leaf_capacity = leaf_capacity
        self._root = _Node(bounds, permanent=False)
        self._prebuild(self._root, 2 * prebuilt_levels)

    def _prebuild(self, node: _Node, half_levels: int) -> None:
        # Two alternating center splits (latitude then longitude) per level
        # give the quadtree-like 4^k partition of the bounds.
        if half_levels == 0:
            return
        axis = half_levels % 2  # the even count at the root splits latitude
        split, low_q, high_q = _halve(node.quad, axis)
        node.axis = axis
        node.split = split
        node.points = None
        node.permanent = True
        node.low = _Node(low_q)
        node.high = _Node(high_q)
        self._prebuild(node.low, half_levels - 1)
        self._prebuild(node.high, half_levels - 1)

    def __len__(self) -> int:
        return self._root.size

    def insert(self, p: GeoPoint) -> None:
        """Add ``p``; splits the target leaf if it exceeds capacity."""
        if not contains(self.bounds, p):
            raise OutOfBoundsError(f"{p} outside index bounds {self.bounds}")
        node = self._root
        node.size += 1
        while node.axis is not None:
            node = node.low if p[node.axis] < node.split else node.high
            node.size += 1
        node.points.append(p)
        if len(node.points) > self.leaf_capacity:
            self._split(node)

    def remove(self, p: GeoPoint) -> None:
        """Remove one instance of ``p``; emptied subtrees revert to leaves."""
        node = self._root
        path = [node]
        while node.axis is not None:
            node = node.low if p[node.axis] < node.split else node.high
            path.append(node)
        try:
            node.points.remove(p)
        except ValueError:
            raise PointNotFoundError(f"{p} not in index") from None
        for nd in path:
            nd.size -= 1
        for nd in path:
            if nd.size == 0 and not nd.permanent and nd.axis is not None:
                nd.axis = None
                nd.low = nd.high = None
                nd.points = []
                break

    def _split(self, node: _Node) -> None:
        capacity = self.leaf_capacity
        pending = [node]
        while pending:
            nd = pending.pop()
            pts = nd.points
            if len(pts) <= capacity:
                continue
            first = pts[0]
            if all(pt == first for pt in pts):
                continue  # duplicate-coordinate overflow
            axis = _split_axis(nd.quad)
            if axis is None:
                continue  # collapsed quadrilateral, allow overflow
            split, low_q, high_q = _halve(nd.quad, axis)
            low = _Node(low_q)
            high = _Node(high_q)
            for pt in pts:
                (low if pt[axis] < split else high).points.append(pt)
            low.size = len(low.points)
            high.size = len(high.points)
            nd.axis = axis
            nd.split = split
            nd.points = None
            nd.low = low
            nd.high = high
            pending.append(low)
            pending.append(high)

    def nearest_neighbor(self, p: GeoPoint, metric) -> tuple[GeoPoint, float]:
        """Exact nearest active point to ``p`` under ``metric``.

        Ties on distance are broken by ascending (lat, lng) of the stored
        point.

        Raises:
            EmptyTreeError: no point is active.
            NonFiniteDistanceError: the metric gave a NaN or infinite
                distance or bound.
        """
        if self._root.size == 0:
            raise EmptyTreeError("nearest_neighbor on empty index")
        dist = metric.distance
        bound = metric.lower_bound
        isfinite = math.isfinite
        best_d = math.inf
        best_pt: Optional[GeoPoint] = None

        def child_bound(child: _Node) -> float:
            if not child.size:
                return math.inf
            b = bound(child.quad, p)
            if not isfinite(b):
                raise _non_finite("bound", b, p)
            return b

        def visit(node: _Node) -> None:
            nonlocal best_d, best_pt
            if node.axis is None:
                for q in node.points:
                    d = dist(p, q)
                    if not isfinite(d):
                        raise _non_finite("distance", d, p)
                    if d < best_d or (d == best_d and (best_pt is None or q < best_pt)):
                        best_d = d
                        best_pt = q
                return
            low, high = node.low, node.high
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

        visit(self._root)
        return best_pt, best_d

    def points(self) -> Iterator[GeoPoint]:
        """Iterate over all active points (arbitrary order)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.axis is None:
                yield from node.points
            else:
                stack.append(node.low)
                stack.append(node.high)

    def node_count(self) -> int:
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if node.axis is not None:
                stack.append(node.low)
                stack.append(node.high)
        return count

    def check_invariants(self) -> None:
        """Verify structural invariants; raises AssertionError on violation."""

        def walk(node: _Node, quad: Quadrilateral) -> int:
            assert node.quad == quad
            if node.axis is None:
                for pt in node.points:
                    assert contains(quad, pt), f"{pt} escapes leaf {quad}"
                if len(node.points) > self.leaf_capacity:
                    first = node.points[0]
                    assert (
                        all(pt == first for pt in node.points) or _split_axis(quad) is None
                    ), "overfull leaf without collapsed quadrilateral"
                assert node.size == len(node.points)
                return node.size
            split, low_q, high_q = _halve(quad, node.axis)
            assert node.split == split, f"split {node.split} off the center of {quad}"
            n = walk(node.low, low_q) + walk(node.high, high_q)
            assert node.size == n
            return n

        walk(self._root, self.bounds)


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


def _within_slack(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``lower <= upper`` up to the slack that absorbs vector-versus-scalar ulps.

    Vector distances and bounds may differ from the scalar ones in the last
    ulps, so nothing within 1e-3 m plus 1e-9 times ``upper`` is pruned, and
    samples that close to the smallest vector distance are re-ranked with
    the scalar distance, as ``oracle.brute_force_ilp`` does.
    """
    return lower <= upper + 1e-3 + upper * 1e-9


@dataclass
class SearchWork:
    """Work counts of a batched search, summed over calls.

    For :meth:`ElevationPyramid.nearest_higher_many`, ``window_resolved``
    counts the queries its window stage answers; of the others, ``pairs``
    counts the (query, cell) pairs of the descent that survive pruning, over
    all levels, and ``leaf_samples`` the leaf-block samples whose distance
    was computed.  For :meth:`TileIndex.tiles_within`, ``pairs`` counts the
    (query, tile) pairs whose vector distance was computed.
    """

    queries: int = 0
    window_resolved: int = 0
    pairs: int = 0
    leaf_samples: int = 0


class _Level(NamedTuple):
    """One pyramid level.

    ``maxima[i, j]`` is the highest elevation of cell (i, j), and
    (``arg_rows[i, j]``, ``arg_cols[i, j]``) a sample of the tile that
    attains it.  Cell row ``i`` spans latitudes [``lat_min[i]``,
    ``lat_max[i]``] and cell column ``j`` longitudes [``lng_min[j]``,
    ``lng_max[j]``].
    """

    maxima: np.ndarray
    arg_rows: np.ndarray
    arg_cols: np.ndarray
    lat_min: np.ndarray
    lat_max: np.ndarray
    lng_min: np.ndarray
    lng_max: np.ndarray


def _pool(values: np.ndarray, side: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximum of each ``side`` x ``side`` block, and the (row, col) in ``values`` of
    an entry that attains it.

    Ragged edge blocks are smaller; their missing entries never win.
    """
    rows, cols = values.shape
    out_rows, out_cols = -(-rows // side), -(-cols // side)
    padded = np.full((out_rows * side, out_cols * side), np.iinfo(np.int32).min, dtype=np.int32)
    padded[:rows, :cols] = values
    blocks = padded.reshape(out_rows, side, out_cols, side).transpose(0, 2, 1, 3)
    blocks = blocks.reshape(out_rows, out_cols, side * side)
    arg = blocks.argmax(axis=2)
    block_rows, block_cols = np.indices(arg.shape)
    return (
        np.take_along_axis(blocks, arg[..., None], axis=2)[..., 0],
        block_rows * side + arg // side,
        block_cols * side + arg % side,
    )


# Child offsets (row, col) of a cell's 2 x 2 children, and the (row, col)
# offsets of a leaf block's samples, in row-major order.
_CHILD_ROWS, _CHILD_COLS = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
_LEAF_ROWS, _LEAF_COLS = np.divmod(np.arange(_LEAF_SIDE * _LEAF_SIDE), _LEAF_SIDE)
# The (row, col) offsets of a window's samples from its centre.
_WINDOW_ROWS, _WINDOW_COLS = np.divmod(np.arange((2 * _WINDOW_HALF + 1) ** 2), 2 * _WINDOW_HALF + 1)
_WINDOW_ROWS, _WINDOW_COLS = _WINDOW_ROWS - _WINDOW_HALF, _WINDOW_COLS - _WINDOW_HALF


class ElevationPyramid:
    """Static max-elevation pyramid over one tile's sample grid.

    Level 0 holds the maximum elevation of each 8x8 block of samples (edge
    blocks may be smaller); each level above max-pools 2x2 cells of the one
    below, up to a single root cell.  Every cell also keeps the (row, col)
    of one sample that attains its maximum.  A cell covers the closed
    quadrilateral spanned by its samples' coordinates.

    Immutable after construction; safe for concurrent readers.
    """

    def __init__(self, tile: Tile):
        self._elevations = tile.elevations
        self._lats = tile.sample_lats()
        self._lngs = tile.sample_lngs()
        self._steps_per_degree = tile.steps_per_degree
        rows, cols = tile.shape
        maxima, arg_rows, arg_cols = _pool(tile.elevations, _LEAF_SIDE)
        self.levels: list[_Level] = []
        while True:
            side = _LEAF_SIDE << len(self.levels)
            first = np.arange(0, maxima.shape[0] * side, side)
            last = np.minimum(first + side, rows) - 1
            lat_min, lat_max = self._lats[last], self._lats[first]  # row 0 is north
            first = np.arange(0, maxima.shape[1] * side, side)
            last = np.minimum(first + side, cols) - 1
            lng_min, lng_max = self._lngs[first], self._lngs[last]
            self.levels.append(
                _Level(maxima, arg_rows, arg_cols, lat_min, lat_max, lng_min, lng_max)
            )
            if maxima.shape == (1, 1):
                break
            maxima, child_rows, child_cols = _pool(maxima, 2)
            arg_rows, arg_cols = arg_rows[child_rows, child_cols], arg_cols[child_rows, child_cols]

    def nearest_higher_many(
        self,
        lats: np.ndarray,
        lngs: np.ndarray,
        elevations: np.ndarray,
        metric,
        work: Optional[SearchWork] = None,
    ) -> np.ndarray:
        """Nearest sample strictly higher than each query's elevation.

        Two stages, :data:`_QUERY_CHUNK` queries at a time.  The window
        stage (:meth:`_window`) answers a query inside the grid from the
        samples within :data:`_WINDOW_HALF` rows and columns of its nearest
        sample when one of them is strictly higher and every sample outside
        the window is provably farther.  The other queries, and all queries
        outside the grid, go to a level-synchronous branch and bound over
        (query, cell) pair arrays (:meth:`_descend`), starting from the
        window's best distance.  At each level every pair expands to the
        children whose maximum is strictly above its query's elevation; a
        child is pruned when the metric's vector quadrilateral bound
        (``lower_bound_many``) exceeds the query's smallest upper bound.  A
        cell's upper bound is the distance to its stored maximum sample,
        which is strictly higher than the query, so it is sound under every
        metric.  Both stages screen strictly higher samples with the vector
        distance and re-rank the near-minimal ones with the scalar one, ties
        broken by ascending (lat, lng), so each answer is bit-identical to a
        scalar scan.  Queries may lie outside the tile.  ``work``, if given,
        accumulates the search's counts.

        Returns:
            One :data:`CANDIDATE_DTYPE` row per query with a strictly higher
            sample, in query order; ``peak`` is the query's index.

        Raises:
            NonFiniteDistanceError: the metric gave a NaN or infinite
                distance or bound.
        """
        lats = np.asarray(lats, dtype=np.float64)
        lngs = np.asarray(lngs, dtype=np.float64)
        elevations = np.asarray(elevations)
        work = SearchWork() if work is None else work
        work.queries += len(lats)
        found = np.empty(len(lats), dtype=CANDIDATE_DTYPE)
        answered = np.zeros(len(lats), dtype=bool)
        best = np.empty(len(lats))
        for start in range(0, len(lats), _QUERY_CHUNK):
            part = slice(start, start + _QUERY_CHUNK)
            rows, best[part] = self._window(lats[part], lngs[part], elevations[part], metric)
            rows["peak"] += start
            found[rows["peak"]], answered[rows["peak"]] = rows, True
        work.window_resolved += int(answered.sum())
        pending = np.flatnonzero(~answered)
        for start in range(0, len(pending), _QUERY_CHUNK):
            part = pending[start : start + _QUERY_CHUNK]
            rows = self._descend(lats[part], lngs[part], elevations[part], best[part], metric, work)
            rows["peak"] = part[rows["peak"]]
            found[rows["peak"]], answered[rows["peak"]] = rows, True
        return found[answered]

    def _window(self, p_lats, p_lngs, elevations, metric):
        """Answers of one chunk of queries from the window around each one's nearest sample.

        A query inside the grid is answered when its window holds a strictly
        higher sample and the metric's bound on the at most four strips of
        the grid outside the window is beyond the window's best distance by
        more than the slack.  Returns the answers (:data:`CANDIDATE_DTYPE`
        rows of the queries the window settles) and each query's best vector
        distance in its window (inf where it has no higher sample or lies
        outside the grid), an upper bound for the descent.
        """
        n = len(p_lats)
        lats, lngs = self._lats, self._lngs
        inside = (lats[-1] <= p_lats) & (p_lats <= lats[0])  # row 0 is north
        inside &= (lngs[0] <= p_lngs) & (p_lngs <= lngs[-1])
        q = np.flatnonzero(inside)
        if not len(q):
            return np.empty(0, dtype=CANDIDATE_DTYPE), np.full(n, np.inf)
        grid_rows, grid_cols = self._elevations.shape
        steps = self._steps_per_degree
        centre_rows = np.clip(np.rint((lats[0] - p_lats[q]) * steps), 0, grid_rows - 1)
        centre_cols = np.clip(np.rint((p_lngs[q] - lngs[0]) * steps), 0, grid_cols - 1)
        centre_rows, centre_cols = centre_rows.astype(np.intp), centre_cols.astype(np.intp)
        rows = (centre_rows[:, None] + _WINDOW_ROWS).ravel()
        cols = (centre_cols[:, None] + _WINDOW_COLS).ravel()
        k, near_lats, near_lngs, dists, best = self._higher_samples(
            np.repeat(q, len(_WINDOW_ROWS)), rows, cols, p_lats, p_lngs, elevations, metric
        )

        # Bound the grid outside each window that holds a higher sample: the
        # full-width strips north and south of it, and the strips west and
        # east of it across its rows, where they exist.
        q, centre_rows, centre_cols = _select(np.isfinite(best[q]), q, centre_rows, centre_cols)
        top = np.maximum(centre_rows - _WINDOW_HALF, 0)
        bottom = np.minimum(centre_rows + _WINDOW_HALF, grid_rows - 1)
        left = np.maximum(centre_cols - _WINDOW_HALF, 0)
        right = np.minimum(centre_cols + _WINDOW_HALF, grid_cols - 1)
        north, south = np.zeros_like(top), np.full_like(top, grid_rows - 1)
        west, east = np.zeros_like(left), np.full_like(left, grid_cols - 1)
        strips = (  # (exists, first row, last row, first column, last column)
            (top > north, north, top - 1, west, east),
            (bottom < south, bottom + 1, south, west, east),
            (left > west, top, bottom, west, left - 1),
            (right < east, top, bottom, right + 1, east),
        )
        outside = np.full(len(q), np.inf)
        for exists, r0, r1, c0, c1 in strips:
            s, r0, r1, c0, c1 = _select(exists, np.arange(len(q)), r0, r1, c0, c1)
            p_lat, p_lng = p_lats[q[s]], p_lngs[q[s]]
            lb = metric.lower_bound_many(lats[r1], lats[r0], lngs[c0], lngs[c1], p_lat, p_lng)
            _check_finite("bound", lb, p_lat, p_lng)
            outside[s] = np.minimum(outside[s], lb)
        resolved = np.zeros(n, dtype=bool)
        resolved[q] = ~_within_slack(outside, best[q])
        keep = resolved[k]
        rows = _rerank(
            k[keep], near_lats[keep], near_lngs[keep], dists[keep], best, p_lats, p_lngs, metric
        )
        return rows, best

    def _descend(self, p_lats, p_lngs, elevations, best, metric, work):
        """Descend the pyramid with one chunk of queries, down to the leaf blocks.

        ``best`` holds an upper bound on each query's answer (inf for none).
        Returns the answers as :data:`CANDIDATE_DTYPE` rows, ``peak`` being
        the query's index in the chunk.
        """
        n = len(p_lats)
        best = best.copy()  # each query's smallest upper bound so far
        # Every query starts at a virtual cell whose child (0, 0) is the root.
        q = np.arange(n)
        i = j = np.zeros(n, dtype=np.intp)
        for level in reversed(self.levels):
            q = np.repeat(q, 4)
            i = (2 * i[:, None] + _CHILD_ROWS).ravel()
            j = (2 * j[:, None] + _CHILD_COLS).ravel()
            rows, cols = level.maxima.shape
            q, i, j = _select((i < rows) & (j < cols), q, i, j)
            q, i, j = _select(level.maxima[i, j] > elevations[q], q, i, j)
            p_lat, p_lng = p_lats[q], p_lngs[q]
            lb = metric.lower_bound_many(
                level.lat_min[i], level.lat_max[i], level.lng_min[j], level.lng_max[j], p_lat, p_lng
            )
            _check_finite("bound", lb, p_lat, p_lng)
            q, i, j, lb = _select(_within_slack(lb, best[q]), q, i, j, lb)
            p_lat, p_lng = p_lats[q], p_lngs[q]
            ub = metric.distance_many(
                self._lats[level.arg_rows[i, j]], self._lngs[level.arg_cols[i, j]], p_lat, p_lng
            )
            _check_finite("distance", ub, p_lat, p_lng)
            np.minimum.at(best, q, ub)
            q, i, j = _select(_within_slack(lb, best[q]), q, i, j)
            work.pairs += len(q)
        return self._scan_leaves(q, i, j, p_lats, p_lngs, elevations, metric, work)

    def _scan_leaves(self, q, i, j, p_lats, p_lngs, elevations, metric, work):
        """Answers from the strictly higher samples of each pair's leaf block."""
        rows = (i[:, None] * _LEAF_SIDE + _LEAF_ROWS).ravel()
        cols = (j[:, None] * _LEAF_SIDE + _LEAF_COLS).ravel()
        q, lats, lngs, dists, lowest = self._higher_samples(
            np.repeat(q, len(_LEAF_ROWS)), rows, cols, p_lats, p_lngs, elevations, metric
        )
        work.leaf_samples += len(dists)
        return _rerank(q, lats, lngs, dists, lowest, p_lats, p_lngs, metric)

    def _higher_samples(self, q, rows, cols, p_lats, p_lngs, elevations, metric):
        """The samples (``rows``, ``cols``) inside the grid and strictly higher than
        their query ``q``: their queries, coordinates and vector distances, and
        each query's smallest such distance (inf for none)."""
        grid_rows, grid_cols = self._elevations.shape
        in_grid = (0 <= rows) & (rows < grid_rows) & (0 <= cols) & (cols < grid_cols)
        q, rows, cols = _select(in_grid, q, rows, cols)
        q, rows, cols = _select(self._elevations[rows, cols] > elevations[q], q, rows, cols)
        lats, lngs = self._lats[rows], self._lngs[cols]
        p_lat, p_lng = p_lats[q], p_lngs[q]
        dists = metric.distance_many(lats, lngs, p_lat, p_lng)
        _check_finite("distance", dists, p_lat, p_lng)
        lowest = np.full(len(p_lats), np.inf)
        np.minimum.at(lowest, q, dists)
        return q, lats, lngs, dists, lowest


def _rerank(q, lats, lngs, dists, lowest, p_lats, p_lngs, metric):
    """Per query, the nearest of its samples by the scalar distance.

    Entry k is a sample (``lats[k]``, ``lngs[k]``) of query ``q[k]`` at
    vector distance ``dists[k]``; ``lowest`` is each query's smallest vector
    distance.  Only the samples within the slack of it are re-ranked, with
    the scalar distance and then ascending (lat, lng)
    (:func:`nearest_per_peak`).  Returns one :data:`CANDIDATE_DTYPE` row per
    query with a sample, in query order.
    """
    near = np.flatnonzero(_within_slack(dists, lowest[q]))
    rows = np.empty(len(near), dtype=CANDIDATE_DTYPE)
    rows["peak"], rows["lat"], rows["lng"] = q[near], lats[near], wrap_longitude_many(lngs[near])
    distance = metric.distance
    query_lats, query_lngs = p_lats.tolist(), p_lngs.tolist()
    scalar = []
    current, p = -1, None
    for k, lat, lng in zip(rows["peak"].tolist(), rows["lat"].tolist(), rows["lng"].tolist()):
        if k != current:
            current, p = k, GeoPoint(query_lats[k], query_lngs[k])
        scalar.append(distance(p, GeoPoint(lat, lng)))
    rows["distance"] = scalar
    _check_finite("distance", rows["distance"], p_lats[rows["peak"]], p_lngs[rows["peak"]])
    return nearest_per_peak(rows)


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

# Bounds the (query, tile) arrays of nearest_higher_tile.
_TILE_PAIR_CHUNK = 1 << 20


class TileIndex:
    """The area's 1-degree tiles as flat arrays, in ascending key order.

    Tile ``t`` has SW corner ``keys[t]``, covers the closed quadrilateral
    ``[lat, lat + 1] x [lng, lng + 1]`` of that corner and holds maximum
    elevation ``max_elevations[t]``.  Both queries take arrays of query
    points and answer them all at once.

    Immutable after construction; safe for concurrent readers.
    """

    def __init__(self, entries: Iterable[tuple[TileKey, int]]):
        items = sorted(entries)
        if not items:
            raise ValueError("TileIndex needs at least one tile")
        self.keys: list[TileKey] = [tuple(key) for key, _ in items]
        if len(set(self.keys)) != len(items):
            raise ValueError("duplicate tile keys")
        self.max_elevations = np.array([elev for _, elev in items], dtype=np.int64)
        keys = np.array(self.keys, dtype=np.int64)
        self._lat_min = keys[:, 0].astype(np.float64)
        self._lng_min = keys[:, 1].astype(np.float64)
        # Tile ordinal by (lat - lat0, lng - lng0); -1 where the area has no tile.
        self._lat0, self._lng0 = int(keys[:, 0].min()), int(keys[:, 1].min())
        shape = (int(keys[:, 0].max()) - self._lat0 + 1, int(keys[:, 1].max()) - self._lng0 + 1)
        self._grid = np.full(shape, -1, dtype=np.intp)
        self._grid[keys[:, 0] - self._lat0, keys[:, 1] - self._lng0] = np.arange(len(items))

    def _min_distance(self, tiles: np.ndarray, lats: np.ndarray, lngs: np.ndarray) -> np.ndarray:
        """Vector great-circle distance from each point to its tile, checked finite."""
        lat_min, lng_min = self._lat_min[tiles], self._lng_min[tiles]
        dists = min_distance_many(lat_min, lat_min + 1.0, lng_min, lng_min + 1.0, lats, lngs)
        _check_finite("bound", dists, lats, lngs)
        return dists

    def nearest_higher_tile(
        self, lats: np.ndarray, lngs: np.ndarray, elevations: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Closest tile whose maximum elevation strictly exceeds each query's elevation.

        Distance is the great-circle minimum to the tile's quadrilateral.
        Every strictly higher tile is measured with the vector distance;
        those within the slack of :func:`_within_slack` of the smallest are
        re-ranked with the scalar :func:`~isoscan.quad.min_distance`, ties
        going to the ascending key, so each answer is the one a scalar scan
        gives.

        Returns:
            Per query, the ordinal of its tile in :attr:`keys` (-1 when no
            tile is higher: the search-area high point) and the distance
            (inf when none).
        """
        lats = np.asarray(lats, dtype=np.float64)
        lngs = np.asarray(lngs, dtype=np.float64)
        elevations = np.asarray(elevations)
        n, count = len(lats), len(self.keys)
        found = np.full(n, -1, dtype=np.intp)
        found_dist = np.full(n, np.inf)
        chunk = max(1, _TILE_PAIR_CHUNK // count)
        for start in range(0, n, chunk):
            part = slice(start, start + chunk)
            q, t = np.nonzero(self.max_elevations > elevations[part, None])
            dists = self._min_distance(t, lats[part][q], lngs[part][q])
            lowest = np.full(len(elevations[part]), np.inf)
            np.minimum.at(lowest, q, dists)
            near = np.flatnonzero(_within_slack(dists, lowest[q]))
            # Pairs come in ascending (query, tile) order, so of equal scalar
            # distances the first has the smaller key.
            for k, tile in zip((q[near] + start).tolist(), t[near].tolist()):
                lat, lng = self.keys[tile]
                p = GeoPoint(float(lats[k]), float(lngs[k]))
                d = min_distance(Quadrilateral(lat, lat + 1, lng, lng + 1), p)
                if not math.isfinite(d):
                    raise _non_finite("bound", d, p)
                if d < found_dist[k]:
                    found[k], found_dist[k] = tile, d
        return found, found_dist

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
        reach = radii + 1e-3 + radii * 1e-9  # the slack of _within_slack
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
        keep = _within_slack(self._min_distance(t, lats[q], lngs[q]), radii[q])
        q, t = q[keep], t[keep]
        order = np.lexsort((t, q))
        return q[order], t[order]
