"""Spatial search structures for the sweep and the pipeline's passes.

``SphereKdTree`` is the dynamic point index maintained by the sweep: points
live in fixed-capacity leaves, overflowing leaves center-split along their
longer side, and the first levels are pre-built quadtree-style so the early
(clustered) insertions cannot degenerate the tree.

``ElevationPyramid`` is the static per-tile index of the bounding and
finalization passes: the maximum elevation of every 8x8 block of samples,
max-pooled 2x2 up to one root cell, searched best-first for the nearest
sample strictly higher than a peak.

``TileIndex`` is the static tile-level tree used by the high-point pass:
every node carries its quadrilateral and the maximum elevation of its
subtree, enabling branch-and-bound searches for the nearest tile containing
higher ground.

Nearest-neighbor queries take a distance metric object.  Every metric pairs
its point-to-point distance with a quadrilateral lower bound that never
exceeds the metric's distance to any point inside the quadrilateral; that
soundness is what makes pruned searches exactly equivalent to linear scans.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Iterator, Optional

import numpy as np

from .dem import Tile
from .geo import (
    EarthModel,
    GeoPoint,
    WGS84,
    ellipsoid_distance,
    ellipsoid_distance_many,
    great_circle_distance,
    great_circle_distance_many,
    planar_distance,
    planar_distance_many,
    wrap_longitude,
)
from .quad import Quadrilateral, contains, min_distance

__all__ = [
    "OutOfBoundsError",
    "PointNotFoundError",
    "EmptyTreeError",
    "NonFiniteDistanceError",
    "GreatCircleMetric",
    "PlanarMetric",
    "EllipsoidMetric",
    "SphereKdTree",
    "ElevationPyramid",
    "TileIndex",
]

TileKey = tuple[int, int]

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

    def __init__(self, model: EarthModel = WGS84):
        self.model = model

    def distance(self, a: GeoPoint, b: GeoPoint) -> float:
        return great_circle_distance(a, b, self.model)

    def distance_many(self, lats: np.ndarray, lngs: np.ndarray, p: GeoPoint) -> np.ndarray:
        return great_circle_distance_many(lats, lngs, p, self.model)

    def lower_bound(self, q: Quadrilateral, p: GeoPoint) -> float:
        return min_distance(q, p, self.model)


class PlanarMetric:
    """Equirectangular distance with a component-wise gap lower bound."""

    def __init__(self, model: EarthModel = WGS84):
        self.model = model

    def distance(self, a: GeoPoint, b: GeoPoint) -> float:
        return planar_distance(a, b, self.model)

    def distance_many(self, lats: np.ndarray, lngs: np.ndarray, p: GeoPoint) -> np.ndarray:
        return planar_distance_many(lats, lngs, p, self.model)

    def lower_bound(self, q: Quadrilateral, p: GeoPoint) -> float:
        lat = p.lat_deg
        if lat > q.lat_max:
            gap_lat = lat - q.lat_max
        elif lat < q.lat_min:
            gap_lat = q.lat_min - lat
        else:
            gap_lat = 0.0

        lng = p.lng_deg
        if q.lng_min <= lng <= q.lng_max:
            gap_lng = 0.0
        else:
            gap_lng = min(
                abs(wrap_longitude(lng - q.lng_min)),
                abs(wrap_longitude(lng - q.lng_max)),
            )

        # The mean latitude of (p, s) for s in q ranges over an interval;
        # take the smallest cosine over it so the bound stays below the
        # metric for every s.
        m_lo = (lat + q.lat_min) * 0.5
        m_hi = (lat + q.lat_max) * 0.5
        c = min(math.cos(math.radians(m_lo)), math.cos(math.radians(m_hi)))
        c = max(c, 0.0)
        return self.model.radius_m * math.hypot(
            math.radians(gap_lat), math.radians(gap_lng) * c
        )


class EllipsoidMetric:
    """Flattening-corrected distance; bound is a safely scaled sphere bound."""

    def __init__(self, model: EarthModel = WGS84):
        self.model = model

    def distance(self, a: GeoPoint, b: GeoPoint) -> float:
        return ellipsoid_distance(a, b, self.model)

    def distance_many(self, lats: np.ndarray, lngs: np.ndarray, p: GeoPoint) -> np.ndarray:
        return ellipsoid_distance_many(lats, lngs, p, self.model)

    def lower_bound(self, q: Quadrilateral, p: GeoPoint) -> float:
        return _ELLIPSOID_PRUNE_FACTOR * min_distance(q, p, self.model)


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


def _block_max(grid: np.ndarray, side: int) -> np.ndarray:
    """Maximum of each ``side`` x ``side`` block; ragged edge blocks are smaller."""
    rows, cols = grid.shape
    out_rows, out_cols = -(-rows // side), -(-cols // side)
    padded = np.full((out_rows * side, out_cols * side), np.iinfo(np.int32).min, dtype=np.int32)
    padded[:rows, :cols] = grid
    return padded.reshape(out_rows, side, out_cols, side).max(axis=(1, 3))


def _non_finite(what: str, value: float, p: GeoPoint) -> NonFiniteDistanceError:
    return NonFiniteDistanceError(f"non-finite {what} {value!r} for query point {p}")


class ElevationPyramid:
    """Static max-elevation pyramid over one tile's sample grid.

    Level 0 holds the maximum elevation of each 8x8 block of samples (edge
    blocks may be smaller); each level above max-pools 2x2 cells of the one
    below, up to a single root cell.  A cell covers the closed
    quadrilateral spanned by its samples' coordinates.

    Immutable after construction; safe for concurrent readers.
    """

    def __init__(self, tile: Tile):
        self._elevations = tile.elevations
        self._lats = tile.sample_lats()
        self._lngs = tile.sample_lngs()
        rows, cols = tile.shape
        level = _block_max(tile.elevations, _LEAF_SIDE)
        levels = [level]
        while level.shape != (1, 1):
            level = _block_max(level, 2)
            levels.append(level)
        self._maxima = [lvl.tolist() for lvl in levels]

        lats, lngs = self._lats.tolist(), self._lngs.tolist()
        self._quads: list[list[list[Quadrilateral]]] = []
        for depth, lvl in enumerate(levels):
            side = _LEAF_SIDE << depth
            lat_spans = [
                (lats[min(r + side, rows) - 1], lats[r]) for r in range(0, lvl.shape[0] * side, side)
            ]
            lng_spans = [
                (lngs[c], lngs[min(c + side, cols) - 1]) for c in range(0, lvl.shape[1] * side, side)
            ]
            self._quads.append(
                [[Quadrilateral(*la, *ln) for ln in lng_spans] for la in lat_spans]
            )

    def nearest_higher(
        self, p: GeoPoint, elevation_m: float, metric
    ) -> Optional[tuple[GeoPoint, float]]:
        """Nearest sample strictly higher than ``elevation_m`` to ``p``.

        A best-first branch-and-bound descent (Hjaltason & Samet, "Distance
        browsing in spatial databases", TODS 1999): cells are popped by the
        metric's quadrilateral lower bound, cells no higher than
        ``elevation_m`` are skipped, and the search stops once the popped
        bound exceeds the best distance found.  ``p`` may lie outside the
        tile.  Ties on distance are broken by ascending (lat, lng) of the
        sample.

        Returns:
            (sample, distance), or None when no sample is strictly higher.

        Raises:
            NonFiniteDistanceError: the metric gave a NaN or infinite
                distance or bound.
        """
        maxima = self._maxima
        quads = self._quads
        lower_bound = metric.lower_bound
        isfinite = math.isfinite
        heappop, heappush = heapq.heappop, heapq.heappush
        top = len(maxima) - 1
        if maxima[top][0][0] <= elevation_m:
            return None
        heap = [(0.0, top, 0, 0)]  # the root is always expanded
        best_d = math.inf
        best_pt: Optional[GeoPoint] = None
        while heap:
            b, depth, i, j = heappop(heap)
            if b > best_d + _PRUNE_SLACK_M:
                break
            if depth == 0:
                best_d, best_pt = self._scan_leaf(i, j, p, elevation_m, metric, best_d, best_pt)
                continue
            below = maxima[depth - 1]
            below_quads = quads[depth - 1]
            for ci in range(2 * i, min(2 * i + 2, len(below))):
                row = below[ci]
                for cj in range(2 * j, min(2 * j + 2, len(row))):
                    if row[cj] > elevation_m:
                        cb = lower_bound(below_quads[ci][cj], p)
                        if not isfinite(cb):
                            raise _non_finite("bound", cb, p)
                        if cb <= best_d + _PRUNE_SLACK_M:
                            heappush(heap, (cb, depth - 1, ci, cj))
        return best_pt, best_d

    def _scan_leaf(
        self,
        i: int,
        j: int,
        p: GeoPoint,
        elevation_m: float,
        metric,
        best_d: float,
        best_pt: Optional[GeoPoint],
    ) -> tuple[float, Optional[GeoPoint]]:
        """Fold the leaf block's strictly higher samples into (best_d, best_pt).

        Vector distances screen the block; the near-minimal samples are
        re-ranked with the scalar distance, as ``oracle.brute_force_ilp``
        does, so the answer is bit-identical to a scalar scan.
        """
        r0, c0 = i * _LEAF_SIDE, j * _LEAF_SIDE
        block = self._elevations[r0 : r0 + _LEAF_SIDE, c0 : c0 + _LEAF_SIDE]
        ii, jj = np.nonzero(block > elevation_m)
        lats = self._lats[ii + r0]
        lngs = self._lngs[jj + c0]
        dists = metric.distance_many(lats, lngs, p)
        if not np.isfinite(dists).all():
            raise _non_finite("distance", float(dists[~np.isfinite(dists)][0]), p)
        # Vector distances may differ from the scalar ones in the last ulps;
        # samples up to this far above the minimum are re-ranked exactly.
        lowest = min(float(dists.min()), best_d)
        cutoff = lowest + 1e-3 + lowest * 1e-9
        distance = metric.distance
        for idx in np.nonzero(dists <= cutoff)[0].tolist():
            pt = GeoPoint(float(lats[idx]), float(lngs[idx]))
            d = distance(p, pt)
            if not math.isfinite(d):
                raise _non_finite("distance", d, p)
            if d < best_d or (d == best_d and pt < best_pt):
                best_d, best_pt = d, pt
        return best_d, best_pt


class _TileNode:
    __slots__ = ("quad", "max_elevation", "key", "left", "right")

    def __init__(self, quad, max_elevation, key=None, left=None, right=None):
        self.quad = quad
        self.max_elevation = max_elevation
        self.key = key
        self.left = left
        self.right = right


class TileIndex:
    """Static tree over tiles, augmented with subtree maximum elevation.

    Immutable after construction; safe for concurrent readers.
    """

    def __init__(
        self,
        entries: Iterable[tuple[TileKey, Quadrilateral, float]],
        model: EarthModel = WGS84,
    ):
        items = sorted(entries, key=lambda e: e[0])
        if not items:
            raise ValueError("TileIndex needs at least one tile")
        keys = {k for k, _, _ in items}
        if len(keys) != len(items):
            raise ValueError("duplicate tile keys")
        self.model = model
        self._root = self._build(items)

    def _build(self, items) -> _TileNode:
        if len(items) == 1:
            key, quad, max_elev = items[0]
            return _TileNode(quad, max_elev, key=key)
        lats = [k[0] for k, _, _ in items]
        lngs = [k[1] for k, _, _ in items]
        axis = 0 if (max(lats) - min(lats)) >= (max(lngs) - min(lngs)) else 1
        items = sorted(items, key=lambda e: (e[0][axis], e[0]))
        mid = len(items) // 2
        left = self._build(items[:mid])
        right = self._build(items[mid:])
        quad = Quadrilateral(
            min(left.quad.lat_min, right.quad.lat_min),
            max(left.quad.lat_max, right.quad.lat_max),
            min(left.quad.lng_min, right.quad.lng_min),
            max(left.quad.lng_max, right.quad.lng_max),
        )
        return _TileNode(quad, max(left.max_elevation, right.max_elevation), left=left, right=right)

    def nearest_higher_tile(
        self, p: GeoPoint, elevation_m: float
    ) -> Optional[tuple[TileKey, float]]:
        """Closest tile whose maximum elevation strictly exceeds ``elevation_m``.

        Distance is the great-circle minimum to the tile's quadrilateral;
        ties are broken by ascending tile key.  Returns None when no tile is
        higher (the search-area high point).
        """
        model = self.model
        best: Optional[tuple[float, TileKey]] = None

        def visit(node: _TileNode) -> None:
            nonlocal best
            if node.max_elevation <= elevation_m:
                return
            b = min_distance(node.quad, p, model)
            if best is not None and b > best[0]:
                return
            if node.key is not None:
                cand = (b, node.key)
                if best is None or cand < best:
                    best = cand
                return
            bl = min_distance(node.left.quad, p, model)
            br = min_distance(node.right.quad, p, model)
            if bl <= br:
                visit(node.left)
                visit(node.right)
            else:
                visit(node.right)
                visit(node.left)

        visit(self._root)
        if best is None:
            return None
        return best[1], best[0]

    def tiles_within(self, center: GeoPoint, radius_m: float) -> list[TileKey]:
        """Keys of exactly the tiles within ``radius_m`` of ``center``."""
        model = self.model
        found: list[TileKey] = []

        def visit(node: _TileNode) -> None:
            if min_distance(node.quad, center, model) > radius_m:
                return
            if node.key is not None:
                found.append(node.key)
                return
            visit(node.left)
            visit(node.right)

        visit(self._root)
        found.sort()
        return found
