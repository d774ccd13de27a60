"""The sweep's grid tree, NN exactness, and the static indexes."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_nearest
from isoscan import spatial_index
from isoscan.dem import Tile, downsample
from isoscan.geo import (
    MEAN_RADIUS_M,
    GeoPoint,
    great_circle_distance,
    great_circle_distance_many,
    wrap_longitude,
)
from isoscan.multipass import area_tile_keys, tile_keys_within
from isoscan.quad import Quadrilateral, contains, min_distance
from isoscan.spatial_index import (
    CANDIDATE_DTYPE,
    ElevationPyramid,
    EllipsoidMetric,
    EmptyTreeError,
    GreatCircleMetric,
    NonFiniteDistanceError,
    SampleStateError,
    SearchWork,
    SphereKdTree,
    TileIndex,
    nearest_per_peak,
)


class Grid:
    """A latitude/longitude grid, its tree, and the coordinates of each sample."""

    def __init__(self, lats, lngs):
        self.lats = np.asarray(lats, dtype=np.float64)
        self.lngs = np.asarray(lngs, dtype=np.float64)
        self.tree = SphereKdTree(self.lats, self.lngs)
        self.sample_lats = np.repeat(self.lats, len(self.lngs))
        self.sample_lngs = np.tile(self.lngs, len(self.lats))

    def __len__(self) -> int:
        return len(self.sample_lats)

    def point(self, sample: int) -> GeoPoint:
        return GeoPoint(float(self.sample_lats[sample]), float(self.sample_lngs[sample]))

    def insert(self, samples) -> None:
        for sample in samples:
            self.tree.insert(sample)

    def exact(self, samples, query: GeoPoint, metric):
        """The linear scan's nearest of ``samples`` to ``query``."""
        samples = np.asarray(sorted(samples))
        return exact_nearest(self.sample_lats[samples], self.sample_lngs[samples], query, metric)


def box_grid(step: float = 0.2) -> Grid:
    """The samples of 40-50 N, 0-10 E every ``step`` degrees, north row first."""
    n = round(10 / step) + 1
    return Grid(np.linspace(50, 40, n), np.linspace(0, 10, n))


def random_queries(n: int, seed: int, bounds=Quadrilateral(40, 50, 0, 10)) -> list[GeoPoint]:
    rng = np.random.default_rng(seed)
    lats = rng.uniform(bounds.lat_min, bounds.lat_max, n)
    lngs = rng.uniform(bounds.lng_min, bounds.lng_max, n)
    return [GeoPoint(a, b) for a, b in zip(lats.tolist(), lngs.tolist())]


def random_samples(grid: Grid, fraction: float, seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return np.flatnonzero(rng.random(len(grid)) < fraction).tolist()


class TestInsertRemove:
    def test_single_sample_always_returned(self):
        grid = box_grid(0.5)
        grid.tree.insert(7 * 21 + 11)
        p = grid.point(7 * 21 + 11)
        for q in (GeoPoint(40, 0), GeoPoint(50, 10), GeoPoint(44, 7)):
            assert grid.tree.nearest_neighbor(q, GreatCircleMetric()) == (
                p,
                great_circle_distance(q, p),
            )

    def test_insert_remove_leaves_empty(self):
        grid = box_grid(0.5)
        grid.tree.insert(100)
        grid.tree.remove(100)
        assert len(grid.tree) == 0
        with pytest.raises(EmptyTreeError):
            grid.tree.nearest_neighbor(GeoPoint(44, 4), GreatCircleMetric())

    def test_remaining_sample_found_from_anywhere(self):
        grid = box_grid(0.5)
        a, b = 2 * 21 + 2, 18 * 21 + 18
        grid.insert([a, b])
        grid.tree.remove(a)
        metric = GreatCircleMetric()
        for q in random_queries(50, seed=2):
            assert grid.tree.nearest_neighbor(q, metric)[0] == grid.point(b)

    def test_insert_of_active_sample_raises(self):
        grid = box_grid(0.5)
        grid.tree.insert(5)
        with pytest.raises(SampleStateError, match="insert of active sample 5"):
            grid.tree.insert(5)
        assert len(grid.tree) == 1

    def test_remove_of_inactive_sample_raises(self):
        grid = box_grid(0.5)
        grid.tree.insert(5)
        with pytest.raises(SampleStateError, match="remove of absent sample 6"):
            grid.tree.remove(6)
        grid.tree.remove(5)
        with pytest.raises(SampleStateError, match="remove of absent sample 5"):
            grid.tree.remove(5)
        assert len(grid.tree) == 0

    def test_shadow_set_interleaved(self):
        rng = random.Random(33)
        grid = box_grid(0.2)
        metric = GreatCircleMetric()
        shadow: list[int] = []
        for step in range(10_000):
            if shadow and rng.random() < 0.4:
                grid.tree.remove(shadow.pop(rng.randrange(len(shadow))))
            else:
                sample = rng.randrange(len(grid))
                if sample in shadow:
                    continue
                shadow.append(sample)
                grid.tree.insert(sample)
            assert len(grid.tree) == len(shadow)
            if step % 500 == 0:
                for q in random_queries(5, seed=step):
                    assert grid.tree.nearest_neighbor(q, metric) == grid.exact(shadow, q, metric)

    def test_removing_every_sample_empties_every_node(self):
        grid = box_grid(0.2)
        samples = list(range(len(grid)))
        grid.insert(samples)
        random.Random(4).shuffle(samples)
        for sample in samples:
            grid.tree.remove(sample)
        assert len(grid.tree) == 0
        assert not any(grid.tree._counts)


def check_structure(grid: Grid) -> int:
    """Assert the tree's build on ``grid``; returns its leaf count.

    The leaves hold at most 32 samples and partition the grid; each node's
    quadrilateral is the closed min/max of its rows' and columns'
    coordinates; each leaf's path runs from the root through its ancestors.
    """
    tree = grid.tree
    owner = np.full((len(grid.lats), len(grid.lngs)), -1)
    leaves = 0
    for node, rect in enumerate(tree._rects):
        if rect is None:
            continue
        leaves += 1
        r0, r1, c0, c1 = rect
        assert 0 < (r1 - r0) * (c1 - c0) <= 32
        assert (owner[r0:r1, c0:c1] == -1).all()
        owner[r0:r1, c0:c1] = node
        path = tree._paths[node]
        assert path[0] == 0 and path[-1] == node
        assert all(child in (2 * up + 1, 2 * up + 2) for up, child in zip(path, path[1:]))
        for up in path:
            quad = tree._quads[up]
            lats, lngs = grid.lats[r0:r1], grid.lngs[c0:c1]
            assert quad.lat_min <= lats.min() and lats.max() <= quad.lat_max
            assert quad.lng_min <= lngs.min() and lngs.max() <= quad.lng_max
        assert tree._quads[node] == (
            grid.lats[r0:r1].min(), grid.lats[r0:r1].max(),
            grid.lngs[c0:c1].min(), grid.lngs[c0:c1].max(),
        )
    assert (owner >= 0).all()
    return leaves


class TestStructure:
    @pytest.mark.parametrize(
        "grid",
        [
            lambda: box_grid(0.2),
            lambda: Grid(np.linspace(90, 88, 81), np.linspace(0, 3, 121)),
            lambda: Grid([12.0, 11.5, 11.0], [180.0, *np.arange(1, 30) * 0.25 - 180]),
            lambda: Grid([45.0], np.linspace(7, 8, 100)),
            lambda: Grid(np.linspace(46, 45, 100), [7.0]),
        ],
        ids=["box", "pole", "wrapped-west-column", "one-row", "one-column"],
    )
    def test_leaves_partition_the_grid_in_closed_quads(self, grid):
        grid = grid()
        assert check_structure(grid) >= len(grid) / 32

    @pytest.mark.parametrize(("lat", "axis"), [(0.0, "lng"), (80.0, "lat")])
    def test_root_halves_the_longer_ground_side(self, lat, axis):
        # 11 rows and 31 columns 0.1 degree apart: the columns are the longer
        # ground side at the equator, the rows at 80 N, where a degree of
        # longitude is 0.17 of one of latitude.
        grid = Grid(lat + np.linspace(1, 0, 11), np.linspace(7, 10, 31))
        low, high = grid.tree._quads[1], grid.tree._quads[2]
        if axis == "lng":
            assert (low.lat_min, low.lat_max) == (high.lat_min, high.lat_max)
            assert low.lng_max < high.lng_min
        else:
            assert (low.lng_min, low.lng_max) == (high.lng_min, high.lng_max)
            assert low.lat_max < high.lat_min or high.lat_max < low.lat_min


class TestNearestNeighbor:
    def test_tie_break_smaller_lat_lng(self):
        grid = Grid([1.0, 0.0, -1.0], [-1.0, 0.0, 1.0])
        origin = GeoPoint(0, 0)
        grid.insert([5, 3])  # (0, 1) and (0, -1)
        assert grid.tree.nearest_neighbor(origin, GreatCircleMetric())[0] == GeoPoint(0, -1)
        grid.tree.remove(3)
        grid.insert([1, 7])  # (1, 0) and (-1, 0)
        assert grid.tree.nearest_neighbor(origin, GreatCircleMetric())[0] == GeoPoint(-1, 0)

    @pytest.mark.parametrize("metric", [GreatCircleMetric(), EllipsoidMetric()])
    def test_matches_linear_scan(self, metric):
        grid = box_grid(0.2)
        active = random_samples(grid, 0.6, seed=5)
        grid.insert(active)
        queries = random_queries(200, seed=6) + random_queries(
            50, seed=7, bounds=Quadrilateral(35, 55, -5, 15)
        )
        for q in queries:
            assert grid.tree.nearest_neighbor(q, metric) == grid.exact(active, q, metric)

    @pytest.mark.parametrize("metric", [GreatCircleMetric(), EllipsoidMetric()])
    def test_world_scale_exactness(self, metric):
        # a global grid maximizes the disagreement between the two metrics,
        # stressing the per-metric pruning bounds
        grid = Grid(np.linspace(85, -85, 69), np.arange(-175, 181, 5.0))
        active = random_samples(grid, 0.7, seed=811)
        grid.insert(active)
        queries = random_queries(300, seed=812, bounds=Quadrilateral(-89, 89, -180, 180))
        for q in queries:
            assert grid.tree.nearest_neighbor(q, metric) == grid.exact(active, q, metric)

    @pytest.mark.parametrize("metric", [GreatCircleMetric(), EllipsoidMetric()])
    def test_wrapped_west_column_exactness(self, metric):
        grid = Grid(np.linspace(12, 10, 9), [180.0, *np.arange(1, 41) * 0.05 - 180])
        active = random_samples(grid, 0.5, seed=13)
        grid.insert(active)
        queries = random_queries(100, seed=14, bounds=Quadrilateral(9, 13, -180, -177.5))
        queries += random_queries(30, seed=15, bounds=Quadrilateral(9, 13, 179, 180))
        for q in queries:
            assert grid.tree.nearest_neighbor(q, metric) == grid.exact(active, q, metric)

    def test_pole_row_of_one_physical_point(self):
        # Every sample of the row at 90 N is the pole: the search splits
        # that row by column and still returns the linear scan's answer.
        grid = Grid([90.0, 89.75, 89.5], np.linspace(0, 10, 41))
        active = list(range(1, len(grid)))
        grid.insert(active)
        for metric in (GreatCircleMetric(), EllipsoidMetric()):
            for q in (grid.point(0), GeoPoint(90, 5), GeoPoint(89.9, 3)):
                assert grid.tree.nearest_neighbor(q, metric) == grid.exact(active, q, metric)

    def test_exactness_with_interleaved_removals(self):
        rng = random.Random(8)
        grid = box_grid(0.2)
        alive = list(range(len(grid)))
        grid.insert(alive)
        metric = GreatCircleMetric()
        for _ in range(300):
            grid.tree.remove(alive.pop(rng.randrange(len(alive))))
        for q in random_queries(100, seed=10):
            assert grid.tree.nearest_neighbor(q, metric) == grid.exact(alive, q, metric)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("method", ["distance", "lower_bound"])
    def test_non_finite_metric_values_raise(self, method, value):
        class Broken(GreatCircleMetric):
            pass

        setattr(Broken, method, lambda self, *args: value)
        grid = box_grid(1.0)  # 121 samples: the root has children to bound
        grid.insert(range(len(grid)))
        word = "bound" if method == "lower_bound" else "distance"
        with pytest.raises(NonFiniteDistanceError, match=f"{word} {value!r}"):
            grid.tree.nearest_neighbor(GeoPoint(45.0, 5.0), Broken())


class TestPruningSoundness:
    @pytest.mark.parametrize("metric", [GreatCircleMetric(), EllipsoidMetric()])
    def test_lower_bound_below_point_distances(self, metric):
        rng = random.Random(12)
        for _ in range(300):
            lat0 = rng.uniform(-60, 50)
            lng0 = rng.uniform(-170, 160)
            q = Quadrilateral(lat0, lat0 + rng.uniform(0.01, 8), lng0, lng0 + rng.uniform(0.01, 8))
            p = GeoPoint(rng.uniform(-80, 80), rng.uniform(-175, 175))
            bound = metric.lower_bound(q, p)
            for _ in range(20):
                s = GeoPoint(
                    rng.uniform(q.lat_min, q.lat_max), rng.uniform(q.lng_min, q.lng_max)
                )
                assert bound <= metric.distance(p, s) + 1e-6


def _random_tile_entries(n: int, seed: int):
    """``n`` distinct tiles, each with a high point somewhere in its closed box."""
    rng = random.Random(seed)
    keys = set()
    while len(keys) < n:
        keys.add((rng.randrange(-50, 50), rng.randrange(-170, 170)))
    return [
        (key, key[0] + rng.random(), key[1] + rng.random(), rng.randrange(0, 4000))
        for key in sorted(keys)
    ]


def _flat_index(keys) -> TileIndex:
    """A TileIndex of ``keys`` whose tiles are all at elevation 0."""
    return TileIndex([(key, key[0], key[1], 0) for key in keys])


def _tile_quad(key) -> Quadrilateral:
    return Quadrilateral(key[0], key[0] + 1, key[1], key[1] + 1)


def _nearest_one(index: TileIndex, p: GeoPoint, elevation: int):
    """One query of the batched nearest_higher_tile: its distance, or None for inf."""
    (dist,) = index.nearest_higher_tile([p.lat_deg], [p.lng_deg], [elevation]).tolist()
    return None if dist == math.inf else dist


def _within_one(index: TileIndex, p: GeoPoint, radius: float) -> list:
    """The keys tiles_within assigns one point."""
    _q, tiles = index.tiles_within([p.lat_deg], [p.lng_deg], [radius])
    return [index.keys[t] for t in tiles.tolist()]


def _assert_superset_within_slack(got, exact, p, radius):
    """``got`` holds every key of ``exact``; each extra tile is within the slack."""
    assert set(exact) <= set(got)
    assert len(set(got)) == len(got)
    for key in set(got) - set(exact):
        assert min_distance(_tile_quad(key), p) <= radius + 1e-3 + radius * 1e-9 + 1e-6


# Offsets in degrees on a half-degree lattice: of a high point from its
# tile's SW corner, and of a query from (44, 6) across a 3x4 block of tiles.
_HALVES = st.integers(0, 2).map(lambda v: v / 2)
_LATTICE = st.integers(0, 8).map(lambda v: v / 2)


class TestTileIndex:
    def test_far_higher_tile_found(self):
        index = TileIndex([((45, 7), 45.9, 7.9, 1000), ((48, 12), 48.3, 12.6, 3000)])
        dist = _nearest_one(index, GeoPoint(45.5, 7.5), 1500)
        want = great_circle_distance(GeoPoint(45.5, 7.5), GeoPoint(48.3, 12.6))
        assert dist == pytest.approx(want, abs=1e-6)

    def test_own_tile_measured_to_its_high_point(self):
        # The lower neighbour's high point is nearer, but only a higher
        # sample bounds the query: its own tile's, 54 km away, not 0.
        index = TileIndex([((45, 7), 45.9, 7.1, 2000), ((45, 8), 45.5, 8.0, 900)])
        dist = _nearest_one(index, GeoPoint(45.5, 7.5), 1500)
        want = great_circle_distance(GeoPoint(45.5, 7.5), GeoPoint(45.9, 7.1))
        assert dist == pytest.approx(want, abs=1e-6)
        assert dist > great_circle_distance(GeoPoint(45.5, 7.5), GeoPoint(45.5, 8.0))

    def test_no_higher_tile_returns_none(self):
        index = TileIndex([((45, 7), 45.5, 7.5, 1000)])
        assert _nearest_one(index, GeoPoint(45.5, 7.5), 1000) is None  # strict >

    def test_non_finite_query_raises(self):
        index = TileIndex([((45, 7), 45.5, 7.5, 1000)])
        with pytest.raises(NonFiniteDistanceError):
            index.nearest_higher_tile([45.5], [math.nan], [0])

    @given(
        st.lists(st.tuples(_HALVES, _HALVES, st.integers(0, 4)), min_size=1, max_size=12),
        st.lists(st.tuples(_LATTICE, _LATTICE, st.integers(-1, 4)), min_size=1, max_size=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_nearest_higher_tile_matches_brute_force_scan(self, highs, queries):
        # Neighbouring tiles' high points often share a seam point, so
        # distances tie.
        keys = [(44 + k // 4, 6 + k % 4) for k in range(len(highs))]
        entries = [(key, key[0] + a, key[1] + b, h) for key, (a, b, h) in zip(keys, highs)]
        index = TileIndex(entries[::-1])
        assert index.keys == keys
        lats = [44.0 + a for a, _, _ in queries]
        lngs = [6.0 + b for _, b, _ in queries]
        dists = index.nearest_higher_tile(lats, lngs, [e for _, _, e in queries])
        assert len(dists) == len(queries)
        for lat, lng, (_a, _b, elev), dist in zip(lats, lngs, queries, dists.tolist()):
            to_highs = great_circle_distance_many(
                np.array([e[1] for e in entries]), np.array([e[2] for e in entries]), lat, lng
            )
            higher = [d for d, (*_, h) in zip(to_highs.tolist(), entries) if h > elev]
            assert dist == min(higher, default=math.inf)

    def test_tiles_within_radius_zero_and_full(self):
        entries = _random_tile_entries(60, seed=15)
        index = TileIndex(entries)
        p = GeoPoint(10.25, 10.25)
        containing = [key for key, *_ in entries if contains(_tile_quad(key), p)]
        _assert_superset_within_slack(_within_one(index, p, 0.0), containing, p, 0.0)
        assert _within_one(index, p, math.pi * MEAN_RADIUS_M) == sorted(k for k, *_ in entries)

    def test_tiles_within_matches_filter(self):
        entries = _random_tile_entries(80, seed=16)
        index = TileIndex(entries)
        rng = random.Random(17)
        points = [GeoPoint(rng.uniform(-55, 55), rng.uniform(-180, 180)) for _ in range(50)]
        radii = [rng.uniform(0, 3e6) for _ in points]
        queries, tiles = index.tiles_within(
            [p.lat_deg for p in points], [p.lng_deg for p in points], radii
        )
        for k, (p, radius) in enumerate(zip(points, radii)):
            expected = [key for key, *_ in entries if min_distance(_tile_quad(key), p) <= radius]
            got = [index.keys[t] for t in tiles[queries == k].tolist()]
            assert got == sorted(got)
            _assert_superset_within_slack(got, expected, p, radius)

    @given(
        st.integers(-90, 88),
        st.integers(1, 4),
        st.sampled_from([-180, -179, -10, 170, 176]),
        st.integers(1, 4),
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0),
                st.floats(-0.2, 1.2),
                st.sampled_from([0.0, 1.0, 1e5, math.pi * MEAN_RADIUS_M]),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_tiles_within_is_a_superset_of_the_scalar_scan(self, lat0, rows, lng0, cols, queries):
        # Areas reach the poles (caps that hold one) and touch the
        # antimeridian from either side; radii of 0, 1 m, 100 km and pi R.
        lat1 = min(90, lat0 + rows)
        area = Quadrilateral(lat0, lat1, lng0, min(180, lng0 + cols))
        keys = area_tile_keys(area)
        index = _flat_index(keys)
        points = [
            GeoPoint(
                area.lat_min + a * (area.lat_max - area.lat_min),
                area.lng_min + b * (area.lng_max - area.lng_min),
            )
            for a, b, _ in queries
        ]
        radii = [r for _, _, r in queries]
        found, tiles = index.tiles_within(
            [p.lat_deg for p in points], [p.lng_deg for p in points], radii
        )
        for k, (p, radius) in enumerate(zip(points, radii)):
            got = [index.keys[t] for t in tiles[found == k].tolist()]
            _assert_superset_within_slack(got, tile_keys_within(area, p, radius), p, radius)

    def test_tiles_within_counts_its_work(self):
        index = TileIndex(_random_tile_entries(40, seed=18))
        work = SearchWork()
        queries, _tiles = index.tiles_within([10.5, -20.0], [3.0, 100.0], [2e5, 5e5], work)
        assert work.queries == 2
        assert work.pairs >= len(queries)

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            TileIndex([])
        ent = ((45, 7), 45.5, 7.5, 100)
        with pytest.raises(ValueError):
            TileIndex([ent, ent])


METRICS = [GreatCircleMetric(), EllipsoidMetric()]

# How a test's tile is held: in a pyramid of its own, or as tile 1 of a
# stack of three (see in_pyramid).
LAYOUTS = ["alone", "stacked"]


def in_pyramid(tile, layout):
    """A pyramid that holds ``tile``, and the tile's position in its stack.

    Stacked, the tile lies between two same-shape tiles higher than any
    query: one beside it, east or west, and one on top of it.  A search
    that read a sample of either, or a table row or column of either, would
    answer differently from the tile alone.
    """
    if layout == "alone":
        return ElevationPyramid([tile]), 0
    high = np.full_like(tile.elevations, 32000)
    q = tile.quad
    width = q.lng_max - q.lng_min
    lng = q.lng_max if q.lng_max + width <= 180 else q.lng_min - width
    beside = Tile(tile.origin_lat, int(lng), high, tile.steps_per_degree)
    on_top = Tile(tile.origin_lat, tile.origin_lng, high, tile.steps_per_degree)
    return ElevationPyramid([beside, tile, on_top]), 1


# Grids whose bounds must hold: 1-degree tiles at mid-latitude, touching
# either pole, and on both sides of the antimeridian, and grids of 30 and 40
# degrees, whose cells span many degrees.
BOUND_GRIDS = [
    pytest.param(45, 7, 33, 32, id="mid-latitude"),
    pytest.param(-90, 20, 33, 32, id="south-pole"),
    pytest.param(89, 179, 33, 32, id="north-pole-west-of-antimeridian"),
    pytest.param(89, -180, 33, 32, id="north-pole-east-of-antimeridian"),
    pytest.param(-1, 179, 33, 32, id="equator-west-of-antimeridian"),
    pytest.param(0, -180, 33, 32, id="equator-east-of-antimeridian"),
    pytest.param(50, -180, 41, 1, id="40-degree-grid-to-the-pole"),
    pytest.param(-90, 150, 31, 1, id="30-degree-grid-to-the-antimeridian"),
]


def bound_queries(tile, seed):
    """Query points inside the tile, near it and anywhere on the globe, with
    the poles, the antimeridian and the tile's antipode among them, and
    points within 1e-10 to 1e-3 degrees of the antipodes of samples, where
    the haversine flattens."""
    rng = np.random.default_rng(seed)
    q = tile.quad
    lats = [rng.uniform(q.lat_min, q.lat_max, 12), rng.uniform(q.lat_min - 3, q.lat_max + 3, 12)]
    lngs = [rng.uniform(q.lng_min, q.lng_max, 12), rng.uniform(q.lng_min - 3, q.lng_max + 3, 12)]
    lats.append(np.degrees(np.arcsin(rng.uniform(-1, 1, 12))))
    lngs.append(rng.uniform(-180, 180, 12))
    rows, cols = (rng.integers(0, n, 12) for n in tile.shape)
    offsets = 10.0 ** rng.uniform(-10, -3, (2, 12)) * rng.choice([-1.0, 1.0], (2, 12))
    lats.append(-tile.sample_lats()[rows] + offsets[0])
    lngs.append(tile.sample_lngs()[cols] + 180.0 + offsets[1])
    mid_lat, mid_lng = (q.lat_min + q.lat_max) / 2, (q.lng_min + q.lng_max) / 2
    lats.append([90.0, -90.0, mid_lat, mid_lat, -mid_lat, -q.lat_min])
    lngs.append([0.0, 0.0, 180.0, -179.999, mid_lng + 180.0, q.lng_min + 180.0])
    lats = np.clip(np.concatenate(lats), -90.0, 90.0)
    lngs = np.array([wrap_longitude(v) for v in np.concatenate(lngs).tolist()])
    return lats, lngs


def exact_distances(tile, lats, lngs, metric):
    """(query, row, col) array of the metric's distance from each query to each sample."""
    rows, cols = tile.shape
    grid_lats = np.repeat(tile.sample_lats(), cols)
    grid_lngs = np.array([wrap_longitude(v) for v in np.tile(tile.sample_lngs(), rows).tolist()])
    n = rows * cols
    out = [
        metric.distance_exact_many(np.full(n, lat), np.full(n, lng), grid_lats, grid_lngs)
        for lat, lng in zip(lats.tolist(), lngs.tolist())
    ]
    return np.array(out).reshape(len(lats), rows, cols)


def assert_floors_sound(pyramid, position, lats, lngs, dists, metric, bands):
    """No band's table lower bound prunes a sample that is not farther than ``best``:
    every sample lies within :func:`spatial_index._reach` of its own distance.

    Bands are rows and columns of the tile at ``position`` in the pyramid's
    stack, which the bound reads as rows and columns of the stack."""
    k = np.arange(len(lats))
    queries = spatial_index._Queries.of(lats, lngs, np.zeros(len(k)), np.full(len(k), position))
    top, left = pyramid._edges(np.array(position))
    for first_row, last_row, first_col, last_col in bands:
        edge = (first_row + top, last_row + top, first_col + left, last_col + left)
        floor = pyramid._floor(*(np.full(len(k), v) for v in edge), k, queries)
        inside = dists[:, first_row : last_row + 1, first_col : last_col + 1].reshape(len(k), -1)
        reach = spatial_index._reach(inside, metric)
        assert (floor[:, None] <= reach).all(), (first_row, last_row, first_col, last_col)


class TestTableBounds:
    """The pyramid's row-and-column bounds against the exact distance of every sample."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize(("lat", "lng", "side", "steps"), BOUND_GRIDS)
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: type(m).__name__)
    def test_cell_bounds(self, metric, lat, lng, side, steps, layout):
        grid = np.random.default_rng(side).integers(0, 50, size=(side, side)).astype(np.int16)
        tile = Tile(lat, lng, grid, steps)
        pyramid, position = in_pyramid(tile, layout)
        lats, lngs = bound_queries(tile, seed=(lat + 90) * 1000 + lng + 180)
        dists = exact_distances(tile, lats, lngs, metric)
        # A cell's upper bound is that of its stored maximum sample: check
        # every sample's.
        queries = spatial_index._Queries.of(
            lats, lngs, np.zeros(len(lats)), np.full(len(lats), position)
        )
        k, r, c = (a.ravel() for a in np.indices(dists.shape))
        top, left = pyramid._edges(np.array(position))
        upper = spatial_index._upper(pyramid._hav(r + top, c + left, k, queries), metric)
        assert (upper >= dists.ravel()).all()
        # Every cell of every level, and every single sample, where a bound
        # is tightest.
        bands = [(i, i, j, j) for i, j in np.ndindex(grid.shape)]
        for depth, level in enumerate(pyramid.levels):
            cell = 8 << depth
            for i, j in np.ndindex(level.maxima.shape[1:]):
                last_row, last_col = min((i + 1) * cell, side) - 1, min((j + 1) * cell, side) - 1
                bands.append((i * cell, last_row, j * cell, last_col))
        assert_floors_sound(pyramid, position, lats, lngs, dists, metric, bands)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize(("lat", "lng", "side", "steps"), BOUND_GRIDS)
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: type(m).__name__)
    def test_window_strip_bounds(self, metric, lat, lng, side, steps, layout):
        grid = np.zeros((side, side), dtype=np.int16)
        tile = Tile(lat, lng, grid, steps)
        pyramid, position = in_pyramid(tile, layout)
        lats, lngs = bound_queries(tile, seed=(lat + 90) * 1000 + lng + 181)
        dists = exact_distances(tile, lats, lngs, metric)
        # Windows at the corners, along the edges, a step in from them and
        # inside the grid.
        last = side - 1
        centres = np.array([0, 1, 2, 3, 4, last // 2, last - 3, last - 1, last])
        centre_rows, centre_cols = (c.ravel() for c in np.meshgrid(centres, centres))
        top, left = pyramid._edges(np.array(position))
        window, *band = pyramid._strips(
            centre_rows + top, centre_cols + left, np.full(len(centre_rows), position)
        )
        band = [band[0] - top, band[1] - top, band[2] - left, band[3] - left]
        # With its window, each centre's strips cover the grid once.
        for w, (row, col) in enumerate(zip(centre_rows.tolist(), centre_cols.tolist())):
            cover = np.zeros(grid.shape, dtype=int)
            cover[max(row - K, 0) : row + K + 1, max(col - K, 0) : col + K + 1] += 1
            for r0, r1, c0, c1 in zip(*(edge[window == w].tolist() for edge in band)):
                assert 0 <= r0 <= r1 < side and 0 <= c0 <= c1 < side
                cover[r0 : r1 + 1, c0 : c1 + 1] += 1
            assert (cover == 1).all(), (row, col)
        strips = zip(*(edge.tolist() for edge in band))
        assert_floors_sound(pyramid, position, lats, lngs, dists, metric, strips)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize(("lat", "lng", "side", "steps"), BOUND_GRIDS)
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: type(m).__name__)
    def test_answers_match_a_linear_scan_from_anywhere(self, metric, lat, lng, side, steps, layout):
        grid = np.random.default_rng(side + 1).integers(0, 50, size=(side, side)).astype(np.int16)
        tile = Tile(lat, lng, grid, steps)
        lats, lngs = bound_queries(tile, seed=(lat + 90) * 1000 + lng + 182)
        elevations = np.random.default_rng(lat + 90).integers(0, 50, len(lats))
        points = [GeoPoint(a, b) for a, b in zip(lats.tolist(), lngs.tolist())]
        queries = [(p, int(e)) for p, e in zip(points, elevations)]
        found = query_batch(*in_pyramid(tile, layout), queries, metric)
        assert_matches_linear_scan(tile, queries, found, metric)


@st.composite
def pyramid_batches(draw):
    """A tile of a side that is not a multiple of 8, 1-20 queries, a metric and
    a layout (see in_pyramid).

    Grids draw from one value (a plateau), three values (many exact ties)
    or many.  Each query lies on a sample at its own elevation (as peaks
    query), inside the tile or outside it (as in the finalization pass),
    repeats an earlier query, or stands at the tile's maximum, where no
    sample is strictly higher.
    """
    side = draw(st.sampled_from([2, 3, 9, 17, 41]))
    spread = draw(st.sampled_from([0, 2, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.integers(1000, 1001 + spread, size=(side, side), dtype=np.int16)
    tile = Tile(45, 7, grid, side - 1)
    queries: list[tuple[GeoPoint, int]] = []
    for _ in range(draw(st.integers(1, 20))):
        where = draw(st.sampled_from(["peak", "inside", "outside", "repeat", "top"]))
        elevation = draw(st.integers(999, 1001 + spread))
        if where == "repeat" and queries:
            queries.append(queries[draw(st.integers(0, len(queries) - 1))])
            continue
        if where == "peak":
            i, j = draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1))
            p, elevation = tile.sample_point(i, j), int(grid[i, j])
        elif where == "outside":
            lng = draw(st.one_of(st.floats(3, 6.99), st.floats(8.01, 12)))
            p = GeoPoint(draw(st.floats(41, 50)), lng)
        else:
            p = GeoPoint(draw(st.floats(45, 46)), draw(st.floats(7, 8)))
            if where == "top":
                elevation = int(grid.max())
        queries.append((p, elevation))
    return tile, queries, draw(st.sampled_from(METRICS)), draw(st.sampled_from(LAYOUTS))


def query_batch(pyramid, position, queries, metric, work=None):
    """Per query, the (sample, distance) of its row from the pyramid, searching
    the tile at ``position`` in its stack; None for no row."""
    lats = [p.lat_deg for p, _ in queries]
    lngs = [p.lng_deg for p, _ in queries]
    elevations = [e for _, e in queries]
    positions = np.full(len(queries), position)
    rows = pyramid.nearest_higher_many(lats, lngs, elevations, positions, metric, work)
    assert rows.dtype == CANDIDATE_DTYPE
    assert (np.diff(rows["peak"]) > 0).all()  # query order, one row per query at most
    assert ((-180.0 < rows["lng"]) & (rows["lng"] <= 180.0)).all()
    found = [None] * len(queries)
    for k, distance, lat, lng in rows.tolist():
        found[k] = (GeoPoint(lat, lng), distance)
    return found


def assert_matches_linear_scan(tile, queries, found, metric):
    assert len(found) == len(queries)
    for (p, elevation), got in zip(queries, found):
        rows, cols = np.nonzero(tile.elevations > elevation)
        if len(rows) == 0:
            assert got is None
        else:
            lats, lngs = tile.sample_lats()[rows], tile.sample_lngs()[cols]
            assert got == exact_nearest(lats, lngs, p, metric)


class TestElevationPyramid:
    @given(pyramid_batches())
    @settings(max_examples=400, deadline=None)
    def test_matches_linear_scan_of_higher_samples(self, case):
        tile, queries, metric, layout = case
        work = SearchWork()
        found = query_batch(*in_pyramid(tile, layout), queries, metric, work)
        assert_matches_linear_scan(tile, queries, found, metric)
        assert work.queries == len(queries)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_chunk_boundaries_inside_one_call(self, monkeypatch, layout):
        monkeypatch.setattr(spatial_index, "_QUERY_CHUNK", 3)
        grid = np.random.default_rng(8).integers(0, 50, size=(41, 41)).astype(np.int16)
        tile = Tile(45, 7, grid, 40)
        rng = np.random.default_rng(9)
        queries = [
            (GeoPoint(float(lat), float(lng)), int(e))
            for lat, lng, e in zip(
                rng.uniform(44.5, 46.5, 20), rng.uniform(6.5, 8.5, 20), rng.integers(0, 51, 20)
            )
        ]
        queries[5] = queries[4]  # a duplicate across the chunk boundary
        for k in (2, 7, 11):
            queries[k] = (queries[k][0], int(grid.max()))  # no higher sample
        work = SearchWork()
        for metric in METRICS:
            found = query_batch(*in_pyramid(tile, layout), queries, metric, work)
            assert_matches_linear_scan(tile, queries, found, metric)
        assert any(got is None for got in found) and any(got is not None for got in found)
        assert work.queries == len(METRICS) * len(queries)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: type(m).__name__)
    def test_rows_in_query_order_and_no_row_without_a_higher_sample(self, metric, layout):
        grid = np.random.default_rng(14).integers(0, 60, size=(41, 41)).astype(np.int16)
        tile = Tile(45, 7, grid, 40)
        rng = np.random.default_rng(15)
        lats, lngs = rng.uniform(44.8, 46.2, 30), rng.uniform(6.8, 8.2, 30)
        elevations = rng.integers(0, 60, 30)
        elevations[[0, 9, 10, 29]] = grid.max()  # nothing higher
        pyramid, position = in_pyramid(tile, layout)
        rows = pyramid.nearest_higher_many(lats, lngs, elevations, np.full(30, position), metric)
        assert rows.dtype == CANDIDATE_DTYPE
        assert rows["peak"].tolist() == np.flatnonzero(elevations < grid.max()).tolist()

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_empty_query_set_gives_no_rows(self, layout):
        tile = Tile(45, 7, np.zeros((9, 9), dtype=np.int16), 8)
        work = SearchWork()
        pyramid, _position = in_pyramid(tile, layout)
        rows = pyramid.nearest_higher_many([], [], [], [], GreatCircleMetric(), work)
        assert rows.dtype == CANDIDATE_DTYPE and len(rows) == 0
        assert work.queries == 0

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: type(m).__name__)
    def test_answer_on_the_antimeridian_reports_lng_180(self, metric, layout):
        # Column 0 of a tile at lng -180 lies at -180.0; the answer's
        # longitude is wrapped into (-180, 180], as GeoPoint wraps it.
        grid = np.zeros((41, 41), dtype=np.int16)
        grid[20, 1] = 10
        grid[20, 0] = 20
        tile = Tile(10, -180, grid, 40)
        assert tile.sample_lngs()[0] == -180.0
        lat, lng = float(tile.sample_lats()[20]), float(tile.sample_lngs()[1])
        # A query in the grid, settled by the window, and one across the
        # antimeridian outside the grid, settled by the descent.
        queries = [(GeoPoint(lat, lng), 10), (GeoPoint(lat, 179.99), 10)]
        pyramid, position = in_pyramid(tile, layout)
        work = SearchWork()
        rows = pyramid.nearest_higher_many(
            [lat, lat], [lng, 179.99], [10, 10], [position] * 2, metric, work
        )
        assert rows[["peak", "lat", "lng"]].tolist() == [(0, lat, 180.0), (1, lat, 180.0)]
        assert work.window_resolved == 1
        found = query_batch(pyramid, position, queries, metric)
        assert_matches_linear_scan(tile, queries, found, metric)

    # Two higher samples equidistant from the query at sample (8, 8): one
    # column (row) away, inside the window, or twice the window's half-side
    # away, beyond it, where the descent settles the query.
    TIE_STAGES = [
        pytest.param(1, 1, id="window"),
        pytest.param(2 * spatial_index._WINDOW_HALF, 0, id="descent"),
    ]

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize(("offset", "window_resolved"), TIE_STAGES)
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: type(m).__name__)
    def test_distance_tie_goes_to_the_smaller_lng(self, metric, offset, window_resolved, layout):
        grid = np.zeros((17, 17), dtype=np.int16)
        grid[8, 8 - offset] = grid[8, 8 + offset] = 5
        tile = Tile(45, 7, grid, 16)
        p = tile.sample_point(8, 8)
        west, east = tile.sample_point(8, 8 - offset), tile.sample_point(8, 8 + offset)
        assert metric.distance(p, west) == metric.distance(p, east)
        work = SearchWork()
        pyramid, position = in_pyramid(tile, layout)
        rows = pyramid.nearest_higher_many([p.lat_deg], [p.lng_deg], [0], [position], metric, work)
        assert rows[["peak", "distance", "lat", "lng"]].tolist() == [
            (0, metric.distance(p, west), west.lat_deg, west.lng_deg)
        ]
        assert work.window_resolved == window_resolved

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize(("offset", "window_resolved"), TIE_STAGES)
    def test_distance_tie_goes_to_the_smaller_lat(self, offset, window_resolved, layout):
        # Along a meridian the great-circle distance is the same north and
        # south; the ellipsoid's is not, so only the sphere ties here.
        metric = GreatCircleMetric()
        grid = np.zeros((17, 17), dtype=np.int16)
        grid[8 - offset, 8] = grid[8 + offset, 8] = 5
        tile = Tile(45, 7, grid, 16)
        p = tile.sample_point(8, 8)
        north, south = tile.sample_point(8 - offset, 8), tile.sample_point(8 + offset, 8)
        assert metric.distance(p, north) == metric.distance(p, south)
        work = SearchWork()
        pyramid, position = in_pyramid(tile, layout)
        rows = pyramid.nearest_higher_many([p.lat_deg], [p.lng_deg], [0], [position], metric, work)
        assert rows[["peak", "lat", "lng"]].tolist() == [(0, south.lat_deg, south.lng_deg)]
        assert work.window_resolved == window_resolved

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("shape", [(2, 2), (9, 9), (17, 33), (41, 41), (131, 131)])
    def test_cells_store_a_maximum_sample_inside_them(self, shape, layout):
        rows, cols = shape
        grid = np.random.default_rng(rows).integers(0, 5, size=shape).astype(np.int16)
        tile = Tile(45, 7, grid, rows - 1)
        pyramid, t = in_pyramid(tile, layout)
        top, left = pyramid._edges(np.array(t))
        for depth, level in enumerate(pyramid.levels):
            side = 8 << depth
            for i in range(level.maxima.shape[1]):
                r0, r1 = i * side, min((i + 1) * side, rows) - 1
                for j in range(level.maxima.shape[2]):
                    c0, c1 = j * side, min((j + 1) * side, cols) - 1
                    r, c = level.arg_rows[t, i, j] - top, level.arg_cols[t, i, j] - left
                    assert r0 <= r <= r1 and c0 <= c <= c1
                    block_max = grid[r0 : r1 + 1, c0 : c1 + 1].max()
                    assert level.maxima[t, i, j] == grid[r, c] == block_max
        assert pyramid.levels[-1].maxima.shape[1:] == (1, 1)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: type(m).__name__)
    def test_search_makes_no_point_objects_and_scalar_calls_only_for_exact_distances(
        self, metric, monkeypatch, layout
    ):
        calls = {"scalar": 0, "exact": 0}

        class Counting(type(metric)):
            def distance(self, a, b):
                calls["scalar"] += 1
                return super().distance(a, b)

            def distance_exact_many(self, a_lats, *args):
                calls["exact"] += len(a_lats)
                return super().distance_exact_many(a_lats, *args)

        def no_points(*args):
            raise AssertionError("GeoPoint on the search path")

        monkeypatch.setattr(spatial_index, "GeoPoint", no_points)
        grid = np.random.default_rng(6).integers(0, 60, size=(41, 41)).astype(np.int16)
        tile = Tile(45, 7, grid, 40)
        rng = np.random.default_rng(7)
        lats, lngs = rng.uniform(44.5, 46.5, 60), rng.uniform(6.5, 8.5, 60)
        work = SearchWork()
        pyramid, position = in_pyramid(tile, layout)
        rows = pyramid.nearest_higher_many(
            lats, lngs, rng.integers(0, 60, 60), np.full(60, position), Counting(), work
        )
        assert len(rows) > 0 and 0 < work.window_resolved < len(rows)
        # One scalar call per exact distance, and far fewer of those than
        # the samples the search ranks.
        assert 0 < calls["scalar"] == calls["exact"] < work.leaf_samples / 2

    # A query the window settles, and one outside the grid, which the
    # descent settles.
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize(("lat", "lng"), [(45.5, 7.5), (44.9, 7.5)], ids=["window", "descent"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_metric_values_raise(self, value, lat, lng, layout):
        # The pyramid's only metric call is the exact distance of the
        # samples in the chord band; its bounds come from the tables.
        class Broken(GreatCircleMetric):
            def distance_exact_many(self, *args):
                return np.full_like(super().distance_exact_many(*args), value)

        grid = np.random.default_rng(3).integers(0, 100, size=(17, 17)).astype(np.int16)
        grid[8, 8], grid[8, 9] = 10, 200
        pyramid, position = in_pyramid(Tile(45, 7, grid, 16), layout)
        work = SearchWork()
        with pytest.raises(NonFiniteDistanceError, match=f"distance {value!r}"):
            pyramid.nearest_higher_many([lat], [lng], [10], [position], Broken(), work)
        assert work.window_resolved == 0
        metric = GreatCircleMetric()
        rows = pyramid.nearest_higher_many([lat], [lng], [10], [position], metric, work)
        assert len(rows) == 1 and work.window_resolved == (lat == 45.5)


# A stack's tiles: on both sides of the antimeridian, touching either pole,
# and at mid-latitude, 33 samples a side.
STACK_ORIGINS = [(10, 179), (10, -180), (89, 30), (45, 7), (-90, -60)]


def stack_tiles(seed):
    rng = np.random.default_rng(seed)
    return [
        Tile(lat, lng, rng.integers(0, 60, size=(33, 33)).astype(np.int16), 32)
        for lat, lng in STACK_ORIGINS
    ]


def stack_queries(tiles, seed):
    """Queries of every tile of a stack, shuffled: on its samples at their own
    elevation, as peaks query; between samples inside it; on its edges, the
    seams it shares with a neighbour; and outside it, near and anywhere.
    Returns their latitudes, longitudes, elevations and tiles."""
    rng = np.random.default_rng(seed)
    lats, lngs, elevations, positions = [], [], [], []
    for t, tile in enumerate(tiles):
        q = tile.quad
        rows, cols = rng.integers(0, 33, 20), rng.integers(0, 33, 20)
        lat = [tile.sample_lats()[rows], rng.uniform(q.lat_min, q.lat_max, 20)]
        lng = [tile.sample_lngs()[cols], rng.uniform(q.lng_min, q.lng_max, 20)]
        along = rng.uniform(0, 1, (2, 10))
        lat += [np.repeat([q.lat_min, q.lat_max], 5), q.lat_min + along[0]]
        lng += [q.lng_min + along[1], np.tile([q.lng_min, q.lng_max], 5)]
        lat += [rng.uniform(q.lat_min - 2, q.lat_max + 2, 20), rng.uniform(-90, 90, 10)]
        lng += [rng.uniform(q.lng_min - 2, q.lng_max + 2, 20), rng.uniform(-180, 180, 10)]
        lat = np.clip(np.concatenate(lat), -90.0, 90.0)
        elevation = rng.integers(0, 61, len(lat))
        elevation[:20] = tile.elevations[rows, cols]
        lats.append(lat)
        lngs.append(np.concatenate(lng))
        elevations.append(elevation)
        positions.append(np.full(len(lat), t))
    order = rng.permutation(sum(len(a) for a in lats))
    return tuple(np.concatenate(a)[order] for a in (lats, lngs, elevations, positions))


class TestStackedSearch:
    @pytest.mark.parametrize("chunk", [None, 7], ids=["one-chunk", "chunks-of-7"])
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: type(m).__name__)
    def test_answers_and_counts_equal_one_tile_searches(self, metric, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(spatial_index, "_QUERY_CHUNK", chunk)
        tiles = stack_tiles(seed=30)
        lats, lngs, elevations, positions = stack_queries(tiles, seed=31)
        stacked = SearchWork()
        got = ElevationPyramid(tiles).nearest_higher_many(
            lats, lngs, elevations, positions, metric, stacked
        )
        alone = SearchWork()
        expected = []
        for t, tile in enumerate(tiles):
            mine = np.flatnonzero(positions == t)
            rows = ElevationPyramid([tile]).nearest_higher_many(
                lats[mine], lngs[mine], elevations[mine], np.zeros(len(mine)), metric, alone
            )
            rows["peak"] = mine[rows["peak"]]
            expected.append(rows)
        expected = np.concatenate(expected)
        expected = expected[np.argsort(expected["peak"])]
        assert got.tobytes() == expected.tobytes()
        assert stacked == alone
        # Both stages ran, and queries outside their tile were answered.
        assert 0 < stacked.window_resolved < len(got) and stacked.pairs > 0
        assert len(got) > stacked.window_resolved + 100

    def test_a_stack_of_one_tile_holds_its_grid(self):
        tile = stack_tiles(seed=32)[0]
        assert ElevationPyramid([tile])._grid is tile.elevations

    def test_tiles_of_another_shape_or_spacing_are_rejected(self):
        tile = stack_tiles(seed=33)[3]
        wider = Tile(45, 8, np.zeros((33, 65), dtype=np.int16), 32)
        finer = Tile(45, 8, np.zeros((33, 33), dtype=np.int16), 16)
        for other in (wider, finer):
            with pytest.raises(ValueError, match="one shape"):
                ElevationPyramid([tile, other])


def candidates(*rows) -> np.ndarray:
    """CANDIDATE_DTYPE rows from (peak, distance, lat, lng) tuples."""
    return np.array(list(rows), dtype=CANDIDATE_DTYPE)


class TestNearestPerPeak:
    def test_no_candidates_give_no_rows(self):
        best = nearest_per_peak(candidates())
        assert best.dtype == CANDIDATE_DTYPE and len(best) == 0

    def test_smallest_distance_wins(self):
        rows = candidates((0, 30.0, 45.0, 7.0), (0, 10.0, 46.0, 8.0), (0, 20.0, 44.0, 6.0))
        assert nearest_per_peak(rows).tolist() == [(0, 10.0, 46.0, 8.0)]

    def test_distance_tie_goes_to_the_smaller_lat(self):
        rows = candidates((0, 10.0, 45.5, 7.0), (0, 10.0, 45.25, 8.0))
        assert nearest_per_peak(rows).tolist() == [(0, 10.0, 45.25, 8.0)]

    def test_distance_and_lat_tie_goes_to_the_smaller_lng(self):
        rows = candidates((0, 10.0, 45.5, 7.5), (0, 10.0, 45.5, -179.5), (0, 10.0, 45.5, 180.0))
        assert nearest_per_peak(rows).tolist() == [(0, 10.0, 45.5, -179.5)]

    def test_one_row_per_peak_in_peak_order(self):
        # Peaks arrive out of order, and peaks 1 and 3 have no candidate.
        rows = candidates(
            (4, 5.0, 45.0, 7.0),
            (0, 9.0, 45.0, 7.0),
            (2, 1.0, 45.0, 7.0),
            (0, 8.0, 45.0, 7.0),
            (4, 4.0, 45.0, 7.0),
        )
        best = nearest_per_peak(rows)
        assert best[["peak", "distance"]].tolist() == [(0, 8.0), (2, 1.0), (4, 4.0)]

    def test_identical_rows_give_one(self):
        rows = candidates(*[(3, 10.0, 45.5, 7.5)] * 3)
        assert nearest_per_peak(rows).tolist() == [(3, 10.0, 45.5, 7.5)]

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.sampled_from([0.0, 1.0, 2.5]),
                st.sampled_from([-1.0, 0.0, 45.5]),
                st.sampled_from([-179.5, 0.0, 7.25, 180.0]),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_min_of_each_peak(self, rows):
        # Few distinct values, so most peaks hold ties on every key.
        expected = [
            min((d, lat, lng) for k, d, lat, lng in rows if k == peak)
            for peak in sorted({k for k, *_ in rows})
        ]
        best = nearest_per_peak(candidates(*rows))
        assert best["peak"].tolist() == sorted({k for k, *_ in rows})
        assert best[["distance", "lat", "lng"]].tolist() == expected


K = spatial_index._WINDOW_HALF


def sample_queries(tile, cells):
    """(point, elevation) queries at the tile's samples (row, col) of ``cells``."""
    return [(tile.sample_point(i, j), int(tile.elevations[i, j])) for i, j in cells]


class TestPyramidWindow:
    @pytest.mark.parametrize("outside", [(K + 1, 0), (-K - 1, 0), (0, K + 1), (0, -K - 1)])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: type(m).__name__)
    def test_closer_sample_just_outside_the_window_wins(self, metric, outside, layout):
        # The grid is the query's window and one more row or column on the
        # side of ``outside``, so that strip alone bounds the samples outside
        # the window.  Near the equator a row and a column step are about
        # the same length, so the sample K + 1 steps away along a column or
        # a row is closer than the window's corner sample (K, K).
        dr, dc = outside
        grid = np.zeros((2 * K + 1 + (dr != 0), 2 * K + 1 + (dc != 0)), dtype=np.int16)
        i, j = K + (dr < 0), K + (dc < 0)
        grid[i, j] = 10
        grid[i + K, j + K] = grid[i + dr, j + dc] = 20
        tile = Tile(-K, 10, grid, 1)
        queries = sample_queries(tile, [(i, j)])
        work = SearchWork()
        found = query_batch(*in_pyramid(tile, layout), queries, metric, work)
        assert found[0][0] == tile.sample_point(i + dr, j + dc)
        assert_matches_linear_scan(tile, queries, found, metric)
        assert work.window_resolved == 0

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: type(m).__name__)
    def test_no_exact_distance_for_a_window_the_strips_beat(self, metric, layout):
        # The grid of test_closer_sample_just_outside_the_window_wins, south:
        # the strip's row comes closer than the window's nearest higher
        # sample, its corner (K, K), so the window is not settled whatever
        # that sample's exact distance, and none is taken.  The leaf stage
        # ranks the corner outside the chord band of the answer.
        evaluated = []

        class Recording(type(metric)):
            def distance_exact_many(self, a_lats, a_lngs, b_lats, b_lngs):
                evaluated.extend(zip(np.asarray(b_lats).tolist(), np.asarray(b_lngs).tolist()))
                return super().distance_exact_many(a_lats, a_lngs, b_lats, b_lngs)

        grid = np.zeros((2 * K + 2, 2 * K + 1), dtype=np.int16)
        grid[K, K] = 10
        grid[2 * K, 2 * K] = grid[2 * K + 1, K] = 20
        tile = Tile(-K, 10, grid, 1)
        queries = sample_queries(tile, [(K, K)])
        work = SearchWork()
        found = query_batch(*in_pyramid(tile, layout), queries, Recording(), work)
        assert found[0][0] == tile.sample_point(2 * K + 1, K)
        assert work.window_resolved == 0
        assert tuple(tile.sample_point(2 * K, 2 * K)) not in evaluated
        assert tuple(found[0][0]) in evaluated

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: type(m).__name__)
    def test_close_sample_is_resolved_in_the_window(self, metric, layout):
        grid = np.zeros((41, 41), dtype=np.int16)
        grid[20, 20] = 10
        grid[21, 21] = grid[20 + K + 1, 20] = 20
        tile = Tile(0, 10, grid, 40)
        queries = sample_queries(tile, [(20, 20)])
        work = SearchWork()
        found = query_batch(*in_pyramid(tile, layout), queries, metric, work)
        assert found[0][0] == tile.sample_point(21, 21)
        assert_matches_linear_scan(tile, queries, found, metric)
        assert work.window_resolved == 1 and work.pairs == work.leaf_samples == 0

    @pytest.mark.parametrize("origin", [(45, 7), (-90, 20), (89, -180), (-1, 179)])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: type(m).__name__)
    def test_windows_clipped_at_corners_and_edges(self, metric, origin, layout):
        rows = cols = 33
        grid = np.random.default_rng(rows).integers(0, 30, size=(rows, cols)).astype(np.int16)
        tile = Tile(*origin, grid, 32)
        last, mid = rows - 1, rows // 2
        cells = [(0, 0), (0, last), (last, 0), (last, last)]
        cells += [(0, mid), (mid, 0), (last, mid), (mid, last), (1, 1), (last - 2, 2)]
        for i, j in cells:  # a higher sample next to each query
            grid[i, j] = 20
            grid[min(i + 1, last), min(j + 1, last)] = 25
        queries = sample_queries(tile, cells)
        work = SearchWork()
        found = query_batch(*in_pyramid(tile, layout), queries, metric, work)
        assert_matches_linear_scan(tile, queries, found, metric)
        assert work.window_resolved > 0

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: type(m).__name__)
    def test_grid_smaller_than_the_window(self, metric, layout):
        grid = np.random.default_rng(5).integers(0, 9, size=(5, 5)).astype(np.int16)
        tile = Tile(45, 7, grid, 4)
        queries = sample_queries(tile, [(i, j) for i in range(5) for j in range(5)])
        work = SearchWork()
        found = query_batch(*in_pyramid(tile, layout), queries, metric, work)
        assert_matches_linear_scan(tile, queries, found, metric)
        # The window covers the whole grid: every query with a higher sample
        # is settled there.
        assert work.window_resolved == sum(hit is not None for hit in found) > 0

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: type(m).__name__)
    def test_off_grid_queries_on_a_strided_pyramid(self, metric, layout):
        grid = np.random.default_rng(12).integers(0, 40, size=(121, 121)).astype(np.int16)
        tile = Tile(45, 7, grid, 120)
        strided = downsample(tile, 2)
        rng = np.random.default_rng(13)
        # Full-resolution samples off the strided grid, and points between samples.
        cells = [(2 * i + 1, 2 * j + 1) for i, j in rng.integers(0, 60, size=(40, 2))]
        queries = sample_queries(tile, cells)
        queries += [
            (GeoPoint(float(lat), float(lng)), int(e))
            for lat, lng, e in zip(
                rng.uniform(45, 46, 40), rng.uniform(7, 8, 40), rng.integers(0, 40, 40)
            )
        ]
        work = SearchWork()
        found = query_batch(*in_pyramid(strided, layout), queries, metric, work)
        assert_matches_linear_scan(strided, queries, found, metric)
        assert work.window_resolved > 0

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: type(m).__name__)
    def test_queries_outside_the_grid_skip_the_window(self, metric, layout):
        # A small grid with a higher sample everywhere: a window around any
        # of these points would settle it.
        grid = np.full((5, 5), 20, dtype=np.int16)
        tile = Tile(45, 7, grid, 4)
        points = [(44.999, 7.5), (46.001, 7.5), (45.5, 6.999), (45.5, 8.001), (44.9, 8.1)]
        queries = [(GeoPoint(lat, lng), 10) for lat, lng in points]
        work = SearchWork()
        found = query_batch(*in_pyramid(tile, layout), queries, metric, work)
        assert_matches_linear_scan(tile, queries, found, metric)
        assert work.window_resolved == 0 and work.queries == len(queries)
