"""Tile model, HGT round-trips, peak detection, events, and synthesis."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from isoscan.dem import (
    EVENT_INSERT,
    EVENT_PEAK,
    EVENT_REMOVE,
    HgtFormatError,
    Tile,
    VOID_VALUE,
    _fill_voids,
    _lowest_nesw_grid,
    build_events,
    detect_peaks,
    downsample,
    generate_synthetic,
    hgt_filename,
    load_hgt,
    merge_tiles,
    parse_hgt_filename,
    peak_indices,
    qualifying_samples,
    save_hgt,
)
from conftest import area_peaks, tile_peaks
from isoscan.geo import GeoPoint
from isoscan.multipass import BOUND_INFLATION, _footprint, dominated_samples


def make_tile(grid, origin=(45, 7)) -> Tile:
    arr = np.asarray(grid, dtype=np.int16)
    return Tile(origin[0], origin[1], arr, arr.shape[0] - 1)


def walked_peaks(grid: np.ndarray, dominated=None) -> list[tuple[int, int]]:
    """detect_peaks in plain Python, by walking each flat summit: the reference.

    A qualifying sample (no strictly higher 8-neighbour in the grid) off
    ``dominated`` with no neighbour as high is a peak.  One with a neighbour
    as high seeds a walk over its equal-elevation component, whose first
    qualifying member in (row, col) order is kept when it is off
    ``dominated``; each component is walked once.
    """
    rows, cols = grid.shape
    elev = grid.tolist()
    off = [[True] * cols for _ in range(rows)] if dominated is None else (~dominated).tolist()

    def neighbours(i, j):
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if (di or dj) and 0 <= i + di < rows and 0 <= j + dj < cols:
                    yield i + di, j + dj

    qualifies = [
        [all(elev[n][m] <= elev[i][j] for n, m in neighbours(i, j)) for j in range(cols)]
        for i in range(rows)
    ]
    visited = [[False] * cols for _ in range(rows)]
    peaks = []
    for i in range(rows):
        for j in range(cols):
            if not (qualifies[i][j] and off[i][j]) or visited[i][j]:
                continue
            level = elev[i][j]
            if all(elev[n][m] != level for n, m in neighbours(i, j)):
                peaks.append((i, j))
                continue
            rep, stack = (i, j), [(i, j)]
            visited[i][j] = True
            while stack:
                ci, cj = stack.pop()
                if qualifies[ci][cj] and (ci, cj) < rep:
                    rep = (ci, cj)
                for n, m in neighbours(ci, cj):
                    if not visited[n][m] and elev[n][m] == level:
                        visited[n][m] = True
                        stack.append((n, m))
            if off[rep[0]][rep[1]]:
                peaks.append(rep)
    return sorted(peaks)


def cells_of(tile: Tile, samples: np.ndarray) -> list[tuple[int, int]]:
    return list(zip(*(a.tolist() for a in np.divmod(samples, tile.shape[1]))))


def whole_grid_fill(grid: np.ndarray) -> tuple[np.ndarray, int]:
    """The void fill as passes over the whole grid: the reference.

    Each pass sets every void with a valid N/E/S/W neighbour to the lowest
    of them, reading the grid as it was before the pass, until no void is
    left.
    """
    void = grid == VOID_VALUE
    if not void.any():
        return grid, 0
    big = np.iinfo(np.int32).max
    work = np.pad(grid.astype(np.int32), 1, constant_values=big)
    work[1:-1, 1:-1][void] = big
    left = void.copy()
    while left.any():
        neigh = np.minimum.reduce(
            [work[:-2, 1:-1], work[2:, 1:-1], work[1:-1, :-2], work[1:-1, 2:]]
        )
        ring = left & (neigh < big)
        work[1:-1, 1:-1][ring] = neigh[ring]
        left &= ~ring
    return work[1:-1, 1:-1].astype(np.int16), int(void.sum())


@st.composite
def void_grids(draw):
    """Small grids with at least one valid sample, voids placed by kind.

    Kinds: voids anywhere; the outer frame void (every edge and corner);
    a void ring inside the grid around valid samples; one-sample voids
    with no void neighbour; all void but one sample.
    """
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    elevations = st.one_of(st.integers(-3, 3), st.integers(-32767, 32767))
    grid = draw(arrays(np.int16, (rows, cols), elements=elevations))
    kind = draw(st.sampled_from(["anywhere", "frame", "ring", "single-sample", "one-valid"]))
    if kind == "anywhere":
        grid[draw(arrays(np.bool_, (rows, cols)))] = VOID_VALUE
    elif kind == "frame":
        grid[[0, -1], :] = VOID_VALUE
        grid[:, [0, -1]] = VOID_VALUE
    elif kind == "ring":
        top, left = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        bottom, right = draw(st.integers(top, rows - 1)), draw(st.integers(left, cols - 1))
        grid[[top, bottom], left : right + 1] = VOID_VALUE
        grid[top : bottom + 1, [left, right]] = VOID_VALUE
    elif kind == "single-sample":
        # A checkerboard's voids: none has a void N/E/S/W neighbour.
        parity = draw(st.integers(0, 1))
        grid[(np.add.outer(np.arange(rows), np.arange(cols)) % 2 == parity)] = VOID_VALUE
    else:
        keep = draw(st.integers(0, rows * cols - 1))
        grid.flat[np.arange(rows * cols) != keep] = VOID_VALUE
    if (grid == VOID_VALUE).all():
        grid.flat[draw(st.integers(0, rows * cols - 1))] = draw(st.integers(-32767, 32767))
    return grid


class TestTileModel:
    def test_sample_point_corners(self):
        t = make_tile(np.zeros((121, 121)))
        assert t.sample_point(0, 0) == GeoPoint(46.0, 7.0)  # NW
        assert t.sample_point(120, 0) == GeoPoint(45.0, 7.0)  # SW == origin
        assert t.sample_point(0, 120) == GeoPoint(46.0, 8.0)  # NE

    def test_sample_point_matches_vectorized(self):
        t = make_tile(np.zeros((61, 61)))
        lats, lngs = t.sample_lats(), t.sample_lngs()
        for i in range(0, 61, 7):
            for j in range(0, 61, 11):
                p = t.sample_point(i, j)
                assert p.lat_deg == lats[i]
                assert p.lng_deg == lngs[j]

    def test_seam_coordinates_bit_identical_across_tiles(self):
        tiles = generate_synthetic(2, 2, seed=0, profile="fractal", samples_per_side=61)
        by_key = {t.key: t for t in tiles}
        south, north = by_key[(45, 7)], by_key[(46, 7)]
        n = south.shape[0]
        for j in range(n):
            assert south.sample_point(0, j) == north.sample_point(n - 1, j)
        west, east = by_key[(45, 7)], by_key[(45, 8)]
        for i in range(n):
            assert west.sample_point(i, n - 1) == east.sample_point(i, 0)

    def test_merged_coordinates_bit_identical_to_tile(self):
        tiles = generate_synthetic(2, 2, seed=1, profile="fractal", samples_per_side=61)
        merged = merge_tiles(tiles)
        t = {t.key: t for t in tiles}[(46, 8)]
        rows = t.shape[0]
        for i in range(0, rows, 13):
            for j in range(0, rows, 13):
                # the NE tile occupies the merged grid's top-right corner
                assert merged.sample_point(i, j + 60) == t.sample_point(i, j)

    def test_validation(self):
        with pytest.raises(ValueError):
            Tile(45, 7, np.zeros((3, 3), dtype=np.int32), 2)
        with pytest.raises(ValueError):
            Tile(45, 7, np.zeros((4, 3), dtype=np.int16), 2)  # not whole degrees


class TestHgtIo:
    def test_filenames(self):
        assert hgt_filename(46, 10) == "N46E010.hgt"
        assert hgt_filename(-9, -70) == "S09W070.hgt"
        assert parse_hgt_filename("N46E010.hgt") == (46, 10)
        assert parse_hgt_filename("S09W070.hgt") == (-9, -70)
        with pytest.raises(HgtFormatError):
            parse_hgt_filename("hello.hgt")

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        grid = rng.integers(-500, 8000, size=(121, 121)).astype(np.int16)
        tile = make_tile(grid, origin=(46, 10))
        path = tmp_path / hgt_filename(46, 10)
        save_hgt(tile, path)
        assert path.stat().st_size == 2 * 121 * 121
        loaded = load_hgt(path)
        assert loaded.key == (46, 10)
        assert loaded.steps_per_degree == 120
        assert np.array_equal(loaded.elevations, grid)

    def test_srtm3_size_accepted(self, tmp_path):
        grid = np.zeros((1201, 1201), dtype=np.int16)
        path = tmp_path / "N00E000.hgt"
        save_hgt(Tile(0, 0, grid, 1200), path)
        assert path.stat().st_size == 2_884_802
        tile = load_hgt(path)
        assert tile.samples_per_side == 1201
        assert tile.resolution_arcsec == 3.0

    def test_wrong_size_rejected(self, tmp_path):
        path = tmp_path / "N00E000.hgt"
        path.write_bytes(b"\x00" * 1000)
        with pytest.raises(HgtFormatError):
            load_hgt(path)

    def test_all_zero_file_is_flat(self, tmp_path):
        path = tmp_path / "N10E020.hgt"
        path.write_bytes(b"\x00" * (2 * 121 * 121))
        tile = load_hgt(path)
        assert tile.elevations.min() == tile.elevations.max() == 0

    def test_void_filling_reported(self, tmp_path):
        grid = np.full((121, 121), 100, dtype=np.int16)
        grid[40:43, 50:54] = VOID_VALUE
        grid[41, 51] = VOID_VALUE
        grid[39, 50] = 70  # lowest neighbor feeding the void blob
        tile = make_tile(grid)
        path = tmp_path / "N45E007.hgt"
        save_hgt(tile, path)
        loaded = load_hgt(path)
        assert loaded.voids_filled == 12
        assert (loaded.elevations != VOID_VALUE).all()
        assert loaded.elevations[40, 50] == 70  # filled from the minimum valid neighbor

    def test_all_void_rejected(self, tmp_path):
        grid = np.full((121, 121), VOID_VALUE, dtype=np.int16)
        path = tmp_path / "N45E007.hgt"
        path.write_bytes(grid.astype(">i2").tobytes())
        with pytest.raises(HgtFormatError):
            load_hgt(path)


class TestDetectPeaks:
    def test_single_center_peak(self):
        grid = np.full((3, 3), 90, dtype=np.int16)
        grid[1, 1] = 100
        tile = Tile(45, 7, grid, 2)
        assert tile_peaks(tile)[["lat", "lng", "elevation"]].tolist() == [(45.5, 7.5, 100)]

    def test_monotone_ramp_peaks_only_on_high_edge(self):
        grid = np.tile(np.arange(9, dtype=np.int16) * 10, (9, 1))
        tile = Tile(45, 7, grid, 8)
        lngs = tile_peaks(tile)["lng"]
        assert len(lngs), "the high edge qualifies via existing neighbors"
        assert (lngs == 8.0).all()  # east edge is the high one

    def test_flat_summit_single_nw_representative(self):
        grid = np.full((5, 5), 10, dtype=np.int16)
        grid[2:4, 2:4] = 50  # 2x2 flat summit
        t = Tile(45, 7, grid, 4)
        peaks = tile_peaks(t)
        assert len(peaks) == 2  # the summit plus the surrounding flat sea ring
        summit = peaks[peaks["elevation"] == 50][["lat", "lng"]].tolist()
        assert summit == [t.sample_point(2, 2)]  # NW-most, then W-most

    def test_flat_region_next_to_higher_ground_uses_qualifying_representative(self):
        grid = np.full((5, 5), 10, dtype=np.int16)
        grid[0, 0] = 99  # NW corner of the flat region's component is disqualified
        t = Tile(45, 7, grid, 4)
        peaks = tile_peaks(t)
        flat_reps = peaks[peaks["elevation"] == 10][["lat", "lng"]].tolist()
        assert flat_reps == [t.sample_point(0, 2)]  # first qualifying in scan order

    @given(
        arrays(
            np.int16,
            (7, 7),
            elements=st.integers(min_value=0, max_value=4),
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_detection_invariant(self, grid):
        tile = Tile(45, 7, grid, 6)
        elev = grid.astype(np.int32)
        locations = set(tile_peaks(tile)[["lat", "lng"]].tolist())

        def neighbors(i, j):
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == dj == 0:
                        continue
                    ni, nj = i + di, j + dj
                    if 0 <= ni < 7 and 0 <= nj < 7:
                        yield ni, nj

        def component(i, j):
            seen = {(i, j)}
            todo = [(i, j)]
            while todo:
                ci, cj = todo.pop()
                for ni, nj in neighbors(ci, cj):
                    if (ni, nj) not in seen and elev[ni, nj] == elev[i, j]:
                        seen.add((ni, nj))
                        todo.append((ni, nj))
            return seen

        for i in range(7):
            for j in range(7):
                qualifies = all(elev[ni, nj] <= elev[i, j] for ni, nj in neighbors(i, j))
                loc = tile.sample_point(i, j)
                if loc in locations:
                    assert qualifies, "returned sample has a strictly higher neighbor"
                elif qualifies:
                    comp = component(i, j)
                    assert any(
                        tile.sample_point(ci, cj) in locations for ci, cj in comp
                    ), "qualifying sample's flat region lost its representative"


    @given(
        arrays(np.int16, (6, 7), elements=st.sampled_from([VOID_VALUE, 0, 1, 2, 3])),
        arrays(np.bool_, (6, 7)),
    )
    @settings(max_examples=120, deadline=None)
    def test_mask_leaves_out_exactly_the_peaks_on_it(self, grid, dominated):
        tile = Tile(45, 7, grid, 1)
        higher = np.zeros(grid.shape, dtype=bool)
        for i in range(6):
            for j in range(7):
                block = grid[max(i - 1, 0) : i + 2, max(j - 1, 0) : j + 2]
                higher[i, j] = (block > grid[i, j]).any()
        assert np.array_equal(qualifying_samples(tile.elevations), ~higher)
        every = detect_peaks(tile)
        masked = peak_indices(tile.elevations, dominated)
        assert masked.tolist() == every[~dominated.flat[every]].tolist()
        # The qualifying mask, given, changes nothing.
        given_mask = peak_indices(tile.elevations, dominated, qualifying_samples(tile.elevations))
        assert given_mask.tolist() == masked.tolist()

    @given(
        st.integers(2, 14).flatmap(
            lambda rows: st.integers(2, 14).flatmap(
                lambda cols: st.tuples(
                    arrays(np.int16, (rows, cols), elements=st.integers(0, 3)),
                    st.none() | arrays(np.bool_, (rows, cols)),
                )
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_plateaus_match_the_walk(self, case):
        # Four levels make flat regions of every shape.
        grid, dominated = case
        tile = Tile(45, 7, grid, 1)
        assert cells_of(tile, peak_indices(grid, dominated)) == walked_peaks(grid, dominated)

    @given(
        st.integers(1, 4).flatmap(
            lambda tiles: st.tuples(
                arrays(np.int16, (tiles, 6, 5), elements=st.integers(0, 2)),
                arrays(np.bool_, (tiles, 6, 5)),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_each_stacked_tile_on_its_own(self, case):
        stack, dominated = case
        expected = [
            (t * 30 + i * 5 + j)
            for t in range(len(stack))
            for i, j in walked_peaks(stack[t], dominated[t])
        ]
        assert peak_indices(stack, dominated).tolist() == expected

    def test_plateau_on_a_stacking_seam_does_not_join(self):
        # Tile 0's south row and tile 1's north row are one flat ridge in
        # the stack's memory order; each tile keeps its own representative.
        stack = np.zeros((2, 5, 5), dtype=np.int16)
        stack[0, -1, :] = 7
        stack[1, 0, :] = 7
        ridge = [int(k) for k in peak_indices(stack) if stack.reshape(-1)[k] == 7]
        assert ridge == [20, 25]  # (tile 0, row 4, col 0) and (tile 1, row 0, col 0)
        per_tile = [walked_peaks(stack[t]) for t in range(2)]
        assert peak_indices(stack).tolist() == [
            t * 25 + i * 5 + j for t in range(2) for i, j in per_tile[t]
        ]

    def test_batch_with_different_footprints(self):
        # Tiles of one batch at 58-61 N: the northernmost has a footprint
        # of its own, and each tile is dilated by its own.
        tiles = generate_synthetic(4, 1, seed=5, profile="fractal", samples_per_side=121, origin=(58, 7))
        radius = 5000.0 / BOUND_INFLATION
        assert len({tuple(_footprint(t, radius)) for t in tiles}) > 1
        stack = np.stack([t.elevations for t in tiles])
        dominated = dominated_samples(tiles, stack, radius)
        expected = []
        for k, tile in enumerate(tiles):
            own = dominated_samples([tile], tile.elevations[None], radius)[0]
            assert np.array_equal(dominated[k], own)
            expected += [k * 121 * 121 + i * 121 + j for i, j in walked_peaks(tile.elevations, own)]
        assert peak_indices(stack, dominated).tolist() == expected

    @pytest.mark.parametrize("radius", [None, 2000.0])
    def test_tile_that_is_mostly_sea_plateau(self, radius):
        tile = generate_synthetic(1, 1, seed=9, profile="fractal", samples_per_side=121)[0]
        sea = np.percentile(tile.elevations, 60)
        grid = np.maximum(tile.elevations, sea).astype(np.int16)
        assert (grid == sea).mean() >= 0.6
        tile = Tile(45, 7, grid, 120)
        dominated = None
        if radius is not None:
            dominated = dominated_samples([tile], grid[None], radius)[0]
        assert cells_of(tile, peak_indices(grid, dominated)) == walked_peaks(grid, dominated)


class TestFillVoids:
    @given(void_grids())
    @settings(max_examples=400, deadline=None)
    def test_equals_whole_grid_passes(self, grid):
        filled, count = _fill_voids(grid.copy())
        expected, expected_count = whole_grid_fill(grid)
        assert count == expected_count
        assert filled.dtype == expected.dtype == np.int16
        assert np.array_equal(filled, expected)
        assert not (filled == VOID_VALUE).any()

    def test_voids_on_every_edge_and_corner(self):
        grid = np.full((5, 6), VOID_VALUE, dtype=np.int16)
        grid[1:-1, 1:-1] = [[4, 9, 2, 7], [8, 1, 6, 3], [5, 5, 5, 5]]
        filled, count = _fill_voids(grid)
        assert count == 18
        assert np.array_equal(filled, whole_grid_fill(grid)[0])
        assert filled[0, 0] == 4  # a corner: its neighbours are voids filled one pass before
        assert filled[0, 3] == 2

    def test_single_valid_sample_fills_the_grid(self):
        grid = np.full((4, 7), VOID_VALUE, dtype=np.int16)
        grid[3, 6] = -12
        filled, count = _fill_voids(grid)
        assert count == 27
        assert (filled == -12).all() and filled.dtype == np.int16

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 4)])
    def test_all_void_rejected(self, shape):
        with pytest.raises(HgtFormatError, match="only void"):
            _fill_voids(np.full(shape, VOID_VALUE, dtype=np.int16))

    def test_void_free_grid_passes_through(self):
        grid = np.arange(-6, 6, dtype=np.int16).reshape(3, 4)
        filled, count = _fill_voids(grid)
        assert filled is grid and count == 0


class TestLowestNeighbor:
    def test_interior(self):
        grid = np.array(
            [[0, 5, 0], [9, 1, 7], [0, 3, 0]], dtype=np.int16
        )
        assert _lowest_nesw_grid(grid)[1, 1] == 3

    def test_corner_uses_existing_only(self):
        grid = np.array([[1, 8], [2, 9]], dtype=np.int16)
        assert _lowest_nesw_grid(grid)[0, 0] == 2  # E=8, S=2

    def test_flat_tile_equals_own_elevation(self):
        tile = make_tile(np.full((9, 9), 42))
        assert (_lowest_nesw_grid(tile.elevations) == 42).all()


def sorted_events(grid: Tile, peaks: np.ndarray) -> list[tuple[int, int]]:
    """(sample, kind) of every event, in the order Python's sorted gives the
    keys (-elevation, kind, (lat, wrapped lng)): one insert at the sample's
    elevation and one remove at its lowest NESW neighbour's, clamped to its
    own, per sample in row-major order, then one per peak."""
    rows, cols = grid.shape
    elev = grid.elevations.tolist()
    keyed = []
    for i in range(rows):
        for j in range(cols):
            around = [(i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)]
            lowest = min(elev[a][b] for a, b in around if 0 <= a < rows and 0 <= b < cols)
            at = grid.sample_point(i, j)
            keyed.append(((-elev[i][j], EVENT_INSERT, at), i * cols + j))
            keyed.append(((-min(lowest, elev[i][j]), EVENT_REMOVE, at), i * cols + j))
    for sample in peaks.tolist():
        i, j = divmod(sample, cols)
        keyed.append(((-elev[i][j], EVENT_PEAK, grid.sample_point(i, j)), sample))
    return [(sample, key[1]) for key, sample in sorted(keyed, key=lambda entry: entry[0])]


def event_list(events: np.ndarray) -> list[tuple[int, int]]:
    return list(zip(events["sample"].tolist(), events["kind"].tolist()))


def west_edge_area() -> Tile:
    """A 1x2 plateau area whose west edge is -180: column 0 wraps to 180."""
    tiles = generate_synthetic(
        1, 2, seed=8, profile="plateau", samples_per_side=9, origin=(10, -180)
    )
    return merge_tiles(tiles)


class TestBuildEvents:
    @pytest.mark.parametrize(
        "grid",
        [
            generate_synthetic(1, 1, seed=6, profile="cones", samples_per_side=31)[0],
            generate_synthetic(1, 1, seed=9, profile="plateau", samples_per_side=11)[0],
            west_edge_area(),
        ],
        ids=["cones", "plateau", "west-edge"],
    )
    def test_order_is_sorted_tuples(self, grid):
        peaks = detect_peaks(grid)
        events = build_events(grid, peaks)
        assert event_list(events) == sorted_events(grid, peaks)
        n = grid.elevations.size
        assert np.bincount(events["kind"]).tolist() == [len(peaks), n, n]
        for kind in (EVENT_INSERT, EVENT_REMOVE):
            assert np.array_equal(np.sort(events["sample"][events["kind"] == kind]), np.arange(n))
        assert np.array_equal(events, build_events(grid, peaks))

    def test_west_edge_column_sorts_last(self):
        # Every sample is at 500 m, so each kind's events run in location
        # order: rows from the south, and in each row column 0, at lng 180,
        # after every other column.
        grid = west_edge_area()
        rows, cols = grid.shape
        inserts = build_events(grid, detect_peaks(grid))
        inserts = inserts["sample"][inserts["kind"] == EVENT_INSERT]
        expected = [i * cols + j for i in range(rows - 1, -1, -1) for j in [*range(1, cols), 0]]
        assert inserts.tolist() == expected

    def test_count_is_two_n_plus_p(self):
        tiles = generate_synthetic(1, 1, seed=5, profile="fractal", samples_per_side=41)
        tile = tiles[0]
        peaks = detect_peaks(tile)
        events = build_events(tile, peaks)
        n = tile.shape[0] * tile.shape[1]
        assert len(events) == 2 * n + len(peaks)

    def test_pit_sample_remove_clamped_to_own_elevation(self):
        # center sample lower than all four neighbors: removal must not be
        # scheduled above its insertion.  At 1 m come its insert, then the
        # removes of its own and of the four 9 m samples beside it, whose
        # lowest neighbor it is, from the south row up.
        grid = np.array(
            [[5, 9, 5], [9, 1, 9], [5, 9, 5]], dtype=np.int16
        )
        tile = Tile(45, 7, grid, 2)
        events = build_events(tile, np.empty(0, dtype=np.int64))
        assert event_list(events[-6:]) == [(4, EVENT_INSERT)] + [
            (sample, EVENT_REMOVE) for sample in (7, 3, 4, 5, 1)
        ]


class TestDownsample:
    def test_identity(self):
        tile = make_tile(np.arange(25, dtype=np.int16).reshape(5, 5))
        assert downsample(tile, 1) is tile

    def test_stride_two_on_1201(self):
        grid = np.zeros((1201, 1201), dtype=np.int16)
        tile = Tile(0, 0, grid, 1200)
        assert downsample(tile, 2).samples_per_side == 601

    def test_non_dividing_stride_rejected(self):
        tile = make_tile(np.zeros((121, 121)))
        with pytest.raises(ValueError):
            downsample(tile, 7)

    def test_subset_property(self):
        tiles = generate_synthetic(1, 1, seed=8, profile="fractal", samples_per_side=61)
        tile = tiles[0]
        strided = downsample(tile, 3)
        original = {
            (tile.sample_point(i, j), int(tile.elevations[i, j]))
            for i in range(61)
            for j in range(61)
        }
        for i in range(strided.shape[0]):
            for j in range(strided.shape[1]):
                pair = (strided.sample_point(i, j), int(strided.elevations[i, j]))
                assert pair in original

    def test_edges_survive(self):
        tiles = generate_synthetic(1, 1, seed=9, profile="fractal", samples_per_side=61)
        strided = downsample(tiles[0], 2)
        assert np.array_equal(strided.elevations[0], tiles[0].elevations[0][::2])
        assert np.array_equal(strided.elevations[-1], tiles[0].elevations[-1][::2])


class TestGenerateSynthetic:
    def test_plateau_is_constant(self):
        tiles = generate_synthetic(1, 1, seed=10, profile="plateau", samples_per_side=31)
        assert tiles[0].elevations.min() == tiles[0].elevations.max()

    def test_same_seed_identical(self):
        a = generate_synthetic(2, 1, seed=11, profile="fractal", samples_per_side=41)
        b = generate_synthetic(2, 1, seed=11, profile="fractal", samples_per_side=41)
        for ta, tb in zip(a, b):
            assert ta.key == tb.key
            assert np.array_equal(ta.elevations, tb.elevations)

    def test_cones_ground_truth_peaks(self):
        tiles = generate_synthetic(1, 1, seed=12, profile="cones", n_cones=5)
        peaks = detect_peaks(tiles[0])
        assert len(peaks) == 5

    def test_overlap_rows_bit_identical(self):
        tiles = generate_synthetic(2, 2, seed=13, profile="fractal", samples_per_side=41)
        by_key = {t.key: t for t in tiles}
        south, north = by_key[(45, 7)], by_key[(46, 7)]
        assert np.array_equal(south.elevations[0], north.elevations[-1])
        west, east = by_key[(45, 7)], by_key[(45, 8)]
        assert np.array_equal(west.elevations[:, -1], east.elevations[:, 0])

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 1, seed=0, profile="volcano")


class TestMergeAndDedup:
    def test_merge_rejects_seam_mismatch(self):
        tiles = generate_synthetic(1, 2, seed=14, profile="fractal", samples_per_side=31)
        bad = tiles[1].elevations.copy()
        bad[:, 0] += 1  # corrupt the shared west column
        tiles[1] = Tile(tiles[1].origin_lat, tiles[1].origin_lng, bad, tiles[1].steps_per_degree)
        with pytest.raises(ValueError, match="seam"):
            merge_tiles(tiles)

    @pytest.mark.parametrize("sample, other", [((30, 12), (45, 8)), ((12, 0), (46, 7))])
    def test_seam_mismatch_is_bad_data_naming_both_tiles(self, sample, other):
        # Tile (46, 8) is merged last; its south row is (45, 8)'s north row
        # and its west column (46, 7)'s east column.
        world = generate_synthetic(2, 2, seed=17, profile="fractal", samples_per_side=31)
        tiles = {t.key: t for t in world}
        bad = tiles[(46, 8)].elevations.copy()
        bad[sample] += 7
        tiles[(46, 8)] = Tile(46, 8, bad, 30)
        at = tiles[(46, 8)].sample_point(*sample)
        with pytest.raises(HgtFormatError) as err:
            merge_tiles(list(tiles.values()))
        message = f"seam mismatch between tiles {other} and (46, 8) at {at}:"
        assert str(err.value).startswith(message)

    def test_merge_rejects_gaps(self):
        tiles = generate_synthetic(2, 2, seed=15, profile="plateau", samples_per_side=31)
        with pytest.raises(ValueError):
            merge_tiles(tiles[:3])

    def test_dedup_unique_locations(self):
        tiles = generate_synthetic(2, 2, seed=16, profile="fractal", samples_per_side=41)
        peaks = area_peaks(tiles)
        locations = list(zip(peaks["lat"].tolist(), peaks["lng"].tolist()))
        assert len(locations) == len(set(locations))
        assert locations == sorted(locations)
