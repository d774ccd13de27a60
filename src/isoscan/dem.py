"""Tile data model, HGT ingestion, synthetic terrain, peaks, and sweep events.

Grids are row-major with row 0 the northernmost line, matching the HGT file
layout.  A 1-degree tile of N samples per side shares its edge row/column
with each neighbor, so adjacent tiles hold bit-identical seam samples.

Sample coordinates are computed canonically from the integer-degree lattice
(integer degrees plus step-fraction), so the same physical sample yields the
same float coordinates no matter which tile or merged grid it is read from.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from pathlib import Path
from typing import Optional

import numpy as np

from .geo import GeoPoint, wrap_longitude_many
from .quad import Quadrilateral

__all__ = [
    "VOID_VALUE",
    "HgtFormatError",
    "Tile",
    "PEAK_DTYPE",
    "EVENT_DTYPE",
    "EVENT_PEAK",
    "EVENT_INSERT",
    "EVENT_REMOVE",
    "hgt_filename",
    "parse_hgt_filename",
    "load_hgt",
    "save_hgt",
    "qualifying_samples",
    "detect_peaks",
    "peak_indices",
    "build_events",
    "downsample",
    "generate_synthetic",
    "merge_tiles",
]

VOID_VALUE = -32768

# Sort rank of event kinds at equal elevation: peaks must be handled before
# any same-elevation point becomes active, and inserts before removes.
EVENT_PEAK = 0
EVENT_INSERT = 1
EVENT_REMOVE = 2

# One sweep event: its sample, as a row-major index into the swept grid, and
# its kind.
EVENT_DTYPE = np.dtype([("sample", np.int64), ("kind", np.int8)])

# Events build_events gathers at a time, so that its temporaries stay small
# beside the events themselves.
_GATHER_EVENTS = 1 << 20

_INT32_BIG = np.int32(2**30)

# Spectral exponent of the fractal profile: amplitude falls as |k| ** -beta.
_FRACTAL_BETA = 1.8


class HgtFormatError(ValueError):
    """Malformed HGT data: a file's size, naming or all-void content, or
    seams that neighbouring tiles disagree on."""


class Tile:
    """Elevation grid addressed by the integer degrees of its SW corner.

    ``steps_per_degree`` is the number of sample intervals per degree
    (``samples_per_side - 1`` for a single 1-degree tile).  Merged grids
    spanning several degrees use the same representation.
    """

    __slots__ = ("origin_lat", "origin_lng", "elevations", "steps_per_degree", "voids_filled")

    def __init__(
        self,
        origin_lat: int,
        origin_lng: int,
        elevations: np.ndarray,
        steps_per_degree: int,
        voids_filled: int = 0,
    ):
        elevations = np.asarray(elevations)
        if elevations.dtype != np.int16:
            raise ValueError("elevations must be int16 meters")
        rows, cols = elevations.shape
        if rows < 2 or cols < 2:
            raise ValueError("grid needs at least 2 samples per side")
        if steps_per_degree < 1:
            raise ValueError("steps_per_degree must be >= 1")
        if (rows - 1) % steps_per_degree or (cols - 1) % steps_per_degree:
            raise ValueError("grid must span whole degrees")
        extent_lat = (rows - 1) // steps_per_degree
        extent_lng = (cols - 1) // steps_per_degree
        if not (-90 <= origin_lat and origin_lat + extent_lat <= 90):
            raise ValueError(f"latitude span [{origin_lat}, {origin_lat + extent_lat}] off the globe")
        if not (-180 <= origin_lng and origin_lng + extent_lng <= 180):
            raise ValueError(
                f"longitude span [{origin_lng}, {origin_lng + extent_lng}] crosses the antimeridian"
            )
        self.origin_lat = int(origin_lat)
        self.origin_lng = int(origin_lng)
        self.elevations = elevations
        self.steps_per_degree = int(steps_per_degree)
        self.voids_filled = int(voids_filled)

    @property
    def key(self) -> tuple[int, int]:
        return (self.origin_lat, self.origin_lng)

    @property
    def shape(self) -> tuple[int, int]:
        return self.elevations.shape

    @property
    def samples_per_side(self) -> int:
        rows, cols = self.elevations.shape
        if rows != cols:
            raise ValueError("samples_per_side is defined for square grids only")
        return rows

    @property
    def resolution_arcsec(self) -> float:
        return 3600.0 / self.steps_per_degree

    @property
    def extent_deg(self) -> tuple[int, int]:
        rows, cols = self.elevations.shape
        return (rows - 1) // self.steps_per_degree, (cols - 1) // self.steps_per_degree

    @property
    def quad(self) -> Quadrilateral:
        dlat, dlng = self.extent_deg
        return Quadrilateral(
            self.origin_lat, self.origin_lat + dlat, self.origin_lng, self.origin_lng + dlng
        )

    @property
    def max_elevation_m(self) -> int:
        return int(self.elevations.max())

    def sample_point(self, i: int, j: int) -> GeoPoint:
        """Geographic position of grid sample (row ``i``, col ``j``).

        Computed as integer degrees plus an in-degree fraction so the same
        physical sample gets bit-identical coordinates in every grid that
        contains it (tile, neighbor tile, merged grid).
        """
        rows, _ = self.elevations.shape
        spd = self.steps_per_degree
        steps_north = (rows - 1) - i
        deg, rem = divmod(steps_north, spd)
        lat = (self.origin_lat + deg) + rem / spd
        deg, rem = divmod(j, spd)
        lng = (self.origin_lng + deg) + rem / spd
        return GeoPoint(lat, lng)

    def sample_lats(self) -> np.ndarray:
        rows, _ = self.elevations.shape
        spd = self.steps_per_degree
        steps_north = (rows - 1) - np.arange(rows, dtype=np.int64)
        deg, rem = np.divmod(steps_north, spd)
        return (self.origin_lat + deg).astype(np.float64) + rem.astype(np.float64) / spd

    def sample_lngs(self) -> np.ndarray:
        _, cols = self.elevations.shape
        spd = self.steps_per_degree
        deg, rem = np.divmod(np.arange(cols, dtype=np.int64), spd)
        return (self.origin_lng + deg).astype(np.float64) + rem.astype(np.float64) / spd


# One peak as found by one tile, as the pipeline, the sweep and the oracle
# hand peaks on: location (longitude wrapped into (-180, 180] as GeoPoint
# wraps it, so a sample has one location whichever tile finds it),
# elevation, home tile (the SW corner of the tile that found it) and the
# bound on its isolation (inf while none).
PEAK_DTYPE = np.dtype(
    [
        ("lat", np.float64),
        ("lng", np.float64),
        ("elevation", np.int32),
        ("home_lat", np.int32),
        ("home_lng", np.int32),
        ("bound", np.float64),
    ]
)


_HGT_NAME = re.compile(r"^([NS])(\d{2})([EW])(\d{3})$")


def hgt_filename(lat: int, lng: int) -> str:
    """SW-corner naming, e.g. (46, 10) -> ``N46E010.hgt``."""
    ns = "N" if lat >= 0 else "S"
    ew = "E" if lng >= 0 else "W"
    return f"{ns}{abs(lat):02d}{ew}{abs(lng):03d}.hgt"


def parse_hgt_filename(name: str) -> tuple[int, int]:
    stem = Path(name).name
    if stem.lower().endswith(".hgt"):
        stem = stem[:-4]
    m = _HGT_NAME.match(stem)
    if not m:
        raise HgtFormatError(f"not an HGT filename: {name!r}")
    lat = int(m.group(2)) * (1 if m.group(1) == "N" else -1)
    lng = int(m.group(4)) * (1 if m.group(3) == "E" else -1)
    return lat, lng


def load_hgt(path: str | Path, origin: Optional[tuple[int, int]] = None) -> Tile:
    """Read a big-endian signed 16-bit HGT grid.

    The file must hold N x N samples with (N - 1) dividing 3600 (1201 and
    3601 for the common 3 and 1 arc-second products).  Void samples are
    replaced by the minimum valid neighbor value, iterating until no void
    remains; the fill count is recorded on the tile, never silent.

    Args:
        path: file to read.
        origin: SW corner degrees; parsed from the filename when omitted.
    """
    path = Path(path)
    if origin is None:
        origin = parse_hgt_filename(path.name)
    data = path.read_bytes()
    n_samples, rem = divmod(len(data), 2)
    side = math.isqrt(n_samples)
    if rem or side * side != n_samples or side < 2 or 3600 % (side - 1):
        raise HgtFormatError(
            f"{path.name}: {len(data)} bytes is not a square HGT grid "
            "with a whole-arcsecond resolution"
        )
    grid = np.frombuffer(data, dtype=">i2").reshape(side, side).astype(np.int16)
    grid, filled = _fill_voids(grid)
    return Tile(origin[0], origin[1], grid, side - 1, voids_filled=filled)


def save_hgt(tile: Tile, path: str | Path) -> None:
    """Write the grid as big-endian signed 16-bit, row-major from the NW corner."""
    rows, cols = tile.shape
    if rows != cols:
        raise ValueError("only square grids can be written as HGT")
    Path(path).write_bytes(tile.elevations.astype(">i2").tobytes())


def _fill_voids(grid: np.ndarray) -> tuple[np.ndarray, int]:
    void = grid == VOID_VALUE
    total = int(void.sum())
    if total == 0:
        return grid, 0
    if void.all():
        raise HgtFormatError("tile contains only void samples")
    # Each pass fills the voids with a valid N/E/S/W neighbor from the one
    # before, with the lowest of them.  The passes visit the remaining voids
    # only, by flat index into a copy padded with one ring of absent
    # samples, so that every void has all four neighbors in the copy.
    rows, cols = grid.shape
    width = cols + 2
    work = np.full((rows + 2, width), _INT32_BIG, dtype=np.int32)
    inner = work[1:-1, 1:-1]
    inner[...] = grid
    inner[void] = _INT32_BIG
    flat = work.ravel()
    left = np.flatnonzero(np.pad(void, 1))
    while len(left):
        neigh = np.minimum(
            np.minimum(flat[left - width], flat[left + width]),
            np.minimum(flat[left - 1], flat[left + 1]),
        )
        ring = neigh < _INT32_BIG
        flat[left[ring]] = neigh[ring]
        left = left[~ring]
    return inner.astype(np.int16), total


def _lowest_nesw_grid(elev: np.ndarray) -> np.ndarray:
    """Per-sample minimum over the existing N/E/S/W neighbors."""
    out = np.full(elev.shape, _INT32_BIG, dtype=np.int32)
    np.minimum(out[1:, :], elev[:-1, :], out=out[1:, :])
    np.minimum(out[:-1, :], elev[1:, :], out=out[:-1, :])
    np.minimum(out[:, 1:], elev[:, :-1], out=out[:, 1:])
    np.minimum(out[:, :-1], elev[:, 1:], out=out[:, :-1])
    return out


def qualifying_samples(grid: np.ndarray) -> np.ndarray:
    """Mask of the samples with no strictly higher one among their eight neighbors.

    ``grid`` is one tile's elevations, (rows, cols), or a stack of tiles'
    grids, (tiles, rows, cols), each a tile of its own.  Neighbors outside
    the tile are treated as absent.  A sample qualifies exactly when the
    maximum over its clamped 3x3 neighborhood is its own elevation.
    """
    across = grid.copy()
    np.maximum(across[..., 1:], grid[..., :-1], out=across[..., 1:])
    np.maximum(across[..., :-1], grid[..., 1:], out=across[..., :-1])
    around = across.copy()
    np.maximum(around[..., 1:, :], across[..., :-1, :], out=around[..., 1:, :])
    np.maximum(around[..., :-1, :], across[..., 1:, :], out=around[..., :-1, :])
    return around == grid


# Neighbor offsets (rows, cols): all eight, and the four that come later in
# (row, col) order.
_NEIGHBORS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj]
_LATER_NEIGHBORS = [(0, 1), (1, -1), (1, 0), (1, 1)]


def detect_peaks(tile: Tile) -> np.ndarray:
    """Samples with all eight neighbors of lower or equal elevation, as
    ascending row-major indices into the tile's grid.

    Neighbors outside the grid are treated as absent, so boundary samples
    qualify on their existing neighbors alone (:func:`qualifying_samples`).
    A connected flat region of equal elevation yields exactly one
    representative: the first qualifying sample in (row, col) scan order,
    i.e. the NW-most, then W-most one.  The one-tile, unmasked case of
    :func:`peak_indices`.
    """
    return peak_indices(tile.elevations)


def peak_indices(
    grid: np.ndarray, dominated: Optional[np.ndarray] = None, qualifies: Optional[np.ndarray] = None
) -> np.ndarray:
    """The peaks of each tile of ``grid``, as ascending flat indices into it.

    ``grid`` is one tile's elevations or a (tiles, rows, cols) stack of
    them; each tile is on its own, so a flat region never joins across the
    boundary of two stacked tiles.

    ``dominated``, a mask over ``grid``, leaves out the peaks on it: a flat
    region is labelled only from a qualifying sample off the mask, and its
    representative is then kept only if it is off the mask too.  The result
    is the unmasked one less the peaks on the mask, but a flat region that
    the mask covers at every qualifying sample is never labelled.
    ``qualifies`` is the :func:`qualifying_samples` mask of ``grid``, when
    the caller has it at hand.

    A qualifying sample off ``dominated`` with no neighbor as high is a peak
    of its own.  The others seed the flat summits: every sample 8-connected
    to a seed at equal elevation is collected by a frontier expansion, the
    collected samples are joined into components (:func:`_components`), and
    each component keeps its first qualifying member.
    """
    if qualifies is None:
        qualifies = qualifying_samples(grid)
    shape = grid.shape
    elev = grid.reshape(-1)
    seeds = np.flatnonzero(qualifies if dominated is None else qualifies & ~dominated)
    flat = np.zeros(len(seeds), dtype=bool)
    for at, _nxt in _equal_neighbors(elev, shape, seeds, _NEIGHBORS):
        flat[at] = True

    members = _flat_members(elev, shape, seeds[flat])
    label = _flat_labels(elev, shape, members)

    candidates = np.flatnonzero(qualifies.reshape(-1)[members])
    _labels, first = np.unique(label[candidates], return_index=True)
    summits = members[candidates[first]]
    if dominated is not None:
        summits = summits[~dominated.reshape(-1)[summits]]
    return np.sort(np.concatenate([seeds[~flat], summits]))


def _flat_members(elev: np.ndarray, shape: tuple[int, ...], seeds: np.ndarray) -> np.ndarray:
    """Every sample 8-connected at equal elevation, within its tile, to one of
    ``seeds``, as ascending flat indices: a frontier expansion from the seeds."""
    member = np.zeros(elev.shape, dtype=bool)
    member[seeds] = True
    frontier = seeds
    while len(frontier):
        found = []
        for _at, nxt in _equal_neighbors(elev, shape, frontier, _NEIGHBORS):
            nxt = nxt[~member[nxt]]
            member[nxt] = True
            found.append(nxt)
        frontier = np.concatenate(found)
    return np.flatnonzero(member)


def _flat_labels(elev: np.ndarray, shape: tuple[int, ...], members: np.ndarray) -> np.ndarray:
    """The equal-elevation component of each of ``members``, a set closed
    under equal-elevation neighbors, as a label shared by its members only.

    Members side by side in a row at equal elevation form a run; runs joined
    from one row to the next form a component (:func:`_components`).
    """
    pairs = _equal_neighbors(elev, shape, members, _LATER_NEIGHBORS)
    at, _east = next(pairs)
    run_start = np.ones(len(members), dtype=bool)
    run_start[at + 1] = False
    run = np.cumsum(run_start) - 1
    uppers, lowers = [], []
    for at, below in pairs:
        upper, lower = run[at], run[np.searchsorted(members, below)]
        # Both come in ascending order, so repeated pairs are adjacent.
        new = np.ones(len(at), dtype=bool)
        new[1:] = (upper[1:] != upper[:-1]) | (lower[1:] != lower[:-1])
        uppers.append(upper[new])
        lowers.append(lower[new])
    runs = int(np.count_nonzero(run_start))
    return _components(runs, np.concatenate(uppers), np.concatenate(lowers))[run]


def _equal_neighbors(elev: np.ndarray, shape: tuple[int, ...], index: np.ndarray, offsets):
    """Per offset, the positions in ``index`` whose neighbor there is as high.

    ``elev`` is a grid of ``shape`` (tiles, rows, cols), flattened, and
    ``index`` flat indices into it.  Yields, for each (row, col) offset, the
    positions in ``index`` whose neighbor at that offset lies on the same
    tile at equal elevation, and those neighbors' flat indices.
    """
    rows, cols = shape[-2:]
    row, col = index // cols % rows, index % cols
    row_ok = {-1: row > 0, 1: row < rows - 1}
    col_ok = {-1: col > 0, 1: col < cols - 1}
    level = elev[index]
    for di, dj in offsets:
        if di and dj:
            inside = row_ok[di] & col_ok[dj]
        else:
            inside = row_ok[di] if di else col_ok[dj]
        at = np.flatnonzero(inside)
        nxt = index[at] + (di * cols + dj)
        same = elev[nxt] == level[at]
        yield at[same], nxt[same]


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component of each of ``n`` nodes joined by the edges (``u``, ``v``),
    labelled by its smallest node.

    Hooking and pointer jumping (Shiloach & Vishkin, J. Algorithms 1982):
    each round every root with an edge to a smaller root hooks onto the
    smallest one, and every node then jumps to its root.  Pointers only go
    down, so a component's root is its smallest node.  Edges inside one
    component are dropped as they appear.
    """
    parent = np.arange(n)
    while len(u):
        pu, pv = parent[u], parent[v]
        across = pu != pv
        u, v, pu, pv = u[across], v[across], pu[across], pv[across]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        jumped = parent[parent]
        while not np.array_equal(jumped, parent):
            parent, jumped = jumped, jumped[jumped]
    return parent


def build_events(grid: Tile, peak_ids: np.ndarray) -> np.ndarray:
    """Sorted sweep events: one insert and remove per sample plus peak events.

    ``peak_ids`` are the distinct peaks' samples, as row-major indices into
    ``grid``.  Returns :data:`EVENT_DTYPE` rows.  Removal fires at the
    elevation of the sample's lowest NESW neighbor, clamped to the sample's
    own elevation (a sample whose neighbors are all higher would otherwise
    be removed before it was inserted).  Order is by descending elevation,
    then peak < insert < remove, then (lat, lng) with the longitude wrapped
    as GeoPoint wraps it.
    """
    elevations = grid.elevations.ravel()
    removal = np.minimum(_lowest_nesw_grid(grid.elevations).ravel(), elevations).astype(np.int16)
    # The samples in location order: latitude rises from the last row, the
    # southernmost, and each row's samples in wrapped-longitude order.
    rows, cols = grid.shape
    by_lng = np.argsort(wrap_longitude_many(grid.sample_lngs()), kind="stable")
    by_location = (np.arange(rows - 1, -1, -1)[:, None] * cols + by_lng).ravel()
    is_peak = np.zeros(len(elevations), dtype=bool)
    is_peak[peak_ids] = True
    peaks = by_location[is_peak[by_location]]
    # The peaks, the inserts and the removes, each in location order: a
    # stable sort by descending elevation keeps both tie-breaks.  ~level is
    # -level - 1 without overflow, and on 16 bits the stable sort is a radix
    # sort.
    level = np.concatenate([elevations[peaks], elevations[by_location], removal[by_location]])
    del removal
    order = np.argsort(~level, kind="stable")
    del level
    # Each event's kind and sample from its place in that layout, a slice of
    # the events at a time: places below len(peaks) are peaks, the next n
    # inserts and the last n removes.
    n = len(by_location)
    events = np.empty(len(order), dtype=EVENT_DTYPE)
    for start in range(0, len(order), _GATHER_EVENTS):
        place = order[start : start + _GATHER_EVENTS] - len(peaks)
        kind = (place >= 0).astype(np.int8) + (place >= n)
        place[place >= n] -= n
        sample = by_location[place]  # a peak's place is negative: replaced below
        peak = kind == EVENT_PEAK
        sample[peak] = peaks[place[peak] + len(peaks)]
        events["kind"][start : start + len(place)] = kind
        events["sample"][start : start + len(place)] = sample
    return events


def downsample(tile: Tile, stride: int) -> Tile:
    """Keep every ``stride``-th sample along both axes.

    Retained samples are bit-identical to the originals and both grid edges
    survive, so seam overlap between strided tiles is preserved.  The stride
    must divide the steps per degree.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if stride == 1:
        return tile
    if tile.steps_per_degree % stride:
        raise ValueError(
            f"stride {stride} does not divide {tile.steps_per_degree} steps per degree"
        )
    grid = np.ascontiguousarray(tile.elevations[::stride, ::stride])
    return Tile(
        tile.origin_lat,
        tile.origin_lng,
        grid,
        tile.steps_per_degree // stride,
        voids_filled=tile.voids_filled,
    )


def generate_synthetic(
    rows: int,
    cols: int,
    seed: int,
    profile: str = "cones",
    samples_per_side: int = 121,
    origin: tuple[int, int] = (45, 7),
    n_cones: Optional[int] = None,
) -> list[Tile]:
    """Deterministic synthetic world of ``rows x cols`` adjacent tiles.

    One world grid is generated and sliced into tiles, so the one-sample
    overlap rows/columns of neighboring tiles are bit-identical.

    Profiles:
        cones: distinct linear cones (steep flanks, unique strict apices).
        fractal: power-law filtered noise, unique global maximum enforced.
        plateau: constant grid, exercising flat-region tie-breaking.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    if samples_per_side < 2:
        raise ValueError("samples_per_side must be >= 2")
    spd = samples_per_side - 1
    height = rows * spd + 1
    width = cols * spd + 1

    if profile == "cones":
        world = _cones_world(height, width, seed, n_cones)
    elif profile == "fractal":
        world = _fractal_world(height, width, seed)
    elif profile == "plateau":
        world = np.full((height, width), 500, dtype=np.int16)
    else:
        raise ValueError(f"unknown profile {profile!r}")

    tiles = []
    lat0, lng0 = origin
    for r in range(rows):
        for c in range(cols):
            top = (rows - r - 1) * spd
            sub = np.ascontiguousarray(world[top : top + spd + 1, c * spd : (c + 1) * spd + 1])
            tiles.append(Tile(lat0 + r, lng0 + c, sub, spd))
    return tiles


def _cones_world(height: int, width: int, seed: int, n_cones: Optional[int]) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if n_cones is None:
        n_cones = int(rng.integers(4, 9))
    margin = 6
    min_sep = max(12, min(height, width) // (n_cones + 1))
    apices: list[tuple[int, int]] = []
    attempts = 0
    while len(apices) < n_cones:
        attempts += 1
        if attempts > 10_000:
            min_sep = max(4, min_sep // 2)
            attempts = 0
        r = int(rng.integers(margin, height - margin))
        c = int(rng.integers(margin, width - margin))
        if all(max(abs(r - ar), abs(c - ac)) >= min_sep for ar, ac in apices):
            apices.append((r, c))

    # Heights descend in fixed steps while flank slopes stay steep enough
    # that every apex strictly dominates the field of all other cones.
    base = 3000
    rr, cc = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    field = np.full((height, width), -np.inf)
    for idx, (ar, ac) in enumerate(apices):
        h = base - idx * 11
        slope = 4.0 + float(rng.integers(0, 5))
        d = np.hypot(rr - ar, cc - ac)
        np.maximum(field, h - slope * d, out=field)
    world = np.rint(field).astype(np.int32)
    if world.min() <= VOID_VALUE or world.max() >= 2**15 - 1:
        raise ValueError("cone field escapes int16 range")
    return world.astype(np.int16)


def _fractal_world(height: int, width: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((height, width))
    spectrum = np.fft.rfft2(noise)
    ky = np.fft.fftfreq(height)[:, None]
    kx = np.fft.rfftfreq(width)[None, :]
    k2 = kx * kx + ky * ky
    k2[0, 0] = 1.0
    spectrum *= k2 ** (-_FRACTAL_BETA / 2.0)
    spectrum[0, 0] = 0.0
    field = np.fft.irfft2(spectrum, s=(height, width))
    field = (field - field.mean()) / field.std()
    world = np.rint(field * 450.0 + 1400.0).astype(np.int32)

    # A unique global maximum keeps "exactly one undefined isolation" true.
    flat = world.ravel()
    top = flat.max()
    holders = np.nonzero(flat == top)[0]
    if len(holders) > 1:
        flat[holders[0]] = top + 1
    return world.reshape(height, width).astype(np.int16)


def merge_tiles(tiles: Sequence[Tile]) -> Tile:
    """Stitch a contiguous rectangular set of 1-degree tiles into one grid.

    Seam rows/columns must agree bit-exactly between neighbors; the merged
    grid holds each physical sample once.

    Raises:
        HgtFormatError: two tiles disagree on a seam sample.
    """
    if not tiles:
        raise ValueError("no tiles to merge")
    first = tiles[0]
    spd = first.steps_per_degree
    by_key: dict[tuple[int, int], Tile] = {}
    for t in tiles:
        if t.steps_per_degree != spd:
            raise ValueError(
                f"mixed resolutions cannot be merged: tile {first.key} has {spd} steps "
                f"per degree, tile {t.key} has {t.steps_per_degree}"
            )
        if t.extent_deg != (1, 1):
            raise ValueError("merge expects 1-degree tiles")
        if t.key in by_key:
            raise ValueError(f"duplicate tile {t.key}")
        by_key[t.key] = t
    lats = sorted({k[0] for k in by_key})
    lngs = sorted({k[1] for k in by_key})
    rows, cols = len(lats), len(lngs)
    if lats != list(range(lats[0], lats[0] + rows)) or lngs != list(
        range(lngs[0], lngs[0] + cols)
    ):
        raise ValueError("tiles do not form a filled rectangle")
    expected = {(la, ln) for la in lats for ln in lngs}
    missing = expected - set(by_key)
    if missing:
        raise ValueError(f"missing tiles: {sorted(missing)}")

    height = rows * spd + 1
    width = cols * spd + 1
    world = np.zeros((height, width), dtype=np.int16)
    filled = np.zeros((height, width), dtype=bool)
    for (la, ln), t in sorted(by_key.items()):
        top = (lats[0] + rows - 1 - la) * spd
        left = (ln - lngs[0]) * spd
        region = (slice(top, top + spd + 1), slice(left, left + spd + 1))
        differ = filled[region] & (world[region] != t.elevations)
        if differ.any():
            # Of the tiles merged before, only those south and west of this
            # one share samples with it.
            i, j = np.argwhere(differ)[0].tolist()
            other = (la - 1, ln) if i == spd and (la - 1, ln) in by_key else (la, ln - 1)
            at = f"{t.sample_point(i, j)}: {world[region][i, j]} m vs {t.elevations[i, j]} m"
            raise HgtFormatError(f"seam mismatch between tiles {other} and {(la, ln)} at {at}")
        world[region] = t.elevations
        filled[region] = True
    return Tile(lats[0], lngs[0], world, spd)
