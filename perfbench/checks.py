"""Independent answer checks for the benchmark's CSV output.

Nothing here imports ``isoscan``: peaks are found with a numpy 8-neighbour
test on a grid merged here, and distances are haversine distances on the
mean-radius sphere.  The program reports ellipsoid distances, so every
comparison allows for the ellipsoid-to-great-circle ratio band and the
bound inflation the program itself uses.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

VOID = -32768
EARTH_RADIUS_M = 6_371_000.0

# Ellipsoid distance / great-circle distance stays inside this band for
# every pair on the globe (measured extremes about 0.9944 and 1.0045).
RATIO_LO = 0.994
RATIO_HI = 1.005
# The program inflates great-circle bounds by this factor; an independent
# isolation farther than threshold * INFLATION must be emitted, one nearer
# than threshold / INFLATION must not be.
INFLATION = 1.011
# CSV coordinates carry 6 decimals.
COORD_TOL_DEG = 6e-7

CSV_HEADER = "latitude,longitude,elevation_m,isolation_km,ilp_latitude,ilp_longitude"


def haversine(lat1, lng1, lat2, lng2):
    """Great-circle distance in meters; degree inputs, numpy-broadcasting."""
    p1 = np.radians(lat1)
    p2 = np.radians(lat2)
    s_lat = np.sin((p2 - p1) * 0.5)
    s_lng = np.sin(np.radians(np.asarray(lng2) - np.asarray(lng1)) * 0.5)
    h = s_lat * s_lat + np.cos(p1) * np.cos(p2) * s_lng * s_lng
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.minimum(h, 1.0)))


def check_load(written: np.ndarray, loaded: np.ndarray, voids_filled: int) -> list[str]:
    """Problems with a loaded grid against the grid written to disk."""
    problems = []
    if loaded.shape != written.shape:
        return [f"shape {loaded.shape} != written {written.shape}"]
    void = written == VOID
    left = int((loaded == VOID).sum())
    if left:
        problems.append(f"{left} void samples left after loading")
    changed = int((loaded[~void] != written[~void]).sum())
    if changed:
        problems.append(f"{changed} non-void samples changed by loading")
    if voids_filled != int(void.sum()):
        problems.append(f"voids_filled {voids_filled} != {int(void.sum())} voids written")
    return problems


class Area:
    """Tiles stitched into one grid; row 0 is the northern edge.

    Args:
        tiles: SW-corner (lat, lng) -> square grid of ``spd + 1`` samples.
        spd: sample steps per degree.
    """

    def __init__(self, tiles: dict[tuple[int, int], np.ndarray], spd: int):
        lats = sorted({k[0] for k in tiles})
        lngs = sorted({k[1] for k in tiles})
        self.spd = spd
        self.lat0 = lats[0]
        self.lng0 = lngs[0]
        height = (lats[-1] - lats[0] + 1) * spd + 1
        width = (lngs[-1] - lngs[0] + 1) * spd + 1
        elev = np.full((height, width), VOID, dtype=np.int32)
        for (la, ln), grid in tiles.items():
            top = (lats[-1] - la) * spd
            left = (ln - lngs[0]) * spd
            region = elev[top : top + spd + 1, left : left + spd + 1]
            seen = region != VOID
            if not np.array_equal(region[seen], grid[seen]):
                raise ValueError(f"tile {(la, ln)} disagrees with its neighbours on a seam")
            region[...] = grid
        if (elev == VOID).any():
            raise ValueError("tiles do not cover a full rectangle")
        self.elev = elev
        self.rows, self.cols = elev.shape
        self.lats = self.lat0 + (self.rows - 1 - np.arange(self.rows)) / spd
        self.lngs = self.lng0 + np.arange(self.cols) / spd
        self.max_elev = int(elev.max())

    def index_of(self, lat: float, lng: float) -> tuple[int, int] | None:
        """Grid indices of the sample printed as (lat, lng), or None."""
        i = self.rows - 1 - round((lat - self.lat0) * self.spd)
        j = round((lng - self.lng0) * self.spd)
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            return None
        if abs(self.lats[i] - lat) > COORD_TOL_DEG or abs(self.lngs[j] - lng) > COORD_TOL_DEG:
            return None
        return i, j

    def neighbour_max(self) -> np.ndarray:
        """Highest of the up-to-8 existing neighbours of every sample."""
        low = np.int32(np.iinfo(np.int32).min)
        padded = np.full((self.rows + 2, self.cols + 2), low, dtype=np.int32)
        padded[1:-1, 1:-1] = self.elev
        out = np.full((self.rows, self.cols), low, dtype=np.int32)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di or dj:
                    np.maximum(
                        out, padded[1 + di : 1 + di + self.rows, 1 + dj : 1 + dj + self.cols], out=out
                    )
        return out

    def window(self, i: int, radius_m: float) -> tuple[int, int]:
        """Row and column half-widths that hold every sample within ``radius_m``.

        Great-circle distance is at least R * |dlat|, and
        sin(d / 2R) >= sqrt(cos(lat1) cos(lat2)) * sin(dlng / 2).
        """
        dlat = math.degrees(radius_m / EARTH_RADIUS_M)
        half_rows = math.ceil(dlat * self.spd) + 1
        far = min(90.0, abs(float(self.lats[i])) + dlat)
        c = math.sqrt(math.cos(math.radians(float(self.lats[i]))) * math.cos(math.radians(far)))
        s = math.sin(radius_m / (2.0 * EARTH_RADIUS_M))
        if c <= s:
            return half_rows, self.cols
        dlng = math.degrees(2.0 * math.asin(s / c))
        return half_rows, math.ceil(dlng * self.spd) + 1

    def nearest_higher(self, i: int, j: int, radius_m: float) -> float:
        """Distance to the closest strictly higher sample within ``radius_m``; inf if none."""
        hr, hc = self.window(i, radius_m)
        r0, r1 = max(0, i - hr), min(self.rows, i + hr + 1)
        c0, c1 = max(0, j - hc), min(self.cols, j + hc + 1)
        ii, jj = np.nonzero(self.elev[r0:r1, c0:c1] > self.elev[i, j])
        if ii.size == 0:
            return math.inf
        d = haversine(self.lats[i], self.lngs[j], self.lats[ii + r0], self.lngs[jj + c0])
        best = float(d.min())
        return best if best <= radius_m else math.inf

    def isolated_beyond(self, peaks: np.ndarray, radius_m: float) -> np.ndarray:
        """Mask of ``peaks`` (k x 2 indices) with no strictly higher sample within ``radius_m``."""
        if len(peaks) == 0:
            return np.zeros(0, dtype=bool)
        pole_row = int(np.argmax(np.abs(self.lats)))
        hr, hc = self.window(pole_row, radius_m)
        di, dj = np.mgrid[-hr : hr + 1, -hc : hc + 1]
        order = np.argsort((di * di + dj * dj).ravel(), kind="stable")
        offsets = np.stack([di.ravel()[order], dj.ravel()[order]], axis=1)[1:]
        pi, pj = peaks[:, 0], peaks[:, 1]
        alone = np.ones(len(peaks), dtype=bool)
        for oi, oj in offsets:
            idx = np.nonzero(alone)[0]
            if idx.size == 0:
                break
            ni, nj = pi[idx] + oi, pj[idx] + oj
            ok = (ni >= 0) & (ni < self.rows) & (nj >= 0) & (nj < self.cols)
            idx, ni, nj = idx[ok], ni[ok], nj[ok]
            higher = self.elev[ni, nj] > self.elev[pi[idx], pj[idx]]
            idx, ni, nj = idx[higher], ni[higher], nj[higher]
            if idx.size == 0:
                continue
            d = haversine(self.lats[pi[idx]], self.lngs[pj[idx]], self.lats[ni], self.lngs[nj])
            alone[idx[d <= radius_m]] = False
        return alone


@dataclass
class Row:
    lat: float
    lng: float
    elevation_m: int
    isolation_km: float | None  # None for the "-1" row
    ilp: tuple[float, float] | None
    line: str


def parse_csv(text: str) -> list[Row]:
    """Rows of an isoscan CSV; raises ValueError on a malformed file."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("missing header or trailing newline")
    rows = []
    for line in lines[1:-1]:
        f = line.split(",")
        if len(f) != 6:
            raise ValueError(f"bad row {line!r}")
        if f[3] == "-1":
            if f[4] or f[5]:
                raise ValueError(f"undefined isolation with a limit point: {line!r}")
            rows.append(Row(float(f[0]), float(f[1]), int(f[2]), None, None, line))
        else:
            rows.append(
                Row(float(f[0]), float(f[1]), int(f[2]), float(f[3]), (float(f[4]), float(f[5])), line)
            )
    return rows


@dataclass
class Report:
    """Outcome of checking one CSV: rows checked, and reasons per failed row."""

    checked: int = 0
    failures: dict[str, list[str]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, row_key: str, reason: str) -> None:
        self.failures.setdefault(row_key, []).append(reason)

    def reasons(self) -> dict[str, int]:
        """Count of failed rows per reason (first word group before ':')."""
        out: dict[str, int] = {}
        for reasons in self.failures.values():
            for r in {r.split(":")[0] for r in reasons}:
                out[r] = out.get(r, 0) + 1
        return out


def check_rows(area: Area, rows: list[Row], min_isolation_m: float) -> Report:
    """Check every row and the completeness of the row set.

    A row is a failure when its sample is not a peak (some 8-neighbour is
    strictly higher), its limit point is not a strictly higher sample, its
    isolation is off the independent distance by more than the ratio band,
    a strictly higher sample lies closer than the limit point by more than
    the inflation factor, it falls below the threshold, or it repeats.  A
    strict local maximum clearing the threshold that has no row counts as
    one more checked and failed row.
    """
    rep = Report(checked=len(rows))
    nbr_max = area.neighbour_max()
    emitted: set[tuple[int, int]] = set()
    undefined = 0
    for row in rows:
        key = f"{row.lat:.6f},{row.lng:.6f}"
        at = area.index_of(row.lat, row.lng)
        if at is None:
            rep.fail(key, "off grid: row is not at a grid sample")
            continue
        if at in emitted:
            rep.fail(key, "duplicate: location emitted twice")
            continue
        emitted.add(at)
        i, j = at
        e = int(area.elev[i, j])
        if row.elevation_m != e:
            rep.fail(key, f"elevation: {row.elevation_m} != grid {e}")
        if nbr_max[i, j] > e:
            rep.fail(key, f"not a peak: neighbour at {int(nbr_max[i, j])} m above {e} m")
        if row.isolation_km is None:
            undefined += 1
            if e != area.max_elev:
                rep.fail(key, f"undefined isolation below the area maximum {area.max_elev} m")
            continue
        ilp = area.index_of(*row.ilp)
        if ilp is None:
            rep.fail(key, "limit point off grid")
            continue
        if int(area.elev[ilp]) <= e:
            rep.fail(key, "limit point not higher")
            continue
        d = float(haversine(area.lats[i], area.lngs[j], area.lats[ilp[0]], area.lngs[ilp[1]]))
        ratio = row.isolation_km * 1000.0 / d
        if not RATIO_LO <= ratio <= RATIO_HI:
            rep.fail(key, f"distance band: reported/independent {ratio:.5f}")
        if area.nearest_higher(i, j, d / INFLATION) < d / INFLATION:
            rep.fail(key, "closer higher: a higher sample is nearer than the limit point")
        if d < min_isolation_m / INFLATION:
            rep.fail(key, f"below threshold: independent isolation {d:.1f} m")
    if undefined == 0:
        rep.checked += 1
        rep.fail("undefined", "no undefined row: the area maximum has no -1 row")

    strict = np.argwhere(nbr_max < area.elev)
    unseen = np.array([p for p in map(tuple, strict) if p not in emitted], dtype=np.int64)
    missing = unseen[area.isolated_beyond(unseen.reshape(-1, 2), min_isolation_m * INFLATION)]
    for i, j in missing:
        rep.checked += 1
        rep.fail(f"{area.lats[i]:.6f},{area.lngs[j]:.6f}", "missing: isolated peak without a row")
    return rep


def compare_to_reference(rep: Report, text: str, reference: str) -> None:
    """Fail the rows where ``text`` differs from ``reference`` (a 1-worker CSV).

    A row that has already failed another check still counts once.  A row
    only in the reference is one more checked row, unless it was already
    counted as missing; the same rows in another order fail as one more row.
    """
    if text == reference:
        return
    ours, theirs = Counter(text.split("\n")), Counter(reference.split("\n"))
    if ours == theirs:
        rep.checked += 1
        rep.fail("order", "differs from 1-worker CSV: rows in another order")
        return
    ours_keys = {_row_key(line) for line in ours}
    for line in ours - theirs:
        rep.fail(_row_key(line), "differs from 1-worker CSV: row not in it")
    for line in theirs - ours:
        key = _row_key(line)
        if key not in ours_keys and key not in rep.failures:
            rep.checked += 1
        rep.fail(key, "differs from 1-worker CSV: row missing")


def _row_key(line: str) -> str:
    return ",".join(line.split(",")[:2])
