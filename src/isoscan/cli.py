"""Command-line front end: compute and synth subcommands.

Exit codes: 0 success, 1 configuration error, 2 missing or malformed data,
3 internal invariant violation (including oracle-check mismatches and
non-finite distances in a nearest-neighbor search).
"""

from __future__ import annotations

import os

# isoscan's parallelism is worker processes and it makes no BLAS calls, so
# the thread pool OpenBLAS starts when numpy is imported is pure start-up
# cost (about 50 ms of wall and 65 ms of CPU per process on a 2-CPU host,
# more with more cores).  Set before numpy is first imported; a value the
# caller has set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, TextIO

import numpy as np

from .dem import (
    HgtFormatError,
    Tile,
    generate_synthetic,
    hgt_filename,
    load_hgt,
    save_hgt,
)
from .multipass import (
    MissingTilesError,
    PipelineStats,
    ResultArrays,
    area_tile_keys,
    audit_pipeline,
    count_qualifying,
    qualifying,
    run_merged_sweep,
    run_pipeline,
    final_metric,
    result_differences,
)
from .oracle import SampleUniverse, brute_force_all
from .quad import Quadrilateral
from .spatial_index import NonFiniteDistanceError
from .sweep import SweepConsistencyError, SweepInvariantError

CSV_HEADER = "latitude,longitude,elevation_m,isolation_km,ilp_latitude,ilp_longitude"

# Rows write_csv formats and writes at a time, so that it holds the Python
# objects of one slice of the CSV, not of all of it.
_CSV_SLICE_ROWS = 1 << 15


@dataclass
class RunConfig:
    """Resolved configuration of a compute invocation."""

    data_dir: Path
    bounds: Quadrilateral
    min_isolation_m: float = 1000.0
    threads: int = 1
    distance_mode: str = "staged"
    mode: str = "multipass"
    output: Optional[Path] = None


class _Parser(argparse.ArgumentParser):
    # Usage errors are configuration errors: exit 1, not argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="isoscan", description="Peak isolation from tiled elevation models")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute isolation over an area")
    compute.add_argument("--data-dir", required=True, type=Path)
    compute.add_argument(
        "--bounds",
        required=True,
        type=int,
        nargs=4,
        metavar=("LATMIN", "LATMAX", "LNGMIN", "LNGMAX"),
    )
    compute.add_argument("--min-isolation-km", type=float, default=1.0)
    compute.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    compute.add_argument(
        "--stride",
        type=int,
        default=2,
        help="accepted so existing command lines still run; values >= 1 have no effect",
    )
    compute.add_argument(
        "--distance-mode", choices=["staged", "great-circle-only"], default="staged"
    )
    compute.add_argument(
        "--mode", choices=["multipass", "single-sweep", "oracle-check"], default="multipass"
    )
    compute.add_argument("--output", type=Path, default=None, help="CSV path (default: stdout)")
    compute.set_defaults(func=cmd_compute)

    synth = sub.add_parser("synth", help="write synthetic HGT tiles")
    synth.add_argument("--tiles", required=True, metavar="RxC", help="tile grid, e.g. 2x2")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--profile", choices=["cones", "fractal", "plateau"], default="cones")
    synth.add_argument("--out", required=True, type=Path, metavar="DIR")
    synth.add_argument("--samples-per-side", type=int, default=1201)
    synth.add_argument("--origin", type=int, nargs=2, default=(45, 7), metavar=("LAT", "LNG"))
    synth.add_argument("--cones", type=int, default=None, help="number of cones (cones profile)")
    synth.add_argument("--overwrite", action="store_true", help="replace existing files")
    synth.set_defaults(func=cmd_synth)
    return parser


def _config_from_args(args) -> RunConfig:
    lat_min, lat_max, lng_min, lng_max = args.bounds
    if lat_min >= lat_max or lng_min >= lng_max:
        raise ValueError("bounds must satisfy LATMIN < LATMAX and LNGMIN < LNGMAX")
    # A tile at 90 N or 180 E cannot exist: such an area would otherwise
    # exit 2 for missing tiles.
    if lat_min < -90 or lat_max > 90 or lng_min < -180 or lng_max > 180:
        raise ValueError(
            f"--bounds must lie within latitudes [-90, 90] and longitudes [-180, 180], "
            f"got {lat_min} {lat_max} {lng_min} {lng_max}"
        )
    # A NaN threshold loses every comparison and a negative one acts as 0:
    # both would quietly emit every peak.
    if not args.min_isolation_km >= 0.0:
        raise ValueError(f"--min-isolation-km must be >= 0, got {args.min_isolation_km}")
    if args.stride < 1:
        raise ValueError(f"--stride must be >= 1, got {args.stride}")
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    return RunConfig(
        data_dir=args.data_dir,
        bounds=Quadrilateral(lat_min, lat_max, lng_min, lng_max),
        min_isolation_m=args.min_isolation_km * 1000.0,
        threads=args.threads,
        distance_mode=args.distance_mode,
        mode=args.mode,
        output=args.output,
    )


def load_area_tiles(data_dir: Path, area: Quadrilateral) -> dict[tuple[int, int], Tile]:
    keys = area_tile_keys(area)
    tiles = {}
    missing = []
    for key in keys:
        path = Path(data_dir) / hgt_filename(*key)
        if not path.exists():
            missing.append(key)
            continue
        tiles[key] = load_hgt(path, origin=key)
    if missing:
        raise MissingTilesError(missing)
    return tiles


def write_csv(results: ResultArrays | Sequence, stream: TextIO, min_isolation_m: float) -> int:
    """Emit result rows sorted by descending isolation; returns the row count.

    ``results`` are the peaks and answers as arrays, or ``IlpResult``
    objects, which are converted to them.  Peaks below the threshold are
    dropped; undefined isolation (the area's high point) is emitted as
    ``-1`` with empty limit-point fields, after every other row.  Rows are
    ordered by (-isolation_km, lat, lng).
    """
    if not isinstance(results, ResultArrays):
        from .multipass import result_arrays
        results = result_arrays(results)
    peaks, answers = results
    iso_km = answers["distance"] / 1000.0
    undefined = np.isnan(iso_km)
    keep = np.flatnonzero(undefined | (answers["distance"] >= min_isolation_m))
    order = keep[
        np.lexsort(
            (peaks["lng"][keep], peaks["lat"][keep], np.where(undefined, 1.0, -iso_km)[keep])
        )
    ]
    # Each distinct coordinate and elevation is formatted once.
    lat_text, lat_of = _distinct_text(np.concatenate([peaks["lat"], answers["lat"]]), ".6f")
    lng_text, lng_of = _distinct_text(np.concatenate([peaks["lng"], answers["lng"]]), ".6f")
    elevation_text, elevation_of = _distinct_text(peaks["elevation"], "d")
    n = len(peaks)
    stream.write(CSV_HEADER + "\n")
    for start in range(0, len(order), _CSV_SLICE_ROWS):
        part = order[start : start + _CSV_SLICE_ROWS]
        rows = zip(
            lat_text[lat_of[part]].tolist(),
            lng_text[lng_of[part]].tolist(),
            elevation_text[elevation_of[part]].tolist(),
            iso_km[part].tolist(),
            lat_text[lat_of[part + n]].tolist(),
            lng_text[lng_of[part + n]].tolist(),
        )
        lines = [
            f"{lat},{lng},{elevation},-1,,\n"
            if km != km  # NaN: no higher sample anywhere
            else f"{lat},{lng},{elevation},{km:.4f},{ilp_lat},{ilp_lng}\n"
            for lat, lng, elevation, km, ilp_lat, ilp_lng in rows
        ]
        stream.write("".join(lines))
    return len(order)


def _distinct_text(values: np.ndarray, spec: str) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct value of ``values`` formatted with ``spec``, as an object
    array, and each value's index in it.  Values are told apart by their
    bits, so -0.0 keeps its sign."""
    bits, of = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    return np.array([format(v, spec) for v in bits.view(values.dtype).tolist()], dtype=object), of


def _emit(arrays: ResultArrays, config: RunConfig) -> int:
    if config.output is None:
        return write_csv(arrays, sys.stdout, config.min_isolation_m)
    with open(config.output, "w", encoding="ascii", newline="\n") as fh:
        return write_csv(arrays, fh, config.min_isolation_m)


def _summary(stats: PipelineStats, io_s: float, emitted: int) -> str:
    return (
        f"tiles={stats.tiles} samples={stats.samples} peaks={stats.peaks_found} "
        f"peaks_kept={stats.peaks_kept} emitted={emitted} io_s={io_s:.3f} "
        f"bounding_s={stats.bounding_s:.3f} assign_s={stats.assign_s:.3f} "
        f"highpoint_s={stats.highpoint_s:.3f} "
        f"finalization_s={stats.finalization_s:.3f} compute_s={stats.total_s:.3f}"
    )


def _run_mode(config: RunConfig, tiles) -> tuple[ResultArrays, PipelineStats]:
    if config.mode == "multipass":
        outcome = run_pipeline(
            config.bounds,
            tiles,
            i_min=config.min_isolation_m,
            threads=config.threads,
            distance_mode=config.distance_mode,
        )
        return outcome.arrays, outcome.stats
    if config.mode == "single-sweep":
        metric = final_metric(config.distance_mode)
        t0 = time.perf_counter()
        arrays = run_merged_sweep(config.bounds, tiles, metric)
        stats = PipelineStats(
            tiles=len(tiles),
            samples=sum(t.shape[0] * t.shape[1] for t in tiles.values()),
            peaks_found=count_qualifying(qualifying(t) for t in tiles.values()),
            peaks_kept=len(arrays.peaks),
            total_s=time.perf_counter() - t0,
        )
        return arrays, stats
    raise ValueError(f"unknown mode {config.mode!r}")


def cmd_compute(args) -> int:
    config = _config_from_args(args)
    t0 = time.perf_counter()
    tiles = load_area_tiles(config.data_dir, config.bounds)
    io_s = time.perf_counter() - t0

    if config.mode == "oracle-check":
        return _oracle_check(config, tiles, io_s)

    arrays, stats = _run_mode(config, tiles)
    emitted = _emit(arrays, config)
    print(_summary(stats, io_s, emitted), file=sys.stderr)
    return 0


def _oracle_check(config: RunConfig, tiles, io_s: float) -> int:
    """Pipeline vs single sweep vs brute force; exit 0 only on exact agreement."""
    metric = final_metric(config.distance_mode)
    outcome = run_pipeline(
        config.bounds,
        tiles,
        i_min=0.0,
        threads=config.threads,
        distance_mode=config.distance_mode,
    )
    swept = run_merged_sweep(config.bounds, tiles, metric)
    universe = SampleUniverse.from_tiles(tiles.values())
    reference = brute_force_all(swept.peaks, universe, metric)

    problems = result_differences("pipeline", outcome.arrays, "sweep", swept)
    problems += result_differences("sweep", swept, "oracle", reference)
    problems += audit_pipeline(outcome)
    if problems:
        for p in problems:
            print(f"oracle-check: {p}", file=sys.stderr)
        print(f"oracle-check: {len(problems)} discrepancies", file=sys.stderr)
        return 3
    print(
        f"oracle-check: {len(outcome.arrays.peaks)} peaks agree across pipeline, "
        f"single sweep, and brute force (io_s={io_s:.3f})",
        file=sys.stderr,
    )
    return 0


def cmd_synth(args) -> int:
    try:
        rows_s, _, cols_s = args.tiles.lower().partition("x")
        rows, cols = int(rows_s), int(cols_s)
    except ValueError:
        raise ValueError(f"--tiles expects RxC, got {args.tiles!r}") from None
    # compute reads only tiles whose sample spacing is a whole arcsecond.
    n = args.samples_per_side
    if n < 2 or 3600 % (n - 1):
        raise ValueError(f"--samples-per-side must be N with N - 1 dividing 3600, got {n}")
    tiles = generate_synthetic(
        rows,
        cols,
        seed=args.seed,
        profile=args.profile,
        samples_per_side=args.samples_per_side,
        origin=tuple(args.origin),
        n_cones=args.cones,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / hgt_filename(*t.key) for t in tiles]
    if not args.overwrite:
        existing = [p.name for p in paths if p.exists()]
        if existing:
            raise ValueError(f"refusing to overwrite {existing}; pass --overwrite")
    for tile, path in zip(tiles, paths):
        save_hgt(tile, path)
    print(f"wrote {len(tiles)} tiles to {out}", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MissingTilesError as exc:
        print(f"isoscan: {exc}", file=sys.stderr)
        return 2
    except HgtFormatError as exc:
        print(f"isoscan: bad data: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"isoscan: i/o error: {exc}", file=sys.stderr)
        return 2
    except (SweepConsistencyError, SweepInvariantError, NonFiniteDistanceError) as exc:
        print(f"isoscan: internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"isoscan: bad configuration: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
