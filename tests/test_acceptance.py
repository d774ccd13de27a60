"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import gc
import io
import math
import random
import time

import numpy as np
import pytest

from conftest import WorldRun, exact_nearest, results_by_location
from geodesic_oracle import VincentyNoConvergence, vincenty_inverse
from isoscan.cli import main, write_csv
from isoscan.dem import (
    build_events,
    detect_peaks,
    downsample,
    generate_synthetic,
    load_hgt,
    save_hgt,
)
from isoscan.geo import (
    MEAN_RADIUS_M as R,
    GeoPoint,
    ellipsoid_distance,
    great_circle_distance,
    great_circle_distance_many,
)
from isoscan.multipass import audit_pipeline, ilp_results, run_pipeline
from isoscan.quad import Quadrilateral, min_distance
from isoscan.spatial_index import EllipsoidMetric, GreatCircleMetric, SphereKdTree
from isoscan.sweep import assert_sweep_invariant


def _verdict(number: int, text: str) -> None:
    print(f"\n[acceptance] criterion {number}: PASS ({text})")


def test_c01_single_sweep_matches_oracle(acceptance_runs: list[WorldRun]):
    """Sweep isolation equals brute force bit-exactly on 20 seeded worlds."""
    total_seconds = 0.0
    total_peaks = 0
    for run in acceptance_runs:
        total_seconds += run.sweep_seconds + run.oracle_seconds
        swept, reference = ilp_results(run.sweep_results), ilp_results(run.oracle_results)
        assert len(swept) == len(reference)
        for got, want in zip(swept, reference):
            assert got.peak == want.peak
            assert got.isolation_m == want.isolation_m  # bit-exact
            assert got.ilp == want.ilp
        total_peaks += len(swept)
    assert len(acceptance_runs) >= 20
    assert total_seconds < 60.0
    _verdict(
        1,
        f"{total_peaks} peaks over {len(acceptance_runs)} worlds bit-exact, "
        f"{total_seconds:.1f}s < 60s",
    )


def test_c02_pipeline_equivalence(acceptance_runs: list[WorldRun]):
    """Pipeline == single sweep == oracle, one undefined isolation per world."""
    for run in acceptance_runs:
        triples = lambda rs: [(r.peak.location, r.isolation_m, r.ilp) for r in rs]
        swept, reference = ilp_results(run.sweep_results), ilp_results(run.oracle_results)
        assert triples(run.pipeline.results) == triples(swept)
        assert triples(swept) == triples(reference)
        undefined = [r for r in run.pipeline.results if r.isolation_m is None]
        assert len(undefined) == 1
    _verdict(2, f"three-way equivalence on {len(acceptance_runs)} worlds")


def test_c03_bound_validity_and_assignment_audit(acceptance_runs: list[WorldRun]):
    """All upper bounds dominate final isolation; assignments are complete."""
    bounds_checked = 0
    for run in acceptance_runs:
        by_loc = results_by_location(run.pipeline.results)
        for loc, bounds in run.pipeline.bounds_by_peak.items():
            res = by_loc[loc]
            if res.isolation_m is None:
                continue
            for bound in bounds:
                assert bound >= res.isolation_m
                bounds_checked += 1
        assert audit_pipeline(run.pipeline) == []
    _verdict(3, f"{bounds_checked} bounds valid, 0 assignment violations")


def test_c04_nn_index_exactness():
    """Tree NN == linear scan on a 1e4-sample grid x 1e3 queries, both metrics."""
    grid_lats, grid_lngs = np.linspace(50, 40, 100), np.linspace(0, 10, 100)
    lats, lngs = np.repeat(grid_lats, 100), np.tile(grid_lngs, 100)
    tree = SphereKdTree(grid_lats, grid_lngs)
    for sample in range(10_000):
        tree.insert(sample)

    rng = np.random.default_rng(1009)
    q_lats = rng.uniform(38, 52, 1000)
    q_lngs = rng.uniform(-2, 12, 1000)
    queries = [GeoPoint(a, b) for a, b in zip(q_lats.tolist(), q_lngs.tolist())]
    checked = 0
    for metric in (EllipsoidMetric(), GreatCircleMetric()):
        for q in queries:
            assert tree.nearest_neighbor(q, metric) == exact_nearest(lats, lngs, q, metric)
            checked += 1

    # shadow-set equivalence over interleaved mutations
    shadow_rng = random.Random(77)
    shadow_tree = SphereKdTree(grid_lats, grid_lngs)
    shadow: list[int] = []
    metric = GreatCircleMetric()
    ops = 0
    for step in range(10_000):
        if shadow and shadow_rng.random() < 0.45:
            shadow_tree.remove(shadow.pop(shadow_rng.randrange(len(shadow))))
        else:
            sample = shadow_rng.randrange(10_000)
            if sample in shadow:
                continue
            shadow.append(sample)
            shadow_tree.insert(sample)
        ops += 1
        assert len(shadow_tree) == len(shadow)
        if step % 250 == 0:
            alive = np.array(sorted(shadow))
            q = queries[step // 250]
            assert shadow_tree.nearest_neighbor(q, metric) == exact_nearest(
                lats[alive], lngs[alive], q, metric
            )
    _verdict(4, f"{checked} queries exact under ellipsoid+great-circle, {ops} shadow ops")


def test_c05_geometry_tolerances():
    """Closed forms, geodesic oracle agreement, quad bounds vs dense sampling."""
    # haversine vs analytic arcs
    assert great_circle_distance(GeoPoint(0, 0), GeoPoint(0, 180)) == pytest.approx(
        math.pi * R, rel=1e-9
    )
    assert great_circle_distance(GeoPoint(0, 0), GeoPoint(0, 1)) == pytest.approx(
        R * math.pi / 180.0, rel=1e-9
    )
    assert great_circle_distance(GeoPoint(-90 + 1e-9, 0), GeoPoint(90, 0)) == pytest.approx(
        math.pi * R, rel=1e-6
    )

    # flattening-corrected distance vs the independent iterative oracle
    rng = random.Random(2024)
    checked = 0
    worst = 0.0
    while checked < 1000:
        a = GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 180))
        b = GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 180))
        if great_circle_distance(a, b) > 0.97 * math.pi * R:
            continue
        try:
            ref = vincenty_inverse(a.lat_deg, a.lng_deg, b.lat_deg, b.lng_deg)
        except VincentyNoConvergence:
            continue
        if ref < 1.0:
            continue
        rel = abs(ellipsoid_distance(a, b) - ref) / ref
        worst = max(worst, rel)
        assert rel < 5e-3
        checked += 1

    # quad min vs 1e5-point boundary sampling per configuration
    qrng = random.Random(31337)
    configs = [
        (Quadrilateral(10, 20, 30, 40), GeoPoint(25, 35)),
        (Quadrilateral(0, 40, 0, 10), GeoPoint(50, 20)),
        (Quadrilateral(-40, 40, -10, 10), GeoPoint(0, 100)),
    ]
    for _ in range(9):
        lat0 = qrng.uniform(-60, 50)
        lng0 = qrng.uniform(-170, 150)
        q = Quadrilateral(lat0, lat0 + qrng.uniform(0.5, 20), lng0, lng0 + qrng.uniform(0.5, 20))
        configs.append((q, GeoPoint(qrng.uniform(-80, 80), qrng.uniform(-180, 180))))
    for q, p in configs:
        edge_lats = np.linspace(q.lat_min, q.lat_max, 25_000)
        edge_lngs = np.linspace(q.lng_min, q.lng_max, 25_000)
        lats = np.concatenate(
            [np.full(25_000, q.lat_min), np.full(25_000, q.lat_max), edge_lats, edge_lats]
        )
        lngs = np.concatenate(
            [edge_lngs, edge_lngs, np.full(25_000, q.lng_min), np.full(25_000, q.lng_max)]
        )
        dists = great_circle_distance_many(lats, lngs, *p)
        assert min_distance(q, p) <= dists.min() + 1e-3
    _verdict(
        5,
        f"closed forms 1e-9, geodesic oracle worst {worst * 100:.3f}% < 0.5%, "
        f"{len(configs)}x100k boundary samples within 1e-3 m",
    )


def test_c06_sweep_invariant(acceptance_runs: list[WorldRun]):
    """No peak event ever sees an active point at or below its elevation."""
    total_events = 0
    total_peak_events = 0
    for run in acceptance_runs:
        assert_sweep_invariant(run.trace)
        total_events += run.events_total
        total_peak_events += len(run.trace)
    assert total_events >= 1_000_000
    _verdict(6, f"{total_events} events ({total_peak_events} peak events), 0 violations")


def test_c07_event_count(acceptance_runs: list[WorldRun]):
    """Exactly 2n + p events per tile, at full and strided resolution."""
    tiles_checked = 0
    for run in acceptance_runs[:6]:
        for tile in run.tiles.values():
            for grid in (tile, downsample(tile, 2)):
                peaks = detect_peaks(grid)
                rows, cols = grid.shape
                assert len(build_events(grid, peaks)) == 2 * rows * cols + len(peaks)
            tiles_checked += 1
    _verdict(7, f"2n+p exact on {tiles_checked} tiles (full and strided)")


def _world_csv(threads: int, rows: int, cols: int, seed: int) -> bytes:
    tiles = generate_synthetic(rows, cols, seed=seed, profile="fractal", samples_per_side=121)
    area = Quadrilateral(45, 45 + rows, 7, 7 + cols)
    outcome = run_pipeline(
        area, {t.key: t for t in tiles}, i_min=1000.0, threads=threads
    )
    buf = io.StringIO()
    write_csv(outcome.results, buf, min_isolation_m=1000.0)
    return buf.getvalue().encode()


def test_c08a_csv_byte_determinism_across_workers():
    """4x4 world: byte-identical CSV with 1 and 8 workers."""
    serial = _world_csv(threads=1, rows=4, cols=4, seed=101)
    parallel = _world_csv(threads=8, rows=4, cols=4, seed=101)
    assert serial == parallel
    assert len(serial.splitlines()) > 1
    _verdict(8, f"byte-identical CSV ({len(serial)} bytes) for 1 vs 8 workers")


def test_c08b_parallel_speedup():
    """6x6 world: >=3x wall-clock speedup at 8 workers vs 1.

    Hardware note: a >=3x speedup is unreachable on hosts with fewer than
    roughly 4 physical cores; the measurement is still asserted as stated.
    """
    import os

    tiles = generate_synthetic(6, 6, seed=103, profile="fractal", samples_per_side=121)
    area = Quadrilateral(45, 51, 7, 13)
    by_key = {t.key: t for t in tiles}

    t0 = time.perf_counter()
    serial = run_pipeline(area, by_key, i_min=1000.0, threads=1)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_pipeline(area, by_key, i_min=1000.0, threads=8)
    parallel_s = time.perf_counter() - t0

    assert serial.results == parallel.results
    speedup = serial_s / parallel_s
    assert speedup >= 3.0, (
        f"speedup {speedup:.2f}x at 8 workers vs 1 on {os.cpu_count()} CPUs "
        f"({serial_s:.1f}s -> {parallel_s:.1f}s)"
    )
    _verdict(8, f"speedup {speedup:.2f}x >= 3x at 8 workers")


def test_c09_throughput_constancy():
    """Samples/s stays within a factor-2 band from 1 to 16 tiles."""
    throughputs = {}
    for rows, cols in ((1, 1), (2, 2), (4, 4)):
        tiles = generate_synthetic(
            rows, cols, seed=107, profile="fractal", samples_per_side=121
        )
        area = Quadrilateral(45, 45 + rows, 7, 7 + cols)
        # The fastest of three runs: a stall from elsewhere on the host
        # lengthens one run, not all three.
        best = 0.0
        for _ in range(3):
            # Freeze the objects the session already holds, mostly the
            # shared fixtures, so that a full collection inside the timed
            # run scans only the run's own objects.
            gc.collect()
            gc.freeze()
            try:
                outcome = run_pipeline(
                    area, {t.key: t for t in tiles}, i_min=1000.0, threads=1
                )
            finally:
                gc.unfreeze()
            best = max(best, outcome.stats.samples / outcome.stats.total_s)
        throughputs[rows * cols] = best
    band = max(throughputs.values()) / min(throughputs.values())
    assert band <= 2.0, f"throughput spread {band:.2f}x over {throughputs}"
    _verdict(
        9,
        "samples/s "
        + ", ".join(f"{k} tiles: {v:,.0f}" for k, v in sorted(throughputs.items()))
        + f" (spread {band:.2f}x <= 2x)",
    )


def test_c10_hgt_round_trip_and_malformed_rejection(tmp_path):
    """Full-size synth -> write -> load is bit-exact; bad sizes exit 2."""
    tiles = generate_synthetic(1, 1, seed=109, profile="fractal", samples_per_side=1201)
    tile = tiles[0]
    path = tmp_path / "N45E007.hgt"
    save_hgt(tile, path)
    assert path.stat().st_size == 2 * 1201 * 1201
    loaded = load_hgt(path)
    assert np.array_equal(loaded.elevations, tile.elevations)
    assert loaded.key == tile.key and loaded.steps_per_degree == tile.steps_per_degree

    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    (bad_dir / "N45E007.hgt").write_bytes(b"\x00" * 12345)
    code = main(
        [
            "compute",
            "--data-dir",
            str(bad_dir),
            "--bounds",
            "45",
            "46",
            "7",
            "8",
            "--output",
            str(tmp_path / "o.csv"),
        ]
    )
    assert code == 2
    _verdict(10, "1201x1201 round-trip bit-exact; malformed size exits 2")
