"""Tests of the benchmark itself: each answer check rejects a planted wrong
answer, and the tiny-world smoke mode runs every workload shape.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
from isoscan.cli import write_csv  # noqa: E402
from isoscan.dem import VOID_VALUE, Tile, generate_synthetic, load_hgt, save_hgt  # noqa: E402
from isoscan.multipass import run_pipeline  # noqa: E402
from isoscan.quad import Quadrilateral  # noqa: E402

MIN_ISO = 1000.0


@pytest.fixture(scope="module")
def world():
    """A 1x1 fractal tile at 15 arcsec and the program's CSV for it."""
    tiles = generate_synthetic(1, 1, seed=3, profile="fractal", samples_per_side=241)
    out = run_pipeline(Quadrilateral(45, 46, 7, 8), tiles, i_min=MIN_ISO, threads=1)
    buf = io.StringIO()
    write_csv(out.results, buf, MIN_ISO)
    area = checks.Area({t.key: t.elevations.astype(np.int32) for t in tiles}, 240)
    return area, buf.getvalue()


def _check(area, text):
    return checks.check_rows(area, checks.parse_csv(text), MIN_ISO)


def _finite_rows(text):
    return [r for r in checks.parse_csv(text) if r.isolation_km is not None]


def test_program_output_passes(world):
    area, text = world
    rep = _check(area, text)
    assert rep.checked == len(checks.parse_csv(text)) > 10
    assert rep.failures == {}


def test_shifted_limit_point_is_rejected(world):
    area, text = world
    row = min(_finite_rows(text), key=lambda r: r.isolation_km)
    pi, pj = area.index_of(row.lat, row.lng)
    li, lj = area.index_of(*row.ilp)
    # One sample farther from the peak along the larger offset.
    if abs(li - pi) >= abs(lj - pj):
        li += 1 if li > pi else -1
    else:
        lj += 1 if lj > pj else -1
    shifted = f"{row.lat:.6f},{row.lng:.6f},{row.elevation_m},{row.isolation_km:.4f},{area.lats[li]:.6f},{area.lngs[lj]:.6f}"
    rep = _check(area, text.replace(row.line + "\n", shifted + "\n"))
    assert rep.failed == 1
    (reasons,) = rep.failures.values()
    assert any(r.startswith(("distance band", "limit point not higher")) for r in reasons)


def test_dropped_row_is_rejected(world):
    area, text = world
    row = max(_finite_rows(text), key=lambda r: r.isolation_km)
    rep = _check(area, text.replace(row.line + "\n", ""))
    assert rep.checked == len(checks.parse_csv(text))
    assert list(rep.failures) == [f"{row.lat:.6f},{row.lng:.6f}"]
    assert rep.failures[f"{row.lat:.6f},{row.lng:.6f}"] == ["missing: isolated peak without a row"]


def test_row_that_is_not_a_peak_is_rejected(world):
    area, text = world
    row = max(_finite_rows(text), key=lambda r: r.isolation_km)
    i, j = area.index_of(row.lat, row.lng)
    # The row's ILP, claimed for a lower neighbour of the peak as well.
    ni, nj = next(
        (i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if area.elev[i + di, j + dj] < area.elev[i, j]
    )
    fake = f"{area.lats[ni]:.6f},{area.lngs[nj]:.6f},{int(area.elev[ni, nj])},{row.isolation_km:.4f},{row.ilp[0]:.6f},{row.ilp[1]:.6f}"
    rep = _check(area, text + fake + "\n")
    assert rep.failed == 1
    (reasons,) = rep.failures.values()
    assert any(r.startswith("not a peak") for r in reasons)


def test_undefined_row_must_be_the_maximum(world):
    area, text = world
    top = next(r for r in checks.parse_csv(text) if r.isolation_km is None)
    rep = _check(area, text.replace(top.line + "\n", ""))
    assert "undefined" in rep.failures


def test_changed_void_sample_is_rejected(tmp_path):
    (tile,) = generate_synthetic(1, 1, seed=5, profile="fractal", samples_per_side=61)
    written = tile.elevations.copy()
    written[10:14, 20:23] = VOID_VALUE
    path = tmp_path / "N45E007.hgt"
    save_hgt(Tile(45, 7, written, 60), path)
    loaded = load_hgt(path)
    assert checks.check_load(written, loaded.elevations, loaded.voids_filled) == []

    changed = loaded.elevations.copy()
    changed[0, 0] += 1
    assert checks.check_load(written, changed, loaded.voids_filled)
    still_void = loaded.elevations.copy()
    still_void[11, 21] = VOID_VALUE
    assert checks.check_load(written, still_void, loaded.voids_filled)
    assert checks.check_load(written, loaded.elevations, loaded.voids_filled - 1)


def test_reference_difference_counts_each_row_once(world):
    area, text = world
    rows = _finite_rows(text)
    clean = _check(area, text)
    checks.compare_to_reference(clean, text, text)
    assert clean.failures == {}

    # One row with another isolation, and one row the reference has but
    # this CSV lacks (also caught as missing): each counts once.
    changed, dropped = rows[0], rows[-1]
    edited = changed.line.replace(f",{changed.isolation_km:.4f},", f",{changed.isolation_km + 0.5:.4f},")
    other = text.replace(changed.line + "\n", edited + "\n").replace(dropped.line + "\n", "")
    rep = _check(area, other)
    checks.compare_to_reference(rep, other, text)
    assert set(rep.failures) == {f"{r.lat:.6f},{r.lng:.6f}" for r in (changed, dropped)}
    assert rep.checked == len(rows) + 1 and rep.failed == 2

    lines = text.split("\n")
    swapped = "\n".join(lines[:1] + [lines[2], lines[1]] + lines[3:])
    rep = _check(area, swapped)
    checks.compare_to_reference(rep, swapped, text)
    assert list(rep.failures) == ["order"] and rep.failed <= rep.checked


def test_reference_cache_is_reused_by_a_later_run(tmp_path, monkeypatch):
    """Each run writes its inputs to a directory of its own; the same inputs
    in another directory must still find the cached 1-worker CSV."""
    import run
    from workloads import by_name

    workload = by_name("tiny")["fractal6x6-121-w2"]
    children = []

    def fake_child(cfg):
        Path(cfg["csv"]).write_text("reference\n", encoding="ascii")
        children.append(cfg)
        return {}, None

    monkeypatch.setattr(run, "run_child", fake_child)
    monkeypatch.setattr(run, "WORK", tmp_path)
    texts = []
    for run_dir in ("first-run", "second-run"):
        data_dir = tmp_path / run_dir / "tiles"
        workload.write_inputs(1, data_dir)
        texts.append(run.reference_csv(workload, data_dir, lambda csv: {"csv": str(csv)}))
    assert texts == ["reference\n", "reference\n"]
    assert len(children) == 1


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )


def _declared(kind: str) -> list[str]:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


@pytest.mark.parametrize("workload", ["tile601-fractal", "fractal6x6-121-w2"])
def test_smoke_tiny_worlds(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "4", "--seconds", "0.1", "--trace", "0", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0
    assert list(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # At 2 arcmin spacing, seam samples with a higher neighbour across the
    # seam clear the 1 km threshold: the known seam fault, and nothing else.
    reasons = [line for line in proc.stdout.splitlines() if line.strip().startswith("failed:")]
    assert all(line.strip().startswith("failed: not a peak:") for line in reasons)
    if workload == "tile601-fractal":
        assert result["failed"] == 0


def test_smoke_traced_run_reports_every_layer():
    proc = _run(ROOT, "--workload", "fractal6x6-121-w2", "--seed", "4", "--seconds", "0.1", "--trace", "1", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True  # includes: traced CSV == untraced CSV
    metrics = result["metrics"]
    assert list(metrics) == _declared("per_layer")
    assert metrics["spatial_index.nn_queries"]["value"] > 0
    assert metrics["multipass.worker_utilization"]["value"] > 0
    assert metrics["trace.layer_coverage"]["value"] >= 0.9


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "tile601-fractal", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
