"""CLI behavior: subcommands, CSV format, exit codes, determinism."""

from __future__ import annotations

import ast
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import area_peaks
from isoscan import cli
from isoscan.cli import CSV_HEADER, main, write_csv
from isoscan.dem import Tile, generate_synthetic, hgt_filename, load_hgt, save_hgt
from isoscan.geo import GeoPoint
from isoscan.multipass import ANSWER_DTYPE, PEAK_DTYPE, IlpResult, Peak, ResultArrays
from isoscan.oracle import SampleUniverse, brute_force_all
from isoscan.spatial_index import EllipsoidMetric

MINI = 121


def synth_args(out_dir, tiles="2x2", seed=7, profile="cones", extra=()):
    return [
        "synth",
        "--tiles",
        tiles,
        "--seed",
        str(seed),
        "--profile",
        profile,
        "--out",
        str(out_dir),
        "--samples-per-side",
        str(MINI),
        *extra,
    ]


def compute_args(data_dir, output=None, bounds=(45, 47, 7, 9), extra=()):
    args = [
        "compute",
        "--data-dir",
        str(data_dir),
        "--bounds",
        *[str(b) for b in bounds],
        "--threads",
        "1",
    ]
    if output is not None:
        args += ["--output", str(output)]
    return args + list(extra)


@pytest.fixture()
def cones_world_dir(tmp_path):
    out = tmp_path / "tiles"
    assert main(synth_args(out, seed=7, profile="cones", extra=["--cones", "6"])) == 0
    return out


class TestSynth:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "d"
        assert main(synth_args(out)) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["N45E007.hgt", "N45E008.hgt", "N46E007.hgt", "N46E008.hgt"]
        for p in out.iterdir():
            assert p.stat().st_size == 2 * MINI * MINI

    def test_full_size_tile_bytes(self, tmp_path):
        out = tmp_path / "d"
        code = main(
            ["synth", "--tiles", "1x1", "--seed", "3", "--profile", "plateau", "--out", str(out)]
        )
        assert code == 0
        assert (out / "N45E007.hgt").stat().st_size == 2_884_802

    def test_refuses_overwrite_without_flag(self, tmp_path):
        out = tmp_path / "d"
        assert main(synth_args(out)) == 0
        assert main(synth_args(out)) == 1
        assert main(synth_args(out, extra=["--overwrite"])) == 0

    def test_regeneration_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(synth_args(a, seed=9, profile="fractal")) == 0
        assert main(synth_args(b, seed=9, profile="fractal")) == 0
        for name in ("N45E007.hgt", "N46E008.hgt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_spacing_compute_cannot_read_exit_1(self, tmp_path, capsys):
        # 99 intervals do not divide a degree into whole arcseconds, so
        # compute would refuse the tile (exit 2): synth writes nothing.
        out = tmp_path / "d"
        args = synth_args(out)
        args[args.index("--samples-per-side") + 1] = "100"
        assert main(args) == 1
        assert "--samples-per-side" in capsys.readouterr().err
        assert not out.exists()

    def test_adjacent_tiles_share_overlap(self, tmp_path):
        out = tmp_path / "d"
        assert main(synth_args(out, seed=11, profile="fractal")) == 0
        south = load_hgt(out / "N45E007.hgt")
        north = load_hgt(out / "N46E007.hgt")
        assert np.array_equal(south.elevations[0], north.elevations[-1])


class TestComputeCsv:
    def test_cones_row_count_matches_threshold(self, cones_world_dir, tmp_path):
        out_csv = tmp_path / "iso.csv"
        code = main(
            compute_args(cones_world_dir, out_csv, extra=["--min-isolation-km", "1.0"])
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == CSV_HEADER

        tiles = {
            (la, ln): load_hgt(cones_world_dir / hgt_filename(la, ln))
            for la in (45, 46)
            for ln in (7, 8)
        }
        _peaks, answers = brute_force_all(
            area_peaks(tiles.values()), SampleUniverse.from_tiles(tiles.values()), EllipsoidMetric()
        )
        distances = answers["distance"]
        expected = np.count_nonzero(np.isnan(distances) | (distances >= 1000.0))
        assert len(lines) - 1 == expected

    def test_undefined_isolation_row_format(self, cones_world_dir, tmp_path):
        out_csv = tmp_path / "iso.csv"
        assert main(compute_args(cones_world_dir, out_csv)) == 0
        rows = out_csv.read_text().splitlines()[1:]
        undefined = [r for r in rows if ",-1,," in r]
        assert len(undefined) == 1
        assert undefined[0].endswith(",-1,,")
        assert undefined[0] == rows[-1]  # sorted by descending isolation

    def test_rows_sorted_descending(self, cones_world_dir, tmp_path):
        out_csv = tmp_path / "iso.csv"
        assert main(compute_args(cones_world_dir, out_csv)) == 0
        iso = []
        for row in out_csv.read_text().splitlines()[1:]:
            value = float(row.split(",")[3])
            if value >= 0:
                iso.append(value)
        assert iso == sorted(iso, reverse=True)

    def test_thread_count_does_not_change_bytes(self, cones_world_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(compute_args(cones_world_dir, a, extra=["--threads", "1"])) == 0
        base = compute_args(cones_world_dir, b)
        base[base.index("--threads") + 1] = "2"
        assert main(base) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_sweep_mode_matches_multipass(self, cones_world_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(compute_args(cones_world_dir, a, extra=["--mode", "multipass"])) == 0
        assert main(compute_args(cones_world_dir, b, extra=["--mode", "single-sweep"])) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stride_has_no_effect(self, cones_world_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(compute_args(cones_world_dir, a, extra=["--stride", "1"])) == 0
        assert main(compute_args(cones_world_dir, b, extra=["--stride", "2"])) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_sweep_reports_the_same_peak_count(self, tmp_path, capsys):
        data = tmp_path / "tiles"
        assert main(synth_args(data, seed=5, profile="fractal")) == 0

        def summary(mode):
            assert main(compute_args(data, tmp_path / f"{mode}.csv", extra=["--mode", mode])) == 0
            line = capsys.readouterr().err.strip().splitlines()[-1]
            return dict(tok.split("=") for tok in line.split())

        multipass, swept = summary("multipass"), summary("single-sweep")
        assert multipass["peaks"] == swept["peaks"]
        assert int(swept["peaks"]) > int(swept["peaks_kept"])

    def test_summary_on_stderr(self, cones_world_dir, tmp_path, capsys):
        assert main(compute_args(cones_world_dir, tmp_path / "o.csv")) == 0
        err = capsys.readouterr().err
        assert "tiles=4" in err
        names = [tok.split("=")[0] for tok in err.strip().splitlines()[-1].split()]
        assert names == [
            "tiles", "samples", "peaks", "peaks_kept", "emitted", "io_s",
            "bounding_s", "assign_s", "highpoint_s", "finalization_s", "compute_s",
        ]


def src_env(*dirs: Path) -> dict:
    """The environment with ``src`` and ``dirs`` of the repository on PYTHONPATH."""
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), *(str(root / d) for d in dirs), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


class TestEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        done = subprocess.run(
            [sys.executable, "-m", "isoscan", "compute", "--help"],
            env=src_env(), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "--data-dir" in done.stdout

    def test_benchmark_tracer_wraps_a_compute_run(self, cones_world_dir, tmp_path):
        # perfbench's tracer replaces pipeline functions by name and reads
        # the result's fields; a renamed one fails here, not only in the
        # benchmark.  The traced run writes the untraced run's bytes.
        plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
        extra = ["--min-isolation-km", "0", "--threads", "2"]
        assert main(compute_args(cones_world_dir, plain, extra=extra)) == 0
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "import tracer\n"
            "tracer.install(Path(sys.argv[1]))\n"
            "from isoscan import cli\n"
            "sys.exit(cli.main(sys.argv[2:]))\n"
        )
        (tmp_path / "trace").mkdir()
        argv = compute_args(cones_world_dir, traced, extra=extra)
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "trace"), *argv],
            env=src_env(Path("perfbench")), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert traced.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "tiles, samples, km",
        [
            ("5x5", 31, "1"),  # enough tiles for np.isin to sort
            ("1x1", 601, "5"),  # a dilation footprint of more than 4 corners
        ],
    )
    def test_compute_does_not_import_numpy_ma(self, tmp_path, tiles, samples, km):
        # A bare np.unique imports numpy.ma, about 13 ms, on the main
        # process's critical path; np.isin calls it unless told its keys are
        # unique.
        data = tmp_path / "tiles"
        synth = ["synth", "--tiles", tiles, "--profile", "fractal", "--seed", "11"]
        assert main([*synth, "--out", str(data), "--samples-per-side", str(samples)]) == 0
        side = int(tiles.partition("x")[0])
        argv = compute_args(
            data, tmp_path / "out.csv", bounds=(45, 45 + side, 7, 7 + side),
            extra=["--min-isolation-km", km],
        )
        script = (
            "import sys\n"
            "from isoscan import cli\n"
            "status = cli.main(sys.argv[1:])\n"
            "print('numpy.ma' in sys.modules)\n"
            "sys.exit(status)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["False"]


def run_python(script: str, *args: str, blas_threads: str | None = None) -> list[str]:
    """Run ``script`` in a fresh interpreter; its stdout lines.

    ``OPENBLAS_NUM_THREADS`` is unset in its environment, or set to
    ``blas_threads``.
    """
    env = src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


needs_proc_tasks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="no /proc/self/task to count threads"
)

# Counts this process's OS threads.
THREADS = "len(os.listdir('/proc/self/task'))"

# A joined thread's OS thread can outlive the join by a moment, so the count
# is given a few seconds to settle; a thread pool stays for good.
SETTLED_THREADS = (
    "import time\n"
    "deadline = time.monotonic() + 5\n"
    f"while {THREADS} > 1 and time.monotonic() < deadline:\n"
    "    time.sleep(0.01)\n"
)


class TestStartUp:
    """A run starts no thread it does not use: numpy's BLAS runs on one."""

    @needs_proc_tasks
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_compute_holds_one_thread(self, cones_world_dir, tmp_path, threads):
        argv = compute_args(cones_world_dir, tmp_path / "o.csv", extra=["--threads", threads])
        script = (
            "import os, sys\n"
            "from isoscan import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            f"{SETTLED_THREADS}"
            f"print({THREADS}, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        )
        assert run_python(script, *argv) == ["1 1"]

    @needs_proc_tasks
    @pytest.mark.parametrize(
        "entry", ["from isoscan import cli", "import isoscan.cli", "import isoscan.__main__"]
    )
    def test_every_entry_sets_blas_threads_before_numpy(self, entry):
        script = f"import os, sys\n{entry}\nprint('numpy' in sys.modules, {THREADS})\n"
        assert run_python(script) == ["True 1"]

    def test_callers_blas_threads_kept(self):
        script = "import os\nfrom isoscan import cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
        assert run_python(script, blas_threads="2") == ["2"]

    def test_package_import_loads_no_numpy(self):
        script = "import sys\nimport isoscan\nprint('numpy' in sys.modules)\n"
        assert run_python(script) == ["False"]

    def test_library_import_leaves_blas_threads_unset(self):
        script = "import os\nimport isoscan.multipass\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        assert run_python(script) == ["None"]

    def test_package_exports_resolve(self):
        script = (
            "import isoscan\n"
            "from isoscan import GeoPoint, run_pipeline\n"
            "from isoscan.geo import GeoPoint as geo_point\n"
            "from isoscan.multipass import run_pipeline as pipeline\n"
            "print(GeoPoint is geo_point, run_pipeline is pipeline)\n"
            "print(all(getattr(isoscan, name) is not None for name in isoscan.__all__))\n"
            "print(set(isoscan.__all__) <= set(dir(isoscan)))\n"
            "print(hasattr(isoscan, 'no_such_name'))\n"
        )
        assert run_python(script) == ["True True", "True", "True", "False"]

    def test_src_makes_no_blas_calls(self):
        # The CLI runs OpenBLAS on one thread because isoscan's parallelism
        # is worker processes and it makes no BLAS call.  A matrix product
        # or numpy.linalg here would make that a slowdown.
        banned = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum", "linalg"}
        found = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                    name = "@"
                elif isinstance(node, ast.Attribute) and node.attr in banned:
                    name = node.attr
                elif isinstance(node, ast.ImportFrom):
                    modules = {*(node.module or "").split("."), *(a.name for a in node.names)}
                    name = ", ".join(sorted(modules & banned))
                elif isinstance(node, ast.Import):
                    name = ", ".join(a.name for a in node.names if banned & set(a.name.split(".")))
                else:
                    continue
                if name:
                    found.append(f"{path.name}:{node.lineno}: {name}")
        assert not found, "BLAS calls in src/isoscan: " + "; ".join(found)


class TestExitCodes:
    def test_missing_tiles_exit_2(self, cones_world_dir, tmp_path, capsys):
        (cones_world_dir / "N46E008.hgt").unlink()
        code = main(compute_args(cones_world_dir, tmp_path / "o.csv"))
        assert code == 2
        assert "(46, 8)" in capsys.readouterr().err

    def test_malformed_tile_exit_2(self, tmp_path):
        data = tmp_path / "tiles"
        data.mkdir()
        (data / "N45E007.hgt").write_bytes(b"\x01" * 999)
        assert main(compute_args(data, tmp_path / "o.csv", bounds=(45, 46, 7, 8))) == 2

    def test_bad_bounds_exit_1(self, tmp_path):
        assert main(compute_args(tmp_path, bounds=(47, 45, 7, 9))) == 1

    @pytest.mark.parametrize(
        "bounds", [(89, 91, 0, 1), (-91, -89, 0, 1), (0, 1, 179, 181), (0, 1, -181, -179)]
    )
    def test_bounds_off_the_globe_exit_1(self, tmp_path, capsys, bounds):
        assert main(compute_args(tmp_path, tmp_path / "o.csv", bounds=bounds)) == 1
        err = capsys.readouterr().err
        assert "bad configuration" in err and "--bounds" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        ("bounds", "tile"),
        [
            ((89, 90, 0, 1), "(89, 0)"),
            ((-90, -89, 0, 1), "(-90, 0)"),
            ((0, 1, 179, 180), "(0, 179)"),
            ((0, 1, -180, -179), "(0, -180)"),
        ],
    )
    def test_bounds_on_the_globe_edge_are_valid(self, tmp_path, capsys, bounds, tile):
        # The edges themselves are valid bounds: the one tile they need is
        # missing from the empty data directory, which exits 2, not 1.
        data = tmp_path / "tiles"
        data.mkdir()
        assert main(compute_args(data, tmp_path / "o.csv", bounds=bounds)) == 2
        err = capsys.readouterr().err
        assert f"missing tiles: [{tile}]" in err and "--bounds" not in err

    @pytest.mark.parametrize("threshold", ["nan", "-1"])
    def test_nan_or_negative_threshold_exit_1(self, cones_world_dir, tmp_path, capsys, threshold):
        out_csv = tmp_path / "o.csv"
        args = compute_args(cones_world_dir, out_csv, extra=["--min-isolation-km", threshold])
        assert main(args) == 1
        assert "bad configuration" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("stride", ["0", "-2"])
    def test_stride_below_one_exit_1(self, cones_world_dir, tmp_path, capsys, stride):
        out_csv = tmp_path / "o.csv"
        assert main(compute_args(cones_world_dir, out_csv, extra=["--stride", stride])) == 1
        assert "--stride" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_threads_below_one_exit_1(self, cones_world_dir, tmp_path, capsys, threads):
        out_csv = tmp_path / "o.csv"
        args = compute_args(cones_world_dir, out_csv)
        args[args.index("--threads") + 1] = threads
        assert main(args) == 1
        assert "--threads" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_infinite_threshold_emits_only_the_high_point(self, cones_world_dir, tmp_path):
        out_csv = tmp_path / "o.csv"
        args = compute_args(cones_world_dir, out_csv, extra=["--min-isolation-km", "inf"])
        assert main(args) == 0
        rows = out_csv.read_text().splitlines()
        assert rows[0] == CSV_HEADER
        assert len(rows) == 2 and rows[1].endswith(",-1,,")

    def test_unknown_argument_exit_1(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["compute", "--nope"])
        assert err.value.code == 1

    def test_bad_tiles_argument_exit_1(self, tmp_path):
        assert main(["synth", "--tiles", "2by2", "--out", str(tmp_path)]) == 1

    def test_non_finite_distance_exit_3(self, cones_world_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            EllipsoidMetric,
            "distance_exact_many",
            lambda self, a_lats, a_lngs, b_lats, b_lngs: np.full(len(a_lats), np.nan),
        )
        assert main(compute_args(cones_world_dir, tmp_path / "o.csv")) == 3
        assert "distance nan" in capsys.readouterr().err


class TestOracleCheckMode:
    @pytest.mark.parametrize("distance_mode", ["staged", "great-circle-only"])
    def test_agreement_exits_zero(self, tmp_path, capsys, distance_mode):
        out = tmp_path / "tiles"
        assert main(synth_args(out, seed=5, profile="fractal")) == 0
        extra = ["--mode", "oracle-check", "--distance-mode", distance_mode]
        code = main(compute_args(out, extra=extra))
        assert code == 0
        assert "agree" in capsys.readouterr().err

    def test_forced_disagreement_exits_three(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "tiles"
        assert main(synth_args(out, seed=5, profile="cones", extra=["--cones", "4"])) == 0
        real = cli.run_merged_sweep
        skewed_at = []

        def skewed(*args, **kwargs):
            arrays = real(*args, **kwargs)
            k = int(np.flatnonzero(~np.isnan(arrays.answers["distance"]))[0])
            arrays.answers["distance"][k] += 1.0
            skewed_at.append(GeoPoint(*arrays.peaks[["lat", "lng"]][k].tolist()))
            return arrays

        monkeypatch.setattr(cli, "run_merged_sweep", skewed)
        capsys.readouterr()
        code = main(compute_args(out, extra=["--mode", "oracle-check"]))
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        # The pipeline and the oracle both disagree with the skewed sweep there.
        assert [line.partition(" {")[0] for line in err] == [
            f"oracle-check: peak {skewed_at[0]}: pipeline",
            f"oracle-check: peak {skewed_at[0]}: sweep",
            "oracle-check: 2 discrepancies",
        ]

    def test_peak_found_by_one_leg_exits_three(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "tiles"
        assert main(synth_args(out, seed=5, profile="cones", extra=["--cones", "4"])) == 0
        real = cli.run_merged_sweep
        dropped = []

        def dropping(*args, **kwargs):
            peaks, answers = real(*args, **kwargs)
            dropped.append(GeoPoint(*peaks[["lat", "lng"]][3].tolist()))
            keep = np.arange(len(peaks)) != 3
            return cli.ResultArrays(peaks[keep], answers[keep])

        monkeypatch.setattr(cli, "run_merged_sweep", dropping)
        capsys.readouterr()
        code = main(compute_args(out, extra=["--mode", "oracle-check"]))
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        # The oracle answers the sweep's peaks, so only the pipeline has it.
        assert err == [
            f"oracle-check: peak {dropped[0]}: only in pipeline",
            "oracle-check: 1 discrepancies",
        ]

    @pytest.mark.parametrize("mode", ["single-sweep", "oracle-check"])
    def test_seam_mismatch_exits_two(self, tmp_path, capsys, mode):
        # Two tiles of 121 samples a side; one sample of the shared column
        # is 7 m higher in the eastern tile's file.
        data = tmp_path / "tiles"
        data.mkdir()
        west, east = generate_synthetic(1, 2, seed=5, profile="fractal", samples_per_side=MINI)
        bad = east.elevations.copy()
        bad[60, 0] += 7
        save_hgt(west, data / hgt_filename(*west.key))
        save_hgt(Tile(*east.key, bad, east.steps_per_degree), data / hgt_filename(*east.key))
        argv = compute_args(data, tmp_path / "o.csv", bounds=(45, 46, 7, 9), extra=["--mode", mode])
        assert main(argv) == 2
        named = f"seam mismatch between tiles (45, 7) and (45, 8) at {east.sample_point(60, 0)}"
        assert f"bad data: {named}" in capsys.readouterr().err


class TestWriteCsv:
    def test_formatting_of_result_objects(self, tmp_path):
        peak = Peak(GeoPoint(45.123456789, 7.1), 2000, (45, 7))
        results = [
            IlpResult(peak, GeoPoint(45.2, 7.2), 12345.6789),
            IlpResult(Peak(GeoPoint(45.9, 7.9), 3000, (45, 7)), None, None),
            IlpResult(Peak(GeoPoint(45.5, 7.5), 1500, (45, 7)), GeoPoint(45.6, 7.6), 500.0),
        ]
        buf = io.StringIO()
        count = write_csv(results, buf, min_isolation_m=1000.0)
        lines = buf.getvalue().splitlines()
        assert count == 2  # the 500 m peak is below the threshold
        assert lines[0] == CSV_HEADER
        assert lines[1] == "45.123457,7.100000,2000,12.3457,45.200000,7.200000"
        assert lines[2] == "45.900000,7.900000,3000,-1,,"

    def test_slices_write_the_same_bytes(self, cones_world_dir, tmp_path, monkeypatch):
        whole, sliced = tmp_path / "whole.csv", tmp_path / "sliced.csv"
        extra = ["--min-isolation-km", "0"]
        assert main(compute_args(cones_world_dir, whole, extra=extra)) == 0
        monkeypatch.setattr(cli, "_CSV_SLICE_ROWS", 3)
        assert main(compute_args(cones_world_dir, sliced, extra=extra)) == 0
        rows = len(whole.read_text().splitlines()) - 1
        assert rows > 3
        assert sliced.read_bytes() == whole.read_bytes()

    @staticmethod
    def formatted_row_by_row(results, min_isolation_m: float) -> str:
        """write_csv's output, each field formatted in its own row: the reference."""
        peaks, answers = results
        lines = [CSV_HEADER + "\n"]
        rows = []
        for k in range(len(peaks)):
            distance = float(answers["distance"][k])
            if distance == distance and distance < min_isolation_m:
                continue
            lat, lng, elevation = float(peaks["lat"][k]), float(peaks["lng"][k]), int(peaks["elevation"][k])
            if distance != distance:
                rows.append(((1, 0.0, lat, lng), f"{lat:.6f},{lng:.6f},{elevation},-1,,\n"))
            else:
                km, ilp_lat, ilp_lng = distance / 1000.0, float(answers["lat"][k]), float(answers["lng"][k])
                line = f"{lat:.6f},{lng:.6f},{elevation},{km:.4f},{ilp_lat:.6f},{ilp_lng:.6f}\n"
                rows.append(((0, -km, lat, lng), line))
        return "".join(lines + [line for _key, line in sorted(rows)])

    @pytest.mark.parametrize("slice_rows", [3, 1 << 15])
    def test_matches_row_by_row_formatting(self, monkeypatch, slice_rows):
        # Zero of both signs, negative coordinates, shared and distinct
        # values, and two undefined rows, written 3 rows at a time too.
        nan = float("nan")
        peaks = np.array(
            [
                (0.0, -0.0, 0, 0, -1, np.inf),
                (-0.0, 0.0, -12, -1, 0, np.inf),
                (-45.5, -179.25, 3000, -46, -180, np.inf),
                (-45.5, 179.75, 3000, -46, 179, np.inf),
                (10.125, -0.0, 5, 10, -1, np.inf),
                (89.999999, -7.0000004, 8848, 89, -8, np.inf),
                (-0.5, -0.5, 1, -1, -1, np.inf),
                (-0.5, 0.5, 1, -1, 0, np.inf),
            ],
            dtype=PEAK_DTYPE,
        )
        answers = np.array(
            [
                (1500.0, -0.0, 0.0),
                (2500.0, 0.0, -0.0),
                (nan, nan, nan),
                (1500.0, -45.5, -179.25),
                (999.0, 10.0, -0.0),
                (nan, nan, nan),
                (2500.0, -0.5, -0.25),
                (123456.78901, 0.0, 0.5),
            ],
            dtype=ANSWER_DTYPE,
        )
        results = ResultArrays(peaks, answers)
        monkeypatch.setattr(cli, "_CSV_SLICE_ROWS", slice_rows)
        buf = io.StringIO()
        assert write_csv(results, buf, min_isolation_m=1000.0) == 7
        text = buf.getvalue()
        assert text == self.formatted_row_by_row(results, 1000.0)
        assert "0.000000,-0.000000,0,1.5000,-0.000000,0.000000\n" in text
        assert text.endswith(",-1,,\n")

    def test_order_is_isolation_then_location_with_the_high_point_last(self):
        located = [(45.5, 7.2), (45.1, 7.9), (45.5, 7.1), (45.2, 7.3), (45.3, 7.3), (45.4, 7.3)]
        isolation = np.array([2000.0, np.nan, 2000.0, 0.0, 3000.0, 2000.0])
        peaks = np.array([(lat, lng, 100, 45, 7, np.inf) for lat, lng in located], dtype=PEAK_DTYPE)
        answers = np.array([*zip(isolation, peaks["lat"] + 0.1, peaks["lng"])], dtype=ANSWER_DTYPE)
        answers[np.isnan(isolation)] = (np.nan, np.nan, np.nan)
        results = ResultArrays(peaks, answers)
        buf = io.StringIO()
        assert write_csv(results, buf, min_isolation_m=0.0) == 6
        located = [tuple(line.split(",")[:2]) for line in buf.getvalue().splitlines()[1:]]
        assert located == [
            ("45.300000", "7.300000"),
            ("45.400000", "7.300000"),
            ("45.500000", "7.100000"),
            ("45.500000", "7.200000"),
            ("45.200000", "7.300000"),
            ("45.100000", "7.900000"),
        ]
