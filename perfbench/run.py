"""Isolation benchmark: one workload, timed end to end, answers checked independently.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's HGT files are written from the seed, then each timed round
runs ``child.py`` in a fresh process, which runs ``isoscan compute``
through the CLI's entry point: import isoscan, load the tiles, run the
multi-pass pipeline, write the CSV.  Rounds repeat until they have
measured ``--seconds`` in total.  Extra processes that stop after loading
give the set-up time.  After the timed part every CSV is checked by
``checks.py``, and on multi-worker workloads compared byte for byte with a
1-worker run.  With ``--trace 1`` one more round runs with ``tracer.py``
installed and the per-layer metrics are reported instead of the
end-to-end ones.  The last stdout line is one JSON object with
``correct``, ``attempted`` (CSV rows checked), ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy

import checks
from workloads import MIN_ISOLATION_M, STRIDE, by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170.0


def run_child(cfg: dict) -> tuple[dict, resource.struct_rusage]:
    """Run ``child.py`` once; returns its report and the rusage of its process tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cfg = dict(cfg, spawned=time.perf_counter())
    # Own process group, so a timeout also stops the child's pool workers.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE,
        env=env,
        start_new_session=True,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        out = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1]), usage


def compute_args(workload, data_dir: Path, csv: Path, threads: int) -> list[str]:
    """The ``isoscan compute`` arguments a user would give for this workload."""
    lat_min, lat_max, lng_min, lng_max = workload.bounds
    return [
        "compute",
        "--data-dir", str(data_dir),
        "--bounds", str(lat_min), str(lat_max), str(lng_min), str(lng_max),
        "--threads", str(threads),
        "--stride", str(STRIDE),
        "--min-isolation-km", repr(MIN_ISOLATION_M / 1000.0),
        "--output", str(csv),
    ]


def measure(workload, data_dir: Path, work: Path, seconds: float, trace: bool):
    def child_cfg(csv: Path, threads=workload.threads, load_only=False, trace_dir=None) -> dict:
        return {
            "argv": compute_args(workload, data_dir, csv, threads),
            "load_only": load_only,
            "trace_dir": trace_dir,
        }

    setups = []
    for _ in range(SETUP_PROBES):
        rep, _usage = run_child(child_cfg(work / "never-written.csv", load_only=True))
        setups.append(rep["loaded"] - rep["spawned"])

    rounds = []
    while not rounds or sum(r["wall_s"] for r in rounds) < seconds:
        csv = work / f"round{len(rounds)}.csv"
        rep, usage = run_child(child_cfg(csv))
        wall = rep["written"] - rep["spawned"]
        setup = rep["loaded"] - rep["spawned"]
        setups.append(setup)
        rounds.append(
            {
                "wall_s": wall,
                "samples_per_s": workload.samples / (wall - setup),
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "csv": csv.read_text(encoding="ascii"),
            }
        )
    e2e = {k: statistics.median(r[k] for r in rounds) for k in ("wall_s", "samples_per_s", "cpu_s", "peak_rss_mb")}
    e2e["setup_s"] = statistics.median(setups)

    traced = None
    if trace:
        trace_dir = work / "trace"
        trace_dir.mkdir()
        csv = work / "traced.csv"
        rep, _usage = run_child(child_cfg(csv, trace_dir=str(trace_dir)))
        traced = {
            "layers": rep["layers"],
            "overhead": (rep["written"] - rep["spawned"]) / e2e["wall_s"],
            "csv": csv.read_text(encoding="ascii"),
            "states": [json.loads(p.read_text()) for p in sorted(trace_dir.glob("trace-*.json"))],
        }

    reference = None
    if workload.threads > 1:
        reference = reference_csv(workload, data_dir, lambda csv: child_cfg(csv, threads=1))
    return e2e, rounds, traced, reference


def reference_csv(workload, data_dir: Path, child_cfg) -> str:
    """CSV of a 1-worker run, cached until anything that could change it changes.

    A fixed world (fractal6x6-121-w2) then pays for its reference run once
    per checkout instead of once per benchmark run.  The cache holds one
    file per workload and scale; its first line is a digest of the source
    tree, the benchmark's child, the Python and numpy versions, the
    settings and the inputs.
    """
    digest = hashlib.sha256()
    settings = [sys.version, numpy.__version__, workload.bounds, STRIDE, MIN_ISOLATION_M]
    digest.update(json.dumps(settings).encode())
    sources = [p for p in sorted(SRC.rglob("*")) if p.is_file() and "__pycache__" not in p.parts]
    inputs = sorted(data_dir.glob("*.hgt"))
    for path in sources + [HERE / "child.py"] + inputs:
        # An input goes by its file name alone: every run writes its inputs
        # to a directory of its own.
        name = path.name if path in inputs else str(path.relative_to(ROOT))
        digest.update(name.encode() + b"\0" + path.read_bytes())
    key = digest.hexdigest()
    cached = WORK / "reference" / f"{workload.name}-{workload.samples_per_side}.csv"
    if cached.exists():
        stored_key, _, text = cached.read_text(encoding="ascii").partition("\n")
        if stored_key == key:
            return text
    cached.parent.mkdir(parents=True, exist_ok=True)
    tmp = cached.with_suffix(f".{os.getpid()}.tmp")
    try:
        run_child(child_cfg(tmp))
        text = tmp.read_text(encoding="ascii")
        tmp.write_text(key + "\n" + text, encoding="ascii")
        tmp.replace(cached)
    finally:
        tmp.unlink(missing_ok=True)
    return text


def check(workload, written, data_dir: Path, rounds, traced, reference):
    """Returns (rows checked, rows failed, failure reasons, problems that void the run)."""
    from isoscan.dem import hgt_filename, load_hgt

    problems = []
    grids = {}
    for key, grid in written.items():
        tile = load_hgt(data_dir / hgt_filename(*key), origin=key)
        problems += [f"load {key}: {p}" for p in checks.check_load(grid, tile.elevations, tile.voids_filled)]
        grids[key] = tile.elevations
    area = checks.Area(grids, workload.samples_per_side - 1)

    attempted = failed = 0
    reasons: dict[str, int] = {}
    reports: dict[str, checks.Report] = {}
    for r in rounds:
        text = r["csv"]
        if text not in reports:
            try:
                rep = checks.check_rows(area, checks.parse_csv(text), MIN_ISOLATION_M)
                if reference is not None:
                    checks.compare_to_reference(rep, text, reference)
            except ValueError as exc:
                problems.append(f"malformed CSV: {exc}")
                rep = checks.Report(checked=1, failures={"csv": [f"malformed: {exc}"]})
            reports[text] = rep
        rep = reports[text]
        attempted += rep.checked
        failed += rep.failed
        for reason, n in rep.reasons().items():
            reasons[reason] = reasons.get(reason, 0) + n
    if traced is not None and traced["csv"] != rounds[0]["csv"]:
        problems.append("traced CSV differs from the untraced CSV")
    return attempted, failed, reasons, problems


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: miniature worlds for tests")
    args = parser.parse_args(argv)

    if not (SRC / "isoscan" / "__init__.py").is_file():
        print(f"perfbench: isoscan sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = by_name(args.scale)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    workload = workloads[args.workload]
    declared = declared_metrics(bool(args.trace))

    work = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        data_dir = work / "tiles"
        written = workload.write_inputs(args.seed, data_dir)
        e2e, rounds, traced, reference = measure(workload, data_dir, work, args.seconds, bool(args.trace))
        attempted, failed, reasons, problems = check(workload, written, data_dir, rounds, traced, reference)
        if traced is not None:
            trace_file = WORK / "traces" / f"{workload.name}-seed{args.seed}.json"
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            trace_file.write_text(json.dumps(traced["states"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = e2e if traced is None else dict(traced["layers"], **{"trace.overhead": traced["overhead"]})
    values = {m["name"]: (measured[m["name"]], m["unit"]) for m in declared}

    print(f"workload {workload.name}  seed {args.seed}  rounds {len(rounds)}  samples {workload.samples}")
    print("  round wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in rounds))
    for name, (value, unit) in values.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(f"  rows checked {attempted}, rows failed {failed}")
    for reason, n in sorted(reasons.items()):
        print(f"    failed: {reason}: {n}")
    for p in problems:
        print(f"  problem: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
