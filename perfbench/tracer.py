"""Per-layer trace of one compute run, recorded around calls into isoscan.

``install`` replaces the public functions and methods each layer exposes
with timing wrappers, in the module namespaces their callers look them up
in.  Coarse calls (tile load, peak detection, event build, sweeps, passes,
tile assignment, finalize, CSV) become spans ``[name, start, end, parent]``;
per-sample and per-query calls (tree insert/remove/NN, metric distance and
lower bound) only add to counters, because a span each would cost more
than the call.  Everything stays in memory until the process dumps it as
``trace-<pid>.json``: pool workers after each pass call they run, the main
process at the end.  ``summarize`` turns the dumps into per-layer metrics.

Worker processes get a fresh tracer through the pool initializer, so the
wrappers work under any multiprocessing start method.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

_perf = time.perf_counter

# Spans that are a layer's work.  run_pipeline and the pool wait are not:
# time in them counts as covered only where a layer span runs inside them,
# or, for the pool wait, in a pool worker.
LAYER_SPANS = (
    "dem.load_hgt",
    "dem.detect_peaks",
    "dem.downsample",
    "dem.build_events",
    "sweep.run_sweep",
    "multipass.bounding_pass",
    "multipass.highpoint_pass",
    "multipass.finalization_pass",
    "multipass.tile_keys_within",
    "spatial_index.tiles_within",
    "multipass.finalize",
    "cli.write_csv",
)
_TREE_SECONDS = ("spatial_index.insert_s", "spatial_index.remove_s", "spatial_index.nn_s")


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Tracer:
    """Spans and counters of one process."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.worker = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = {}

    def become_worker(self) -> None:
        """Drop what a forked worker inherited; the wrappers keep these containers."""
        self.worker = True
        for box in (self.spans, self.stack, self.counts, self.maxima, self.extra):
            box.clear()

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, _perf(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = _perf()
        self.stack.pop()
        return span[2] - span[1]

    def enclosing(self, names: tuple[str, ...]) -> str | None:
        for idx in reversed(self.stack):
            if self.spans[idx][0] in names:
                return self.spans[idx][0]
        return None

    def dump(self) -> None:
        state = {
            "pid": os.getpid(),
            "worker": self.worker,
            "spans": self.spans,
            "counts": self.counts,
            "maxima": self.maxima,
            "extra": self.extra,
        }
        path = self.out_dir / f"trace-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(state))
        tmp.replace(path)


_tracer: Tracer | None = None


def _worker_start(out_dir: str) -> None:
    if _tracer is None:
        install(Path(out_dir))
    _tracer.become_worker()


class _CountingMetric:
    """Distance metric that counts and times distance and bound calls."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.model = inner.model
        self._counts = tracer.counts

    def distance(self, a, b):
        t = _perf()
        d = self.inner.distance(a, b)
        c = self._counts
        c["geo.distance_s"] += _perf() - t
        c["geo.distance_calls"] += 1
        return d

    def lower_bound(self, q, p):
        t = _perf()
        b = self.inner.lower_bound(q, p)
        c = self._counts
        c["quad.lower_bound_s"] += _perf() - t
        c["quad.lower_bound_calls"] += 1
        return b

    def distance_many(self, lats, lngs, p):
        return self.inner.distance_many(lats, lngs, p)


def _spanned(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(result)
        if tracer.worker and not tracer.stack:
            tracer.dump()
        return result

    return wrapper


def _counted(counts, seconds_key: str, calls_key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args):
        t = _perf()
        result = fn(*args)
        counts[seconds_key] += _perf() - t
        counts[calls_key] += 1
        return result

    return wrapper


def install(out_dir: Path) -> Tracer:
    """Wrap isoscan's layer boundaries in this process; returns the tracer."""
    global _tracer
    from isoscan import cli, multipass as mp, spatial_index as si

    tracer = Tracer(out_dir)
    _tracer = tracer
    counts, maxima = tracer.counts, tracer.maxima

    def bump(key, n):
        counts[key] += n

    def add_len(key):
        return lambda result: bump(key, len(result))

    cli.load_hgt = _spanned(
        tracer, "dem.load_hgt", cli.load_hgt, after=lambda tile: bump("dem.voids_filled", tile.voids_filled)
    )
    mp.detect_peaks = _spanned(tracer, "dem.detect_peaks", mp.detect_peaks, after=add_len("dem.peaks_detected"))
    mp.downsample = _spanned(tracer, "dem.downsample", mp.downsample)

    rss_before: list[float] = []

    def events_done(events):
        bump("dem.events", len(events))
        grown = _rss_mb() - rss_before.pop()
        maxima["dem.build_events_rss_mb"] = max(maxima["dem.build_events_rss_mb"], grown)

    mp.build_events = _spanned(
        tracer, "dem.build_events", mp.build_events,
        before=lambda args, kwargs: rss_before.append(_rss_mb()), after=events_done,
    )

    run_sweep = mp.run_sweep

    @functools.wraps(run_sweep)
    def traced_run_sweep(events, bounds, metric, **kwargs):
        tree_before = sum(counts[k] for k in _TREE_SECONDS)
        idx = tracer.begin("sweep.run_sweep")
        try:
            results = run_sweep(events, bounds, _CountingMetric(metric, tracer), **kwargs)
        finally:
            pass_name = tracer.enclosing(("multipass.bounding_pass", "multipass.finalization_pass"))
            seconds = tracer.end(idx)
        counts["sweep.self_s"] += seconds - (sum(counts[k] for k in _TREE_SECONDS) - tree_before)
        if pass_name == "multipass.bounding_pass":
            counts["sweep.bounding_sweep_s"] += seconds
        else:
            counts["sweep.final_sweep_s"] += seconds
        return results

    mp.run_sweep = traced_run_sweep

    tree = si.SphereKdTree
    insert = tree.insert

    def traced_insert(self, p):
        t = _perf()
        insert(self, p)
        counts["spatial_index.insert_s"] += _perf() - t
        counts["spatial_index.inserts"] += 1
        n = len(self)
        if n > maxima["spatial_index.max_active"]:
            maxima["spatial_index.max_active"] = n

    tree.insert = functools.wraps(insert)(traced_insert)
    tree.remove = _counted(counts, "spatial_index.remove_s", "spatial_index.removes", tree.remove)
    tree.nearest_neighbor = _counted(
        counts, "spatial_index.nn_s", "spatial_index.nn_queries", tree.nearest_neighbor
    )
    si.TileIndex.nearest_higher_tile = _counted(
        counts, "spatial_index.tile_nn_s", "spatial_index.tile_nn_queries", si.TileIndex.nearest_higher_tile
    )
    si.TileIndex.tiles_within = _spanned(tracer, "spatial_index.tiles_within", si.TileIndex.tiles_within)

    def task_bytes(args, kwargs):
        bump("multipass.task_bytes", len(pickle.dumps((args, kwargs), pickle.HIGHEST_PROTOCOL)))

    mp.bounding_pass = _spanned(tracer, "multipass.bounding_pass", mp.bounding_pass, before=task_bytes)
    mp.highpoint_pass = _spanned(tracer, "multipass.highpoint_pass", mp.highpoint_pass, before=task_bytes)
    mp.finalization_pass = _spanned(
        tracer, "multipass.finalization_pass", mp.finalization_pass,
        before=task_bytes, after=add_len("multipass.candidates"),
    )
    mp.tile_keys_within = _spanned(tracer, "multipass.tile_keys_within", mp.tile_keys_within)
    mp.finalize = _spanned(tracer, "multipass.finalize", mp.finalize)
    mp.run_pipeline = cli.run_pipeline = _spanned(
        tracer, "multipass.run_pipeline", mp.run_pipeline, after=lambda out: _pipeline_counts(tracer, out)
    )
    mp.ProcessPoolExecutor = _TracedPool
    cli.write_csv = _spanned(
        tracer, "cli.write_csv", cli.write_csv,
        after=lambda rows: bump("cli.csv_rows", rows),
    )
    return tracer


class _TracedPool(ProcessPoolExecutor):
    """Pool whose workers trace too; ``map`` records the caller's wait."""

    def __init__(self, max_workers=None, **kwargs):
        super().__init__(
            max_workers, initializer=_worker_start, initargs=(str(_tracer.out_dir),), **kwargs
        )

    def map(self, fn, *iterables, **kwargs):
        idx = _tracer.begin("multipass.pool_wait")
        try:
            results = list(super().map(fn, *iterables, **kwargs))
        finally:
            _tracer.end(idx)
        return iter(results)


def _pipeline_counts(tracer: Tracer, outcome) -> None:
    """Counts read off the pipeline's result: peak fates, fan-out, bound tightness."""
    extra = tracer.extra
    stats = outcome.stats
    extra["multipass.peaks_kept"] = stats.peaks_kept
    extra["multipass.peaks_deferred"] = stats.deferred
    extra["multipass.peaks_discarded"] = stats.discarded
    extra["multipass.resolved"] = sum(1 for r in outcome.results if r.ilp is not None)
    fanned = [len(entries) for entries in outcome.map_snapshot.values()]
    assigned = {loc for entries in outcome.map_snapshot.values() for loc, _ in entries}
    extra["multipass.tiles_per_peak"] = sum(fanned) / max(1, len(assigned))
    iso = {r.peak.location: r.isolation_m for r in outcome.results if r.isolation_m}
    ratios = [b / iso[loc] for loc, bounds in outcome.bounds_by_peak.items() if loc in iso for b in bounds]
    p50, p90 = np.percentile(ratios, [50, 90]) if ratios else (0.0, 0.0)
    extra["multipass.bound_tightness_p50"] = float(p50)
    extra["multipass.bound_tightness_p90"] = float(p90)


def _durations(spans) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for name, t0, t1, _parent in spans:
        out[name] += t1 - t0
    return out


def _outermost_layer_spans(spans) -> list[tuple[float, float]]:
    """Intervals of the layer spans that no other layer span encloses."""
    out = []
    for name, t0, t1, parent in spans:
        if name not in LAYER_SPANS:
            continue
        while parent != -1 and spans[parent][0] not in LAYER_SPANS:
            parent = spans[parent][3]
        if parent == -1:
            out.append((t0, t1))
    return out


def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for t0, t1 in sorted(intervals):
        if merged and t0 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], t1)
        else:
            merged.append([t0, t1])
    return [(t0, t1) for t0, t1 in merged]


def _intersect(a, b) -> list[tuple[float, float]]:
    """Intersection of two sorted, disjoint interval lists."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if hi > lo:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _layer_coverage(main: dict, workers: list[dict]) -> float:
    """Share of the main process's wall time, first tile load to CSV written,
    during which a layer span runs: in the main process itself, or in a
    pool worker while the main process waits on the pool.  Pool start-up,
    task and result pickling, transport, and worker time outside any layer
    span are all uncovered.
    """
    spans = main["spans"]
    start = min(t0 for name, t0, _t1, _p in spans if name == "dem.load_hgt")
    end = max(t1 for name, _t0, t1, _p in spans if name == "cli.write_csv")
    waits = _union((t0, t1) for name, t0, t1, _p in spans if name == "multipass.pool_wait")
    in_workers = _union(iv for w in workers for iv in _outermost_layer_spans(w["spans"]))
    covered = _union(_outermost_layer_spans(spans) + _intersect(in_workers, waits))
    return sum(t1 - t0 for t0, t1 in covered) / (end - start)


def summarize(out_dir: Path, workers: int, csv_bytes: int) -> dict[str, float]:
    """Per-layer metrics from every ``trace-*.json`` in ``out_dir``."""
    states = [json.loads(p.read_text()) for p in sorted(Path(out_dir).glob("trace-*.json"))]
    main = [s for s in states if not s["worker"]]
    if len(main) != 1:
        raise RuntimeError(f"expected one main-process trace, found {len(main)}")
    main = main[0]
    counts: dict[str, float] = defaultdict(float)
    maxima: dict[str, float] = defaultdict(float)
    spans: dict[str, float] = defaultdict(float)
    for s in states:
        for k, v in s["counts"].items():
            counts[k] += v
        for k, v in s["maxima"].items():
            maxima[k] = max(maxima[k], v)
        for k, v in _durations(s["spans"]).items():
            spans[k] += v
    extra = main["extra"]

    pipeline_wall = _durations(main["spans"])["multipass.run_pipeline"]
    queries = max(1.0, counts["spatial_index.nn_queries"])
    task_s = spans["multipass.bounding_pass"] + spans["multipass.highpoint_pass"] + spans["multipass.finalization_pass"]

    return {
        "dem.load_hgt_s": spans["dem.load_hgt"],
        "dem.voids_filled": counts["dem.voids_filled"],
        "dem.detect_peaks_s": spans["dem.detect_peaks"],
        "dem.peaks_detected": counts["dem.peaks_detected"],
        "dem.downsample_s": spans["dem.downsample"],
        "dem.build_events_s": spans["dem.build_events"],
        "dem.events": counts["dem.events"],
        "dem.build_events_rss_mb": maxima["dem.build_events_rss_mb"],
        "spatial_index.insert_s": counts["spatial_index.insert_s"],
        "spatial_index.inserts": counts["spatial_index.inserts"],
        "spatial_index.remove_s": counts["spatial_index.remove_s"],
        "spatial_index.removes": counts["spatial_index.removes"],
        "spatial_index.nn_s": counts["spatial_index.nn_s"],
        "spatial_index.nn_queries": counts["spatial_index.nn_queries"],
        "spatial_index.max_active": maxima["spatial_index.max_active"],
        "spatial_index.tile_nn_s": counts["spatial_index.tile_nn_s"],
        "spatial_index.tiles_within_s": spans["spatial_index.tiles_within"],
        "geo.distance_calls": counts["geo.distance_calls"],
        "geo.distance_calls_per_query": counts["geo.distance_calls"] / queries,
        "geo.distance_s": counts["geo.distance_s"],
        "quad.lower_bound_calls": counts["quad.lower_bound_calls"],
        "quad.lower_bound_calls_per_query": counts["quad.lower_bound_calls"] / queries,
        "quad.lower_bound_s": counts["quad.lower_bound_s"],
        "sweep.bounding_sweep_s": counts["sweep.bounding_sweep_s"],
        "sweep.final_sweep_s": counts["sweep.final_sweep_s"],
        "sweep.self_s": counts["sweep.self_s"],
        "multipass.bounding_s": spans["multipass.bounding_pass"],
        "multipass.highpoint_s": spans["multipass.highpoint_pass"],
        "multipass.assign_s": spans["multipass.tile_keys_within"] + spans["spatial_index.tiles_within"],
        "multipass.finalization_s": spans["multipass.finalization_pass"],
        "multipass.finalize_s": spans["multipass.finalize"],
        "multipass.peaks_kept": extra["multipass.peaks_kept"],
        "multipass.peaks_deferred": extra["multipass.peaks_deferred"],
        "multipass.peaks_discarded": extra["multipass.peaks_discarded"],
        "multipass.tiles_per_peak": extra["multipass.tiles_per_peak"],
        "multipass.bound_tightness_p50": extra["multipass.bound_tightness_p50"],
        "multipass.bound_tightness_p90": extra["multipass.bound_tightness_p90"],
        "multipass.candidates": counts["multipass.candidates"],
        "multipass.candidate_yield": extra["multipass.resolved"] / max(1.0, counts["multipass.candidates"]),
        "multipass.task_bytes": counts["multipass.task_bytes"],
        "multipass.worker_utilization": task_s / (pipeline_wall * workers),
        "cli.write_csv_s": spans["cli.write_csv"],
        "cli.csv_rows": counts["cli.csv_rows"],
        "cli.csv_bytes": float(csv_bytes),
        "trace.layer_coverage": _layer_coverage(main, [s for s in states if s["worker"]]),
    }
