"""One ``isoscan compute`` run in a fresh process, through the CLI's own entry point.

Usage: ``python child.py '<json>'`` with keys ``spawned`` (the parent's
``time.perf_counter()`` just before starting this process; the clock is
system-wide on Linux), ``argv`` (the arguments of ``isoscan compute``,
``--output`` included), ``load_only`` (stop once the tiles are loaded) and
``trace_dir`` (null for an untraced run).  Prints one JSON line with the
timestamps of "tiles loaded" and "CSV written", and in a traced run the
per-layer metrics.
"""

import json
import sys
import time
from pathlib import Path

cfg = json.loads(sys.argv[1])
trace_dir = cfg["trace_dir"]
if trace_dir is not None:
    import tracer

    traced = tracer.install(Path(trace_dir))

from isoscan import cli

report = {"spawned": cfg["spawned"]}
load_area_tiles = cli.load_area_tiles


def timed_load(*args, **kwargs):
    tiles = load_area_tiles(*args, **kwargs)
    report["loaded"] = time.perf_counter()
    if cfg["load_only"]:
        print(json.dumps(report))
        sys.exit(0)
    return tiles


cli.load_area_tiles = timed_load
status = cli.main(cfg["argv"])
if status != 0:
    sys.exit(status)
report["written"] = time.perf_counter()
if trace_dir is not None:
    traced.dump()
    args = cli.build_parser().parse_args(cfg["argv"])
    report["layers"] = tracer.summarize(Path(trace_dir), args.threads, args.output.stat().st_size)
print(json.dumps(report))
