"""Peak isolation from tiled digital elevation models.

Computes, for every mountain peak in a search area, the distance to the
nearest strictly higher ground: a tile-parallel three-pass pipeline that
queries per-tile max-elevation pyramids, the paper's top-down sweep over a
k-d tree of the swept grid's samples, built once and counting the active
ones, as the single-sweep reference, and a brute-force oracle for
verification.

The names below are resolved on first access (PEP 562), so that importing
the package loads no numpy: ``isoscan.cli`` sets the BLAS thread count
before numpy is first imported.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {
    "GeoPoint": "geo",
    "Quadrilateral": "quad",
    "Tile": "dem",
    "generate_synthetic": "dem",
    "load_hgt": "dem",
    "save_hgt": "dem",
    "EllipsoidMetric": "spatial_index",
    "GreatCircleMetric": "spatial_index",
    "SphereKdTree": "spatial_index",
    "ResultArrays": "sweep",
    "run_sweep": "sweep",
    "SampleUniverse": "oracle",
    "brute_force_all": "oracle",
    "run_merged_sweep": "multipass",
    "run_pipeline": "multipass",
    "result_differences": "multipass",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
