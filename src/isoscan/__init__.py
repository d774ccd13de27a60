"""Peak isolation from tiled digital elevation models.

Computes, for every mountain peak in a search area, the distance to the
nearest strictly higher ground: a tile-parallel three-pass pipeline that
queries per-tile max-elevation pyramids, the paper's top-down sweep over a
k-d tree of the swept grid's samples, built once and counting the active
ones, as the single-sweep reference, and a brute-force oracle for
verification.
"""

from .geo import GeoPoint
from .quad import Quadrilateral
from .dem import Peak, Tile, generate_synthetic, load_hgt, save_hgt
from .spatial_index import EllipsoidMetric, GreatCircleMetric, SphereKdTree
from .sweep import IlpResult, run_sweep
from .oracle import SampleUniverse, brute_force_all
from .multipass import run_merged_sweep, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "GeoPoint",
    "Quadrilateral",
    "Peak",
    "Tile",
    "generate_synthetic",
    "load_hgt",
    "save_hgt",
    "EllipsoidMetric",
    "GreatCircleMetric",
    "SphereKdTree",
    "IlpResult",
    "run_sweep",
    "SampleUniverse",
    "brute_force_all",
    "run_merged_sweep",
    "run_pipeline",
    "__version__",
]
