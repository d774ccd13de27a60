"""Single-sweep resolution of peak isolation from a sorted event sequence.

A conceptual plane descends through the elevations.  Samples become active
at their insert event and inactive at their remove event; at a peak event
every active point is strictly higher than the peak (peaks sort before
same-elevation inserts), so the nearest active point is the peak's
isolation limit point.
Events are sample ids into the swept grid.  The active samples live in a
k-d tree built once over that grid, which counts them by id; a point is made
only for a peak's query and answer, and for the active samples of the tree's
leaves a query scans.  The results of the sweep, the pipeline and the oracle
share one format, :class:`ResultArrays`.
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import count
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .dem import EVENT_INSERT, EVENT_PEAK, Tile
from .geo import GeoPoint, wrap_longitude_many
from .spatial_index import CANDIDATE_DTYPE, SampleStateError, SphereKdTree

__all__ = [
    "ANSWER_DTYPE",
    "ResultArrays",
    "PeakTrace",
    "SweepConsistencyError",
    "SweepInvariantError",
    "run_sweep",
    "assert_sweep_invariant",
]

# One peak's answer: the distance to its nearest strictly higher sample and
# that sample's location, all NaN when it has none (the search-area high
# point).
ANSWER_DTYPE = np.dtype([("distance", np.float64), ("lat", np.float64), ("lng", np.float64)])

# Events run_sweep reads into Python values at a time, so that it holds those
# of one slice of the events, not of all of them.
_SLICE_EVENTS = 1 << 15


class ResultArrays(NamedTuple):
    """Peaks and their answers: parallel :data:`~isoscan.dem.PEAK_DTYPE` and
    :data:`ANSWER_DTYPE` rows."""

    peaks: np.ndarray
    answers: np.ndarray


class SweepConsistencyError(RuntimeError):
    """Event stream violated the sweep contract (e.g. removing an absent point)."""


class SweepInvariantError(AssertionError):
    """An active point was not strictly higher than a processed peak."""


class PeakTrace(NamedTuple):
    """Instrumentation record captured at one peak event."""

    event_index: int
    peak_elevation_m: int
    active_count: int
    min_active_elevation_m: Optional[int]


def run_sweep(
    events: np.ndarray,
    grid: Tile,
    metric,
    trace_sink: Optional[list[PeakTrace]] = None,
) -> np.ndarray:
    """Process a descending event sequence and resolve every peak event.

    Args:
        events: :data:`~isoscan.dem.EVENT_DTYPE` rows over ``grid``, sorted
            per the ``build_events`` contract.
        grid: the grid whose samples the events index.
        metric: distance metric used for the nearest-neighbor queries.
        trace_sink: when given, a :class:`PeakTrace` is appended per peak
            event for invariant checking.

    Returns:
        One :data:`~isoscan.spatial_index.CANDIDATE_DTYPE` row per peak event
        that sees an active point, in event order, ``peak`` being the peak's
        sample.  A peak that sees none (the area's highest) has no row.
    """
    lats = grid.sample_lats().tolist()
    lngs = wrap_longitude_many(grid.sample_lngs()).tolist()
    tree = SphereKdTree(lats, lngs)
    insert, remove = tree.insert, tree.remove
    cols = grid.shape[1]
    elevations = grid.elevations.reshape(-1)
    found: list[tuple[int, float, float, float]] = []
    instrument = trace_sink is not None
    if instrument:
        # The elevations of the active samples, as counts and a lazy min-heap.
        level_counts: Counter[int] = Counter()
        level_heap: list[int] = []

    for start in range(0, len(events), _SLICE_EVENTS):
        part = events[start : start + _SLICE_EVENTS]
        samples = part["sample"]
        for index, sample, kind, elevation in zip(
            count(start),
            samples.tolist(),
            part["kind"].tolist(),
            elevations[samples].tolist(),
        ):
            if kind == EVENT_PEAK:
                if instrument:
                    while level_heap and level_counts[level_heap[0]] == 0:
                        heapq.heappop(level_heap)
                    lowest = level_heap[0] if level_heap else None
                    trace_sink.append(PeakTrace(index, elevation, len(tree), lowest))
                if len(tree):
                    row, col = divmod(sample, cols)
                    ilp, distance = tree.nearest_neighbor(GeoPoint(lats[row], lngs[col]), metric)
                    found.append((sample, distance, *ilp))
                continue
            inserting = kind == EVENT_INSERT
            try:
                (insert if inserting else remove)(sample)
            except SampleStateError as exc:
                raise SweepConsistencyError(f"event {index}: {exc}") from exc
            if instrument:
                level_counts[elevation] += 1 if inserting else -1
                if inserting:
                    heapq.heappush(level_heap, elevation)

    if len(tree) != 0:
        raise SweepConsistencyError(f"{len(tree)} points still active after the last event")
    return np.array(found, dtype=CANDIDATE_DTYPE)


def assert_sweep_invariant(trace: Sequence[PeakTrace]) -> None:
    """Check that every peak event saw only strictly higher active points."""
    for entry in trace:
        if entry.active_count > 0 and entry.min_active_elevation_m <= entry.peak_elevation_m:
            raise SweepInvariantError(
                f"event {entry.event_index}: active point at "
                f"{entry.min_active_elevation_m} m not above peak at "
                f"{entry.peak_elevation_m} m"
            )
