"""Single-sweep resolution of peak isolation from a sorted event sequence.

A conceptual plane descends through the elevations.  Samples become active
at their insert event and inactive at their remove event; at a peak event
every active point is strictly higher than the peak (peaks sort before
same-elevation inserts), so the nearest active point is the peak's
isolation limit point.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .dem import EVENT_INSERT, EVENT_REMOVE, Event, Peak
from .geo import GeoPoint
from .quad import Quadrilateral
from .spatial_index import PointNotFoundError, SphereKdTree

__all__ = [
    "IlpResult",
    "PeakTrace",
    "SweepConsistencyError",
    "SweepInvariantError",
    "run_sweep",
    "assert_sweep_invariant",
]


class SweepConsistencyError(RuntimeError):
    """Event stream violated the sweep contract (e.g. removing an absent point)."""


class SweepInvariantError(AssertionError):
    """An active point was not strictly higher than a processed peak."""


@dataclass(frozen=True)
class IlpResult:
    """A peak's isolation limit point, or none for the area's highest point."""

    peak: Peak
    ilp: Optional[GeoPoint]
    isolation_m: Optional[float]


class PeakTrace(NamedTuple):
    """Instrumentation record captured at one peak event."""

    event_index: int
    peak_elevation_m: int
    active_count: int
    min_active_elevation_m: Optional[int]


def run_sweep(
    events: Sequence[Event],
    bounds: Quadrilateral,
    metric,
    trace_sink: Optional[list[PeakTrace]] = None,
) -> list[IlpResult]:
    """Process a descending event sequence and resolve every peak event.

    Args:
        events: sorted per the ``build_events`` contract.
        bounds: quadrilateral covering all insert points.
        metric: distance metric used for the nearest-neighbor queries.
        trace_sink: when given, a :class:`PeakTrace` is appended per peak
            event for invariant checking.

    Returns:
        One result per peak event, sorted by peak location.  A peak that
        sees no active point (the area's highest) gets ``ilp=None``.
    """
    tree = SphereKdTree(bounds)
    results: list[IlpResult] = []
    instrument = trace_sink is not None
    if instrument:
        elevation_of: dict[GeoPoint, int] = {}
        level_counts: Counter[int] = Counter()
        level_heap: list[int] = []

    for index, ev in enumerate(events):
        kind = ev.kind
        if kind == EVENT_INSERT:
            tree.insert(ev.point)
            if instrument:
                elevation_of[ev.point] = ev.elevation_m
                level_counts[ev.elevation_m] += 1
                heapq.heappush(level_heap, ev.elevation_m)
        elif kind == EVENT_REMOVE:
            try:
                tree.remove(ev.point)
            except PointNotFoundError as exc:
                raise SweepConsistencyError(
                    f"event {index}: remove of absent point {ev.point}"
                ) from exc
            if instrument:
                level_counts[elevation_of.pop(ev.point)] -= 1
        else:
            if instrument:
                while level_heap and level_counts[level_heap[0]] == 0:
                    heapq.heappop(level_heap)
                trace_sink.append(
                    PeakTrace(
                        index,
                        ev.elevation_m,
                        len(tree),
                        level_heap[0] if level_heap else None,
                    )
                )
            if len(tree) == 0:
                results.append(IlpResult(ev.peak, None, None))
            else:
                point, dist = tree.nearest_neighbor(ev.point, metric)
                results.append(IlpResult(ev.peak, point, dist))

    if len(tree) != 0:
        raise SweepConsistencyError(f"{len(tree)} points still active after the last event")
    results.sort(key=lambda r: r.peak.location)
    return results


def assert_sweep_invariant(trace: Sequence[PeakTrace]) -> None:
    """Check that every peak event saw only strictly higher active points."""
    for entry in trace:
        if entry.active_count > 0 and entry.min_active_elevation_m <= entry.peak_elevation_m:
            raise SweepInvariantError(
                f"event {entry.event_index}: active point at "
                f"{entry.min_active_elevation_m} m not above peak at "
                f"{entry.peak_elevation_m} m"
            )
