"""Latitude/longitude-aligned quadrilaterals and point predicates.

Quadrilaterals never span the antimeridian (the coordinate domain is split
there), so the west edge longitude is always <= the east edge longitude.
Containment is closed: boundary points count as inside, which keeps
``min_distance(q, p) == 0`` equivalent to ``contains(q, p)``.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .geo import (
    GeoPoint,
    great_circle_distance,
    great_circle_distance_many,
    wrap_longitude,
    wrap_longitude_many,
)

__all__ = ["Quadrilateral", "contains", "min_distance", "min_distance_many"]


class Quadrilateral(namedtuple("Quadrilateral", ["lat_min", "lat_max", "lng_min", "lng_max"])):
    """Closed lat/lng box in degrees, west edge <= east edge."""

    __slots__ = ()

    def __new__(cls, lat_min: float, lat_max: float, lng_min: float, lng_max: float):
        if lat_min > lat_max:
            raise ValueError(f"lat_min {lat_min} > lat_max {lat_max}")
        if lng_min > lng_max:
            raise ValueError(f"lng_min {lng_min} > lng_max {lng_max} (no antimeridian spans)")
        return super().__new__(cls, lat_min, lat_max, lng_min, lng_max)

    @property
    def center_lng(self) -> float:
        return (self.lng_min + self.lng_max) * 0.5


def contains(q: Quadrilateral, p: GeoPoint) -> bool:
    """Closed containment test by coordinate comparison."""
    return (
        q.lat_min <= p.lat_deg <= q.lat_max
        and q.lng_min <= p.lng_deg <= q.lng_max
    )


def min_distance(q: Quadrilateral, p: GeoPoint) -> float:
    """Great-circle distance from ``p`` to the closest point of ``q``, in meters.

    Inside ``q`` the distance is zero; between the longitude edges it is the
    meridian arc to the nearer latitude edge.  Otherwise the closest point
    lies on the nearer longitude edge, at longitude ``lng``.  On that
    meridian the cosine of the distance from ``p`` to latitude ``t`` is
    proportional to ``cos(t - t0)``, with ``t0 = atan2(sin(p.lat),
    cos(p.lat) * cos(p.lng - lng))``.  When ``cos(p.lng - lng) > 0``, ``t0`` is
    the foot of the perpendicular from ``p`` and the distance grows away from
    it, so the closest point is the foot clamped to the edge.  Otherwise the
    foot lies on the opposite meridian and ``t0 + 180``, where the distance
    peaks, lies within [-90, 90]; the distance falls toward both ends of the
    edge, so the closest point is the nearer corner.
    """
    if q.lng_min <= p.lng_deg <= q.lng_max:
        if p.lat_deg > q.lat_max:
            return great_circle_distance(p, GeoPoint(q.lat_max, p.lng_deg))
        if p.lat_deg < q.lat_min:
            return great_circle_distance(p, GeoPoint(q.lat_min, p.lng_deg))
        return 0.0

    # Rotate so the center longitude of q maps to the prime meridian; the
    # sign of p's rotated longitude picks the nearer longitude edge.  Valid
    # because q never spans the antimeridian.
    rotated = wrap_longitude(p.lng_deg - q.center_lng)
    edge_lng = q.lng_max if rotated > 0.0 else q.lng_min
    cos_dlng = math.cos(math.radians(p.lng_deg - edge_lng))
    if cos_dlng > 0.0:
        phi = math.radians(p.lat_deg)
        foot = math.degrees(math.atan2(math.sin(phi), math.cos(phi) * cos_dlng))
        lat = min(max(foot, q.lat_min), q.lat_max)
        return great_circle_distance(p, GeoPoint(lat, edge_lng))
    return min(
        great_circle_distance(p, GeoPoint(q.lat_min, edge_lng)),
        great_circle_distance(p, GeoPoint(q.lat_max, edge_lng)),
    )


def min_distance_many(
    lat_min: np.ndarray,
    lat_max: np.ndarray,
    lng_min: np.ndarray,
    lng_max: np.ndarray,
    p_lats: np.ndarray,
    p_lngs: np.ndarray,
) -> np.ndarray:
    """:func:`min_distance` from each point to its quadrilateral, elementwise.

    The same closed form on arrays of one shape: the nearest point is the
    point clamped into the latitude span when it lies between the
    longitude edges, else the foot clamped to the nearer edge when
    ``cos(p.lng - lng) > 0``, else the nearer corner of that edge.  Agrees
    with the scalar function to the last few ulps.
    """
    between = (lng_min <= p_lngs) & (p_lngs <= lng_max)
    rotated = wrap_longitude_many(p_lngs - (lng_min + lng_max) * 0.5)
    edge_lng = np.where(rotated > 0.0, lng_max, lng_min)
    cos_dlng = np.cos(np.radians(p_lngs - edge_lng))
    phi = np.radians(p_lats)
    foot = np.degrees(np.arctan2(np.sin(phi), np.cos(phi) * cos_dlng))
    # Where cos_dlng <= 0 this is the south corner; the north one follows.
    lat = np.where(between, p_lats, np.where(cos_dlng > 0.0, foot, lat_min))
    lat = np.minimum(np.maximum(lat, lat_min), lat_max)
    lng = np.where(between, p_lngs, edge_lng)
    out = great_circle_distance_many(lat, lng, p_lats, p_lngs)
    corner = np.flatnonzero(~between & (cos_dlng <= 0.0))
    if len(corner):
        north = great_circle_distance_many(
            lat_max[corner], edge_lng[corner], p_lats[corner], p_lngs[corner]
        )
        out[corner] = np.minimum(out[corner], north)
    return out
