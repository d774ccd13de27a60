"""Latitude/longitude-aligned quadrilaterals and point predicates.

Quadrilaterals never span the antimeridian (the coordinate domain is split
there), so the west edge longitude is always <= the east edge longitude.
Containment is closed: boundary points count as inside, which keeps
``min_distance(q, p) == 0`` equivalent to ``contains(q, p)``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .geo import (
    EarthModel,
    GeoPoint,
    WGS84,
    antipode,
    great_circle_distance,
    wrap_longitude,
)

__all__ = ["Quadrilateral", "contains", "min_distance", "max_distance"]


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

    @property
    def center_lat(self) -> float:
        return (self.lat_min + self.lat_max) * 0.5


def contains(q: Quadrilateral, p: GeoPoint) -> bool:
    """Closed containment test by coordinate comparison."""
    return (
        q.lat_min <= p.lat_deg <= q.lat_max
        and q.lng_min <= p.lng_deg <= q.lng_max
    )


def min_distance(q: Quadrilateral, p: GeoPoint, model: EarthModel = WGS84) -> float:
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
            return great_circle_distance(p, GeoPoint(q.lat_max, p.lng_deg), model)
        if p.lat_deg < q.lat_min:
            return great_circle_distance(p, GeoPoint(q.lat_min, p.lng_deg), model)
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
        return great_circle_distance(p, GeoPoint(lat, edge_lng), model)
    return min(
        great_circle_distance(p, GeoPoint(q.lat_min, edge_lng), model),
        great_circle_distance(p, GeoPoint(q.lat_max, edge_lng), model),
    )


def max_distance(q: Quadrilateral, p: GeoPoint, model: EarthModel = WGS84) -> float:
    """Upper bound on the great-circle distance from ``p`` to every point of ``q``.

    Exact on the sphere: the farthest point of ``q`` from ``p`` is the
    nearest point of ``q`` to ``p``'s antipode, so the bound is
    ``pi * R - min_distance(q, antipode(p))``.  If the antipode lies inside
    ``q`` this returns the global maximum ``pi * R``.
    """
    return math.pi * model.radius_m - min_distance(q, antipode(p), model)
