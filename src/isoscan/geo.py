"""Point-level geometry on the sphere and ellipsoid.

Coordinates are geographic degrees at the API boundary (latitude in
[-90, 90], longitude wrapped into (-180, 180]); all trigonometry is done
in radians internally.  Distances are returned in meters.

The Earth is fixed here: the mean-radius sphere for the great-circle
distance, the reference ellipsoid for the ellipsoid distance.  The
pruning and inflation constants elsewhere (:data:`ELLIPSOID_RATIO_BAND`
and those derived from it) were measured for this pair, so it is not a
parameter.

Each distance has one definition, its scalar function.  Numpy's
transcendental ufuncs may round differently from libm's, and differently
again with the CPU features numpy dispatches to, so an exact distance over
arrays maps the scalar function over the pairs rather than restating it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

__all__ = [
    "GeoPoint",
    "Vec3",
    "MEAN_RADIUS_M",
    "EQUATORIAL_RADIUS_M",
    "FLATTENING",
    "ELLIPSOID_RATIO_BAND",
    "METRIC_ANISOTROPY",
    "wrap_longitude",
    "wrap_longitude_many",
    "antipode",
    "great_circle_distance",
    "great_circle_distance_many",
    "ellipsoid_distance",
    "to_cartesian",
]


def wrap_longitude(lng_deg: float) -> float:
    """Wrap a longitude into (-180, 180]. The world is split at the antimeridian."""
    if -180.0 < lng_deg <= 180.0:
        return lng_deg
    lng = math.fmod(lng_deg, 360.0)
    if lng <= -180.0:
        lng += 360.0
    elif lng > 180.0:
        lng -= 360.0
    return lng


def wrap_longitude_many(lng_deg):
    """:func:`wrap_longitude`, elementwise."""
    lng_deg = np.fmod(lng_deg, 360.0)  # exact, and the identity inside (-360, 360)
    lng_deg = np.where(lng_deg <= -180.0, lng_deg + 360.0, lng_deg)
    return np.where(lng_deg > 180.0, lng_deg - 360.0, lng_deg)


class GeoPoint(namedtuple("GeoPoint", ["lat_deg", "lng_deg"])):
    """A position on the reference surface, in degrees.

    Longitude is wrapped into (-180, 180] on construction; latitude must
    already be in [-90, 90].  Tuple ordering gives the (lat, lng) ascending
    order used for tie-breaking throughout the package.
    """

    __slots__ = ()

    def __new__(cls, lat_deg: float, lng_deg: float):
        if not -90.0 <= lat_deg <= 90.0:
            raise ValueError(f"latitude {lat_deg!r} outside [-90, 90]")
        if not -180.0 < lng_deg <= 180.0:
            lng_deg = wrap_longitude(lng_deg)
        return super().__new__(cls, lat_deg, lng_deg)


class Vec3(NamedTuple):
    """Unit-sphere Cartesian coordinates."""

    x: float
    y: float
    z: float


# Mean Earth radius: the sphere of the great-circle distance.
MEAN_RADIUS_M = 6_371_000.0
# Semi-major axis and flattening of the reference ellipsoid: the ellipsoid distance.
EQUATORIAL_RADIUS_M = 6_378_137.0
FLATTENING = 1.0 / 298.257223563

# Range of ellipsoid_distance (and of the Vincenty geodesic it approximates)
# divided by great_circle_distance, measured at every latitude and bearing
# from metres up to 0.97 pi R: the meridian radius of curvature at the
# equator and the one at the poles, against the mean radius.  Every
# constant that relates great-circle and ellipsoid distances clears it.
ELLIPSOID_RATIO_BAND = (0.99440, 1.00449)

# At least the band's high end over its low end (1.01015).  The point
# nearest under the ellipsoid distance is at most this factor farther along
# the great circle than the great-circle nearest, so a screen that keeps
# every point within the factor (plus a slack) keeps it.
METRIC_ANISOTROPY = 1.0102


def antipode(p: GeoPoint) -> GeoPoint:
    """Point diametrically opposite ``p``."""
    return GeoPoint(-p.lat_deg, wrap_longitude(p.lng_deg + 180.0))


def great_circle_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Haversine great-circle distance between two points, in meters.

    Args:
        a, b: end points, each a :class:`GeoPoint` or a (lat, lng) pair
            with the longitude in (-180, 180].

    Returns:
        Arc length in [0, pi * R].  Symmetric and zero for coincident points.
    """
    lat1, lng1 = a
    lat2, lng2 = b
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    sin_dphi = math.sin(math.radians(lat2 - lat1) * 0.5)
    sin_dlng = math.sin(math.radians(lng2 - lng1) * 0.5)
    h = sin_dphi * sin_dphi + math.cos(phi1) * math.cos(phi2) * sin_dlng * sin_dlng
    if h >= 1.0:
        return math.pi * MEAN_RADIUS_M
    return 2.0 * MEAN_RADIUS_M * math.atan2(math.sqrt(h), math.sqrt(1.0 - h))


def great_circle_distance_many(
    lats_deg: np.ndarray,
    lngs_deg: np.ndarray,
    p_lats_deg,
    p_lngs_deg,
) -> np.ndarray:
    """Vectorized haversine from arrays of points to query points.

    Bulk twin of :func:`great_circle_distance` for the tile index's
    distances.  The query coordinates are arrays that broadcast against the
    points, or one point as two scalars.  Numpy's trigonometry may round
    differently from libm's, so exact comparisons must re-check candidates
    with the scalar function.
    """
    phi = np.radians(lats_deg)
    phi_p = np.radians(p_lats_deg)
    sin_dphi = np.sin((phi_p - phi) * 0.5)
    sin_dlng = np.sin(np.radians(p_lngs_deg - lngs_deg) * 0.5)
    h = sin_dphi * sin_dphi + np.cos(phi) * np.cos(phi_p) * sin_dlng * sin_dlng
    h = np.clip(h, 0.0, 1.0)
    return 2.0 * MEAN_RADIUS_M * np.arctan2(np.sqrt(h), np.sqrt(1.0 - h))


def _subnormal_s_term(f, r, s, cos_mean2, sin_dphi2):
    # A subnormal s overflows h2 = (3r + 1) / 2s, and inf * 0 is NaN, yet
    # sin_dphi2 <= s / cos_dlng2 keeps the product f * h2 * cos_mean2 *
    # sin_dphi2 small; dividing sin_dphi2 by s first keeps it finite.
    return f * ((3.0 * r + 1.0) * 0.5) * cos_mean2 * (sin_dphi2 / s)


def ellipsoid_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Flattening-corrected (Andoyer-Lambert style) distance in meters.

    Agrees with iterative geodesics to a few hundredths of a percent for
    non-antipodal pairs; degrades near antipodes.  With zero
    :data:`FLATTENING` this would reduce exactly to the great-circle
    distance on a sphere of :data:`EQUATORIAL_RADIUS_M`.

    Args:
        a, b: end points as in :func:`great_circle_distance`; should not
            be antipodal.
    """
    lat1, lng1 = a
    lat2, lng2 = b
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = (phi2 - phi1) * 0.5
    dlng = math.radians(lng2 - lng1) * 0.5
    mean_phi = (phi1 + phi2) * 0.5

    sin_dphi2 = math.sin(dphi) ** 2
    cos_dphi2 = math.cos(dphi) ** 2
    sin_dlng2 = math.sin(dlng) ** 2
    cos_dlng2 = math.cos(dlng) ** 2
    sin_mean2 = math.sin(mean_phi) ** 2
    cos_mean2 = math.cos(mean_phi) ** 2

    s = sin_dphi2 * cos_dlng2 + cos_mean2 * sin_dlng2
    c = cos_dphi2 * cos_dlng2 + sin_mean2 * sin_dlng2
    w = math.atan2(math.sqrt(s), math.sqrt(c))
    if w == 0.0:
        return 0.0
    r = math.sqrt(s * c) / w

    f = FLATTENING
    h1 = (3.0 * r - 1.0) / (2.0 * c)
    correction = f * h1 * sin_mean2 * cos_dphi2
    h2 = (3.0 * r + 1.0) / (2.0 * s)  # s > 0 because w > 0
    if h2 < math.inf:
        correction -= f * h2 * cos_mean2 * sin_dphi2
    else:
        correction -= _subnormal_s_term(f, r, s, cos_mean2, sin_dphi2)
    return 2.0 * EQUATORIAL_RADIUS_M * w * (1.0 + correction)


def to_cartesian(p: GeoPoint) -> Vec3:
    """Unit vector for a surface point: x east at Greenwich, z toward the north pole."""
    lat = math.radians(p.lat_deg)
    lng = math.radians(p.lng_deg)
    cos_lat = math.cos(lat)
    return Vec3(cos_lat * math.cos(lng), cos_lat * math.sin(lng), math.sin(lat))
