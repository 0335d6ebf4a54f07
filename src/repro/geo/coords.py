"""WGS-84 coordinates and great-circle geometry.

Implements the spherical-earth approximations used throughout the
evaluation: haversine distances (grid sizing, route lengths such as the
2544 km Vienna-Prague-Bucharest detour of Fig. 4), initial bearings, and
destination points (mobility models move nodes by bearing + distance).

Scalar operations live on :class:`GeoPoint`; bulk operations
(:func:`haversine_matrix`, :func:`path_length`) are vectorised NumPy for
campaign-scale workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "EARTH_RADIUS_M",
    "GeoPoint",
    "haversine",
    "haversine_many",
    "haversine_matrix",
    "initial_bearing",
    "destination_point",
    "path_length",
]

#: Mean earth radius (IUGG), metres.
EARTH_RADIUS_M: float = 6_371_008.8


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A WGS-84 latitude/longitude pair, degrees.

    Latitude in [-90, 90], longitude normalised to [-180, 180).
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat!r} outside [-90, 90]")
        # Normalise longitude without rejecting e.g. 181 -> -179.
        lon = ((self.lon + 180.0) % 360.0) - 180.0
        object.__setattr__(self, "lon", lon)

    def distance_to(self, other: "GeoPoint") -> float:
        """Great-circle distance to ``other`` in metres."""
        return haversine(self.lat, self.lon, other.lat, other.lon)

    def bearing_to(self, other: "GeoPoint") -> float:
        """Initial great-circle bearing to ``other``, degrees in [0, 360)."""
        return initial_bearing(self.lat, self.lon, other.lat, other.lon)

    def destination(self, bearing_deg: float, distance_m: float) -> "GeoPoint":
        """Point reached travelling ``distance_m`` at ``bearing_deg``."""
        return destination_point(self, bearing_deg, distance_m)

    def __str__(self) -> str:
        return f"({self.lat:.4f}, {self.lon:.4f})"


def haversine(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two points, metres (scalar path)."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = (math.sin(dphi / 2.0) ** 2
         + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def haversine_matrix(lats1: np.ndarray, lons1: np.ndarray,
                     lats2: np.ndarray, lons2: np.ndarray) -> np.ndarray:
    """Pairwise great-circle distances (broadcasting), metres.

    Inputs broadcast against each other, so an ``(n, 1)`` against ``(m,)``
    call yields the full ``(n, m)`` distance matrix without Python loops.
    """
    phi1 = np.radians(np.asarray(lats1, dtype=np.float64))
    phi2 = np.radians(np.asarray(lats2, dtype=np.float64))
    dphi = phi2 - phi1
    dlam = np.radians(np.asarray(lons2, dtype=np.float64)
                      - np.asarray(lons1, dtype=np.float64))
    a = (np.sin(dphi / 2.0) ** 2
         + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2)
    np.clip(a, 0.0, 1.0, out=a)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(a))


def _elementwise(func, values: np.ndarray) -> np.ndarray:
    """Apply a libm scalar function per element (no SIMD shortcuts)."""
    return np.fromiter(map(func, values.ravel().tolist()),
                       dtype=np.float64, count=values.size
                       ).reshape(values.shape)


def _pysquare(values: np.ndarray) -> np.ndarray:
    """Elementwise ``x ** 2`` through CPython's float pow (not ``x*x``)."""
    return np.fromiter(map(pow, values.ravel().tolist(), repeat(2)),
                       dtype=np.float64, count=values.size
                       ).reshape(values.shape)


def haversine_many(lats1, lons1, lats2, lons2) -> np.ndarray:
    """Broadcasting great-circle distances, bit-identical to the scalar.

    Unlike :func:`haversine_matrix` (which is free to use whatever is
    fastest), every element of the result is guaranteed to equal
    ``haversine(lat1, lon1, lat2, lon2)`` *bitwise* — the contract the
    measurement kernel's precomputed serving tables rely on, on every
    platform.  Only IEEE-exact single operations (multiply, subtract,
    add, sqrt, minimum) are vectorised; every transcendental runs
    through libm per element, because NumPy may dispatch float64
    ``sin``/``cos``/``arcsin``/``x**2`` to SIMD implementations
    (e.g. vendored SVML on AVX512 hosts) that land one ulp away from
    the ``math`` module — enough to flip a downstream serving-cell
    argmax tie and change every random draw after it.
    """
    phi1 = np.radians(np.asarray(lats1, dtype=np.float64))
    phi2 = np.radians(np.asarray(lats2, dtype=np.float64))
    dphi = phi2 - phi1
    dlam = np.radians(np.asarray(lons2, dtype=np.float64)
                      - np.asarray(lons1, dtype=np.float64))
    sin_dphi = _pysquare(_elementwise(math.sin, dphi / 2.0))
    sin_dlam = _pysquare(_elementwise(math.sin, dlam / 2.0))
    cos1 = _elementwise(math.cos, phi1)
    cos2 = _elementwise(math.cos, phi2)
    a = sin_dphi + cos1 * cos2 * sin_dlam
    s = np.minimum(np.sqrt(a), 1.0)
    return 2.0 * EARTH_RADIUS_M * _elementwise(math.asin, s)


def initial_bearing(lat1: float, lon1: float,
                    lat2: float, lon2: float) -> float:
    """Initial great-circle bearing from point 1 to point 2, degrees."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dlam = math.radians(lon2 - lon1)
    y = math.sin(dlam) * math.cos(phi2)
    x = (math.cos(phi1) * math.sin(phi2)
         - math.sin(phi1) * math.cos(phi2) * math.cos(dlam))
    return math.degrees(math.atan2(y, x)) % 360.0


def destination_point(origin: GeoPoint, bearing_deg: float,
                      distance_m: float) -> GeoPoint:
    """Great-circle destination from ``origin``.

    Negative distances are rejected; travel the reciprocal bearing
    instead.
    """
    if distance_m < 0.0:
        raise ValueError(f"distance must be non-negative, got {distance_m!r}")
    delta = distance_m / EARTH_RADIUS_M
    theta = math.radians(bearing_deg)
    phi1 = math.radians(origin.lat)
    lam1 = math.radians(origin.lon)
    sin_phi2 = (math.sin(phi1) * math.cos(delta)
                + math.cos(phi1) * math.sin(delta) * math.cos(theta))
    phi2 = math.asin(max(-1.0, min(1.0, sin_phi2)))
    y = math.sin(theta) * math.sin(delta) * math.cos(phi1)
    x = math.cos(delta) - math.sin(phi1) * sin_phi2
    lam2 = lam1 + math.atan2(y, x)
    return GeoPoint(math.degrees(phi2), math.degrees(lam2))


def path_length(points: Sequence[GeoPoint] | Iterable[GeoPoint]) -> float:
    """Total length of a polyline of :class:`GeoPoint`, metres.

    An empty or single-point path has length zero.  Vectorised: one
    haversine evaluation over the whole polyline.
    """
    pts = list(points)
    if len(pts) < 2:
        return 0.0
    lats = np.array([p.lat for p in pts], dtype=np.float64)
    lons = np.array([p.lon for p in pts], dtype=np.float64)
    legs = haversine_matrix(lats[:-1], lons[:-1], lats[1:], lons[1:])
    return float(legs.sum())
