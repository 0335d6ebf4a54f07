"""Geographic substrate: coordinates, grid segmentation, population, mobility."""


from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "EARTH_RADIUS_M", "GeoPoint", "haversine", "haversine_many",
    "haversine_matrix",
    "initial_bearing", "destination_point", "path_length",
    "CellId", "Grid",
    "MobilitySample", "DriveTestRoute",
    "PLACES", "place", "KLAGENFURT", "UNIVERSITY_KLAGENFURT", "VIENNA",
    "PRAGUE", "BUCHAREST", "GRAZ", "FRANKFURT", "FIBRE_CIRCUITY",
    "route_distance_m",
    "PopulationModel", "RadialPopulationModel",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".coords": ("EARTH_RADIUS_M", "GeoPoint", "destination_point",
                "haversine", "haversine_many", "haversine_matrix",
                "initial_bearing", "path_length"),
    ".grid": ("CellId", "Grid"),
    ".mobility": ("DriveTestRoute", "MobilitySample"),
    ".places": ("BUCHAREST", "FIBRE_CIRCUITY", "FRANKFURT", "GRAZ",
                "KLAGENFURT", "PLACES", "PRAGUE", "UNIVERSITY_KLAGENFURT",
                "VIENNA", "place", "route_distance_m"),
    ".population": ("PopulationModel", "RadialPopulationModel"),
})
