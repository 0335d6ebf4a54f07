"""Synthetic population-density raster (Statistik Austria substitute).

The paper aligns its measurements to the 1 km population raster of
Statistik Austria [18] and uses it for exactly two things:

1. cells in *border regions* with density below 1000 inhabitants/km2
   receive fewer than ten measurements and are masked (shown as 0.0 in
   Fig. 2), and
2. probe/peer density tracks where people are.

That proprietary raster is replaced by a radial urban-density model: a
dense core (Klagenfurt's core raster cells are ~3000-4500 /km2) decaying
exponentially toward the periphery — the canonical Clark (1951) model of
urban population density.  Only the density *ordering* across cells
matters for the evaluation, which the model preserves by construction.
"""

from __future__ import annotations

import math

from .coords import GeoPoint
from .grid import CellId, Grid

__all__ = ["PopulationModel", "RadialPopulationModel"]


class PopulationModel:
    """Interface: population density (inhabitants/km2) at a point."""

    def density_at(self, point: GeoPoint) -> float:
        """Population density (inhabitants/km2) at ``point``."""
        raise NotImplementedError

    def cell_density(self, grid: Grid, cell: CellId) -> float:
        """Density at the cell centroid (1 km cells are small enough
        that centroid sampling matches areal averaging to within the
        model's own accuracy)."""
        return self.density_at(grid.cell_center(cell))


class RadialPopulationModel(PopulationModel):
    """Clark's exponential urban density: ``d(r) = d0 * exp(-r / scale)``.

    Parameters
    ----------
    centre:
        Location of peak density (the city core).
    core_density:
        Density at the core, inhabitants/km2.
    scale_m:
        e-folding radius, metres.  Klagenfurt's built-up area is ~5 km
        across; a 2 km scale puts the 1000/km2 contour ~3 km from the
        core, matching the paper's observation that only *border* cells
        fall below 1000/km2.
    floor:
        Rural background density far from the core.
    """

    def __init__(self, centre: GeoPoint, core_density: float = 4200.0,
                 scale_m: float = 2000.0, floor: float = 40.0):
        if core_density <= 0 or scale_m <= 0 or floor < 0:
            raise ValueError("densities and scale must be positive")
        if floor >= core_density:
            raise ValueError("floor density must be below core density")
        self.centre = centre
        self.core_density = float(core_density)
        self.scale_m = float(scale_m)
        self.floor = float(floor)

    def density_at(self, point: GeoPoint) -> float:
        """Clark-model density at ``point``."""
        r = self.centre.distance_to(point)
        return self.floor + (self.core_density - self.floor) * math.exp(
            -r / self.scale_m)

    def contour_radius_m(self, density: float) -> float:
        """Radius at which the model crosses ``density`` (inverse model)."""
        if not self.floor < density <= self.core_density:
            raise ValueError(
                f"density {density} outside ({self.floor}, "
                f"{self.core_density}]")
        return -self.scale_m * math.log(
            (density - self.floor) / (self.core_density - self.floor))
