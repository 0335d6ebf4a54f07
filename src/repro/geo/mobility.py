"""Mobility model for the drive-test campaign.

The campaign of Section IV drives mobile nodes through the grid cells
while adhering to "traffic flow dynamics and local traffic regulations" —
i.e. the per-cell dwell time (and hence sample count) varies with
traffic.  :class:`DriveTestRoute` models that: deterministic serpentine
coverage of a set of target cells with stochastic per-cell dwell times
and within-cell waypoints; it produces the measurement positions for
Fig. 2/3.

The route yields :class:`MobilitySample` values and draws exclusively
from an injected RNG stream, keeping campaigns reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .coords import GeoPoint
from .grid import CellId, Grid

__all__ = ["MobilitySample", "DriveTestRoute"]


@dataclass(frozen=True, slots=True)
class MobilitySample:
    """Position of a mobile node at a point in time."""

    time: float          #: seconds since campaign start
    position: GeoPoint
    cell: Optional[CellId]  #: grid cell containing the position (if any)


class DriveTestRoute:
    """Serpentine drive through ``target_cells`` with per-cell dwelling.

    For each visited cell the vehicle takes ``measurements_in(cell)``
    positions at random street locations inside the cell, separated by
    ``sample_interval_s``.  Travel time between consecutive cells is the
    centre-to-centre distance at ``speed_mps`` (urban driving).

    The number of measurements per cell is Poisson around a mean
    proportional to the cell's traffic weight, truncated to at least
    ``min_samples`` — matching the paper, where counts "varied, influenced
    by adherence to traffic flow dynamics".
    """

    def __init__(self, grid: Grid, target_cells: Sequence[CellId],
                 rng: np.random.Generator, *,
                 traffic_weight: Optional[dict[CellId, float]] = None,
                 mean_samples_per_cell: float = 24.0,
                 min_samples: int = 10,
                 sample_interval_s: float = 8.0,
                 speed_mps: float = 8.33):
        if not target_cells:
            raise ValueError("drive-test route needs at least one cell")
        for cell in target_cells:
            if cell not in grid:
                raise KeyError(f"target cell {cell.label} outside grid")
        if mean_samples_per_cell <= 0 or sample_interval_s <= 0:
            raise ValueError("sampling parameters must be positive")
        if speed_mps <= 0:
            raise ValueError("speed must be positive")
        self.grid = grid
        self.rng = rng
        self.mean_samples_per_cell = mean_samples_per_cell
        self.min_samples = min_samples
        self.sample_interval_s = sample_interval_s
        self.speed_mps = speed_mps
        self.traffic_weight = dict(traffic_weight or {})
        # Deterministic visiting order: serpentine, filtered to targets.
        targets = set(target_cells)
        self.visit_order: list[CellId] = [
            c for c in grid.boustrophedon_order() if c in targets]

    def measurements_in(self, cell: CellId) -> int:
        """Sample the number of measurement positions for ``cell``."""
        weight = self.traffic_weight.get(cell, 1.0)
        lam = self.mean_samples_per_cell * weight
        n = int(self.rng.poisson(lam))
        return max(self.min_samples, n)

    def walk(self) -> Iterator[MobilitySample]:
        """Yield measurement positions along the whole route."""
        t = 0.0
        prev_centre: Optional[GeoPoint] = None
        for cell in self.visit_order:
            centre = self.grid.cell_center(cell)
            if prev_centre is not None:
                t += prev_centre.distance_to(centre) / self.speed_mps
            prev_centre = centre
            for _ in range(self.measurements_in(cell)):
                frac_e, frac_s = self.rng.random(2)
                pos = self.grid.point_in_cell(cell, float(frac_e),
                                              float(frac_s))
                yield MobilitySample(time=t, position=pos, cell=cell)
                t += self.sample_interval_s
