"""Per-cell aggregation of campaign measurements (Fig. 2 / Fig. 3 data).

Reproduces the paper's presentation rules exactly:

* per-cell *mean* RTL (Fig. 2) and *standard deviation* (Fig. 3),
* cells with fewer than ten measurements are reported as **0.0** — the
  paper's marker for under-sampled border cells — and excluded from
  summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..geo.grid import CellId, Grid
from .results import MeasurementDataset

__all__ = ["CellAggregate", "CellStatistics"]

#: The paper's masking threshold: "fewer than ten measurements".
MIN_SAMPLES: int = 10


@dataclass(frozen=True, slots=True)
class CellAggregate:
    """Aggregated measurements of one cell."""

    cell: CellId
    count: int
    mean_s: float    #: 0.0 when masked
    std_s: float     #: 0.0 when masked
    masked: bool


class CellStatistics:
    """Grid-wide aggregation of a measurement dataset."""

    def __init__(self, grid: Grid, dataset: MeasurementDataset, *,
                 min_samples: int = MIN_SAMPLES):
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.grid = grid
        self.min_samples = min_samples
        self._aggregates: dict[CellId, CellAggregate] = {}
        for cell in grid.cells():
            rtts = dataset.rtts_in(cell)
            count = int(rtts.size)
            if count < min_samples:
                self._aggregates[cell] = CellAggregate(
                    cell, count, 0.0, 0.0, masked=True)
            else:
                self._aggregates[cell] = CellAggregate(
                    cell, count,
                    mean_s=float(rtts.mean()),
                    std_s=float(rtts.std(ddof=1)),
                    masked=False)
        #: unmasked aggregates sorted by cell, for every headline number
        self._measured = [a for _, a in sorted(self._aggregates.items())
                          if not a.masked]

    # -- lookup -----------------------------------------------------------

    def aggregate(self, cell: CellId) -> CellAggregate:
        """The aggregate of one grid cell."""
        try:
            return self._aggregates[cell]
        except KeyError:
            raise KeyError(f"cell {cell.label} outside grid") from None

    def measured_cells(self) -> list[CellAggregate]:
        """Aggregates of all unmasked cells, sorted by cell."""
        return list(self._measured)

    def masked_cells(self) -> list[CellAggregate]:
        """Aggregates of cells below the sample threshold."""
        return [a for _, a in sorted(self._aggregates.items()) if a.masked]

    # -- headline numbers ---------------------------------------------------

    def _require_measured(self) -> list[CellAggregate]:
        if not self._measured:
            raise ValueError("no cell reached the sample threshold")
        return self._measured

    def min_mean_cell(self) -> CellAggregate:
        """The cell with the lowest mean RTL (the paper's C1)."""
        return min(self._require_measured(), key=lambda a: a.mean_s)

    def max_mean_cell(self) -> CellAggregate:
        """The cell with the highest mean RTL (the paper's C3)."""
        return max(self._require_measured(), key=lambda a: a.mean_s)

    def min_std_cell(self) -> CellAggregate:
        """Lowest per-cell standard deviation (the paper's B3)."""
        return min(self._require_measured(), key=lambda a: a.std_s)

    def max_std_cell(self) -> CellAggregate:
        """Highest per-cell standard deviation (the paper's E5)."""
        return max(self._require_measured(), key=lambda a: a.std_s)

    def overall_mean_s(self) -> float:
        """Mean RTL across measured cells (cell-weighted, as in the
        paper's '270 %' figure which compares the field against the
        requirement)."""
        cells = self._require_measured()
        return float(np.mean([a.mean_s for a in cells]))

    # -- matrices for rendering / export ------------------------------------

    def mean_matrix_ms(self) -> np.ndarray:
        """(rows x cols) matrix of mean RTL in ms; masked cells are 0.0."""
        out = np.zeros((self.grid.rows, self.grid.cols))
        for cell, agg in self._aggregates.items():
            out[cell.row, cell.col] = agg.mean_s * 1e3
        return out

    def std_matrix_ms(self) -> np.ndarray:
        """(rows x cols) matrix of RTL std-dev in ms; masked cells 0.0."""
        out = np.zeros((self.grid.rows, self.grid.cols))
        for cell, agg in self._aggregates.items():
            out[cell.row, cell.col] = agg.std_s * 1e3
        return out

    def count_matrix(self) -> np.ndarray:
        """(rows x cols) matrix of per-cell measurement counts."""
        out = np.zeros((self.grid.rows, self.grid.cols), dtype=np.int64)
        for cell, agg in self._aggregates.items():
            out[cell.row, cell.col] = agg.count
        return out
