"""Per-cell aggregation of campaign measurements (Fig. 2 / Fig. 3 data).

Reproduces the paper's presentation rules exactly:

* per-cell *mean* RTL (Fig. 2) and *standard deviation* (Fig. 3),
* cells with fewer than ten measurements are reported as **0.0** — the
  paper's marker for under-sampled border cells — and excluded from
  summary statistics.

The statistics are numpy's own ``mean()`` and ``std(ddof=1)`` of each
cell's samples, bit for bit, computed for all cells in one pass.  One
stable argsort of the cell index groups the rows, so each cell's
samples are one slice holding the same elements, in the same order, as
the cell's boolean mask selects (for any row order).  numpy sums a
float64 slice pairwise (Higham, SIAM J. Sci. Comput. 14(4), 1993):
below 8 elements a sequential sum from 0.0; up to 128, eight strided
accumulators combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and a
sequential tail; above that, halves at a multiple of 8, recursively.
:class:`_PairwiseSums` emulates the first two cases for many slices at
once, with the same float additions in the same order; a cell with
more than 128 samples (or fewer than 2) is reduced by numpy itself.
``np.add.reduceat`` would be no substitute: it sums each slice
sequentially, which rounds differently.
"""

from __future__ import annotations

import functools
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


#: numpy's pairwise sum unrolls by 8 and recurses above 128 elements
#: (``PW_BLOCKSIZE`` in numpy's ``loops_utils.h.src``).
_UNROLL = 8
_BLOCK = 128
_LANES = np.arange(_BLOCK)
_TAIL = np.arange(_UNROLL)


class _PairwiseSums:
    """numpy's pairwise sums of many slices of one array, bit for bit:
    ``np.add.reduce(values[a:a + n])`` for every ``(a, n)``.

    Built for slices ``(start, length)`` of an array of ``size``
    elements, every length in ``1..128``; called with that array
    extended by one ``-0.0``.  Lanes past a slice's end read that
    ``-0.0``, the exact additive identity (``x + -0.0 == x`` for every
    ``x``, signed zeros included), so every slice folds the same number
    of blocks.
    """

    def __init__(self, starts: np.ndarray, lengths: np.ndarray, size: int):
        blocks = lengths // _UNROLL
        self.blocks = int(blocks.max(initial=0))
        lanes = _LANES[:_UNROLL * max(self.blocks, 1)]
        #: (slice, block, lane) -> index: a[8b + j] for the blocks
        self.body = np.where(lanes < _UNROLL * blocks[:, None],
                             starts[:, None] + lanes,
                             size).reshape(len(starts), -1, _UNROLL)
        #: (slice, 1 + t) -> index of tail element t; column 0 is the head
        self.tail = np.where((_TAIL >= 1)
                             & (_TAIL <= (lengths % _UNROLL)[:, None]),
                             (starts + _UNROLL * blocks - 1)[:, None] + _TAIL,
                             size)
        self.short = blocks == 0

    def __call__(self, extended: np.ndarray) -> np.ndarray:
        lanes = extended[self.body]
        # r[j] = a[j], then r[j] += a[8b + j] block by block
        r = lanes[:, 0].copy()
        for block in range(1, self.blocks):
            r += lanes[:, block]
        r = r.T
        pairs = r[0::2] + r[1::2]          # r0+r1, r2+r3, r4+r5, r6+r7
        halves = pairs[0::2] + pairs[1::2]
        folds = extended[self.tail]
        folds[:, 0] = halves[0] + halves[1]
        # Under 8 elements the whole sum is the sequential tail from 0.0.
        folds[self.short, 0] = 0.0
        # The reduction starts from the identity: 0.0 + sum.
        return 0.0 + folds.cumsum(axis=1)[:, -1]


def _moments(values: np.ndarray, starts: np.ndarray, counts: np.ndarray,
             wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``mean()`` and ``std(ddof=1)`` of the ``wanted`` slices of
    ``values`` (0.0 elsewhere), as numpy computes them on each slice."""
    means = np.zeros(len(counts))
    stds = np.zeros(len(counts))
    exact = wanted & (counts >= 2) & (counts <= _BLOCK)
    if exact.any():
        a, n = starts[exact], counts[exact]
        size = int(counts.sum())
        sums = _PairwiseSums(a, n, size)
        means[exact] = sums(np.append(values[:size], -0.0)) / n
        # numpy's _var: (x - mean) squared by multiply, summed, / (n - 1)
        deviation = values[:size] - np.repeat(means, counts)
        squares = np.append(deviation * deviation, -0.0)
        stds[exact] = np.sqrt(sums(squares) / (n - 1))
    for cell in np.flatnonzero(wanted & ~exact).tolist():
        cut = values[starts[cell]:starts[cell] + counts[cell]]
        means[cell] = cut.mean()
        stds[cell] = cut.std(ddof=1)
    return means, stds


@functools.lru_cache(maxsize=8)
def _cells(cols: int, rows: int) -> tuple[CellId, ...]:
    """``Grid.cells()`` of a ``cols x rows`` grid, made once."""
    return tuple(CellId(col, row) for col in range(cols)
                 for row in range(rows))


class CellStatistics:
    """Grid-wide aggregation of a measurement dataset."""

    def __init__(self, grid: Grid, dataset: MeasurementDataset, *,
                 min_samples: int = MIN_SAMPLES):
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.grid = grid
        self.min_samples = min_samples
        cols, rows = dataset.cell_columns()
        # Cells in grid.cells() order; samples outside the grid sort last.
        size = grid.cols * grid.rows
        inside = ((cols >= 0) & (cols < grid.cols)
                  & (rows >= 0) & (rows < grid.rows))
        index = np.where(inside, cols * grid.rows + rows, size)
        values = dataset.rtts[np.argsort(index, kind="stable")]
        counts = np.bincount(index, minlength=size + 1)[:size]
        starts = counts.cumsum() - counts
        means, stds = _moments(values, starts, counts,
                               counts >= min_samples)
        self._aggregates: dict[CellId, CellAggregate] = {}
        for cell, count, mean, std in zip(_cells(grid.cols, grid.rows),
                                          counts.tolist(), means.tolist(),
                                          stds.tolist()):
            masked = count < min_samples
            self._aggregates[cell] = CellAggregate(
                cell, count, 0.0 if masked else mean,
                0.0 if masked else std, masked)
        #: unmasked aggregates sorted by cell, for every headline number
        self._measured = sorted((a for a in self._aggregates.values()
                                 if not a.masked), key=lambda a: a.cell)

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
