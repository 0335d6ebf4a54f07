"""Measurement records and the campaign dataset.

A campaign produces tens of thousands of RTT samples.  The dataset
stores them column-wise in NumPy arrays (times, cell indices, target
ids, RTTs) so per-cell aggregation in :mod:`repro.probes.stats` is a
few array passes, not a Python loop over samples; row-wise dataclass
records are materialised only at the API boundary.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from ..geo.grid import CellId

__all__ = ["MeasurementRecord", "MeasurementDataset"]


@dataclass(frozen=True, slots=True)
class MeasurementRecord:
    """One RTT measurement."""

    time: float          #: campaign time, seconds
    cell: CellId         #: grid cell the mobile node was in
    target: str          #: destination probe/node name
    rtt_s: float

    def __post_init__(self) -> None:
        if self.rtt_s < 0:
            raise ValueError("RTT must be non-negative")


class MeasurementDataset:
    """Column-oriented store of measurement records."""

    _INITIAL = 1024

    def __init__(self):
        self._times = np.empty(self._INITIAL, dtype=np.float64)
        self._cols = np.empty(self._INITIAL, dtype=np.int32)
        self._rows = np.empty(self._INITIAL, dtype=np.int32)
        self._rtts = np.empty(self._INITIAL, dtype=np.float64)
        self._targets: list[str] = []
        self._target_ids: dict[str, int] = {}
        self._target_col = np.empty(self._INITIAL, dtype=np.int32)
        self._n = 0

    # -- ingest ---------------------------------------------------------

    def _grow(self) -> None:
        cap = self._times.shape[0] * 2
        for name in ("_times", "_cols", "_rows", "_rtts", "_target_col"):
            setattr(self, name, np.resize(getattr(self, name), cap))

    def add(self, time: float, cell: CellId, target: str,
            rtt_s: float) -> None:
        """Append one measurement."""
        if rtt_s < 0:
            raise ValueError("RTT must be non-negative")
        if self._n == self._times.shape[0]:
            self._grow()
        tid = self._target_ids.get(target)
        if tid is None:
            tid = len(self._targets)
            self._targets.append(target)
            self._target_ids[target] = tid
        self._times[self._n] = time
        self._cols[self._n] = cell.col
        self._rows[self._n] = cell.row
        self._rtts[self._n] = rtt_s
        self._target_col[self._n] = tid
        self._n += 1

    @classmethod
    def from_columns(cls, times: np.ndarray, cols: np.ndarray,
                     rows: np.ndarray, target_col: np.ndarray,
                     targets: Sequence[str],
                     rtts: np.ndarray) -> "MeasurementDataset":
        """Bulk constructor from parallel column arrays.

        The batched campaign kernel assembles whole datasets at once;
        this produces exactly the state ``add`` would have built row by
        row (same dtypes, same first-appearance target ids), enforcing
        the same invariants.  Arrays are copied, so callers may share
        one template across many datasets.
        """
        n = len(times)
        if not (len(cols) == len(rows) == len(target_col)
                == len(rtts) == n):
            raise ValueError("column arrays must share one length")
        rtts = np.array(rtts, dtype=np.float64)
        if n and float(rtts.min()) < 0:
            raise ValueError("RTT must be non-negative")
        target_col = np.array(target_col, dtype=np.int32)
        if n and not (0 <= int(target_col.min())
                      and int(target_col.max()) < len(targets)):
            raise ValueError("target column indexes out of range")
        ds = cls()
        if n:  # keep the default capacity when empty (``_grow`` doubles)
            ds._times = np.array(times, dtype=np.float64)
            ds._cols = np.array(cols, dtype=np.int32)
            ds._rows = np.array(rows, dtype=np.int32)
            ds._rtts = rtts
            ds._target_col = target_col
        ds._targets = list(targets)
        ds._target_ids = {name: i for i, name in enumerate(ds._targets)}
        if len(ds._target_ids) != len(ds._targets):
            raise ValueError("target names must be unique")
        ds._n = n
        return ds

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def rtts(self) -> np.ndarray:
        view = self._rtts[:self._n]
        view.flags.writeable = False
        return view

    @property
    def times(self) -> np.ndarray:
        view = self._times[:self._n]
        view.flags.writeable = False
        return view

    def cell_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(col, row)`` index columns of every sample."""
        cols, rows = self._cols[:self._n], self._rows[:self._n]
        cols.flags.writeable = rows.flags.writeable = False
        return cols, rows

    def cell_mask(self, cell: CellId) -> np.ndarray:
        """Boolean mask of samples taken in ``cell``."""
        return ((self._cols[:self._n] == cell.col)
                & (self._rows[:self._n] == cell.row))

    def rtts_in(self, cell: CellId) -> np.ndarray:
        """RTT samples recorded in one cell."""
        return self._rtts[:self._n][self.cell_mask(cell)]

    def cells_observed(self) -> list[CellId]:
        """Distinct cells with at least one sample, sorted."""
        pairs = np.unique(
            np.stack([self._cols[:self._n], self._rows[:self._n]], axis=1),
            axis=0)
        return sorted(CellId(int(c), int(r)) for c, r in pairs)

    def records(self) -> Iterator[MeasurementRecord]:
        """Materialise records (API-boundary convenience)."""
        for i in range(self._n):
            yield MeasurementRecord(
                time=float(self._times[i]),
                cell=CellId(int(self._cols[i]), int(self._rows[i])),
                target=self._targets[self._target_col[i]],
                rtt_s=float(self._rtts[i]),
            )

    # -- persistence -----------------------------------------------------

    def save_csv(self, path: str | Path) -> None:
        """Write the dataset as CSV (time, cell, target, rtt_ms)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time_s", "cell", "target", "rtt_ms"])
            for rec in self.records():
                writer.writerow([f"{rec.time:.3f}", rec.cell.label,
                                 rec.target, f"{rec.rtt_s * 1e3:.3f}"])

    @classmethod
    def load_csv(cls, path: str | Path) -> "MeasurementDataset":
        """Read a dataset written by :meth:`save_csv`."""
        ds = cls()
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"time_s", "cell", "target", "rtt_ms"}
            if reader.fieldnames is None or \
                    not required.issubset(reader.fieldnames):
                raise ValueError(
                    f"CSV at {path} missing columns {required}")
            for row in reader:
                ds.add(float(row["time_s"]),
                       CellId.from_label(row["cell"]),
                       row["target"],
                       float(row["rtt_ms"]) / 1e3)
        return ds
