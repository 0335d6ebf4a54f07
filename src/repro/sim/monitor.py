"""Measurement collection during simulation runs.

:class:`SeriesMonitor` collects point samples ``(t, value)`` with
summary statistics (used for RTT samples, per-packet latencies).  It is
intentionally NumPy-backed: a drive-test campaign produces hundreds of
thousands of samples, and summary statistics over Python lists would
dominate the run time (see the profiling-first guidance in the project
coding notes).
"""

from __future__ import annotations

import numpy as np

__all__ = ["SeriesMonitor", "SummaryStats"]


class SummaryStats:
    """Immutable bag of summary statistics."""

    __slots__ = ("count", "mean", "std", "minimum", "maximum",
                 "p50", "p95", "p99")

    def __init__(self, count: int, mean: float, std: float, minimum: float,
                 maximum: float, p50: float, p95: float, p99: float):
        self.count = count
        self.mean = mean
        self.std = std
        self.minimum = minimum
        self.maximum = maximum
        self.p50 = p50
        self.p95 = p95
        self.p99 = p99

    @classmethod
    def empty(cls) -> "SummaryStats":
        nan = float("nan")
        return cls(0, nan, nan, nan, nan, nan, nan, nan)

    def as_dict(self) -> dict:
        """All statistics as a plain dict."""
        return {k: getattr(self, k) for k in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover
        if self.count == 0:
            return "SummaryStats(empty)"
        return (f"SummaryStats(n={self.count}, mean={self.mean:.6g}, "
                f"std={self.std:.6g}, min={self.minimum:.6g}, "
                f"max={self.maximum:.6g})")


class SeriesMonitor:
    """Append-only store of ``(time, value)`` samples.

    Uses geometric array growth (amortised O(1) appends) rather than a
    Python list so that summaries are zero-copy NumPy reductions.
    """

    _INITIAL = 256

    def __init__(self, name: str = ""):
        self.name = name or "series"
        self._times = np.empty(self._INITIAL, dtype=np.float64)
        self._values = np.empty(self._INITIAL, dtype=np.float64)
        self._n = 0

    def record(self, time: float, value: float) -> None:
        """Append one sample."""
        if self._n == self._times.shape[0]:
            self._grow()
        self._times[self._n] = time
        self._values[self._n] = value
        self._n += 1

    def extend(self, times: np.ndarray, values: np.ndarray) -> None:
        """Append a batch of samples (vectorised fast path)."""
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.shape != values.shape:
            raise ValueError("times and values must have identical shape")
        need = self._n + times.size
        while need > self._times.shape[0]:
            self._grow()
        self._times[self._n:need] = times
        self._values[self._n:need] = values
        self._n = need

    def _grow(self) -> None:
        cap = max(self._INITIAL, self._times.shape[0] * 2)
        self._times = np.resize(self._times, cap)
        self._values = np.resize(self._values, cap)

    # -- views ----------------------------------------------------------

    @property
    def count(self) -> int:
        return self._n

    @property
    def times(self) -> np.ndarray:
        """Sample timestamps (read-only view, no copy)."""
        view = self._times[:self._n]
        view.flags.writeable = False
        return view

    @property
    def values(self) -> np.ndarray:
        """Sample values (read-only view, no copy)."""
        view = self._values[:self._n]
        view.flags.writeable = False
        return view

    # -- statistics ---------------------------------------------------------

    def summary(self) -> SummaryStats:
        """Summary statistics over all recorded values."""
        if self._n == 0:
            return SummaryStats.empty()
        v = self._values[:self._n]
        p50, p95, p99 = np.percentile(v, [50.0, 95.0, 99.0])
        return SummaryStats(
            count=self._n,
            mean=float(v.mean()),
            std=float(v.std(ddof=1)) if self._n > 1 else 0.0,
            minimum=float(v.min()),
            maximum=float(v.max()),
            p50=float(p50), p95=float(p95), p99=float(p99),
        )

    def fraction_below(self, threshold: float) -> float:
        """Fraction of samples strictly below ``threshold``.

        Used to reproduce the Fezeu-style PHY latency CDF checkpoints
        ("4.4% of packets in under 1 ms").
        """
        if self._n == 0:
            raise ValueError("no samples recorded")
        return float((self._values[:self._n] < threshold).mean())
