"""Calibration sensitivity + hot-path performance benches.

Sensitivity: perturbs each calibrated knob by +20 % and reports the
elasticity of the headline mean RTL — evidence the reproduction's
result is carried by mechanisms, not by a knife-edge fit (all
elasticities < 1, spread across knobs).

Performance: the vectorised hot paths the campaign leans on, timed so
regressions show up (the repository's optimisation discipline follows
the make-it-work / measure / vectorise workflow).
"""

import numpy as np
import pytest

from repro.core import SensitivityAnalysis
from repro.geo.coords import haversine, haversine_matrix
from repro.sim import SeriesMonitor


def test_sensitivity_elasticities(benchmark):
    analysis = SensitivityAnalysis(seed=42, mean_positions_per_cell=2.0)

    def compute():
        return analysis.elasticities(scale=1.2)

    elasticities = benchmark.pedantic(compute, rounds=1, iterations=1)
    assert all(-0.1 < v < 1.5 for v in elasticities.values())
    # Sensitivity is *distributed*: at least three knobs matter (>0.1).
    assert sum(1 for v in elasticities.values() if v > 0.1) >= 3

    print("\nmean-RTL elasticity per calibrated knob (+20% perturbation):")
    for knob, value in sorted(elasticities.items(),
                              key=lambda kv: -abs(kv[1])):
        print(f"  {knob}: {value:+.2f}")


def test_perf_haversine_matrix(benchmark):
    """Vectorised pairwise distances: the coverage/mobility hot path."""
    rng = np.random.default_rng(5)
    lats = rng.uniform(46.0, 48.0, 500)
    lons = rng.uniform(13.0, 17.0, 500)

    def pairwise():
        return haversine_matrix(lats[:, None], lons[:, None],
                                lats[None, :], lons[None, :])

    matrix = benchmark(pairwise)
    assert matrix.shape == (500, 500)
    # spot-check against the scalar implementation
    assert matrix[3, 7] == pytest.approx(
        haversine(lats[3], lons[3], lats[7], lons[7]), rel=1e-12)


def test_perf_series_monitor_ingest(benchmark):
    """Amortised-growth sample ingestion (campaign datasets)."""
    times = np.arange(100_000, dtype=float)
    values = np.random.default_rng(7).random(100_000)

    def ingest():
        mon = SeriesMonitor()
        mon.extend(times, values)
        return mon.summary()

    summary = benchmark(ingest)
    assert summary.count == 100_000


def test_perf_campaign_sample_rate(benchmark, scenario):
    """End-to-end measurement throughput: one full RTT sample through
    radio + core + policy-routed internet."""
    from repro.geo.grid import CellId
    campaign = scenario.campaign(2.0)
    cell = CellId.from_label("C2")
    position = scenario.grid.cell_center(cell)

    def one_sample():
        return campaign.sample_rtt(position, cell, "probe-uni")

    rtt = benchmark(one_sample)
    assert rtt > 0.02
