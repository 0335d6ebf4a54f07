"""Multi-seed robustness of the reproduction's *qualitative* findings.

The quantitative anchors (61/110/1.8/46.4) are calibrated at the default
seed; the paper's qualitative findings must survive any seed:

* every measured cell exceeds the 20 ms requirement;
* mobile RTL is many times the wired baseline;
* the latency field has strong inter-cell structure (max >> min);
* border cells stay masked;
* the Table I trace and Fig. 4 detour are seed-independent (they are
  topology, not sampling).
"""

import pytest

from repro import units
from repro.core import GapAnalysis
from repro.scenarios import build, klagenfurt

SEEDS = (7, 99, 2024)


@pytest.mark.parametrize("seed", SEEDS)
def test_qualitative_findings_hold(seed):
    scenario = build(klagenfurt(), seed=seed)
    stats = scenario.statistics(scenario.run_campaign(3.0))
    gap = GapAnalysis().report(stats, scenario.wired_baseline())

    # Every measured cell exceeds the budget.
    for agg in stats.measured_cells():
        assert agg.mean_s > units.ms(20.0)
    # Mobile far above wired.
    assert gap.mobile_wired_factor > 4.0
    # Strong inter-cell structure.
    assert gap.max_cell_mean_s > 1.3 * gap.min_cell_mean_s
    # Variance field spans an order of magnitude.
    assert gap.max_std_s > 5.0 * gap.min_std_s
    # Exceedance in the paper's ballpark (loose band across seeds).
    assert 150.0 < gap.exceedance_percent < 450.0


@pytest.mark.parametrize("seed", SEEDS)
def test_topology_artifacts_are_seed_independent(seed):
    scenario = build(klagenfurt(), seed=seed)
    trace = scenario.reference_trace()
    assert trace.hop_count == 10
    assert scenario.detour_route_km() == pytest.approx(2544.0, rel=0.02)
    assert len(scenario.traversed_cells) == 33


def test_masked_cells_identical_across_seeds():
    masks = [tuple(c.label for c in build(klagenfurt(), seed=s).masked_cells)
             for s in SEEDS]
    assert len(set(masks)) == 1
