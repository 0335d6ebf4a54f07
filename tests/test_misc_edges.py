"""Edge-case coverage for smaller public surfaces."""

import numpy as np
import pytest

from repro import units
from repro.core import render_grid_heatmap
from repro.geo import GeoPoint, Grid
from repro.net import LatencyBreakdown
from repro.scenarios import build, klagenfurt
from repro.sim import Simulator


def test_heatmap_shape_mismatch_rejected():
    grid = Grid(GeoPoint(46.65, 14.25), cols=6, rows=7)
    with pytest.raises(ValueError, match="does not match grid"):
        render_grid_heatmap(grid, np.zeros((3, 3)))


def test_heatmap_renders_title_and_mask():
    grid = Grid(GeoPoint(46.65, 14.25), cols=2, rows=2)
    matrix = np.array([[61.2, 0.0], [110.1, 47.0]])
    text = render_grid_heatmap(grid, matrix, title="Demo", unit="ms")
    assert "Demo [ms]" in text
    assert " 61.2" in text and "  0.0" in text
    # row labels 1..2 and column labels A..B present
    assert "A" in text.splitlines()[1]
    assert text.splitlines()[2].startswith("  1")


def test_breakdown_add_type_mismatch():
    b = LatencyBreakdown(propagation=1e-3)
    with pytest.raises(TypeError):
        _ = b + 1.0


def test_simulator_timeout_value_roundtrip():
    sim = Simulator()
    collected = []

    def proc():
        value = yield sim.timeout(0.5, value={"k": 1})
        collected.append(value)

    sim.process(proc())
    sim.run()
    assert collected == [{"k": 1}]


def test_scenario_campaign_positions_scale_sample_count():
    scenario = build(klagenfurt(), seed=42)
    small = scenario.run_campaign(2.0)
    scenario2 = build(klagenfurt(), seed=42)
    large = scenario2.run_campaign(6.0)
    assert len(large) > 1.5 * len(small)


def test_units_table_consistency():
    assert units.TB / units.GB == pytest.approx(1000.0)
    assert units.RATE_TBPS / units.RATE_GBPS == pytest.approx(1000.0)
    assert units.DAY == 24 * units.HOUR
