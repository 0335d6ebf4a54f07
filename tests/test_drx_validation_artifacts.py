"""Tests for DRX and artifact export."""

import numpy as np
import pytest

from repro import units
from repro.core import InfrastructureEvaluation
from repro.ran import DrxConfig, DrxModel
from repro.sim import RngRegistry


# ---------------------------------------------------------------------------
# DRX
# ---------------------------------------------------------------------------

def test_drx_presets_span_the_tradeoff():
    latency = DrxModel(DrxConfig.latency_first())
    balanced = DrxModel(DrxConfig.balanced())
    battery = DrxModel(DrxConfig.battery_first())
    # Latency ordering...
    assert latency.mean_added_delay_s() < balanced.mean_added_delay_s() \
        < battery.mean_added_delay_s()
    # ...is the reverse of the power ordering.
    assert latency.mean_power_w() > balanced.mean_power_w() \
        > battery.mean_power_w()


def test_drx_mean_added_delay_formula():
    # cycle 100 ms, on 20 ms: sleep 80 ms; mean = 0.8 * 40 ms = 32 ms
    model = DrxModel(DrxConfig(cycle_s=0.1, on_duration_s=0.02))
    assert model.mean_added_delay_s() == pytest.approx(0.032)
    assert model.worst_added_delay_s() == pytest.approx(0.08)
    assert model.duty_cycle == pytest.approx(0.2)


def test_drx_sampled_matches_analytic():
    model = DrxModel(DrxConfig.balanced())
    rng = RngRegistry(3).stream("drx")
    samples = model.sample_added_delay_s(rng, size=100_000)
    assert float(np.mean(samples)) == pytest.approx(
        model.mean_added_delay_s(), rel=0.03)
    assert float(np.max(samples)) <= model.worst_added_delay_s()


def test_drx_budget_check():
    """AR (20 ms budget) tolerates the latency-first profile only."""
    network_rtt = units.ms(5.0)
    assert DrxModel(DrxConfig.latency_first()).meets_budget(
        units.ms(20.0), network_rtt)
    assert not DrxModel(DrxConfig.balanced()).meets_budget(
        units.ms(20.0), network_rtt)
    assert not DrxModel(DrxConfig.battery_first()).meets_budget(
        units.ms(20.0), network_rtt)


def test_drx_battery_life():
    battery = DrxModel(DrxConfig.battery_first())
    always_on = DrxModel(DrxConfig(cycle_s=1.0, on_duration_s=1.0))
    wh = 15.0   # a wearable battery
    assert battery.battery_life_hours(wh) > \
        20 * always_on.battery_life_hours(wh)
    with pytest.raises(ValueError):
        battery.battery_life_hours(0.0)


def test_drx_validation():
    with pytest.raises(ValueError):
        DrxConfig(cycle_s=0.0, on_duration_s=0.0)
    with pytest.raises(ValueError):
        DrxConfig(cycle_s=0.1, on_duration_s=0.2)    # on > cycle
    with pytest.raises(ValueError):
        DrxConfig(cycle_s=0.1, on_duration_s=0.05, sleep_power_w=2.0)
    model = DrxModel(DrxConfig.balanced())
    with pytest.raises(ValueError):
        model.meets_budget(0.0, 1e-3)


# ---------------------------------------------------------------------------
# Artifact export
# ---------------------------------------------------------------------------

def test_save_artifacts_round_trip(tmp_path):
    result = InfrastructureEvaluation(
        seed=42, mean_positions_per_cell=2.0).run()
    paths = result.save_artifacts(tmp_path / "artifacts")
    expected = {"figure2.txt", "figure3.txt", "table1.txt",
                "gap_summary.txt", "campaign.csv", "wired_baseline.csv"}
    assert set(paths) == expected
    # every returned path points at the file actually written
    from pathlib import Path
    for name, path in paths.items():
        assert Path(path) == tmp_path / "artifacts" / name
        assert Path(path).is_file() and Path(path).stat().st_size > 0
    fig2 = (tmp_path / "artifacts" / "figure2.txt").read_text()
    assert "Urban Mean Round-trip Time Latency" in fig2
    gap = (tmp_path / "artifacts" / "gap_summary.txt").read_text()
    assert "fig4 detour" in gap
    # the CSV reloads into an identical-size dataset
    from repro.probes import MeasurementDataset
    loaded = MeasurementDataset.load_csv(tmp_path / "artifacts"
                                         / "campaign.csv")
    assert len(loaded) == len(result.dataset)
