"""Tests for the future-work studies (Section VI outlook)."""

import numpy as np
import pytest

from repro import units
from repro.apps import FederatedConfig, FederatedRoundModel
from repro.core import (
    FederatedEdgeStudy,
    PredictiveSlicingStudy,
    SixGUpgradeStudy,
)
from repro.fleet import BatchExecutor, SerialExecutor
from repro.ran import (
    DIURNAL_URBAN_PROFILE,
    EnergyModel,
    RadioConfig,
    SitePowerModel,
)
from repro.scenarios import build_count
from test_sensitivity import captured_plans, record_bytes


# ---------------------------------------------------------------------------
# 6G upgrade study
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def upgrade_reports():
    return SixGUpgradeStudy(seed=42, mean_positions_per_cell=2.0).run()


def test_upgrade_arms_are_ordered(upgrade_reports):
    """Each remedy helps; the combination dominates."""
    r = upgrade_reports
    baseline = r["5G (measured)"].mobile_mean_s
    edge = r["5G + edge breakout"].mobile_mean_s
    sixg = r["6G radio, core unchanged"].mobile_mean_s
    both = r["6G + edge breakout"].mobile_mean_s
    assert edge < baseline
    assert sixg < baseline
    assert both < min(edge, sixg)


def test_only_upgraded_arms_meet_the_ar_budget(upgrade_reports):
    study = SixGUpgradeStudy
    assert not study.meets_requirement(upgrade_reports["5G (measured)"])
    assert study.meets_requirement(
        upgrade_reports["6G + edge breakout"])


def test_6g_with_edge_beats_wired(upgrade_reports):
    """The paper's aim: 'sub-1 ms latencies to achieve competitiveness
    with wired networks'.  The upgraded mobile field undercuts the
    wired baseline."""
    report = upgrade_reports["6G + edge breakout"]
    assert report.mobile_mean_s < report.wired_mean_s
    assert report.mobile_mean_s < units.ms(3.0)


def test_edge_breakout_alone_does_not_fix_the_radio(upgrade_reports):
    """Edge breakout removes the wired detour, but the 5G air interface
    plus loaded-cell buffering still dominates the budget."""
    report = upgrade_reports["5G + edge breakout"]
    assert report.mobile_mean_s > units.ms(20.0)


def test_upgrade_arms_are_one_batch_matching_the_serial_oracle():
    study = SixGUpgradeStudy(seed=42, mean_positions_per_cell=2.0)
    before = build_count()
    plan, = captured_plans(study.run)
    assert build_count() - before == 4
    assert [run.scenario for run in plan] == \
        [study.arm_spec(arm) for arm in study.ARMS]
    assert [dict(run.variant)["arm"] for run in plan] == \
        [arm.name for arm in study.ARMS]
    assert record_bytes(BatchExecutor(), plan) == \
        record_bytes(SerialExecutor(), plan)


def test_default_scenario_untouched_by_new_parameters():
    from repro.scenarios import build, klagenfurt
    sc = build(klagenfurt(), seed=42)
    assert sc.campaign_config.default_gateway == "vienna"
    assert sc.radio_config.generation.value == "5g"


# ---------------------------------------------------------------------------
# Federated learning at the edge
# ---------------------------------------------------------------------------

def test_fl_config_validation():
    with pytest.raises(ValueError):
        FederatedConfig(model_size_bits=0.0)
    with pytest.raises(ValueError):
        FederatedConfig(clients_per_round=0)
    with pytest.raises(ValueError):
        FederatedConfig(protocol_rtts=0)


def test_fl_round_model_validation():
    cfg = FederatedConfig()
    with pytest.raises(ValueError):
        FederatedRoundModel(cfg, cell_uplink_bps=0.0,
                            cell_downlink_bps=1e9, access_rtt_s=1e-3)
    model = FederatedRoundModel(cfg, cell_uplink_bps=1e8,
                                cell_downlink_bps=4e8, access_rtt_s=1e-3)
    with pytest.raises(ValueError):
        model.round_time_s(straggler_factor=0.5)
    with pytest.raises(ValueError):
        model.upload_s(concurrent=0)


def test_fl_upload_scales_with_cohort():
    cfg = FederatedConfig(clients_per_round=16)
    model = FederatedRoundModel(cfg, cell_uplink_bps=units.mbps(100.0),
                                cell_downlink_bps=units.mbps(400.0),
                                access_rtt_s=units.ms(10.0))
    assert model.upload_s(concurrent=16) > model.upload_s(concurrent=4)


def test_fl_6g_shifts_bottleneck_to_compute():
    """On 5G the round is network-bound; on the 6G edge it becomes
    compute-bound — the qualitative claim of the outlook."""
    results = FederatedEdgeStudy().compare()
    assert results["5G + cloud aggregation"]["network_share"] > 0.7
    assert results["6G + edge aggregation"]["network_share"] < 0.2
    assert results["6G + edge aggregation"]["round_time_s"] < \
        results["5G + cloud aggregation"]["round_time_s"] / 4.0


def test_fl_edge_aggregation_helps_most_with_small_models():
    """With tiny updates the per-round RTT overhead dominates, so the
    aggregator's distance matters; with huge models the shared radio
    does."""
    small = FederatedConfig(model_size_bits=0.1 * units.MB,
                            local_compute_s=0.0)
    study = FederatedEdgeStudy(small)
    r = study.compare()
    cloud = r["5G + cloud aggregation"]["round_time_s"]
    edge = r["5G + edge aggregation"]["round_time_s"]
    assert edge < 0.6 * cloud


# ---------------------------------------------------------------------------
# Predictive slicing
# ---------------------------------------------------------------------------

def test_predictive_beats_reactive_on_diurnal_trace():
    study = PredictiveSlicingStudy()
    trace = study.diurnal_demand(units.gbps(6.0))
    breaches = study.run(trace)
    assert breaches["predictive"] <= breaches["reactive"]
    assert breaches["reactive"] > 0      # the lag hurts on ramps


def test_slicing_study_validation():
    with pytest.raises(ValueError):
        PredictiveSlicingStudy(capacity_bps=0.0)
    with pytest.raises(ValueError):
        PredictiveSlicingStudy(safe_utilisation=1.0)
    with pytest.raises(ValueError):
        PredictiveSlicingStudy(headroom=0.9)
    study = PredictiveSlicingStudy()
    with pytest.raises(ValueError):
        study.run([1.0, 2.0])            # too short
    with pytest.raises(ValueError):
        study.run([-1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        study.diurnal_demand(0.0)


def test_flat_demand_never_breaches():
    study = PredictiveSlicingStudy()
    flat = np.full(50, units.gbps(2.0))
    breaches = study.run(flat)
    assert breaches == {"reactive": 0, "predictive": 0}


# ---------------------------------------------------------------------------
# Energy model
# ---------------------------------------------------------------------------

def test_power_model_presets():
    p5, p6 = SitePowerModel.macro_5g(), SitePowerModel.macro_6g()
    assert p6.baseline_w < p5.baseline_w
    assert p6.wakeup_s < p5.wakeup_s
    # full-load draw magnitudes: hundreds of watts to ~kW
    assert 800 < p5.power_w(1.0) < 2000
    assert p6.power_w(1.0) < p5.power_w(1.0)


def test_power_model_validation():
    with pytest.raises(ValueError):
        SitePowerModel(SitePowerModel.macro_5g().generation,
                       baseline_w=100.0, dynamic_w=50.0,
                       sleep_w=200.0, wakeup_s=1.0)
    p = SitePowerModel.macro_5g()
    with pytest.raises(ValueError):
        p.power_w(1.5)


def test_microsleep_reduces_idle_draw():
    p6 = SitePowerModel.macro_6g()
    idle_with_microsleep = p6.power_w(0.02)
    assert idle_with_microsleep < p6.baseline_w
    assert p6.power_w(0.02, asleep=True) == p6.sleep_w


def test_daily_energy_6g_below_5g():
    e5 = EnergyModel(SitePowerModel.macro_5g(), n_sites=6)
    e6 = EnergyModel(SitePowerModel.macro_6g(), n_sites=6)
    assert e6.daily_energy_kwh() < 0.75 * e5.daily_energy_kwh()


def test_sleep_saves_energy_but_costs_latency():
    em = EnergyModel(SitePowerModel.macro_5g(), sleep_threshold=0.08)
    assert em.sleep_saving_fraction() > 0.0
    assert em.first_packet_penalty_s(0.02) == pytest.approx(2.0)
    assert em.first_packet_penalty_s(0.5) == 0.0


def test_energy_model_validation():
    with pytest.raises(ValueError):
        EnergyModel(SitePowerModel.macro_5g(), n_sites=0)
    em = EnergyModel(SitePowerModel.macro_5g())
    with pytest.raises(ValueError):
        em.daily_energy_kwh([])
    with pytest.raises(ValueError):
        em.daily_energy_kwh([1.5])
    with pytest.raises(ValueError):
        em.first_packet_penalty_s(2.0)


def test_diurnal_profile_shape():
    profile = np.asarray(DIURNAL_URBAN_PROFILE)
    assert profile.size == 24
    assert profile.argmax() in range(16, 20)    # evening peak
    assert profile.argmin() in range(2, 6)      # night trough
