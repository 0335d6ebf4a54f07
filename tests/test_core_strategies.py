"""Tests for the Section V remedies: peering, UPF, CPF."""

import numpy as np
import pytest

from repro import units
from repro.core import (
    CpfEnhancementStudy,
    DynamicUpfSelector,
    FIVE_G_CAPABILITY,
    LocalPeeringExperiment,
    QosCacheStudy,
    RequirementsAnalysis,
    SIX_G_CAPABILITY,
    UpfPlacementStudy,
    render_comparison_table,
)
from repro.scenarios import build, klagenfurt
from repro.apps import all_profiles
from repro.sim import RngRegistry


# ---------------------------------------------------------------------------
# Requirements analysis (Section III)
# ---------------------------------------------------------------------------

def test_5g_fails_latency_critical_apps():
    analysis = RequirementsAnalysis(FIVE_G_CAPABILITY)
    failed = {v.application for v in analysis.unsatisfied(all_profiles())}
    assert "remote-surgery" in failed       # 5 ms budget vs 5 ms edge RTT
    assert "massive-iot" in failed          # 10^6 devices/km2 vs 10^5


def test_6g_satisfies_all_profiles():
    analysis = RequirementsAnalysis(SIX_G_CAPABILITY)
    assert analysis.unsatisfied(all_profiles()) == []


def test_headroom_monotone_between_generations():
    for profile in all_profiles():
        v5 = RequirementsAnalysis(FIVE_G_CAPABILITY).judge(profile)
        v6 = RequirementsAnalysis(SIX_G_CAPABILITY).judge(profile)
        assert v6.latency_headroom > v5.latency_headroom


def test_judge_all_validation():
    with pytest.raises(ValueError):
        RequirementsAnalysis(FIVE_G_CAPABILITY).judge_all([])


# ---------------------------------------------------------------------------
# Local peering (Section V-A)
# ---------------------------------------------------------------------------

@pytest.fixture
def fresh_scenario():
    return build(klagenfurt(), seed=42)


def test_peering_eliminates_detour(fresh_scenario):
    outcome = LocalPeeringExperiment(fresh_scenario).run()
    assert outcome.detour_eliminated
    assert outcome.after_path_km < 20.0
    assert outcome.before_path_km > 2000.0


def test_peering_reaches_1ms(fresh_scenario):
    """Paper (Horvath [3]): local peering can reach ~1 ms RTT."""
    outcome = LocalPeeringExperiment(fresh_scenario).run()
    assert outcome.after_rtt_s < units.ms(1.5)


def test_peering_shortens_as_path(fresh_scenario):
    outcome = LocalPeeringExperiment(fresh_scenario).run()
    assert len(outcome.before_as_path) == 6
    assert len(outcome.after_as_path) == 2
    assert outcome.after_hops < outcome.before_hops


def test_peering_cannot_apply_twice(fresh_scenario):
    exp = LocalPeeringExperiment(fresh_scenario)
    exp.apply()
    with pytest.raises(RuntimeError):
        exp.apply()


# ---------------------------------------------------------------------------
# UPF integration (Section V-B)
# ---------------------------------------------------------------------------

def test_edge_upf_hits_5_to_6_2ms_band():
    """Paper: 'UPF integration can achieve latencies between 5 and
    6.2 ms'."""
    rtts = UpfPlacementStudy().compare()
    assert units.ms(5.0) <= rtts["edge"] <= units.ms(6.2)


def test_upf_tier_ordering():
    rtts = UpfPlacementStudy().compare()
    assert rtts["edge"] < rtts["regional-core"] < rtts["central-cloud"]


def test_upf_reduction_up_to_90_percent():
    """Paper: 'a reduction of up to 90% compared to our evaluation
    results exceeding 62 ms'."""
    study = UpfPlacementStudy()
    assert study.reduction_vs_measured(units.ms(62.0)) >= 0.90
    with pytest.raises(ValueError):
        study.reduction_vs_measured(0.0)


def test_upf_sampled_matches_mean():
    study = UpfPlacementStudy()
    edge = study.deployments()[0]
    rng = RngRegistry(5).stream("upf")
    samples = [study.sample_rtt_s(edge, rng) for _ in range(3000)]
    assert np.mean(samples) == pytest.approx(study.mean_rtt_s(edge),
                                             rel=0.05)


def test_dynamic_selector_prioritises_latency_critical():
    study = UpfPlacementStudy()
    selector = DynamicUpfSelector(study, edge_capacity_flows=2)
    # Bulk flow (loose budget) -> cloud, preserving edge capacity.
    assert selector.select(delay_budget_s=0.5).name == "central-cloud"
    # AR-grade flows -> edge, until capacity runs out.
    assert selector.select(delay_budget_s=0.010).name == "edge"
    assert selector.select(delay_budget_s=0.010).name == "edge"
    assert selector.select(delay_budget_s=0.010).name == "central-cloud"
    selector.release()
    assert selector.select(delay_budget_s=0.010).name == "edge"


def test_dynamic_selector_validation():
    study = UpfPlacementStudy()
    with pytest.raises(ValueError):
        DynamicUpfSelector(study, edge_capacity_flows=-1)
    selector = DynamicUpfSelector(study)
    with pytest.raises(ValueError):
        selector.select(0.0)
    with pytest.raises(RuntimeError):
        selector.release()


# ---------------------------------------------------------------------------
# CPF enhancement (Section V-C)
# ---------------------------------------------------------------------------

def test_ric_consolidation_never_hurts_and_improves_data_path():
    """The hybrid deployment improves PDU setup and service request;
    registration is a wash (the AMF moves closer to the gNB but farther
    from the still-central UDM/AUSF, two backhaul round trips either
    way), which is exactly the paper's argument for a hybrid rather
    than fully decentralised control plane."""
    study = CpfEnhancementStudy()
    for comparison in study.compare_all():
        assert comparison.ric_consolidated_s <= \
            comparison.centralised_s + 1e-12
        assert comparison.improvement_fraction < 1.0
    assert study.compare_pdu_session().improvement_s > 0.0
    assert study.compare_service_request().improvement_s > 0.0


def test_pdu_session_improvement_magnitude():
    study = CpfEnhancementStudy()
    comparison = study.compare_pdu_session()
    # Both gNB<->AMF legs plus the N4 leg shed the Vienna round trips.
    assert comparison.improvement_s > units.ms(4.0)


def test_registration_keeps_subscriber_data_central():
    """Hybrid deployment: UDM/AUSF stay in Vienna, so registration
    improves less (relatively) than the service request."""
    study = CpfEnhancementStudy()
    registration = study.compare_registration()
    service = study.compare_service_request()
    assert service.improvement_fraction > registration.improvement_fraction


def test_qos_cache_reduces_lookup_latency():
    """Paper ([32]): context-aware rules reduce lookup and update
    latencies."""
    result = QosCacheStudy().run()
    assert result["context_aware_s"] < result["linear_scan_s"]
    assert result["hit_rate"] > 0.5


def test_qos_cache_validation():
    with pytest.raises(ValueError):
        QosCacheStudy().run(critical_flows=0)


def test_comparison_table_renders():
    table = render_comparison_table(
        ["arm", "rtt_ms"], [["edge", 5.2], ["core", 62.0]], title="UPF")
    assert "UPF" in table and "edge" in table and "62.00" in table
    with pytest.raises(ValueError):
        render_comparison_table([], [])
    with pytest.raises(ValueError):
        render_comparison_table(["a"], [["x", "y"]])
