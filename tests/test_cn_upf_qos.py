"""Tests for the UPF pipeline and the QoS machinery."""

import pytest

from repro import units
from repro.cn import (
    FIVE_QI,
    ContextAwareRuleEngine,
    QosClass,
    QosFlow,
    SiteTier,
    UserPlaneFunction,
)
from repro.geo import KLAGENFURT, VIENNA
from repro.sim import RngRegistry


@pytest.fixture
def upf():
    return UserPlaneFunction(name="upf-vie", location=VIENNA,
                             tier=SiteTier.REGIONAL_CORE, load=0.3)


# ---------------------------------------------------------------------------
# UserPlaneFunction
# ---------------------------------------------------------------------------

def test_upf_lookup_scales_with_rules(upf):
    small = upf.with_rules(100)
    big = upf.with_rules(100_000)
    assert big.lookup_s() > small.lookup_s()
    assert big.lookup_s(cached=True) == small.lookup_s(cached=True)


def test_upf_mean_latency_magnitude(upf):
    # host-path UPF: tens of microseconds per packet
    assert 5e-6 < upf.mean_latency_s() < 200e-6


def test_upf_load_increases_latency(upf):
    assert upf.with_load(0.9).mean_latency_s() > upf.mean_latency_s()


def test_upf_sampled_latency_reproducible(upf):
    s1 = upf.sample_latency_s(RngRegistry(1).stream("u"))
    s2 = upf.sample_latency_s(RngRegistry(1).stream("u"))
    assert s1 == s2
    assert s1 >= upf.service_time_s()


def test_upf_relocation_preserves_params(upf):
    edge = upf.at_site(KLAGENFURT, SiteTier.EDGE)
    assert edge.tier is SiteTier.EDGE
    assert edge.location == KLAGENFURT
    assert edge.pipeline_s == upf.pipeline_s
    assert edge.name != upf.name
    # original untouched (immutability)
    assert upf.tier is SiteTier.REGIONAL_CORE


def test_upf_validation():
    with pytest.raises(ValueError):
        UserPlaneFunction(name="", location=VIENNA)
    with pytest.raises(ValueError):
        UserPlaneFunction(name="x", location=VIENNA, load=1.0)
    with pytest.raises(ValueError):
        UserPlaneFunction(name="x", location=VIENNA, throughput_bps=0.0)
    with pytest.raises(ValueError):
        UserPlaneFunction(name="x", location=VIENNA, rule_count=-1)


# ---------------------------------------------------------------------------
# 5QI table and flows
# ---------------------------------------------------------------------------

def test_five_qi_budgets():
    assert FIVE_QI[80].packet_delay_budget_s == pytest.approx(
        units.ms(10.0))   # low-latency eMBB (AR)
    assert FIVE_QI[85].packet_delay_budget_s == pytest.approx(
        units.ms(5.0))    # remote surgery
    assert FIVE_QI[9].packet_delay_budget_s > FIVE_QI[3].packet_delay_budget_s


def test_qos_class_validation():
    with pytest.raises(ValueError):
        QosClass(0, "GBR", 1, 0.1, 1e-2, "bad")
    with pytest.raises(ValueError):
        QosClass(1, "GBR", 1, -0.1, 1e-2, "bad")
    with pytest.raises(ValueError):
        QosClass(1, "GBR", 1, 0.1, 0.0, "bad")


def test_qos_flow_binding():
    flow = QosFlow("f1", "ue1", 80)
    assert flow.qos.priority == 68
    with pytest.raises(KeyError):
        QosFlow("f2", "ue1", 999)
    with pytest.raises(ValueError):
        QosFlow("", "ue1", 80)


# ---------------------------------------------------------------------------
# Context-aware rule engine (Sec. V-C, [32])
# ---------------------------------------------------------------------------

def test_cache_hit_is_faster_than_miss(upf):
    engine = ContextAwareRuleEngine(upf, capacity=4)
    flow = QosFlow("f1", "ue1", 80)
    miss = engine.lookup(flow)
    hit = engine.lookup(flow)
    assert hit < miss
    assert engine.hits == 1 and engine.misses == 1


def test_cache_respects_capacity(upf):
    engine = ContextAwareRuleEngine(upf, capacity=2)
    for i in range(5):
        engine.lookup(QosFlow(f"f{i}", "ue1", 9))
    assert engine.occupancy == 2


def test_high_priority_flow_not_evicted_by_bulk(upf):
    engine = ContextAwareRuleEngine(upf, capacity=2)
    surgery = QosFlow("surgery", "ue1", 85)    # priority 21
    engine.lookup(surgery)
    # A stream of bulk flows (priority 90) must not evict it...
    for i in range(10):
        engine.lookup(QosFlow(f"bulk{i}", "ue2", 9))
    assert engine.is_cached("surgery")
    # ...but another delay-critical flow may evict a bulk entry.
    engine.lookup(QosFlow("v2x", "ue3", 83))
    assert engine.is_cached("v2x")


def test_update_rule_latency(upf):
    engine = ContextAwareRuleEngine(upf, capacity=4)
    flow = QosFlow("f1", "ue1", 80)
    cold = engine.update_rule(flow)      # not cached: table write
    engine.lookup(flow)
    warm = engine.update_rule(flow)      # cached: in-place
    assert warm < cold


def test_hit_rate_reporting(upf):
    engine = ContextAwareRuleEngine(upf, capacity=4)
    assert engine.hit_rate == 0.0
    flow = QosFlow("f1", "ue1", 80)
    engine.lookup(flow)
    engine.lookup(flow)
    engine.lookup(flow)
    assert engine.hit_rate == pytest.approx(2.0 / 3.0)


def test_engine_validation(upf):
    with pytest.raises(ValueError):
        ContextAwareRuleEngine(upf, capacity=0)
