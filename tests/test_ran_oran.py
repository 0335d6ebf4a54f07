"""Tests for the O-RAN control-plane components."""

import pytest

from repro import units
from repro.geo import KLAGENFURT
from repro.ran import (
    ControlProcedure,
    NearRTRIC,
    RicTier,
    SignallingLeg,
    XApp,
)


def test_xapp_tier_bounds_enforced():
    XApp("mobility-mgmt", RicTier.NEAR_REAL_TIME, processing_s=50e-3)
    with pytest.raises(ValueError):
        # near-rt xApp claiming sub-10ms processing violates its tier
        XApp("too-fast", RicTier.NEAR_REAL_TIME, processing_s=1e-3)
    with pytest.raises(ValueError):
        XApp("too-slow", RicTier.REAL_TIME, processing_s=0.5)
    with pytest.raises(ValueError):
        XApp("", RicTier.NON_REAL_TIME)
    with pytest.raises(ValueError):
        XApp("neg", RicTier.NON_REAL_TIME, processing_s=-1.0)


def test_near_rt_ric_deployment():
    ric = NearRTRIC("ric-kla", KLAGENFURT, e2_latency_s=units.ms(1.0))
    app = XApp("qos-enforcer", RicTier.NEAR_REAL_TIME, processing_s=20e-3)
    ric.deploy(app)
    assert ric.xapp("qos-enforcer") is app
    with pytest.raises(ValueError):   # duplicate
        ric.deploy(app)
    with pytest.raises(ValueError):   # wrong tier
        ric.deploy(XApp("trainer", RicTier.NON_REAL_TIME, processing_s=10.0))
    with pytest.raises(KeyError):
        ric.xapp("missing")


def test_control_procedure_accumulates_legs():
    proc = ControlProcedure("pdu-session-setup")
    proc.add("UE -> gNB (air)", units.ms(5.0)) \
        .add("gNB -> AMF (backhaul)", units.ms(8.0)) \
        .add("AMF processing", units.ms(2.0)) \
        .add("AMF -> gNB (backhaul)", units.ms(8.0)) \
        .add("gNB -> UE (air)", units.ms(5.0))
    assert len(proc) == 5
    assert proc.total_s == pytest.approx(units.ms(28.0))


def test_control_procedure_breakdown_aggregates():
    proc = ControlProcedure("x")
    proc.add("backhaul", 1e-3).add("backhaul", 2e-3).add("air", 5e-3)
    bd = proc.breakdown()
    assert bd["backhaul"] == pytest.approx(3e-3)
    assert bd["air"] == pytest.approx(5e-3)


def test_signalling_leg_validation():
    with pytest.raises(ValueError):
        SignallingLeg("bad", -1e-3)
