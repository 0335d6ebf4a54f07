"""Tests for the application workload models."""

import numpy as np
import pytest

from repro import units
from repro.apps import (
    AR_RTT_BUDGET_S,
    ARGameSession,
    ApplicationProfile,
    FactoryLine,
    FrameCycleAnalysis,
    Service,
    ServiceChain,
    SmartCityDeployment,
    VideoStreamConfig,
    all_profiles,
    ar_gaming,
    ar_service_chain,
    autonomous_vehicle,
    remote_surgery,
    smart_factory,
)
from repro.sim import RngRegistry


# ---------------------------------------------------------------------------
# Service chains
# ---------------------------------------------------------------------------

def test_service_validation():
    with pytest.raises(ValueError):
        Service("", 1e-3)
    with pytest.raises(ValueError):
        Service("x", -1.0)
    with pytest.raises(ValueError):
        Service("x", 1e-3, request_bits=0.0)


def test_chain_end_to_end_composition():
    chain = ServiceChain("c", [Service("a", 1e-3), Service("b", 2e-3)])
    total = chain.end_to_end_s([10e-3, 20e-3])
    assert total == pytest.approx(33e-3)
    assert chain.processing_total_s() == pytest.approx(3e-3)


def test_chain_validation():
    with pytest.raises(ValueError):
        ServiceChain("c", [])
    with pytest.raises(ValueError):
        ServiceChain("c", [Service("a", 1e-3), Service("a", 1e-3)])
    chain = ServiceChain("c", [Service("a", 1e-3)])
    with pytest.raises(ValueError):
        chain.end_to_end_s([1e-3, 2e-3])
    with pytest.raises(ValueError):
        chain.end_to_end_s([-1e-3])


def test_ar_chain_has_three_services():
    chain = ar_service_chain()
    assert len(chain) == 3
    names = [s.name for s in chain.services]
    assert names == ["remote-controller", "trajectory", "video-streaming"]


# ---------------------------------------------------------------------------
# ApplicationProfile
# ---------------------------------------------------------------------------

def test_profile_exceedance_matches_paper():
    """74 ms measured against the 20 ms AR budget -> 270 %."""
    profile = ar_gaming()
    assert profile.exceedance_percent(units.ms(74.0)) == pytest.approx(270.0)


def test_profile_deadline_miss_fraction():
    profile = ar_gaming()
    samples = np.array([0.010, 0.015, 0.025, 0.030])
    assert profile.deadline_miss_fraction(samples) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        profile.deadline_miss_fraction(np.array([]))


def test_profile_validation():
    with pytest.raises(ValueError):
        ApplicationProfile("x", rtt_budget_s=0.0, bandwidth_bps=1.0)
    with pytest.raises(ValueError):
        ApplicationProfile("", rtt_budget_s=1.0, bandwidth_bps=1.0)
    with pytest.raises(ValueError):
        ar_gaming().exceedance_percent(-1.0)


def test_paper_profile_magnitudes():
    av = autonomous_vehicle()
    assert av.daily_volume_bits == pytest.approx(4 * units.TB)
    assert remote_surgery().rtt_budget_s == pytest.approx(units.ms(5.0))
    assert smart_factory().daily_volume_bits == pytest.approx(5 * units.TB)
    assert ar_gaming().rtt_budget_s == pytest.approx(AR_RTT_BUDGET_S)
    assert len(all_profiles()) == 6


# ---------------------------------------------------------------------------
# Video / frame cycle
# ---------------------------------------------------------------------------

def test_frame_interval_at_60fps():
    cfg = VideoStreamConfig(fps=60.0)
    assert cfg.frame_interval_s == pytest.approx(units.ms(16.6), rel=0.01)


def test_video_validation():
    with pytest.raises(ValueError):
        VideoStreamConfig(fps=0.0)
    with pytest.raises(ValueError):
        VideoStreamConfig(bitrate_bps=0.0)
    with pytest.raises(ValueError):
        FrameCycleAnalysis(VideoStreamConfig(), budget_s=0.0)


def test_late_fraction_and_freezes():
    analysis = FrameCycleAnalysis(VideoStreamConfig(codec_latency_s=5e-3),
                                  budget_s=units.ms(20.0), freeze_frames=2)
    # latency = rtt + 5ms; late when rtt > 15ms
    rtts = np.array([0.010, 0.016, 0.017, 0.010, 0.016, 0.010])
    assert analysis.late_fraction(rtts) == pytest.approx(3 / 6)
    assert analysis.freeze_events(rtts) == 1  # one burst of two


def test_sustainable_fps():
    analysis = FrameCycleAnalysis(VideoStreamConfig(codec_latency_s=5e-3),
                                  budget_s=units.ms(20.0))
    assert analysis.sustainable_fps(0.005) == pytest.approx(100.0)
    assert analysis.sustainable_fps(0.050) == 0.0
    with pytest.raises(ValueError):
        analysis.sustainable_fps(-1.0)


# ---------------------------------------------------------------------------
# AR game session
# ---------------------------------------------------------------------------

def test_game_unplayable_on_measured_5g():
    """The paper's point: 61-110 ms RTL makes the 20 ms game impossible."""
    session = ARGameSession()
    measured = np.random.default_rng(1).uniform(0.061, 0.110, 200)
    assert not session.playable(measured)
    stats = session.play_round(measured, RngRegistry(2).stream("game"))
    assert stats.late_fraction == 1.0
    assert stats.unfair_hits > 0


def test_game_playable_on_edge_network():
    session = ARGameSession()
    # 3 ms RTTs: pipeline latency = 3 RTTs + 8 ms processing < 20 ms
    fast = np.full(100, 0.003)
    assert session.playable(fast)
    stats = session.play_round(fast, RngRegistry(3).stream("game"))
    assert stats.late_fraction == 0.0
    assert stats.unfair_hits == 0


def test_game_event_latency_composition():
    session = ARGameSession()
    # processing total = 1 + 3 + 4 ms = 8 ms
    assert session.event_latency_s(0.0, 0.0, 0.0) == pytest.approx(8e-3)
    assert session.event_latency_s(1e-3, 1e-3, 1e-3) == pytest.approx(11e-3)


def test_game_validation():
    with pytest.raises(ValueError):
        ARGameSession(budget_s=0.0)
    with pytest.raises(ValueError):
        ARGameSession(hit_probability=1.5)
    session = ARGameSession()
    with pytest.raises(ValueError):
        session.play_round(np.array([]), RngRegistry(1).stream("g"))
    with pytest.raises(ValueError):
        session.play_round(np.array([0.01]), RngRegistry(1).stream("g"),
                           throws=0)


# ---------------------------------------------------------------------------
# Domain workloads
# ---------------------------------------------------------------------------

def test_smart_city_aggregate():
    city = SmartCityDeployment()
    assert city.intersections == 50_000
    assert city.aggregate_bps == pytest.approx(units.gbps(200.0))
    assert city.fits_in(units.tbps(1.0))          # 6G capacity
    assert not city.fits_in(units.gbps(20.0))     # 5G peak
    with pytest.raises(ValueError):
        city.fits_in(0.0)


def test_factory_line_rates():
    line = FactoryLine()
    # 5 TB/day sustained
    assert line.mean_rate_bps == pytest.approx(5 * units.TB / units.DAY)
    assert line.per_sensor_bps == pytest.approx(
        line.mean_rate_bps / line.sensors)
    with pytest.raises(ValueError):
        FactoryLine(sensors=0)


def test_vehicle_daily_volume_is_4tb():
    av = autonomous_vehicle()
    assert units.to_tb(av.daily_volume_bits) == pytest.approx(4.0)
