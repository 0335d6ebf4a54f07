"""Section III — the application requirements analysis.

Paper claims reproduced:

* AR needs motion-to-photon below 20 ms; 60 FPS video implies a
  16.6 ms frame interval;
* 6G targets: 100 us air latency (10x below 5G's 1 ms), 1 Tbps,
  ~10^6 devices/km^2;
* the portfolio verdict: 5G fails remote surgery and massive IoT;
  6G satisfies the full portfolio.

Timed work: judging the whole application portfolio against both
generations.
"""

import pytest

from repro import units
from repro.apps import VideoStreamConfig, all_profiles, ar_gaming
from repro.core import (
    FIVE_G_CAPABILITY,
    SIX_G_CAPABILITY,
    RequirementsAnalysis,
)


def test_requirements_portfolio(benchmark):
    def judge_portfolio():
        profiles = all_profiles()
        return {
            "5G": RequirementsAnalysis(FIVE_G_CAPABILITY).judge_all(
                profiles),
            "6G": RequirementsAnalysis(SIX_G_CAPABILITY).judge_all(
                profiles),
        }

    verdicts = benchmark(judge_portfolio)

    failed_5g = {v.application for v in verdicts["5G"] if not v.satisfied}
    failed_6g = {v.application for v in verdicts["6G"] if not v.satisfied}
    assert "remote-surgery" in failed_5g
    assert "massive-iot" in failed_5g
    assert failed_6g == set()

    print(f"\n5G fails: {sorted(failed_5g)}; 6G fails: none")


def test_frame_interval_16_6ms():
    assert VideoStreamConfig(fps=60.0).frame_interval_s == pytest.approx(
        units.ms(16.6), rel=0.01)


def test_6g_capability_targets():
    assert SIX_G_CAPABILITY.air_latency_s == pytest.approx(units.us(100.0))
    assert FIVE_G_CAPABILITY.air_latency_s / \
        SIX_G_CAPABILITY.air_latency_s == pytest.approx(10.0)
    assert SIX_G_CAPABILITY.peak_rate_bps == pytest.approx(units.tbps(1.0))
    assert SIX_G_CAPABILITY.device_density_per_km2 / \
        FIVE_G_CAPABILITY.device_density_per_km2 == pytest.approx(10.0)


def test_ar_budget_is_20ms():
    assert ar_gaming().rtt_budget_s == pytest.approx(units.ms(20.0))
