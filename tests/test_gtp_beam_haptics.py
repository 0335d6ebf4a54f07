"""Tests for GTP tunnelling and haptic loops."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.apps import HapticConfig, HapticLoop
from repro.cn import GtpTunnel


# ---------------------------------------------------------------------------
# GTP-U tunnelling
# ---------------------------------------------------------------------------

def test_gtp_overhead_bytes():
    assert GtpTunnel().overhead_bytes == 40            # with QFI extension
    assert GtpTunnel(use_extension_header=False).overhead_bytes == 36


def test_gtp_max_payload_and_mss():
    tunnel = GtpTunnel(path_mtu_bytes=1500)
    assert tunnel.max_user_payload_bytes == 1460
    assert tunnel.mss_clamp_bytes() == 1420


def test_gtp_fragmentation_kicks_in_at_mtu():
    tunnel = GtpTunnel(path_mtu_bytes=1500)
    assert tunnel.fragments(1460) == 1
    assert tunnel.fragments(1461) == 2
    assert tunnel.fragments(1500) == 2     # the classic full-size case
    with pytest.raises(ValueError):
        tunnel.fragments(0)


def test_gtp_goodput_small_packets_suffer_most():
    tunnel = GtpTunnel()
    iot = tunnel.goodput_efficiency(64)          # tiny sensor reading
    bulk = tunnel.goodput_efficiency(1400)
    assert iot < 0.7 < bulk
    assert tunnel.effective_goodput_bps(units.gbps(1.0), 1400) == \
        pytest.approx(units.gbps(1.0) * bulk)
    with pytest.raises(ValueError):
        tunnel.effective_goodput_bps(0.0, 100)


def test_gtp_mtu_validation():
    with pytest.raises(ValueError):
        GtpTunnel(path_mtu_bytes=500)


@given(st.integers(min_value=1, max_value=9000))
def test_gtp_wire_bytes_exceed_user_bytes(size):
    tunnel = GtpTunnel()
    assert tunnel.wire_bytes(size) > size
    assert 0.0 < tunnel.goodput_efficiency(size) < 1.0


# ---------------------------------------------------------------------------
# Haptic loops
# ---------------------------------------------------------------------------

def test_haptic_stiffness_falls_with_delay():
    loop = HapticLoop(HapticConfig())
    k = [loop.max_stable_stiffness_n_m(rtt)
         for rtt in (0.0, 1e-3, 5e-3, 20e-3)]
    assert all(a > b for a, b in zip(k, k[1:]))


def test_haptic_surgery_needs_5ms_class_rtt():
    """The paper's remote-surgery budget emerges from the stability
    bound: the required stiffness survives a ~5 ms RTT but not the
    measured 61+ ms."""
    loop = HapticLoop(HapticConfig())
    assert loop.stable(units.ms(5.0))
    assert not loop.stable(units.ms(61.0))
    tolerable = loop.max_tolerable_rtt_s()
    assert units.ms(3.0) < tolerable < units.ms(40.0)
    # Consistency: just inside is stable, just outside is not.
    assert loop.stable(tolerable * 0.99)
    assert not loop.stable(tolerable * 1.01)


def test_haptic_update_rate_feasibility():
    loop = HapticLoop(HapticConfig(update_rate_hz=1000.0))
    assert loop.update_rate_feasible(0.5e-3)
    assert not loop.update_rate_feasible(2e-3)


def test_haptic_deadline_misses_on_measured_field():
    loop = HapticLoop(HapticConfig())
    measured = np.random.default_rng(1).uniform(0.061, 0.110, 500)
    assert loop.deadline_miss_fraction(measured) == 1.0
    sixg = np.full(500, 0.3e-3)
    assert loop.deadline_miss_fraction(sixg) == 0.0


def test_haptic_validation():
    with pytest.raises(ValueError):
        HapticConfig(update_rate_hz=0.0)
    with pytest.raises(ValueError):
        HapticConfig(damping_ns_m=0.0)
    loop = HapticLoop(HapticConfig())
    with pytest.raises(ValueError):
        loop.max_stable_stiffness_n_m(-1.0)
    with pytest.raises(ValueError):
        loop.deadline_miss_fraction(np.array([]))


def test_haptic_tolerable_rtt_never_negative():
    demanding = HapticConfig(required_stiffness_n_m=1e6)
    assert HapticLoop(demanding).max_tolerable_rtt_s() == 0.0
