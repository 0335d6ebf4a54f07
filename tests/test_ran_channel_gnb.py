"""Tests for the channel model and the gNB layer."""

import numpy as np
import pytest

from repro.geo import GeoPoint
from repro.ran import (
    ChannelModel,
    GNodeB,
    RadioConfig,
    RadioNetwork,
)

CENTRE = GeoPoint(46.62, 14.30)


@pytest.fixture
def channel():
    return ChannelModel(3.5e9, seed=7)


# ---------------------------------------------------------------------------
# ChannelModel
# ---------------------------------------------------------------------------

def test_pathloss_increases_with_distance(channel):
    assert channel.pathloss_db(100.0) < channel.pathloss_db(1000.0)
    assert channel.pathloss_db(1000.0) < channel.pathloss_db(5000.0)


def test_pathloss_close_in_floor(channel):
    assert channel.pathloss_db(1.0) == channel.pathloss_db(10.0)
    with pytest.raises(ValueError):
        channel.pathloss_db(-1.0)


def test_pathloss_increases_with_frequency():
    low = ChannelModel(3.5e9)
    high = ChannelModel(28e9)
    assert high.pathloss_db(500.0) > low.pathloss_db(500.0)


def test_shadowing_is_spatially_consistent(channel):
    spot = GeoPoint(46.6201, 14.3002)
    nearby = GeoPoint(46.62012, 14.30022)  # within the same ~10 m tile
    far = GeoPoint(46.63, 14.32)
    assert channel.shadowing_db(spot) == channel.shadowing_db(spot)
    assert channel.shadowing_db(spot) == channel.shadowing_db(nearby)
    assert channel.shadowing_db(spot) != channel.shadowing_db(far)


def test_sinr_decreases_with_distance_and_load(channel):
    spot = GeoPoint(46.62, 14.30)
    near = channel.sinr_db(200.0, spot)
    far = channel.sinr_db(2000.0, spot)
    assert near > far
    assert channel.sinr_db(200.0, spot, load=0.9) < near
    with pytest.raises(ValueError):
        channel.sinr_db(200.0, spot, load=1.5)


def test_bler_waterfall(channel):
    assert channel.bler(8.0) == pytest.approx(0.1, rel=0.01)  # operating pt
    assert channel.bler(25.0) < 0.001
    assert channel.bler(-10.0) > 0.9
    with pytest.raises(ValueError):
        channel.bler(10.0, target_bler=0.0)


def test_spectral_efficiency_caps(channel):
    assert channel.spectral_efficiency(100.0) == pytest.approx(7.4)
    assert channel.spectral_efficiency(0.0) == pytest.approx(1.0)


def test_achievable_rate_scales_with_share(channel):
    full = channel.achievable_rate_bps(15.0)
    half = channel.achievable_rate_bps(15.0, bandwidth_share=0.5)
    assert half == pytest.approx(full / 2)
    with pytest.raises(ValueError):
        channel.achievable_rate_bps(15.0, bandwidth_share=0.0)


def test_channel_validation():
    with pytest.raises(ValueError):
        ChannelModel(0.0)
    with pytest.raises(ValueError):
        ChannelModel(1e9, bandwidth_hz=-1)
    with pytest.raises(ValueError):
        ChannelModel(1e9, shadowing_sigma_db=-2)


# ---------------------------------------------------------------------------
# GNodeB / RadioNetwork
# ---------------------------------------------------------------------------

def make_network(channel):
    cfg = RadioConfig.nr_5g()
    west = GNodeB("gnb-west", GeoPoint(46.62, 14.28), cfg)
    east = GNodeB("gnb-east", GeoPoint(46.62, 14.32), cfg)
    return RadioNetwork(channel, [west, east])


def test_serving_picks_nearest_site(channel):
    net = make_network(channel)
    gnb, sinr = net.serving(GeoPoint(46.62, 14.281))
    assert gnb.name == "gnb-west"
    gnb, _ = net.serving(GeoPoint(46.62, 14.319))
    assert gnb.name == "gnb-east"


def test_load_aware_serving_can_switch(channel):
    net = make_network(channel)
    midpoint = GeoPoint(46.62, 14.2999)   # slightly west of centre
    gnb, _ = net.serving(midpoint)
    assert gnb.name == "gnb-west"
    net.gnb("gnb-west").load = 0.95
    gnb, _ = net.serving(midpoint)
    assert gnb.name == "gnb-east"
    gnb, _ = net.serving(midpoint, load_aware=False)
    assert gnb.name == "gnb-west"


def test_network_validation(channel):
    net = make_network(channel)
    with pytest.raises(ValueError):
        net.add(GNodeB("gnb-west", CENTRE, RadioConfig.nr_5g()))
    with pytest.raises(KeyError):
        net.gnb("nope")
    with pytest.raises(RuntimeError):
        RadioNetwork(channel).serving(CENTRE)
    with pytest.raises(ValueError):
        GNodeB("x", CENTRE, RadioConfig.nr_5g(), load=1.0)
    with pytest.raises(ValueError):
        GNodeB("", CENTRE, RadioConfig.nr_5g())


def test_air_interface_accessor(channel):
    net = make_network(channel)
    air = net.air_interface("gnb-west")
    assert air.config is net.gnb("gnb-west").config


def test_coverage_sinr(channel):
    net = make_network(channel)
    sinrs = net.coverage_sinr([GeoPoint(46.62, 14.28), GeoPoint(46.62, 14.40)])
    assert sinrs[0] > sinrs[1]


# ---------------------------------------------------------------------------
# batch link budget — the measurement kernel's bitwise contracts
# ---------------------------------------------------------------------------

def memo_size(channel):
    # The memo is guarded_by(_shadow_lock); peek under the lock so the
    # sync watchdog (REPRO_SYNC_ASSERT=1) stays quiet.
    with channel._shadow_lock:
        return len(channel._shadow_cache)


def test_shadowing_memo_caches_per_tile(channel):
    spot = GeoPoint(46.6201, 14.3002)
    assert memo_size(channel) == 0
    first = channel.shadowing_db(spot)
    assert memo_size(channel) == 1
    assert channel.shadowing_db(spot) == first
    assert memo_size(channel) == 1
    channel.shadowing_db(GeoPoint(46.63, 14.32))
    assert memo_size(channel) == 2


def test_shadowing_memo_is_bounded_lru(channel, monkeypatch):
    """The memo evicts least-recently-used tiles at the capacity cap —
    values stay bit-identical (the draw is pure), only re-derivation
    cost returns."""
    monkeypatch.setattr(ChannelModel, "SHADOW_CACHE_CAPACITY", 3)
    spots = [GeoPoint(46.62 + 0.01 * i, 14.30) for i in range(5)]
    values = [channel.shadowing_db(s) for s in spots]
    assert memo_size(channel) == 3

    # Keeping one tile hot makes it survive further insertions...
    assert channel.shadowing_db(spots[4]) == values[4]
    channel.shadowing_db(GeoPoint(46.9, 14.9))
    channel.shadowing_db(GeoPoint(46.91, 14.9))
    assert channel.shadowing_db(spots[4]) == values[4]
    # ...and evicted tiles re-derive to the exact same draw.
    for spot, value in zip(spots, values):
        assert channel.shadowing_db(spot) == value
    assert memo_size(channel) == 3


def test_shadowing_memo_matches_fresh_instance(channel):
    """The memoized draw equals an uncached model's draw."""
    fresh = ChannelModel(3.5e9, seed=7)
    spots = [GeoPoint(46.62 + 0.001 * i, 14.30 + 0.0007 * i)
             for i in range(20)]
    for spot in spots:
        assert channel.shadowing_db(spot) == fresh.shadowing_db(spot)
    batch = channel.shadowing_db_many(spots)
    for value, spot in zip(batch, spots):
        assert value == fresh.shadowing_db(spot)


@pytest.mark.parametrize("capacity", [65536, 7, 3])
def test_shadowing_many_leaves_the_memo_as_per_call_lookups(monkeypatch,
                                                            capacity):
    """One bulk-seeded batch leaves the memo with the tiles, values and
    recency order (evictions included) the per-call loop leaves."""
    monkeypatch.setattr(ChannelModel, "SHADOW_CACHE_CAPACITY", capacity)
    spots = [GeoPoint(46.62 + 0.001 * (i % 9), 14.30 + 0.0007 * (i % 5))
             for i in range(40)]
    warm = spots[3:6] + [GeoPoint(46.7, 14.4)]
    bulk, per_call = ChannelModel(3.5e9, seed=7), ChannelModel(3.5e9, seed=7)
    for model in (bulk, per_call):
        for spot in warm:
            model.shadowing_db(spot)
    batch = bulk.shadowing_db_many(spots)
    looped = [per_call.shadowing_db(spot) for spot in spots]
    assert batch.tolist() == looped
    with bulk._shadow_lock, per_call._shadow_lock:
        assert list(bulk._shadow_cache.items()) \
            == list(per_call._shadow_cache.items())
    # A changed sigma clears the memo in both forms alike.
    bulk.shadowing_sigma_db = per_call.shadowing_sigma_db = 4.0
    assert bulk.shadowing_db_many(spots[:4]).tolist() \
        == [per_call.shadowing_db(spot) for spot in spots[:4]]
    with bulk._shadow_lock, per_call._shadow_lock:
        assert list(bulk._shadow_cache.items()) \
            == list(per_call._shadow_cache.items())


def test_pathloss_many_bitwise_equals_scalar(channel):
    rng = np.random.default_rng(11)
    distances = np.concatenate([
        rng.uniform(0.0, 20e3, 500), [0.0, 5.0, 10.0, 10.0001]])
    batch = channel.pathloss_db_many(distances)
    for d, value in zip(distances, batch):
        assert value == channel.pathloss_db(float(d))
    with pytest.raises(ValueError):
        channel.pathloss_db_many(np.array([-1.0]))


def test_sinr_grid_bitwise_equals_scalar(channel):
    positions = [GeoPoint(46.62 + 0.002 * i, 14.28 + 0.003 * i)
                 for i in range(8)]
    sites = [GeoPoint(46.62, 14.28), GeoPoint(46.62, 14.32),
             GeoPoint(46.64, 14.30)]
    loads = [0.0, 0.4, 0.85]
    distances = np.array([[s.distance_to(p) for p in positions]
                          for s in sites])
    grid = channel.sinr_db_grid(distances, positions, loads)
    assert grid.shape == (3, 8)
    for i, (site, load) in enumerate(zip(sites, loads)):
        for j, pos in enumerate(positions):
            scalar = channel.sinr_db(site.distance_to(pos), pos, load=load)
            assert grid[i, j] == scalar
    with pytest.raises(ValueError):
        channel.sinr_db_grid(distances, positions, [0.0, 1.5, 0.0])


def test_serving_many_bitwise_equals_scalar(channel):
    net = make_network(channel)
    net.gnb("gnb-east").load = 0.5
    rng = np.random.default_rng(3)
    positions = [GeoPoint(46.60 + float(dlat), 14.26 + float(dlon))
                 for dlat, dlon in zip(rng.uniform(0, 0.04, 40),
                                       rng.uniform(0, 0.08, 40))]
    for load_aware in (True, False):
        batch = net.serving_many(positions, load_aware=load_aware)
        for pos, (gnb, sinr) in zip(positions, batch):
            want_gnb, want_sinr = net.serving(pos, load_aware=load_aware)
            assert gnb is want_gnb
            assert sinr == want_sinr


def test_serving_many_edge_cases(channel):
    net = make_network(channel)
    assert net.serving_many([]) == []
    with pytest.raises(RuntimeError):
        RadioNetwork(channel).serving_many([CENTRE])
